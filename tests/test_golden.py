"""Frozen SHA-256 digests of the CLI's artifacts for seeds 0 and 1.

Each seed runs ``make-synthetic -> train -> predict --map-out`` on the
default 100x100 scene through ``cli.main``. A refactor of the numerics must
leave every digest unchanged; a change that alters an output on purpose
regenerates the fixture, at one BLAS thread, and says why in CHANGES.md:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py > tests/fixtures/golden.json
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from litterscan.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "golden.json")
SEEDS = (0, 1)


def artifact_digests(workdir: str, seed: int) -> dict[str, str]:
    """Run the pipeline for one seed in ``workdir``; {artifact: sha256}."""
    def p(name):
        return os.path.join(workdir, name)

    steps = (
        ["make-synthetic", "--out-cube", p("scene.cube.json"),
         "--out-mask", p("truth.pgm"), "--seed", str(seed)],
        ["train", "--cube", p("scene.cube.json"), "--mask", p("truth.pgm"),
         "--out", p("model.json"), "--seed", str(seed)],
        ["predict", "--model", p("model.json"), "--cube", p("scene.cube.json"),
         "--out", p("pred.pgm"), "--map-out", p("scores.f32")],
    )
    for argv in steps:
        assert main(argv) == 0, argv
    files = {"cube": "scene.cube.f32", "mask": "truth.pgm", "model": "model.json",
             "report": "model.json.report.json", "pred": "pred.pgm",
             "scores": "scores.f32"}
    out = {}
    for key, name in files.items():
        with open(p(name), "rb") as f:
            out[key] = hashlib.sha256(f.read()).hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_artifacts_match_golden_digests(tmp_path, seed):
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)[str(seed)]
    assert artifact_digests(str(tmp_path), seed) == want


if __name__ == "__main__":
    doc = {}
    for s in SEEDS:
        with tempfile.TemporaryDirectory() as d:
            doc[str(s)] = artifact_digests(d, s)
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
