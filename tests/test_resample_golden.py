"""Frozen SHA-256 digests of `resample`'s bytes.

Two seeded coastline stacks go through ``import -> resample`` in
``cli.main``: all 13 bands on a 72² 10 m grid, and the nine 20 m and 60 m
bands on an odd 27² 20 m grid (scales 1 and 3). Stacks are square by
definition, so `resample_band` is pinned on its own on a 10x7 grid at
every scale, which tells the row pass from the column pass. A change to the
Lanczos3 numerics or to the cube container must leave every digest
unchanged; a change that alters the bytes on purpose regenerates the
fixture and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_resample_golden.py > tests/fixtures/resample_golden.json
"""

import hashlib
import json
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from conftest import write_coast_pgms
from litterscan.bands import CANONICAL_ORDER, canonical_spec
from litterscan.cli import main
from litterscan.resample import SUPPORTED_SCALES, resample_band

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "resample_golden.json")
COARSE_IDS = tuple(b for b in CANONICAL_ORDER if canonical_spec(b).native_gsd_m > 10)
# name -> (finest grid size, band ids, seed)
STACKS = {"mixed-72": (72, CANONICAL_ORDER, 11), "coarse-27": (27, COARSE_IDS, 12)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def resample_digests(workdir: pathlib.Path, name: str) -> dict[str, str]:
    """{artifact: sha256} of `import -> resample` on one stack in `workdir`."""
    size, band_ids, seed = STACKS[name]
    args = write_coast_pgms(workdir, size, band_ids, seed)
    assert main(["import", *args, "--out", str(workdir / "stack.json")]) == 0
    assert main(["resample", "--manifest", str(workdir / "stack.json"),
                 "--out", str(workdir / "cube.json")]) == 0
    return {f: sha256((workdir / f).read_bytes()) for f in ("cube.f32", "cube.json")}


def band_digests() -> dict[str, str]:
    img = np.random.default_rng(13).integers(0, 4096, (10, 7)).astype(np.uint16)
    return {f"scale-{s}": sha256(resample_band(img, s).astype("<f8").tobytes())
            for s in SUPPORTED_SCALES}


def all_digests(workdir: pathlib.Path) -> dict:
    doc = {}
    for name in STACKS:
        (workdir / name).mkdir()
        doc[name] = resample_digests(workdir / name, name)
    doc["band-10x7"] = band_digests()
    return doc


@pytest.mark.parametrize("name", sorted(STACKS))
def test_resample_artifacts_match_golden_digests(tmp_path, name):
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)[name]
    assert resample_digests(tmp_path, name) == want


def test_resample_band_matches_golden_digests():
    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)["band-10x7"]
    assert band_digests() == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        json.dump(all_digests(pathlib.Path(d)), sys.stdout, indent=2)
    sys.stdout.write("\n")
