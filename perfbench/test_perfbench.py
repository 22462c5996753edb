"""Tests of the benchmark itself, at tiny sizes: every workload runs clean,
the traced run reports every per-layer metric with repeatable counts, and
each output check rejects a deliberately corrupted artifact."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run

HERE = Path(__file__).resolve().parent
TINY = {"scene-train": 20, "tile-predict": 48, "stack-align": 36}
SEED = 5


@pytest.fixture(scope="module")
def clean_runs(tmp_path_factory):
    """One checked run per workload; its last pass's outputs stay on disk."""
    out = {}
    for name, size in TINY.items():
        work = tmp_path_factory.mktemp(name)
        out[name] = (work, run.run(name, SEED, 0.0, False, work, size=size, min_passes=1))
    return out


def workload_copy(clean_runs, name, tmp_path) -> run.Workload:
    work = tmp_path / "work"
    shutil.copytree(clean_runs[name][0], work)
    return run.WORKLOADS[name](work, SEED, TINY[name])


def rewrite_pgm(path: str, edit) -> None:
    px = checks.read_pgm(path).copy()
    edit(px)
    inputs.write_pgm(path, px)


def rewrite_f32(path: str, edit) -> None:
    data = np.fromfile(path, dtype="<f4")
    edit(data)
    data.tofile(path)


def rewrite_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean(clean_runs, name):
    result = clean_runs[name][1]
    assert result["correct"] is True
    steps = len(run.WORKLOADS[name](Path("."), SEED).steps())
    assert result["attempted"] % steps == 0
    # the one known fault: index --method b8b9 on the coastline stack
    assert result["failed"] == (result["attempted"] // steps if name == "stack-align" else 0)
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric_with_repeatable_counts(tmp_path, name):
    results = [run.run(name, SEED, 0.0, True, tmp_path / str(k), size=TINY[name],
                       min_passes=1) for k in range(2)]
    units = dict(run.per_layer_metrics())
    for r in results:
        assert r["correct"] is True
        assert {n: m["unit"] for n, m in r["metrics"].items()} == units
    counts = [{n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
              for r in results]
    assert counts[0] == counts[1]
    if name == "scene-train":
        assert counts[0]["mlp.train_iterations"] > 0
        assert counts[0]["mlp.loss_calls"] > counts[0]["mlp.train_iterations"]
    if name == "stack-align":
        assert counts[0]["resample.kernel_calls"] > 0


def test_benchmark_json_matches_runner():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "scene-train",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


# ---------------------------------------------------------------------------
# each check must be able to fail


def far_from_threshold(scores_path: str) -> tuple[int, int]:
    scores = checks.read_float_raster(scores_path)
    return np.unravel_index(np.argmax(np.abs(scores - 0.5)), scores.shape)


def flip_mask_pixel(wl):
    rc = far_from_threshold(wl.o("scores.f32"))
    rewrite_pgm(wl.o("pred.pgm"), lambda px: px.__setitem__(rc, 255 - px[rc]))


def perturb_score(wl):
    rewrite_f32(wl.o("scores.f32"), lambda v: v.__setitem__(7, v[7] + 1e-4))


def bump_eval_count(wl):
    def edit(doc):
        doc["counts"]["tp"] += 1
        doc["counts"]["fn"] -= 1
    rewrite_json(wl.o("eval.json"), edit)


def raise_train_loss(wl):
    rewrite_json(wl.o("model.json.report.json"),
                 lambda doc: doc["training"]["loss_history"][3].__setitem__(1, 1.0))


def shift_final_val_loss(wl):
    def edit(doc):
        doc["training"]["final_val_loss"] *= 1.5
    rewrite_json(wl.o("model.json.report.json"), edit)


def move_split_sample(wl):
    def edit(doc):
        doc["split"]["train"] -= 1
        doc["split"]["test"] += 1
    rewrite_json(wl.o("model.json.report.json"), edit)


def wrong_fdi_value(wl):
    rewrite_f32(wl.o("fdi.f32"), lambda v: v.__setitem__(11, v[11] + 0.5))


def flip_fdi_mask_pixel(wl):
    rewrite_pgm(wl.o("fdi.pgm"), lambda px: px.__setitem__((1, 2), 255 - px[1, 2]))


def flip_combined_mask_pixel(wl):
    rewrite_pgm(wl.o("combined.pgm"), lambda px: px.__setitem__((3, 1), 255 - px[3, 1]))


def cube_plane_edit(band: str, edit):
    def corrupt(wl):
        cube = np.memmap(wl.o("cube.f32"), dtype="<f4", mode="r+",
                         shape=(wl.size, wl.size, len(checks.BAND)))
        edit(cube[:, :, checks.BAND[band]])
        cube.flush()
    corrupt.__name__ = f"edit_{band}"
    return corrupt


CORRUPTIONS = [
    ("scene-train", flip_mask_pixel, "prediction mask"),
    ("scene-train", perturb_score, "scores"),
    ("scene-train", bump_eval_count, "eval counts"),
    ("scene-train", raise_train_loss, "train loss rises"),
    ("scene-train", shift_final_val_loss, "final_val_loss"),
    ("scene-train", move_split_sample, "split sizes"),
    ("tile-predict", flip_mask_pixel, "prediction mask"),
    ("tile-predict", perturb_score, "scores"),
    ("tile-predict", bump_eval_count, "eval counts"),
    ("tile-predict", wrong_fdi_value, "fdi: 1 pixel"),
    ("tile-predict", flip_fdi_mask_pixel, "fdi mask"),
    ("tile-predict", flip_combined_mask_pixel, "combined mask"),
    ("stack-align", wrong_fdi_value, "fdi: 1 pixel"),
    ("stack-align", flip_fdi_mask_pixel, "fdi mask"),
    ("stack-align", flip_combined_mask_pixel, "combined mask"),
    ("stack-align", cube_plane_edit("B8", lambda p: p.__setitem__((0, 0), p[0, 0] + 1)),
     "B8: 10 m band changed"),
    ("stack-align", cube_plane_edit("B5", lambda p: p.__iadd__(0.5)), "B5: Lanczos3 sample"),
    ("stack-align", cube_plane_edit("B10", lambda p: p.__setitem__((5, 5), p[5, 5] + 1)),
     "B10: constant band"),
]


@pytest.mark.parametrize("name,corrupt,message", CORRUPTIONS,
                         ids=[f"{n}-{c.__name__}" for n, c, _ in CORRUPTIONS])
def test_check_rejects_corrupted_output(clean_runs, tmp_path, name, corrupt, message):
    wl = workload_copy(clean_runs, name, tmp_path)
    wl.check(set())  # the copy is clean
    corrupt(wl)
    with pytest.raises(checks.CheckError, match=message):
        wl.check(set())


def test_confusion_check_rejects_low_accuracy(clean_runs, tmp_path):
    wl = workload_copy(clean_runs, "tile-predict", tmp_path)
    rewrite_pgm(wl.o("pred.pgm"), lambda px: px.fill(0))
    truth = checks.read_pgm(wl.i("truth.pgm")) > 0
    n_pos = int(truth.sum())
    rewrite_json(wl.o("eval.json"), lambda doc: doc.__setitem__(
        "counts", {"tn": truth.size - n_pos, "fp": 0, "fn": n_pos, "tp": 0}))
    with pytest.raises(checks.CheckError, match="accuracy"):
        checks.check_confusion(wl.o("pred.pgm"), wl.i("truth.pgm"), wl.o("eval.json"))


def test_b8b9_fault_is_counted_not_fatal(clean_runs):
    result = clean_runs["stack-align"][1]
    assert result["correct"] is True and result["failed"] >= 1


def test_later_pass_must_reproduce_the_checked_pass(clean_runs, tmp_path):
    from litterscan import cli

    wl = workload_copy(clean_runs, "stack-align", tmp_path)
    first = run.run_pass(cli, wl, False)
    assert run.run_pass(cli, wl, False, first).digests == first.digests
    first.digests["fdi.f32"] = "0" * 64
    with pytest.raises(checks.CheckError, match="fdi.f32"):
        run.run_pass(cli, wl, False, first)
