"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import os

import numpy as np
import pytest

from conftest import make_band, oracle_resample, read_float_raster
from litterscan.bands import CANONICAL_ORDER
from litterscan.cli import main as cli_main
from litterscan.dataset import (
    Normalizer,
    SplitSpec,
    balance,
    split,
)
from litterscan.evaluation import metrics
from litterscan.mlp import (
    N_PARAMS,
    TrainConfig,
    dataset_report,
    gradient,
    init_model,
    load_model,
    loss,
    save_model,
    train,
)
from litterscan.raster_io import (
    BandStack,
    load_stack,
    read_mask,
    save_stack,
    write_float_raster,
    write_mask,
)
from litterscan.resample import lanczos3_kernel, resample_band
from litterscan.rng import SplitMix64

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
UNIT_NORM = Normalizer(np.full(13, -1.0), np.full(13, 1.0))


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_parameter_count():
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    assert N_PARAMS == 151
    assert m.weights.size == 14 * 10 + 11 == 151
    report(1, "13-10-1 model has exactly 151 trainable weights")


def test_criterion_02_gradient_correctness():
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        rng = SplitMix64(trial)
        w = init_model(trial, UNIT_NORM, CANONICAL_ORDER).weights
        n = 1 + rng.next_below(32)
        feats = np.array([[rng.uniform(-1.5, 1.5) for _ in range(13)] for _ in range(n)])
        labels = np.array([rng.next_below(2) for _ in range(n)], dtype=np.uint8)
        g = gradient(w, feats, labels)
        gfd = np.empty_like(g)
        for i in range(w.size):
            wp = w.copy(); wp[i] += h
            wm = w.copy(); wm[i] -= h
            gfd[i] = (loss(wp, feats, labels) - loss(wm, feats, labels)) / (2 * h)
        rel = np.abs(g - gfd) / (np.abs(g) + np.abs(gfd) + 1e-10)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5
    report(2, f"backprop vs central differences, max relative error {worst:.2e} < 1e-5")


def test_criterion_03_published_matrix_arithmetic():
    # counts printed row-major with rows = output class, columns = target class
    cases = [
        ("training", {"tn": 375070, "fn": 4709, "fp": 4399, "tp": 71102}, {
            "cells": (82.4, 1.0, 1.0, 15.6),
            "recall": (98.8, 93.8), "recall_comp": (1.2, 6.2),
            "precision": (98.8, 94.2), "precision_comp": (1.2, 5.8),
            "accuracy": 98.0, "error": 2.0,
        }),
        ("test", {"tn": 80231, "fn": 991, "fp": 914, "tp": 15424}, {
            "cells": (82.2, 1.0, 0.9, 15.8),
            "recall": (98.8, 94.0), "recall_comp": (1.1, 6.0),
            "precision": (98.8, 94.4), "precision_comp": (1.2, 5.6),
            "accuracy": 98.0, "error": 2.0,
        }),
    ]
    tol = 0.1  # percent-points
    for name, cm, printed in cases:
        r = metrics(cm)
        cp = r["cell_percent"]
        got_cells = (cp["tn"], cp["fn"], cp["fp"], cp["tp"])
        for got, want in zip(got_cells, printed["cells"]):
            assert abs(got - want) <= tol, (name, "cell", got, want)
        for i in range(2):
            assert abs(100 * r["recall"][i] - printed["recall"][i]) <= tol
            assert abs((100 - 100 * r["recall"][i]) - printed["recall_comp"][i]) <= tol
            assert abs(100 * r["precision"][i] - printed["precision"][i]) <= tol
            assert abs((100 - 100 * r["precision"][i]) - printed["precision_comp"][i]) <= tol
        assert abs(100 * r["accuracy"] - printed["accuracy"]) <= tol
        assert abs(100 * r["error_rate"] - printed["error"]) <= tol
    report(3, "published training/test matrices reproduce every printed "
              "percentage within 0.1 percent-points")


def test_criterion_04_end_to_end_synthetic_analog(tmp_path):
    cube = tmp_path / "scene.cube.json"
    mask = tmp_path / "scene.mask.pgm"
    assert cli_main(["make-synthetic", "--out-cube", str(cube),
                     "--out-mask", str(mask), "--rows", "100", "--cols", "100",
                     "--plastic-frac", "0.15", "--seed", "0"]) == 0
    model = tmp_path / "model.json"
    assert cli_main(["train", "--cube", str(cube), "--mask", str(mask),
                     "--out", str(model), "--seed", "0",
                     "--max-iters", "1000"]) == 0
    rep = json.loads((tmp_path / "model.json.report.json").read_text())
    err = rep["test"]["error_rate"]
    assert err <= 0.02
    report(4, f"synthetic-scene pipeline test error {100 * err:.2f}% <= 2%")


def test_criterion_05_xor_capability():
    feats = np.zeros((4, 13))
    feats[:, :2] = [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    s = feats, np.array([0, 1, 1, 0], dtype=np.uint8)
    wins = 0
    for seed in range(10):
        m = init_model(seed, UNIT_NORM, CANONICAL_ORDER)
        cfg = TrainConfig(max_iters=2000, max_val_failures=10**9)
        _, rep = train(m, s, s, cfg)
        wins += rep["final_train_loss"] < 0.01
    assert wins >= 8
    report(5, f"XOR reaches MSE < 0.01 within 2000 iterations for {wins}/10 seeds")


def test_criterion_06_resampling_properties():
    assert lanczos3_kernel(0.0) == 1.0
    for x in (1.0, 2.0, 3.0, -1.0, -2.0, -3.0):
        assert abs(lanczos3_kernel(x)) < 1e-15
    for scale in (2, 3, 6):
        out = resample_band(np.full((4, 4), 4095.0), scale)
        assert np.abs(out / 4095.0 - 1.0).max() < 1e-9
    for scale, size in ((2, 7), (3, 7), (6, 5)):
        img = np.zeros((size, size))
        img[size // 2, size // 2] = 1000.0
        got = resample_band(img, scale)
        assert np.abs(got - oracle_resample(img, scale)).max() < 1e-9
    report(6, "kernel identities, constant preservation and impulse "
              "responses match the direct-convolution oracle")


def test_criterion_07_index_properties():
    from litterscan.indexes import normalized_difference

    rng = np.random.default_rng(0)
    a = rng.uniform(0, 1e4, size=1_000_000)
    b = rng.uniform(0, 1e4, size=1_000_000)
    k = 3.7
    nd = normalized_difference(a, b)
    assert np.array_equal(nd, -normalized_difference(b, a))
    assert np.abs(normalized_difference(k * a, k * b) - nd).max() < 1e-12
    assert nd.min() >= -1.0 and nd.max() <= 1.0

    from conftest import make_cube
    from litterscan.indexes import fdi
    base = make_cube({"B6": np.array([[120.0]]), "B8": np.array([[480.0]]),
                      "B11": np.array([[60.0]])})
    scaled = make_cube({"B6": np.array([[120.0 * k]]), "B8": np.array([[480.0 * k]]),
                        "B11": np.array([[60.0 * k]])})
    assert fdi(*scaled)[0, 0] == pytest.approx(k * fdi(*base)[0, 0], rel=1e-12)
    report(7, "antisymmetry, scale invariance and range over 10^6 pairs; "
              "FDI positive homogeneity")


def test_criterion_08_determinism(tmp_path):
    cube = tmp_path / "scene.cube.json"
    mask = tmp_path / "scene.mask.pgm"
    assert cli_main(["make-synthetic", "--out-cube", str(cube),
                     "--out-mask", str(mask), "--rows", "60", "--cols", "60",
                     "--seed", "1"]) == 0
    blobs = []
    for name in ("a", "b"):
        model = tmp_path / f"{name}.json"
        assert cli_main(["train", "--cube", str(cube), "--mask", str(mask),
                         "--out", str(model), "--seed", "11",
                         "--max-iters", "300"]) == 0
        blobs.append(model.read_bytes())
    assert blobs[0] == blobs[1]

    with open(os.path.join(FIXTURES, "rng_reference.json")) as f:
        ref = json.load(f)
    labels = np.asarray(ref["labels"], dtype=np.uint8)
    for seed in (0, 1):
        assert list(balance(labels, seed=seed)) == ref["balance"][str(seed)]
        tr, va, te = np.split(*split(np.arange(labels.size), SplitSpec(0.70, 0.15, seed=seed)))
        got = {"train": list(tr), "val": list(va), "test": list(te)}
        assert got == ref["split"][str(seed)]
    report(8, "repeat training runs byte-identical; split/balance match "
              "seed-0/seed-1 reference fixtures")


def test_criterion_09_dataset_arithmetic():
    truth = np.zeros((1830, 1830), dtype=bool)
    rep = dataset_report(truth)  # one sample per pixel of the mask
    assert rep["n_samples"] == 3_348_900
    assert rep["samples_per_weight"] > 15
    report(9, f"1830x1830 grid gives {rep['n_samples']:,} samples, "
              f"{rep['samples_per_weight']:.0f} per weight (> 15)")


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(10)
    # band stack
    stack = BandStack((
        make_band("B4", rng.integers(0, 4096, size=(12, 12))),
        make_band("B9", rng.integers(0, 4096, size=(2, 2))),
        make_band("B11", rng.integers(0, 4096, size=(6, 6))),
    ), extent_m=120.0)
    save_stack(stack, tmp_path / "stack.json")
    back = load_stack(tmp_path / "stack.json")
    assert back.extent_m == stack.extent_m
    for a, b in zip(back.bands, stack.bands):
        assert a.spec == b.spec and np.array_equal(a.pixels, b.pixels)
    # model JSON
    m = init_model(3, Normalizer(np.zeros(13), np.full(13, 4095.0)), CANONICAL_ORDER)
    save_model(m, tmp_path / "m.json")
    m2 = load_model(tmp_path / "m.json")
    assert np.array_equal(m.weights, m2.weights)
    # mask
    labels = rng.integers(0, 2, size=(25, 31)).astype(np.uint8)
    write_mask(labels, tmp_path / "m.pgm")
    assert np.array_equal(read_mask(tmp_path / "m.pgm"), labels)
    # float raster (values exactly representable in 32 bits)
    grid = rng.normal(size=(9, 7)).astype(np.float32).astype(np.float64)
    write_float_raster(grid, tmp_path / "r.f32")
    assert np.array_equal(read_float_raster(tmp_path / "r.f32"), grid)
    report(10, "stack, model, mask and float-raster containers round-trip "
               "losslessly")
