import json
import os
import tracemalloc

import numpy as np
import pytest

from conftest import make_cube
from litterscan import raster_io
from litterscan.bands import CANONICAL_ORDER
from litterscan.dataset import (
    Normalizer,
    SplitSpec,
    apply_normalizer,
    balance,
    check_grid,
    extract_samples,
    fit_normalizer,
    normalize_set,
    split,
)
from litterscan.mlp import dataset_report
from litterscan.resample import read_cube_header, save_cube

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def full_cube(rows, cols, seed=0):
    """(rows, cols, 13) values in canonical band order."""
    rng = np.random.default_rng(seed)
    return make_cube({
        bid: rng.integers(0, 4096, size=(rows, cols)).astype(float)
        for bid in CANONICAL_ORDER
    })[1]


def features(n, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0, 4095, size=(n, 13))
    feats[:, 0] = np.arange(n)  # identify samples by first feature
    return feats


def write_full_cube(path, rows, cols, seed=0):
    """A (rows, cols, 13) cube of integer values, saved at `path`, and its header."""
    cube = full_cube(rows, cols, seed)
    save_cube(cube, rows, cols, CANONICAL_ORDER, path)
    return cube, read_cube_header(path)


def test_extract_samples_basic(tmp_path):
    cube, header = write_full_cube(tmp_path / "c.json", 2, 2)
    mask = np.array([[True, False], [False, True]])
    x, y = extract_samples(header, mask, np.arange(4))
    assert x.shape == (4, 13)
    assert list(y) == [1, 0, 0, 1]
    assert np.array_equal(x[1], cube[0, 1])


def test_extract_samples_keeps_the_chosen_pixels_in_row_major_order(tmp_path, monkeypatch):
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", 2 * 7)  # 4 blocks of 2 rows, then 1
    cube, header = write_full_cube(tmp_path / "c.json", 9, 7, seed=3)
    mask = np.random.default_rng(3).random((9, 7)) < 0.3
    pixels = np.array([0, 5, 13, 14, 30, 62])  # in 4 of the 5 blocks; the last pixel
    x, y = extract_samples(header, mask, pixels)
    assert np.array_equal(x, cube.reshape(-1, 13)[pixels])
    assert np.array_equal(y, mask.reshape(-1)[pixels])


def test_extract_samples_fills_each_set_in_its_own_order(tmp_path, monkeypatch):
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", 3 * 7)  # 3 blocks of 3 rows, then 1
    cube, header = write_full_cube(tmp_path / "c.json", 10, 7, seed=5)
    mask = np.random.default_rng(5).random((10, 7)) < 0.4
    shuffled = np.random.default_rng(6).permutation(70)[:69]  # pixel 69 of the shuffle left out
    ends = (30, 38)
    x, y = extract_samples(header, mask, shuffled)
    for xs, ys, pixels in zip(np.split(x, ends), np.split(y, ends), np.split(shuffled, ends)):
        assert np.array_equal(xs, cube.reshape(-1, 13)[pixels])
        assert np.array_equal(ys, mask.reshape(-1)[pixels])


def test_extract_samples_needs_13_bands(tmp_path):
    save_cube(np.ones((2, 2, 3)), 2, 2, ("B4", "B8", "B11"), tmp_path / "c.json")
    with pytest.raises(ValueError, match="cube has 3 bands, need 13"):
        check_grid(read_cube_header(tmp_path / "c.json"), np.zeros((2, 2), dtype=bool))


def test_extract_standard_grid_sample_count():
    # full 60 m product grid: one sample per pixel of the mask
    labels = np.zeros((1830, 1830), dtype=np.uint8)
    labels[0, 0] = 1
    rep = dataset_report(labels)
    assert rep["n_samples"] == 3_348_900
    assert (rep["n_negative"], rep["n_positive"]) == (3_348_899, 1)
    assert rep["samples_per_weight"] == 3_348_900 / 151
    assert rep["samples_per_weight"] > 15
    assert rep["samples_per_weight_ok"]


def test_balance_counts():
    labels = np.array([0] * 900 + [1] * 100, dtype=np.uint8)
    kept = balance(labels, seed=0)
    assert len(kept) == 200
    assert labels[kept].sum() == 100


def test_balance_keeps_minority_and_is_deterministic():
    labels = np.array([0] * 30 + [1] * 10, dtype=np.uint8)
    a = balance(labels, seed=7)
    assert np.array_equal(a, balance(labels, seed=7))
    assert set(np.flatnonzero(labels == 1)) <= set(a)  # every minority pixel retained
    assert list(a) == sorted(set(a))


def test_balance_already_balanced_identity():
    labels = np.array([0] * 50 + [1] * 50, dtype=np.uint8)
    assert np.array_equal(balance(labels, seed=3), np.arange(100))


def test_balance_of_a_mask_gives_flat_pixel_indices():
    mask = np.zeros((4, 5), dtype=bool)
    mask[1, 2] = mask[3, 4] = True
    kept = balance(mask, seed=0)
    assert len(kept) == 4
    assert {7, 19} <= set(kept)
    assert mask.reshape(-1)[kept].sum() == 2


def test_balance_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        balance(np.zeros(10, dtype=np.uint8), seed=0)


def test_split_sizes_100():
    tr, va, te = np.split(*split(np.arange(100), SplitSpec(0.70, 0.15, seed=0)))
    assert (len(tr), len(va), len(te)) == (70, 15, 15)


def test_split_sizes_10_floor_rule():
    tr, va, te = np.split(*split(np.arange(10), SplitSpec(0.70, 0.15, seed=0)))
    assert (len(tr), len(va), len(te)) == (7, 1, 2)


def test_split_partition_property():
    shuffled, _ = split(np.arange(80), SplitSpec(seed=9))
    assert sorted(shuffled) == list(range(80))


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum to less than 1"):
        SplitSpec(0.7, 0.3, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(0.0, 0.5, seed=0)


def test_fit_normalizer():
    feats = np.zeros((2, 13))
    feats[1] = 4095.0
    norm = fit_normalizer(feats)
    assert np.array_equal(norm.minimum, np.zeros(13))
    assert np.array_equal(norm.maximum, np.full(13, 4095.0))


def test_fit_normalizer_rejects_constant_band():
    with pytest.raises(ValueError, match="min >= max"):
        fit_normalizer(np.ones((3, 13)))


def test_apply_normalizer_endpoints():
    norm = Normalizer(np.zeros(13), np.full(13, 100.0))
    assert np.array_equal(apply_normalizer(norm, np.zeros(13)), np.full(13, -1.0))
    assert np.array_equal(apply_normalizer(norm, np.full(13, 50.0)), np.zeros(13))
    assert np.array_equal(apply_normalizer(norm, np.full(13, 100.0)), np.full(13, 1.0))


def test_normalizer_train_outputs_in_range():
    x = features(40, seed=4)
    normalize_set(fit_normalizer(x), x)
    assert x.min() >= -1.0
    assert x.max() <= 1.0


def test_normalize_set_works_in_place():
    """About 200 k rows of f32-exact values, some outside the training range:
    the rows are normalized where they lie, with no copy, to the bytes of the
    written-out formula and of `apply_normalizer`."""
    x = np.random.default_rng(8).uniform(0, 4095, size=(200_000, 13))
    x = x.astype(np.float32).astype(np.float64)
    norm = fit_normalizer(x[:140_000])
    x[-2], x[-1] = -100.0, 5000.0  # beyond every band's training range
    formula = 2.0 * (x - norm.minimum) / (norm.maximum - norm.minimum) - 1.0
    copied = apply_normalizer(norm, x)
    tracemalloc.start()
    try:
        normalize_set(norm, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 100
    assert x.tobytes() == formula.tobytes() == copied.tobytes()
    assert (x[-2] < -1.0).all() and (x[-1] > 1.0).all()


def test_apply_normalizer_strictly_monotone():
    norm = Normalizer(np.zeros(13), np.full(13, 10.0))
    lo = apply_normalizer(norm, np.full(13, 3.0))
    hi = apply_normalizer(norm, np.full(13, 3.0001))
    assert (hi > lo).all()


# --- frozen reference outputs for seeds 0 and 1 ---

def _reference():
    with open(os.path.join(FIXTURES, "rng_reference.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("seed", [0, 1])
def test_balance_matches_reference_fixture(seed):
    ref = _reference()
    out = balance(np.array(ref["labels"], dtype=np.uint8), seed=seed)
    assert list(out) == ref["balance"][str(seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_split_matches_reference_fixture(seed):
    ref = _reference()
    shuffled, ends = split(np.arange(len(ref["labels"])), SplitSpec(0.70, 0.15, seed=seed))
    tr, va, te = np.split(shuffled, ends)
    expect = ref["split"][str(seed)]
    assert list(tr) == expect["train"]
    assert list(va) == expect["val"]
    assert list(te) == expect["test"]
