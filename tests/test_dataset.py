import json
import os

import numpy as np
import pytest

from conftest import make_cube
from litterscan.bands import CANONICAL_ORDER
from litterscan.dataset import (
    Normalizer,
    SampleSet,
    SplitSpec,
    apply_normalizer,
    balance,
    dataset_report,
    extract_samples,
    fit_normalizer,
    normalize_set,
    split,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def full_cube(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return make_cube({
        bid: rng.integers(0, 4096, size=(rows, cols)).astype(float)
        for bid in CANONICAL_ORDER
    })


def sample_set(labels, seed=0):
    labels = np.asarray(labels, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0, 4095, size=(labels.size, 13))
    feats[:, 0] = np.arange(labels.size)  # identify samples by first feature
    return SampleSet(feats, labels)


def test_extract_samples_basic():
    cube = full_cube(2, 2)
    mask = np.array([[True, False], [False, True]])
    s = extract_samples(cube, mask)
    assert len(s) == 4
    assert list(s.labels) == [1, 0, 0, 1]
    assert np.array_equal(s.features[1], cube.values[0, 1])


def test_extract_samples_dimension_mismatch():
    cube = full_cube(2, 2)
    mask = np.zeros((3, 3), dtype=bool)
    with pytest.raises(ValueError, match="does not match"):
        extract_samples(cube, mask)


def test_extract_standard_grid_sample_count():
    # full 60 m product grid; zero-filled planes keep this cheap
    cube = make_cube({bid: np.zeros((1830, 1830)) for bid in CANONICAL_ORDER})
    labels = np.zeros((1830, 1830), dtype=np.uint8)
    labels[0, 0] = 1
    s = extract_samples(cube, labels)
    assert len(s) == 3_348_900
    rep = dataset_report(s)
    assert rep["n_samples"] == 3_348_900
    assert rep["samples_per_weight"] == 3_348_900 / 151
    assert rep["samples_per_weight"] > 15
    assert rep["samples_per_weight_ok"]


def test_balance_counts():
    s = sample_set([0] * 900 + [1] * 100)
    out = balance(s, seed=0)
    assert len(out) == 200
    assert out.labels.sum() == 100


def test_balance_keeps_minority_and_is_deterministic():
    s = sample_set([0] * 30 + [1] * 10)
    a = balance(s, seed=7)
    b = balance(s, seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    # every minority sample retained
    minority_ids = set(s.features[s.labels == 1][:, 0])
    assert minority_ids <= set(a.features[:, 0])


def test_balance_already_balanced_identity():
    s = sample_set([0] * 50 + [1] * 50)
    out = balance(s, seed=3)
    assert np.array_equal(out.features, s.features)
    assert np.array_equal(out.labels, s.labels)


def test_balance_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        balance(sample_set([0] * 10), seed=0)


def test_split_sizes_100():
    tr, va, te = split(sample_set([0, 1] * 50), SplitSpec(0.70, 0.15, 0.15, seed=0))
    assert (len(tr), len(va), len(te)) == (70, 15, 15)


def test_split_sizes_10_floor_rule():
    tr, va, te = split(sample_set([0, 1] * 5), SplitSpec(0.70, 0.15, 0.15, seed=0))
    assert (len(tr), len(va), len(te)) == (7, 1, 2)


def test_split_partition_property():
    s = sample_set([0, 1] * 40)
    tr, va, te = split(s, SplitSpec(seed=9))
    ids = np.concatenate([tr.features[:, 0], va.features[:, 0], te.features[:, 0]])
    assert sorted(ids) == list(range(80))


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        SplitSpec(0.7, 0.2, 0.2, seed=0)
    with pytest.raises(ValueError):
        SplitSpec(0.0, 0.5, 0.5, seed=0)


@pytest.mark.parametrize("labels", [[256, 1, 0], [1.7, 0.2, 0.0]])
def test_sample_set_rejects_labels_before_casting_them(labels):
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        SampleSet(np.zeros((3, 13)), np.array(labels))


def test_fit_normalizer():
    feats = np.zeros((2, 13))
    feats[1] = 4095.0
    norm = fit_normalizer(SampleSet(feats, np.array([0, 1])))
    assert np.array_equal(norm.minimum, np.zeros(13))
    assert np.array_equal(norm.maximum, np.full(13, 4095.0))


def test_fit_normalizer_rejects_constant_band():
    feats = np.ones((3, 13))
    with pytest.raises(ValueError, match="min >= max"):
        fit_normalizer(SampleSet(feats, np.array([0, 1, 0])))


def test_apply_normalizer_endpoints():
    norm = Normalizer(np.zeros(13), np.full(13, 100.0))
    assert np.array_equal(apply_normalizer(norm, np.zeros(13)), np.full(13, -1.0))
    assert np.array_equal(apply_normalizer(norm, np.full(13, 50.0)), np.zeros(13))
    assert np.array_equal(apply_normalizer(norm, np.full(13, 100.0)), np.full(13, 1.0))


def test_normalizer_train_outputs_in_range():
    s = sample_set([0, 1] * 20, seed=4)
    norm = fit_normalizer(s)
    out = normalize_set(norm, s)
    assert out.features.min() >= -1.0
    assert out.features.max() <= 1.0


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
    s = sample_set(ref["labels"])
    out = balance(s, seed=seed)
    assert list(out.features[:, 0].astype(int)) == ref["balance"][str(seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_split_matches_reference_fixture(seed):
    ref = _reference()
    s = sample_set(ref["labels"])
    tr, va, te = split(s, SplitSpec(0.70, 0.15, 0.15, seed=seed))
    expect = ref["split"][str(seed)]
    assert list(tr.features[:, 0].astype(int)) == expect["train"]
    assert list(va.features[:, 0].astype(int)) == expect["val"]
    assert list(te.features[:, 0].astype(int)) == expect["test"]
