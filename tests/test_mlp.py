import json

import numpy as np
import pytest

from litterscan import mlp
from litterscan.bands import CANONICAL_ORDER
from litterscan.dataset import Normalizer, SampleSet
from litterscan.indexes import threshold_map
from litterscan.mlp import (
    _ALMOST_ONE,
    _TINY,
    N_PARAMS,
    _logistic,
    MlpModel,
    TrainConfig,
    TrainReport,
    flatten_weights,
    forward,
    forward_batch,
    gradient,
    init_model,
    load_model,
    loss,
    predict_map,
    save_model,
    train,
    with_weights,
)
from litterscan.resample import AlignedCube
from litterscan.rng import SplitMix64

UNIT_NORM = Normalizer(np.full(13, -1.0), np.full(13, 1.0))


def pinned_model():
    wh = np.array([[((i * 14 + j) % 7 - 3) / 10 for j in range(14)] for i in range(10)])
    wo = np.array([((j * 3) % 5 - 2) / 10 for j in range(11)])
    return MlpModel(wh, wo, UNIT_NORM, CANONICAL_ORDER)


def random_set(n, seed):
    rng = SplitMix64(seed)
    feats = np.array([[rng.uniform(-1.5, 1.5) for _ in range(13)] for _ in range(n)])
    labels = np.array([rng.next_below(2) for _ in range(n)], dtype=np.uint8)
    return SampleSet(feats, labels)


def xor_set():
    feats = np.zeros((4, 13))
    feats[:, :2] = [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    return SampleSet(feats, np.array([0, 1, 1, 0], dtype=np.uint8))


def test_parameter_count_is_151():
    assert N_PARAMS == 14 * 10 + 11 == 151
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    assert flatten_weights(m).size == 151


def test_init_deterministic_and_bounded():
    a = init_model(5, UNIT_NORM, CANONICAL_ORDER)
    b = init_model(5, UNIT_NORM, CANONICAL_ORDER)
    assert np.array_equal(flatten_weights(a), flatten_weights(b))
    assert np.abs(flatten_weights(a)).max() < 1.0
    c = init_model(6, UNIT_NORM, CANONICAL_ORDER)
    assert not np.array_equal(flatten_weights(a), flatten_weights(c))


def test_forward_zero_weights_is_half():
    m = with_weights(pinned_model(), np.zeros(151))
    assert forward(m, np.linspace(-1, 1, 13)) == 0.5


def test_forward_bounds_random_trials():
    rng = SplitMix64(1)
    m = pinned_model()
    for trial in range(100):
        w = np.array([rng.uniform(-5, 5) for _ in range(151)])
        mt = with_weights(m, w)
        x = np.array([[rng.uniform(-2, 2) for _ in range(13)] for _ in range(100)])
        y = forward_batch(mt, x)
        assert ((y > 0.0) & (y < 1.0)).all()


PINNED_FORWARD = 0.45016600268752209  # straight-line evaluation, 40-digit arithmetic


def test_forward_pinned_vector():
    x = np.array([(k - 6) / 6 for k in range(13)])
    assert forward(pinned_model(), x) == pytest.approx(PINNED_FORWARD, rel=1e-14)


def split_by_sign_logistic(z):
    """Reference: each sign's half computed apart, through boolean indexing."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _TINY, _ALMOST_ONE)


def test_logistic_matches_split_by_sign_formulation():
    edges = np.array([0.0, -0.0, 1e-320, -1e-320, 40.0, -40.0, 800.0, -800.0])
    z = np.concatenate([edges, np.random.default_rng(6).normal(0.0, 800.0, 10**5)])
    got, want = _logistic(z), split_by_sign_logistic(z)
    assert got.tobytes() == want.tobytes()
    assert ((got > 0) & (got < 1)).all()


def test_loss_examples():
    s = random_set(16, 3)
    m = with_weights(pinned_model(), np.zeros(151))
    # zero weights -> every output 0.5; balanced labels give MSE 0.25
    balanced = SampleSet(s.features, np.array([0, 1] * 8, dtype=np.uint8))
    assert loss(m, balanced) == pytest.approx(0.25)
    # independent two-line oracle
    mp = pinned_model()
    y = forward_batch(mp, s.features)
    expect = float(np.mean((y - s.labels) ** 2))
    assert loss(mp, s) == pytest.approx(expect, rel=1e-15)


def finite_difference_gradient(model, samples, h=1e-5):
    w = flatten_weights(model)
    g = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy(); wp[i] += h
        wm = w.copy(); wm[i] -= h
        g[i] = (loss(with_weights(model, wp), samples)
                - loss(with_weights(model, wm), samples)) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    worst = 0.0
    for trial in range(10):
        rng = SplitMix64(trial)
        m = init_model(trial, UNIT_NORM, CANONICAL_ORDER)
        s = random_set(1 + rng.next_below(32), trial + 100)
        g = gradient(m, s)
        gfd = finite_difference_gradient(m, s)
        rel = np.abs(g - gfd) / (np.abs(g) + np.abs(gfd) + 1e-10)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5


def test_gradient_duplication_invariant():
    m = init_model(2, UNIT_NORM, CANONICAL_ORDER)
    s = random_set(8, 11)
    doubled = SampleSet(np.vstack([s.features, s.features]),
                        np.concatenate([s.labels, s.labels]))
    assert np.allclose(gradient(m, s), gradient(m, doubled), rtol=0, atol=1e-15)


def test_gradient_zero_at_stationary_point():
    # all-zero weights with balanced labels: outputs 0.5, hidden activity 0
    m = with_weights(pinned_model(), np.zeros(151))
    s = random_set(10, 5)
    balanced = SampleSet(s.features, np.array([0, 1] * 5, dtype=np.uint8))
    assert np.linalg.norm(gradient(m, balanced)) < 1e-12


def test_gradient_small_at_fitted_minimum():
    s = xor_set()
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    cfg = TrainConfig(max_iters=3000, max_val_failures=10**9)
    fitted, report = train(m, s, s, cfg)
    assert np.linalg.norm(gradient(fitted, s)) < 1e-3
    assert report.final_train_loss < 0.01


# --- training ---

def test_train_zero_iters_returns_initial_model():
    m = init_model(1, UNIT_NORM, CANONICAL_ORDER)
    s = random_set(12, 0)
    out, report = train(m, s, s, TrainConfig(max_iters=0))
    assert np.array_equal(flatten_weights(out), flatten_weights(m))
    assert report.stop_reason == "max_iters"
    assert report.iterations_run == 0


def test_train_deterministic():
    s = random_set(40, 1)
    v = random_set(10, 2)
    runs = []
    for _ in range(2):
        m = init_model(3, UNIT_NORM, CANONICAL_ORDER)
        out, _ = train(m, s, v, TrainConfig(max_iters=50))
        runs.append(flatten_weights(out))
    assert np.array_equal(runs[0], runs[1])


def test_one_forward_pass_per_evaluated_weight_vector(monkeypatch):
    # with no backtracking, k accepted steps evaluate k + 1 weight vectors
    # on the train set and k + 1 on the validation set
    s, v = random_set(40, 1), random_set(10, 2)
    m = init_model(3, UNIT_NORM, CANONICAL_ORDER)
    passes, models = [0], [0]
    forward_impl, post_init = mlp._forward, MlpModel.__post_init__

    def counting_forward(*args):
        passes[0] += 1
        return forward_impl(*args)

    def counting_post_init(self):
        models[0] += 1
        post_init(self)

    monkeypatch.setattr(mlp, "_forward", counting_forward)
    monkeypatch.setattr(MlpModel, "__post_init__", counting_post_init)
    _, report = train(m, s, v, TrainConfig(max_iters=5, max_val_failures=10**9))
    k = report.iterations_run
    assert (k, report.stop_reason) == (5, "max_iters")
    assert passes[0] == 2 * k + 2
    assert models[0] <= k + 2


def test_train_loss_non_increasing():
    s = random_set(60, 4)
    m = init_model(4, UNIT_NORM, CANONICAL_ORDER)
    _, report = train(m, s, s, TrainConfig(max_iters=100, max_val_failures=10**9))
    train_losses = [h[1] for h in report.loss_history]
    assert all(b <= a + 1e-15 for a, b in zip(train_losses, train_losses[1:]))


def test_early_stop_returns_best_validation_model():
    s = random_set(60, 6)
    v = random_set(20, 7)
    m = init_model(8, UNIT_NORM, CANONICAL_ORDER)
    out, report = train(m, s, v, TrainConfig(max_iters=500, max_val_failures=3))
    val_losses = [h[2] for h in report.loss_history]
    assert report.final_val_loss <= min(val_losses) + 1e-15
    assert report.final_val_loss == pytest.approx(loss(out, v), rel=1e-12)
    if report.stop_reason == "val_early_stop":
        assert report.iterations_run < 500


def test_train_xor_reaches_low_mse():
    s = xor_set()
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    _, report = train(m, s, s, TrainConfig(max_iters=2000, max_val_failures=10**9))
    assert report.final_train_loss < 0.01


def test_train_separable_problem():
    # two 13-d Gaussian classes, means 4 sigma apart
    rng = np.random.default_rng(0)
    n = 1000
    x0 = rng.normal(0.0, 0.1, size=(n, 13))
    x1 = rng.normal(0.4, 0.1, size=(n, 13))
    feats = np.vstack([x0, x1])
    labels = np.array([0] * n + [1] * n, dtype=np.uint8)
    perm = np.random.default_rng(1).permutation(2 * n)
    s = SampleSet(feats[perm[:1400]], labels[perm[:1400]])
    v = SampleSet(feats[perm[1400:1700]], labels[perm[1400:1700]])
    t = SampleSet(feats[perm[1700:]], labels[perm[1700:]])
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    out, _ = train(m, s, v, TrainConfig(max_iters=200))
    pred = (forward_batch(out, t.features) >= 0.5).astype(int)
    assert (pred != t.labels).mean() < 0.02


# --- inference + serialization ---

def test_predict_map_threshold_and_range():
    m = pinned_model()
    rng = np.random.default_rng(2)
    cube = AlignedCube(CANONICAL_ORDER, rng.uniform(0, 1, size=(4, 5, 13)))
    omap = predict_map(m, cube)
    assert omap.shape == (4, 5) and omap.dtype == np.float64
    assert ((omap > 0) & (omap < 1)).all()
    assert not threshold_map(omap, 1.1).any()  # outputs < 1
    assert threshold_map(omap, -0.1).all()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="threshold must be finite"):
            threshold_map(omap, bad)


def test_predict_map_band_mismatch():
    m = pinned_model()
    cube = AlignedCube(("B2", "B3"), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="do not match"):
        predict_map(m, cube)


def test_model_round_trip(tmp_path):
    m = init_model(9, Normalizer(np.zeros(13), np.full(13, 4095.0)), CANONICAL_ORDER)
    path = tmp_path / "m.json"
    save_model(m, path)
    back = load_model(path)
    assert np.array_equal(flatten_weights(back), flatten_weights(m))
    assert back.band_order == m.band_order
    x = np.linspace(100, 4000, 13)
    xn = 2 * (x - back.normalizer.minimum) / (back.normalizer.maximum - back.normalizer.minimum) - 1
    assert forward(back, xn) == forward(m, xn)


def test_load_model_wrong_weight_count(tmp_path):
    m = pinned_model()
    path = tmp_path / "m.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["weights_output"] = doc["weights_output"][:-1]  # 150 weights total
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="parameter counts"):
        load_model(path)


def test_load_minimal_handwritten_model(tmp_path):
    doc = {
        "schema_version": 1,
        "shape": [13, 10, 1],
        "activations": ["tanh", "logistic"],
        "weights_hidden": [[0.0] * 14 for _ in range(10)],
        "weights_output": [0.0] * 11,
        "normalizer": {"min": [0.0] * 13, "max": [1.0] * 13},
        "band_order": list(CANONICAL_ORDER),
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    assert forward(m, np.zeros(13)) == 0.5


def test_train_rejects_empty_sets():
    m = pinned_model()
    with pytest.raises(ValueError):
        loss(m, SampleSet(np.zeros((0, 13)), np.zeros(0, dtype=np.uint8)))
