import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from litterscan import mlp
from litterscan.bands import CANONICAL_ORDER
from litterscan.dataset import Normalizer, apply_normalizer
from litterscan.indexes import threshold_map
from litterscan.mlp import (
    _ALMOST_ONE,
    _TINY,
    N_PARAMS,
    _logistic,
    MlpModel,
    TrainConfig,
    forward_batch,
    gradient,
    init_model,
    load_model,
    loss,
    predict_map,
    save_model,
    train,
)
from litterscan.rng import SplitMix64

UNIT_NORM = Normalizer(np.full(13, -1.0), np.full(13, 1.0))


def pinned_model():
    wh = np.array([[((i * 14 + j) % 7 - 3) / 10 for j in range(14)] for i in range(10)])
    wo = np.array([((j * 3) % 5 - 2) / 10 for j in range(11)])
    return MlpModel(np.concatenate([wh.reshape(-1), wo]), UNIT_NORM, CANONICAL_ORDER)


def random_set(n, seed):
    rng = SplitMix64(seed)
    feats = np.array([[rng.uniform(-1.5, 1.5) for _ in range(13)] for _ in range(n)])
    labels = np.array([rng.next_below(2) for _ in range(n)], dtype=np.uint8)
    return feats, labels


def xor_set():
    feats = np.zeros((4, 13))
    feats[:, :2] = [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    return feats, np.array([0, 1, 1, 0], dtype=np.uint8)


def test_parameter_count_is_151():
    assert N_PARAMS == 14 * 10 + 11 == 151
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    assert m.weights.size == 151


def test_init_deterministic_and_bounded():
    a = init_model(5, UNIT_NORM, CANONICAL_ORDER)
    b = init_model(5, UNIT_NORM, CANONICAL_ORDER)
    assert np.array_equal(a.weights, b.weights)
    assert np.abs(a.weights).max() < 1.0
    c = init_model(6, UNIT_NORM, CANONICAL_ORDER)
    assert not np.array_equal(a.weights, c.weights)


def test_forward_zero_weights_is_half():
    assert forward_batch(np.zeros(151), np.linspace(-1, 1, 13)[None])[0] == 0.5


def test_forward_bounds_random_trials():
    rng = SplitMix64(1)
    for trial in range(100):
        w = np.array([rng.uniform(-5, 5) for _ in range(151)])
        x = np.array([[rng.uniform(-2, 2) for _ in range(13)] for _ in range(100)])
        y = forward_batch(w, x)
        assert ((y > 0.0) & (y < 1.0)).all()


PINNED_FORWARD = 0.45016600268752209  # straight-line evaluation, 40-digit arithmetic


def test_forward_pinned_vector():
    x = np.array([(k - 6) / 6 for k in range(13)])
    assert forward_batch(pinned_model().weights, x[None])[0] == pytest.approx(PINNED_FORWARD,
                                                                              rel=1e-14)


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
    x, labels = random_set(16, 3)
    # zero weights -> every output 0.5; balanced labels give MSE 0.25
    assert loss(np.zeros(151), x, np.array([0, 1] * 8, dtype=np.uint8)) == pytest.approx(0.25)
    # independent two-line oracle
    w = pinned_model().weights
    expect = float(np.mean((forward_batch(w, x) - labels) ** 2))
    assert loss(w, x, labels) == pytest.approx(expect, rel=1e-15)


def finite_difference_gradient(w, samples, h=1e-5):
    g = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy(); wp[i] += h
        wm = w.copy(); wm[i] -= h
        g[i] = (loss(wp, *samples) - loss(wm, *samples)) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    worst = 0.0
    for trial in range(10):
        rng = SplitMix64(trial)
        w = init_model(trial, UNIT_NORM, CANONICAL_ORDER).weights
        s = random_set(1 + rng.next_below(32), trial + 100)
        g = gradient(w, *s)
        gfd = finite_difference_gradient(w, s)
        rel = np.abs(g - gfd) / (np.abs(g) + np.abs(gfd) + 1e-10)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5


def row_major_objective(flat, x, labels):
    """Loss and gradient written sample-major, with (n, 10) activations: the
    formulas of `_objective`, stated apart from its hidden-major layout."""
    wh, wo = mlp._layers(flat)
    h = np.tanh(x @ wh[:, :13].T + wh[:, 13])
    y = _logistic(h @ wo[:10] + wo[10])
    e = y - labels
    dz_out = (2.0 / len(x)) * e * y * (1.0 - y)
    dz_h = dz_out[:, None] * wo[:10] * (1.0 - h * h)
    g_wh = np.column_stack([dz_h.T @ x, dz_h.sum(axis=0)])
    return float(np.mean(e * e)), np.concatenate([g_wh.reshape(-1), dz_out @ h, [dz_out.sum()]])


@pytest.mark.parametrize("n", [1, 2, 7, 8400])
def test_objective_matches_the_row_major_formulas(n):
    """The hidden-major pass sums in another order, so its loss and gradient
    agree with the sample-major formulas to rounding, not bit for bit; n = 1
    makes the transposed input a single column."""
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.5, 1.5, (n, 13))
    labels = rng.integers(0, 2, n).astype(np.uint8)
    w = rng.uniform(-1.0, 1.0, 151)
    f, grad = mlp._objective(w, x, labels)
    want_f, want_g = row_major_objective(w, x, labels)
    assert abs(f - want_f) <= 1e-12 * abs(want_f)
    assert np.abs(grad() - want_g).max() <= 1e-12 * np.abs(want_g).max()


def test_gradient_duplication_invariant():
    w = init_model(2, UNIT_NORM, CANONICAL_ORDER).weights
    x, labels = random_set(8, 11)
    doubled = np.vstack([x, x]), np.concatenate([labels, labels])
    assert np.allclose(gradient(w, x, labels), gradient(w, *doubled), rtol=0, atol=1e-15)


def test_gradient_zero_at_stationary_point():
    # all-zero weights with balanced labels: outputs 0.5, hidden activity 0
    x, _ = random_set(10, 5)
    assert np.linalg.norm(gradient(np.zeros(151), x, np.array([0, 1] * 5, dtype=np.uint8))) < 1e-12


def test_gradient_small_at_fitted_minimum():
    s = xor_set()
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    cfg = TrainConfig(max_iters=3000, max_val_failures=10**9)
    fitted, report = train(m, s, s, cfg)
    assert np.linalg.norm(gradient(fitted.weights, *s)) < 1e-3
    assert report["final_train_loss"] < 0.01


# --- training ---

def test_train_zero_iters_returns_initial_model():
    m = init_model(1, UNIT_NORM, CANONICAL_ORDER)
    s = random_set(12, 0)
    out, report = train(m, s, s, TrainConfig(max_iters=0))
    assert np.array_equal(out.weights, m.weights)
    assert report["stop_reason"] == "max_iters"
    assert report["iterations_run"] == 0


def test_train_deterministic():
    s = random_set(40, 1)
    v = random_set(10, 2)
    runs = []
    for _ in range(2):
        m = init_model(3, UNIT_NORM, CANONICAL_ORDER)
        out, _ = train(m, s, v, TrainConfig(max_iters=50))
        runs.append(out.weights)
    assert np.array_equal(runs[0], runs[1])


def step_lines(caplog) -> list[str]:
    """The trainer's debug lines, one per accepted step and one per search
    that found no step."""
    return [r.getMessage() for r in caplog.records
            if r.name == "litterscan.mlp" and r.getMessage().startswith("train s")]


def test_one_forward_pass_per_evaluated_weight_vector(monkeypatch, caplog):
    # each weight vector the trainer evaluates costs one forward pass: on the
    # train set the starting point and every line-search probe, on the
    # validation set the starting point and every accepted step; the one
    # model built is the one returned
    s, v = random_set(40, 1), random_set(10, 2)
    m = init_model(3, UNIT_NORM, CANONICAL_ORDER)
    passes, evaluated, models = [0], [], [0]
    forward_impl, objective_impl = mlp._forward, mlp._objective
    post_init = MlpModel.__post_init__

    def counting_forward(*args):
        passes[0] += 1
        return forward_impl(*args)

    def recording_objective(flat, x, labels):
        evaluated.append((x is s[0], flat.tobytes()))
        return objective_impl(flat, x, labels)

    def counting_post_init(self):
        models[0] += 1
        post_init(self)

    monkeypatch.setattr(mlp, "_forward", counting_forward)
    monkeypatch.setattr(mlp, "_objective", recording_objective)
    monkeypatch.setattr(MlpModel, "__post_init__", counting_post_init)
    caplog.set_level(logging.DEBUG, logger="litterscan.mlp")
    _, report = train(m, s, v, TrainConfig(max_iters=5, max_val_failures=10**9))
    k = report["iterations_run"]
    assert (k, report["stop_reason"]) == (5, "max_iters")
    probes = [int(re.search(r", probes (\d+),", line)[1]) for line in step_lines(caplog)]
    assert len(probes) == k and sum(probes) > k  # some search probed more than once
    assert passes[0] == len(evaluated) == len(set(evaluated))
    assert sum(on_train for on_train, _ in evaluated) == 1 + sum(probes)
    assert sum(not on_train for on_train, _ in evaluated) == k + 1
    assert models[0] == 1


def test_every_accepted_step_meets_the_strong_wolfe_conditions():
    # the iterates, from outside the trainer: with the train set as the
    # validation set every accepted step lowers the validation loss, so a run
    # capped at j iterations returns the j-th iterate
    s = random_set(60, 4)
    m = init_model(4, UNIT_NORM, CANONICAL_ORDER)
    iterates = [m.weights]
    for j in range(1, 13):
        fitted, report = train(m, s, s, TrainConfig(max_iters=j, max_val_failures=10**9))
        assert report["iterations_run"] == j
        iterates.append(fitted.weights)
    for w0, w1 in zip(iterates, iterates[1:]):
        p = w1 - w0  # alpha * d; both conditions are invariant to its scale
        slope0 = float(gradient(w0, *s) @ p)
        slope1 = float(gradient(w1, *s) @ p)
        assert slope0 < 0.0
        tol = 1e-9 * abs(slope0)  # rounding of p = w1 - w0
        assert loss(w1, *s) <= loss(w0, *s) + mlp.WOLFE_C1 * slope0 + tol
        assert abs(slope1) <= mlp.WOLFE_C2 * abs(slope0) + tol


def test_a_search_that_finds_no_step_restarts_then_stops(monkeypatch, caplog):
    # after the first accepted step every train loss is NaN, so no probe is
    # acceptable: the search along the PR+ direction uses up its probes and
    # restarts the direction to -g, the one along -g does too, and training
    # stops as gradient_converged with the model of the one accepted step
    s, v = random_set(40, 1), random_set(10, 2)
    m = init_model(3, UNIT_NORM, CANONICAL_ORDER)
    one_step, _ = train(m, s, v, TrainConfig(max_iters=1))
    objective_impl = mlp._objective
    val_evaluations, failed = [0], [0]

    def failing_after_one_step(flat, x, labels):
        f, grad = objective_impl(flat, x, labels)
        if x is v[0]:
            val_evaluations[0] += 1
        elif val_evaluations[0] >= 2:
            failed[0] += 1
            return math.nan, grad
        return f, grad

    monkeypatch.setattr(mlp, "_objective", failing_after_one_step)
    caplog.set_level(logging.DEBUG, logger="litterscan.mlp")
    fitted, report = train(m, s, v, TrainConfig(max_iters=50, max_val_failures=10**9))
    assert (report["iterations_run"], report["stop_reason"]) == (1, "gradient_converged")
    assert len(report["loss_history"]) == 2
    assert np.array_equal(fitted.weights, one_step.weights)
    assert failed[0] == 2 * mlp.WOLFE_MAX_PROBES
    lines = step_lines(caplog)
    assert lines[0].startswith("train step 1: alpha ")
    assert lines[1:] == [
        f"train search 2: no strong-Wolfe step in {mlp.WOLFE_MAX_PROBES} probes, restart",
        f"train search 3: no strong-Wolfe step in {mlp.WOLFE_MAX_PROBES} probes, stop"]


# Ten iterations on 120 000 samples, enough for OpenBLAS to split a
# matrix-vector product over the samples between two threads; prints the
# SHA-256 of the fitted weights.
THREADS_RUN = """
import hashlib
import numpy as np
from litterscan.bands import CANONICAL_ORDER
from litterscan.dataset import Normalizer
from litterscan.mlp import TrainConfig, init_model, train
from litterscan.rng import SplitMix64

n_train, n_val = 120_000, 20_000
x = SplitMix64(0).uniforms(-1.5, 1.5, (n_train + n_val) * 13).reshape(-1, 13)
labels = (x[:, :6].sum(axis=1) > x[:, 6:].sum(axis=1)).astype(np.uint8)
model = init_model(3, Normalizer(np.full(13, -1.0), np.full(13, 1.0)), CANONICAL_ORDER)
fitted, _ = train(model, (x[:n_train], labels[:n_train]), (x[n_train:], labels[n_train:]),
                  TrainConfig(max_iters=10))
print(hashlib.sha256(fitted.weights.tobytes()).hexdigest())
"""


def test_trained_bytes_do_not_depend_on_the_blas_thread_count():
    # a multithreaded BLAS splits a product's sums between its threads, so a
    # sum over samples that goes through BLAS changes its last bits with the
    # thread count; the trainer's must not
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlp.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        p = subprocess.run([sys.executable, "-c", THREADS_RUN], env=env, capture_output=True,
                           text=True, timeout=300)
        assert p.returncode == 0, p.stderr
        digests.append(p.stdout)
    assert len(digests[0].strip()) == 64 and digests[0] == digests[1]


def test_train_loss_non_increasing():
    s = random_set(60, 4)
    m = init_model(4, UNIT_NORM, CANONICAL_ORDER)
    _, report = train(m, s, s, TrainConfig(max_iters=100, max_val_failures=10**9))
    train_losses = [h[1] for h in report["loss_history"]]
    assert all(b <= a + 1e-15 for a, b in zip(train_losses, train_losses[1:]))


def test_early_stop_returns_best_validation_model():
    s = random_set(60, 6)
    v = random_set(20, 7)
    m = init_model(8, UNIT_NORM, CANONICAL_ORDER)
    out, report = train(m, s, v, TrainConfig(max_iters=500, max_val_failures=3))
    val_losses = [h[2] for h in report["loss_history"]]
    assert report["final_val_loss"] <= min(val_losses) + 1e-15
    assert report["final_val_loss"] == pytest.approx(loss(out.weights, *v), rel=1e-12)
    if report["stop_reason"] == "val_early_stop":
        assert report["iterations_run"] < 500


def test_train_xor_reaches_low_mse():
    s = xor_set()
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    _, report = train(m, s, s, TrainConfig(max_iters=2000, max_val_failures=10**9))
    assert report["final_train_loss"] < 0.01


def test_train_separable_problem():
    # two 13-d Gaussian classes, means 4 sigma apart
    rng = np.random.default_rng(0)
    n = 1000
    x0 = rng.normal(0.0, 0.1, size=(n, 13))
    x1 = rng.normal(0.4, 0.1, size=(n, 13))
    feats = np.vstack([x0, x1])
    labels = np.array([0] * n + [1] * n, dtype=np.uint8)
    perm = np.random.default_rng(1).permutation(2 * n)
    s = feats[perm[:1400]], labels[perm[:1400]]
    v = feats[perm[1400:1700]], labels[perm[1400:1700]]
    t = perm[1700:]
    m = init_model(0, UNIT_NORM, CANONICAL_ORDER)
    out, _ = train(m, s, v, TrainConfig(max_iters=200))
    pred = (forward_batch(out.weights, feats[t]) >= 0.5).astype(int)
    assert (pred != labels[t]).mean() < 0.02


# --- inference + serialization ---

def test_predict_map_threshold_and_range():
    m = pinned_model()
    rng = np.random.default_rng(2)
    omap = predict_map(m, CANONICAL_ORDER, rng.uniform(0, 1, size=(4, 5, 13)))
    assert omap.shape == (4, 5) and omap.dtype == np.float64
    assert ((omap > 0) & (omap < 1)).all()
    assert not threshold_map(omap, 1.1).any()  # outputs < 1
    assert threshold_map(omap, -0.1).all()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="threshold must be finite"):
            threshold_map(omap, bad)


def test_predict_map_folds_the_normalizer_into_the_first_layer():
    """The folded layer on raw values gives the scores of the normalized
    path to float64 rounding (a reassociated 13-term sum per unit)."""
    rng = np.random.default_rng(5)
    lo = rng.uniform(50, 500, 13)
    norm = Normalizer(lo, lo + rng.uniform(1000, 3000, 13))
    m = init_model(4, norm, CANONICAL_ORDER)
    values = rng.uniform(0, 4000, size=(6, 7, 13))
    x = values.reshape(-1, 13)
    expect = forward_batch(m.weights, apply_normalizer(norm, x)).reshape(6, 7)
    assert np.allclose(predict_map(m, CANONICAL_ORDER, values), expect, rtol=0, atol=1e-12)
    folded = mlp.fold_normalizer(m)
    assert folded.shape == (10, 14)
    ones = np.ones((x.shape[0], 1))
    assert np.allclose(np.hstack([x, ones]) @ folded.T,
                       np.hstack([apply_normalizer(norm, x), ones]) @ mlp._layers(m.weights)[0].T,
                       rtol=1e-12, atol=1e-9)


def test_predict_map_band_mismatch():
    m = pinned_model()
    with pytest.raises(ValueError, match="do not match"):
        predict_map(m, ("B2", "B3"), np.zeros((2, 2, 2)))


def test_model_round_trip(tmp_path):
    m = init_model(9, Normalizer(np.zeros(13), np.full(13, 4095.0)), CANONICAL_ORDER)
    path = tmp_path / "m.json"
    save_model(m, path)
    back = load_model(path)
    assert np.array_equal(back.weights, m.weights)
    assert back.band_order == m.band_order
    x = np.linspace(100, 4000, 13)
    xn = 2 * (x - back.normalizer.minimum) / (back.normalizer.maximum - back.normalizer.minimum) - 1
    assert forward_batch(back.weights, xn[None])[0] == forward_batch(m.weights, xn[None])[0]


def test_load_model_wrong_weight_count(tmp_path):
    m = pinned_model()
    path = tmp_path / "m.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["weights_output"] = doc["weights_output"][:-1]  # 150 weights total
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="parameter counts"):
        load_model(path)


@pytest.mark.parametrize("band_order, message", [
    (["B1"] * 13, "model band_order: duplicate band id 'B1'"),
    (["X1", *CANONICAL_ORDER[1:]], "model band_order: unknown band id 'X1'"),
])
def test_load_model_checks_its_band_ids(tmp_path, band_order, message):
    """A model's band_order follows the one rule for band id lists, so a bad
    one fails when the model loads, not at the first cube block."""
    path = tmp_path / "m.json"
    save_model(pinned_model(), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "band_order": band_order}))
    with pytest.raises(ValueError, match=message):
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
    assert forward_batch(m.weights, np.zeros(13)[None])[0] == 0.5
