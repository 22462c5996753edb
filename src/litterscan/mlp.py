"""13-10-1 multilayer perceptron: tanh hidden layer, logistic output,
mean-squared-error loss, exact backprop gradients, and a Polak-Ribiere+
conjugate-gradient trainer with Armijo backtracking and validation-based
early stopping.

One objective, `_objective`, evaluates a flat weight vector: one forward pass
gives the loss, and the gradient is backpropagated from its activations.
`loss`, `gradient`, `forward_batch` and every line-search probe take that
vector, so training spends one forward pass per weight vector it evaluates
and builds one model, the one it returns. Scores without gradients
(`forward_batch`, `predict_map`) go through `_scores`, which runs the same
`_forward` on a fixed chunk of rows at a time, so its working set does not
grow with the rows it is given. An `MlpModel` joins the vector to the
normalizer and band order that a model file and a prediction need.

The optimizer's constants are fixed (Nocedal & Wright, Numerical Optimization,
sections 3.1 and 5.2): CG restarts every N_PARAMS iterations; Armijo search
starts at step 1, halves it on rejection and uses sufficient-decrease c = 1e-4;
training stops when the gradient norm falls below GRAD_TOL.

Flat weight layout (151 = 14*10 + 11): the 10x14 hidden matrix row-major
(columns 0..12 input weights, column 13 bias), then the 11 output weights
(10 hidden weights, then bias). It is the model's own: `MlpModel.weights` is
this vector, and `_layers` is the one place that splits it into the two
layers. The model, its gradient and its file all use this order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bands import check_band_ids
from .dataset import N_FEATURES, Normalizer
from .raster_io import read_json_object, write_json
from .rng import SplitMix64

N_HIDDEN = 10
N_PARAMS = (N_FEATURES + 1) * N_HIDDEN + (N_HIDDEN + 1)  # 151
MIN_SAMPLES_PER_WEIGHT = 15
MODEL_SCHEMA_VERSION = 1
ACTIVATIONS = ("tanh", "logistic")  # hidden, output; the only pair supported
SCORE_THRESHOLD = 0.5  # a pixel scored at or above it is plastic: predict's default

CG_RESTART_EVERY = N_PARAMS
ARMIJO_INITIAL_STEP = 1.0
ARMIJO_SHRINK = 0.5
ARMIJO_C = 1e-4
GRAD_TOL = 1e-10

# Pixels scored at once by `_scores`: a chunk's float64 copy and (n, 10)
# activations, about 2 MB, stay in a core's L2 cache whatever the row block.
_CHUNK_PIXELS = 1 << 13


@dataclass(frozen=True)
class MlpModel:
    weights: np.ndarray  # (151,), read-only, in the flat layout
    normalizer: Normalizer
    band_order: tuple[str, ...]

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (N_PARAMS,):
            raise ValueError(f"expected {N_PARAMS} weights, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        check_band_ids(self.band_order, what="model band_order")
        if len(self.band_order) != N_FEATURES:
            raise ValueError(f"band_order must list {N_FEATURES} bands")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "band_order", tuple(self.band_order))


@dataclass(frozen=True)
class TrainConfig:
    """Stopping rules of `train`. The PR+ restart period, the Armijo
    constants and the gradient tolerance are fixed: see CG_RESTART_EVERY,
    ARMIJO_* and GRAD_TOL."""

    max_iters: int = 1000
    max_val_failures: int = 6

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.max_val_failures <= 0:
            raise ValueError("max_val_failures must be positive")


# ---------------------------------------------------------------------------
# construction, forward, loss, gradient

def init_model(seed: int, normalizer: Normalizer, band_order) -> MlpModel:
    """Seeded uniform(-r, r) init with r = sqrt(6 / (fan_in + fan_out)) per
    layer; draw order matches the flat weight layout."""
    rng = SplitMix64(seed)
    r_h = math.sqrt(6.0 / (N_FEATURES + N_HIDDEN))
    r_o = math.sqrt(6.0 / (N_HIDDEN + 1))
    return MlpModel(np.concatenate([rng.uniforms(-r_h, r_h, N_HIDDEN * (N_FEATURES + 1)),
                                    rng.uniforms(-r_o, r_o, N_HIDDEN + 1)]),
                    normalizer, band_order)


def _layers(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of a flat weight vector: hidden (10, 14) and output (11,) weights."""
    n_h = N_HIDDEN * (N_FEATURES + 1)
    return flat[:n_h].reshape(N_HIDDEN, N_FEATURES + 1), flat[n_h:]


def with_weights(model: MlpModel, flat: np.ndarray) -> MlpModel:
    return MlpModel(flat, model.normalizer, model.band_order)


_TINY = np.nextafter(0.0, 1.0)
_ALMOST_ONE = np.nextafter(1.0, 0.0)


def _logistic(z):
    # exp of -|z| never overflows: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below;
    # clamp so saturated activations still honor the open-interval (0, 1)
    # output contract in float64
    e = np.exp(-np.abs(z))
    return np.clip(np.where(z >= 0, 1.0, e) / (1.0 + e), _TINY, _ALMOST_ONE)


def _forward(wh: np.ndarray, wo: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 13) inputs -> hidden activations (n, 10), outputs (n,), in float64:
    the first matmul promotes float32 inputs.
    Huge finite weights may overflow a sum: a score that saturates is a valid
    output, and a NaN is rejected where the scores are used, so numpy's
    warnings are not printed."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = x @ wh[:, :N_FEATURES].T
        h += wh[:, N_FEATURES]
        np.tanh(h, out=h)  # in place: one (n, 10) array per pass
        return h, _logistic(h @ wo[:N_HIDDEN] + wo[N_HIDDEN])


def _scores(wh: np.ndarray, wo: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (n,) float64 outputs of `_forward` for the (n, 13) inputs `x`,
    computed _CHUNK_PIXELS rows at a time: each row's score is the same
    computation whatever the chunk, and the working set stays one chunk's."""
    out = np.empty(len(x))
    for i in range(0, len(x), _CHUNK_PIXELS):
        out[i:i + _CHUNK_PIXELS] = _forward(wh, wo, x[i:i + _CHUNK_PIXELS])[1]
    return out


def forward_batch(flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (n,) outputs, in (0, 1), of the weights `flat` on the (n, 13)
    normalized features `x`."""
    return _scores(*_layers(flat), np.asarray(x, dtype=np.float64))


def _objective(flat: np.ndarray, x: np.ndarray, labels: np.ndarray):
    """MSE of the weights `flat` on the (n, 13) normalized features `x`
    against their 0/1 `labels`, and a function giving its exact gradient, in
    flat layout order, by backprop through the same pass. The gradient
    overwrites the pass's hidden activations, so it may be called only once."""
    wh, wo = _layers(flat)
    h, y = _forward(wh, wo, x)
    e = y - labels.astype(np.float64)

    def grad() -> np.ndarray:
        dz_out = (2.0 / x.shape[0]) * e * y * (1.0 - y)        # dL/dz_out, (n,)
        g_wo = np.concatenate([dz_out @ h, [dz_out.sum()]])    # (11,)
        dz_h = np.multiply(dz_out[:, None], wo[:N_HIDDEN])     # (n, 10)
        np.multiply(h, h, out=h)
        np.subtract(1.0, h, out=h)                              # 1 - h*h, in place
        dz_h *= h
        g_wh = np.concatenate([dz_h.T @ x, dz_h.sum(axis=0)[:, None]], axis=1)  # (10, 14)
        return np.concatenate([g_wh.reshape(-1), g_wo])

    return float(np.mean(e * e)), grad


def loss(flat: np.ndarray, x: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared error of the weights `flat` against 0/1 targets."""
    return _objective(flat, x, labels)[0]


def gradient(flat: np.ndarray, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Exact MSE gradient of the weights `flat` via backprop, in flat layout order."""
    return _objective(flat, x, labels)[1]()


def dataset_report(labels: np.ndarray) -> dict:
    """Class counts of the bool `labels` and whether they give more than
    MIN_SAMPLES_PER_WEIGHT samples per network weight."""
    n = labels.size
    n_pos = int(np.count_nonzero(labels))
    spw = n / N_PARAMS
    return {
        "n_samples": n,
        "n_negative": n - n_pos,
        "n_positive": n_pos,
        "n_weights": N_PARAMS,
        "samples_per_weight": spw,
        "samples_per_weight_ok": spw > MIN_SAMPLES_PER_WEIGHT,
    }


# ---------------------------------------------------------------------------
# training

def train(model: MlpModel, train_set: tuple[np.ndarray, np.ndarray],
          val_set: tuple[np.ndarray, np.ndarray],
          cfg: TrainConfig = TrainConfig()) -> tuple[MlpModel, dict]:
    """Polak-Ribiere+ conjugate gradient on the 151-d weight vector, fitted to
    `train_set` and validated on `val_set`, each a nonempty (x, labels) pair of
    (n, 13) normalized features and their (n,) 0/1 labels.

    Direction restarts to steepest descent every CG_RESTART_EVERY
    iterations or whenever the CG direction fails the descent test; step
    lengths come from Armijo backtracking, so the train loss never
    increases across accepted steps. The model with the best validation
    loss seen after any accepted step is the one returned, with a report
    dict: `iterations_run` (the last accepted step), `final_train_loss` and
    `final_val_loss` (the returned model's), `stop_reason` (max_iters,
    val_early_stop or gradient_converged) and `loss_history`, the
    (iteration, train loss, validation loss) of iteration 0 and of each
    accepted step. `cli` writes it as the report file's "training" block.
    """
    w = model.weights
    f_w, grad = _objective(w, *train_set)
    g = grad()
    d = -g

    best_w, best_train, best_val = w, f_w, loss(w, *val_set)
    history: list[tuple[int, float, float]] = [(0, f_w, best_val)]
    failures = 0
    stop_reason = "max_iters"

    for k in range(1, cfg.max_iters + 1):
        if not math.isfinite(f_w):
            raise ArithmeticError(f"training diverged: loss = {f_w} at iteration {k}")
        gnorm = float(np.linalg.norm(g))
        if gnorm < GRAD_TOL:
            stop_reason = "gradient_converged"
            break

        slope = float(g @ d)
        if slope >= 0.0 or (k - 1) % CG_RESTART_EVERY == 0 and k > 1:
            d = -g
            slope = -gnorm * gnorm

        # Armijo backtracking
        alpha = ARMIJO_INITIAL_STEP
        for _ in range(60):
            w_new = w + alpha * d
            f_new, grad = _objective(w_new, *train_set)
            if math.isfinite(f_new) and f_new <= f_w + ARMIJO_C * alpha * slope:
                break
            alpha *= ARMIJO_SHRINK
        else:
            if np.array_equal(d, -g):
                stop_reason = "gradient_converged"  # no decrease along -g
                break
            d = -g  # retry from steepest descent next iteration
            continue

        g_new = grad()
        beta = max(0.0, float(g_new @ (g_new - g)) / float(g @ g))
        d = -g_new + beta * d
        w, g, f_w = w_new, g_new, f_new

        v = loss(w, *val_set)
        history.append((k, f_w, v))
        if v < best_val:
            best_w, best_train, best_val = w, f_w, v
            failures = 0
        else:
            failures += 1
            if failures >= cfg.max_val_failures:
                stop_reason = "val_early_stop"
                break

    report = {"iterations_run": history[-1][0], "final_train_loss": best_train,
              "final_val_loss": best_val, "stop_reason": stop_reason,
              "loss_history": history}
    return with_weights(model, best_w), report


# ---------------------------------------------------------------------------
# inference and serialization

def fold_normalizer(model: MlpModel) -> np.ndarray:
    """The hidden layer's (10, 14) weights on raw band values: the normalizer
    a*x + c, with a = 2/(max - min) and c = -2*min/(max - min) - 1, folded
    into W' = W*diag(a) and b' = W*c + b. A folded weight that is not finite
    in float64 raises ValueError."""
    norm, wh = model.normalizer, _layers(model.weights)[0]
    w, b = wh[:, :N_FEATURES], wh[:, N_FEATURES]
    span = norm.maximum - norm.minimum
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below, not warned about
        a = 2.0 / span
        c = -2.0 * norm.minimum / span - 1.0
        folded = np.column_stack([w * a, w @ c + b])
    if not np.isfinite(folded).all():
        raise ValueError("model weights overflow when its normalizer is folded into the "
                         "first layer")
    return folded


def predict_map(model: MlpModel, band_ids: tuple[str, ...], values: np.ndarray) -> np.ndarray:
    """The network's output, in (0, 1), for every pixel of a (rows, cols, 13)
    cube of `band_ids`, from the raw band values through the folded first
    layer (`fold_normalizer`); `raster_io.write_map` thresholds it into a mask."""
    if band_ids != model.band_order:
        raise ValueError(f"cube bands {band_ids} do not match model bands {model.band_order}")
    x = values.reshape(-1, N_FEATURES)
    wo = _layers(model.weights)[1]
    return _scores(fold_normalizer(model), wo, x).reshape(values.shape[:2])


def save_model(model: MlpModel, path: str | os.PathLike) -> None:
    wh, wo = _layers(model.weights)
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "shape": [N_FEATURES, N_HIDDEN, 1],
        "activations": list(ACTIVATIONS),
        "weights_hidden": [list(row) for row in wh],
        "weights_output": list(wo),
        "normalizer": {
            "min": list(model.normalizer.minimum),
            "max": list(model.normalizer.maximum),
        },
        "band_order": list(model.band_order),
    }
    write_json(path, doc)


def _numbers(value, what: str) -> np.ndarray:
    """A nested list of JSON numbers as an array; strings and bools are not
    numbers."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif type(item) not in (int, float):
            raise ValueError(f"model {what} must be an array of numbers")
    try:
        return np.asarray(value, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged nesting, an integer beyond float range
        raise ValueError(f"model {what} must be an array of numbers") from None


def load_model(path: str | os.PathLike) -> MlpModel:
    """Parse a model JSON written by `save_model`; anything else, including
    another schema_version, raises ValueError. The fixed fields are compared
    by type as well as value, so `1.0` or `true` is not schema_version 1."""
    doc = read_json_object(path, "model")
    for key, want in (("schema_version", MODEL_SCHEMA_VERSION),
                      ("shape", [N_FEATURES, N_HIDDEN, 1]),
                      ("activations", list(ACTIVATIONS))):
        if json.dumps(doc.get(key)) != json.dumps(want):  # 1.0 and true are not 1
            raise ValueError(f"unsupported model {key} {doc.get(key)!r}, expected {want}")
    wh = _numbers(doc.get("weights_hidden"), "weights_hidden")
    wo = _numbers(doc.get("weights_output"), "weights_output")
    if wh.shape != (N_HIDDEN, N_FEATURES + 1) or wo.shape != (N_HIDDEN + 1,):
        raise ValueError(
            f"model has wrong parameter counts: hidden {wh.shape}, output {wo.shape}"
        )
    norm = doc.get("normalizer")
    if not isinstance(norm, dict):
        raise ValueError("model normalizer must be an object with min and max")
    return MlpModel(np.concatenate([wh.reshape(-1), wo]),
                    Normalizer(_numbers(norm.get("min"), "normalizer min"),
                               _numbers(norm.get("max"), "normalizer max")),
                    doc.get("band_order"))
