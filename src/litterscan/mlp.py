"""13-10-1 multilayer perceptron: tanh hidden layer, logistic output,
mean-squared-error loss, exact backprop gradients, and a Polak-Ribiere+
conjugate-gradient trainer with Armijo backtracking and validation-based
early stopping.

One objective, `_objective`, evaluates a flat weight vector: one forward pass
gives the loss, and the gradient is backpropagated from its activations.
`loss`, `gradient` and every line-search probe use it, so training spends one
forward pass per weight vector it evaluates and builds no model per probe.

The optimizer's constants are fixed (Nocedal & Wright, Numerical Optimization,
sections 3.1 and 5.2): CG restarts every N_PARAMS iterations; Armijo search
starts at step 1, halves it on rejection and uses sufficient-decrease c = 1e-4;
training stops when the gradient norm falls below GRAD_TOL.

Flat weight layout (151 = 14*10 + 11): the 10x14 hidden matrix row-major
(columns 0..12 input weights, column 13 bias), then the 11 output weights
(10 hidden weights, then bias). Gradients, serialization and tests all use
this order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .dataset import N_FEATURES, Normalizer, SampleSet, apply_normalizer
from .raster_io import read_json_object, write_json
from .resample import AlignedCube
from .rng import SplitMix64

N_HIDDEN = 10
N_PARAMS = (N_FEATURES + 1) * N_HIDDEN + (N_HIDDEN + 1)  # 151
MODEL_SCHEMA_VERSION = 1
ACTIVATIONS = ("tanh", "logistic")  # hidden, output; the only pair supported

CG_RESTART_EVERY = N_PARAMS
ARMIJO_INITIAL_STEP = 1.0
ARMIJO_SHRINK = 0.5
ARMIJO_C = 1e-4
GRAD_TOL = 1e-10


@dataclass(frozen=True)
class MlpModel:
    w_hidden: np.ndarray  # (10, 14)
    w_output: np.ndarray  # (11,)
    normalizer: Normalizer
    band_order: tuple[str, ...]

    def __post_init__(self):
        wh = np.ascontiguousarray(np.asarray(self.w_hidden, dtype=np.float64))
        wo = np.ascontiguousarray(np.asarray(self.w_output, dtype=np.float64))
        if wh.shape != (N_HIDDEN, N_FEATURES + 1):
            raise ValueError(f"w_hidden must be {(N_HIDDEN, N_FEATURES + 1)}")
        if wo.shape != (N_HIDDEN + 1,):
            raise ValueError(f"w_output must be ({N_HIDDEN + 1},)")
        if not (np.isfinite(wh).all() and np.isfinite(wo).all()):
            raise ValueError("weights must be finite")
        if len(self.band_order) != N_FEATURES:
            raise ValueError(f"band_order must list {N_FEATURES} bands")
        wh.setflags(write=False)
        wo.setflags(write=False)
        object.__setattr__(self, "w_hidden", wh)
        object.__setattr__(self, "w_output", wo)
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


@dataclass(frozen=True)
class TrainReport:
    iterations_run: int
    final_train_loss: float
    final_val_loss: float
    stop_reason: str  # max_iters | val_early_stop | gradient_converged
    loss_history: tuple[tuple[int, float, float], ...]


# ---------------------------------------------------------------------------
# construction, forward, loss, gradient

def init_model(seed: int, normalizer: Normalizer, band_order) -> MlpModel:
    """Seeded uniform(-r, r) init with r = sqrt(6 / (fan_in + fan_out)) per
    layer; draw order matches the flat weight layout."""
    rng = SplitMix64(seed)
    r_h = math.sqrt(6.0 / (N_FEATURES + N_HIDDEN))
    wh = np.array(
        [[rng.uniform(-r_h, r_h) for _ in range(N_FEATURES + 1)] for _ in range(N_HIDDEN)]
    )
    r_o = math.sqrt(6.0 / (N_HIDDEN + 1))
    wo = np.array([rng.uniform(-r_o, r_o) for _ in range(N_HIDDEN + 1)])
    return MlpModel(wh, wo, normalizer, tuple(band_order))


def flatten_weights(model: MlpModel) -> np.ndarray:
    return np.concatenate([model.w_hidden.reshape(-1), model.w_output])


def _layers(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of a flat weight vector: hidden (10, 14) and output (11,) weights."""
    n_h = N_HIDDEN * (N_FEATURES + 1)
    return flat[:n_h].reshape(N_HIDDEN, N_FEATURES + 1), flat[n_h:]


def with_weights(model: MlpModel, flat: np.ndarray) -> MlpModel:
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (N_PARAMS,):
        raise ValueError(f"expected {N_PARAMS} weights, got {flat.shape}")
    return MlpModel(*_layers(flat), model.normalizer, model.band_order)


_TINY = np.nextafter(0.0, 1.0)
_ALMOST_ONE = np.nextafter(1.0, 0.0)


def _logistic(z):
    # exp of -|z| never overflows: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below;
    # clamp so saturated activations still honor the open-interval (0, 1)
    # output contract in float64
    e = np.exp(-np.abs(z))
    return np.clip(np.where(z >= 0, 1.0, e) / (1.0 + e), _TINY, _ALMOST_ONE)


def _forward(wh: np.ndarray, wo: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 13) float64 inputs -> hidden activations (n, 10), outputs (n,).
    Huge finite weights may overflow a sum: a score that saturates is a valid
    output, and a NaN is rejected where the scores are used, so numpy's
    warnings are not printed."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.tanh(x @ wh[:, :N_FEATURES].T + wh[:, N_FEATURES])
        return h, _logistic(h @ wo[:N_HIDDEN] + wo[N_HIDDEN])


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """x: (n, 13) normalized features -> (n,) outputs in (0, 1)."""
    return _forward(model.w_hidden, model.w_output, np.asarray(x, dtype=np.float64))[1]


def forward(model: MlpModel, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (N_FEATURES,):
        raise ValueError(f"input must have {N_FEATURES} components")
    if not np.isfinite(x).all():
        raise ValueError("input must be finite")
    return float(forward_batch(model, x[None, :])[0])


def _objective(flat: np.ndarray, samples: SampleSet):
    """MSE of the weights `flat` against 0/1 targets, and a function giving its
    exact gradient, in flat layout order, by backprop through the same pass."""
    if len(samples) == 0:
        raise ValueError("cannot evaluate the network on an empty sample set")
    wh, wo = _layers(flat)
    x = samples.features
    h, y = _forward(wh, wo, x)
    e = y - samples.labels.astype(np.float64)

    def grad() -> np.ndarray:
        dz_out = (2.0 / x.shape[0]) * e * y * (1.0 - y)        # dL/dz_out, (n,)
        g_wo = np.concatenate([dz_out @ h, [dz_out.sum()]])    # (11,)
        dz_h = np.outer(dz_out, wo[:N_HIDDEN]) * (1.0 - h * h)  # (n, 10)
        g_wh = np.concatenate([dz_h.T @ x, dz_h.sum(axis=0)[:, None]], axis=1)  # (10, 14)
        return np.concatenate([g_wh.reshape(-1), g_wo])

    return float(np.mean(e * e)), grad


def loss(model: MlpModel, samples: SampleSet) -> float:
    """Mean squared error against 0/1 targets."""
    return _objective(flatten_weights(model), samples)[0]


def gradient(model: MlpModel, samples: SampleSet) -> np.ndarray:
    """Exact MSE gradient via backprop, in flat layout order."""
    return _objective(flatten_weights(model), samples)[1]()


# ---------------------------------------------------------------------------
# training

def train(model: MlpModel, train_set: SampleSet, val_set: SampleSet,
          cfg: TrainConfig = TrainConfig()) -> tuple[MlpModel, TrainReport]:
    """Polak-Ribiere+ conjugate gradient on the 151-d weight vector.

    Direction restarts to steepest descent every CG_RESTART_EVERY
    iterations or whenever the CG direction fails the descent test; step
    lengths come from Armijo backtracking, so the train loss never
    increases across accepted steps. The model with the best validation
    loss seen after any accepted step is the one returned.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be nonempty")

    w = flatten_weights(model)
    f_w, grad = _objective(w, train_set)
    g = grad()
    d = -g

    best_w, best_train, best_val = w, f_w, loss(model, val_set)
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
            f_new, grad = _objective(w_new, train_set)
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

        v = loss(with_weights(model, w), val_set)
        history.append((k, f_w, v))
        if v < best_val:
            best_w, best_train, best_val = w, f_w, v
            failures = 0
        else:
            failures += 1
            if failures >= cfg.max_val_failures:
                stop_reason = "val_early_stop"
                break

    report = TrainReport(iterations_run=history[-1][0], final_train_loss=best_train,
                         final_val_loss=best_val, stop_reason=stop_reason,
                         loss_history=tuple(history))
    return with_weights(model, best_w), report


# ---------------------------------------------------------------------------
# inference and serialization

def predict_map(model: MlpModel, cube: AlignedCube) -> np.ndarray:
    """Per-pixel normalize + forward: the network's output, in (0, 1), for
    every pixel; `raster_io.write_map` thresholds it into a mask."""
    if cube.band_ids != model.band_order:
        raise ValueError(
            f"cube bands {cube.band_ids} do not match model bands {model.band_order}"
        )
    x = apply_normalizer(model.normalizer, cube.values.reshape(-1, N_FEATURES))
    return forward_batch(model, x).reshape(cube.rows, cube.cols)


def save_model(model: MlpModel, path: str | os.PathLike) -> None:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "shape": [N_FEATURES, N_HIDDEN, 1],
        "activations": list(ACTIVATIONS),
        "weights_hidden": [list(row) for row in model.w_hidden],
        "weights_output": list(model.w_output),
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
    another schema_version, raises ValueError."""
    doc = read_json_object(path, "model")
    for key, want in (("schema_version", MODEL_SCHEMA_VERSION),
                      ("shape", [N_FEATURES, N_HIDDEN, 1]),
                      ("activations", list(ACTIVATIONS))):
        if doc.get(key) != want:
            raise ValueError(f"unsupported model {key} {doc.get(key)!r}, expected {want}")
    wh = _numbers(doc.get("weights_hidden"), "weights_hidden")
    wo = _numbers(doc.get("weights_output"), "weights_output")
    if wh.shape != (N_HIDDEN, N_FEATURES + 1) or wo.shape != (N_HIDDEN + 1,):
        raise ValueError(
            f"model has wrong parameter counts: hidden {wh.shape}, output {wo.shape}"
        )
    norm, bands = doc.get("normalizer"), doc.get("band_order")
    if not isinstance(norm, dict):
        raise ValueError("model normalizer must be an object with min and max")
    if not (isinstance(bands, list) and all(isinstance(b, str) for b in bands)):
        raise ValueError("model band_order must be a list of band ids")
    return MlpModel(wh, wo, Normalizer(_numbers(norm.get("min"), "normalizer min"),
                                       _numbers(norm.get("max"), "normalizer max")),
                    tuple(bands))
