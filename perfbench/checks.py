"""Output checks that share no code with the program.

Each check reads the program's artifacts with its own parsers, recomputes
the expected result with its own numpy code and raises CheckError on the
first disagreement.  Constants that the program also defines (the FDI
wavelengths, the split fractions) are written out here on purpose.
"""

from __future__ import annotations

import json
import os

import numpy as np

from inputs import BAND_IDS

# f32 artifacts hold values rounded from float64: half an ulp is 2^-24 of
# the value, so these leave a factor of four for the float64 arithmetic.
SCORE_TOL = 2.0 ** -23         # absolute, scores lie in (0, 1)
REL_TOL = 2.0 ** -22           # relative, for DN-valued rasters
ABS_TOL = 1e-6
MIN_ACCURACY = 0.99
# Table-I centre wavelengths (nm) of B4, B8 and B11 for the FDI baseline.
WL_B4, WL_B8, WL_B11 = 665.0, 842.0, 1610.0
# Band positions in a cube written in canonical B1..B12 order.
BAND = {bid: i for i, bid in enumerate(BAND_IDS)}
ROW_BLOCK = 256


class CheckError(Exception):
    """An artifact disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# readers

def read_pgm(path: str) -> np.ndarray:
    """P5 PGM with maxval 255 (uint8) or 65535 (uint16)."""
    with open(path, "rb") as f:
        raw = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while raw[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        fields.append(raw[pos:end])
        pos = end
    _require(fields[0] == b"P5", f"{path}: not a P5 PGM")
    cols, rows, maxval = (int(x) for x in fields[1:])
    dtype = np.uint8 if maxval == 255 else np.dtype(">u2")
    px = np.frombuffer(raw, dtype=dtype, count=rows * cols, offset=pos + 1)
    return px.reshape(rows, cols)


def read_float_raster(path: str) -> np.ndarray:
    with open(path + ".json", encoding="utf-8") as f:
        meta = json.load(f)
    data = np.fromfile(path, dtype="<f4")
    _require(data.size == meta["rows"] * meta["cols"], f"{path}: wrong payload size")
    return data.reshape(meta["rows"], meta["cols"]).astype(np.float64)


def open_cube(manifest: str) -> np.ndarray:
    """Read-only (rows, cols, bands) f32 view of a cube payload."""
    with open(manifest, encoding="utf-8") as f:
        doc = json.load(f)
    _require(tuple(doc["bands"]) == tuple(BAND), f"{manifest}: bands {doc['bands']}")
    payload = os.path.join(os.path.dirname(manifest), doc["file"])
    return np.memmap(payload, dtype="<f4", mode="r",
                     shape=(doc["rows"], doc["cols"], len(BAND)))


def _plane(cube: np.ndarray, bid: str) -> np.ndarray:
    return np.asarray(cube[:, :, BAND[bid]], dtype=np.float64)


def _agree(got: np.ndarray, want: np.ndarray, what: str, atol=ABS_TOL) -> None:
    bad = np.abs(got - want) > atol + REL_TOL * np.abs(want)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise CheckError(f"{what}: {int(bad.sum())} pixel(s) off, first at ({r}, {c}): "
                         f"{got[r, c]!r} != {want[r, c]!r}")


def _mask_agrees(mask_path: str, want: np.ndarray, margin: np.ndarray, what: str) -> None:
    """Mask equals `want` except where `margin` marks a value within tolerance
    of its threshold, where either class is accepted."""
    got = read_pgm(mask_path) > 0
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    bad = (got != want) & ~margin
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise CheckError(f"{what}: {int(bad.sum())} pixel(s) flipped, first at ({r}, {c})")


# ---------------------------------------------------------------------------
# classifier route

def forward_scores(model_path: str, cube: np.ndarray) -> np.ndarray:
    """min-max map to [-1, 1], tanh hidden layer, logistic output."""
    with open(model_path, encoding="utf-8") as f:
        model = json.load(f)
    wh = np.asarray(model["weights_hidden"], dtype=np.float64)
    wo = np.asarray(model["weights_output"], dtype=np.float64)
    lo = np.asarray(model["normalizer"]["min"], dtype=np.float64)
    hi = np.asarray(model["normalizer"]["max"], dtype=np.float64)
    rows, cols, n_bands = cube.shape
    out = np.empty((rows, cols))
    for r0 in range(0, rows, ROW_BLOCK):
        x = np.asarray(cube[r0:r0 + ROW_BLOCK], dtype=np.float64).reshape(-1, n_bands)
        x = 2.0 * (x - lo) / (hi - lo) - 1.0
        h = np.tanh(x @ wh[:, :n_bands].T + wh[:, n_bands])
        z = h @ wo[:-1] + wo[-1]
        out[r0:r0 + ROW_BLOCK] = (1.0 / (1.0 + np.exp(-z))).reshape(-1, cols)
    return out


def check_prediction(model_path: str, cube_path: str, scores_path: str,
                     mask_path: str, threshold: float = 0.5) -> None:
    want = forward_scores(model_path, open_cube(cube_path))
    got = read_float_raster(scores_path)
    _require(got.shape == want.shape, f"scores: shape {got.shape} != {want.shape}")
    _agree(got, want, "scores", atol=SCORE_TOL)
    _mask_agrees(mask_path, want >= threshold,
                 np.abs(want - threshold) <= SCORE_TOL, "prediction mask")


def check_confusion(pred_path: str, truth_path: str, eval_path: str,
                    min_accuracy: float = MIN_ACCURACY) -> None:
    pred = read_pgm(pred_path) > 0
    truth = read_pgm(truth_path) > 0
    _require(pred.shape == truth.shape, "eval: prediction and truth differ in shape")
    counts = {"tn": int(np.count_nonzero(~pred & ~truth)),
              "fp": int(np.count_nonzero(pred & ~truth)),
              "fn": int(np.count_nonzero(~pred & truth)),
              "tp": int(np.count_nonzero(pred & truth))}
    with open(eval_path, encoding="utf-8") as f:
        report = json.load(f)
    _require(report["counts"] == counts, f"eval counts {report['counts']} != {counts}")
    accuracy = (counts["tn"] + counts["tp"]) / pred.size
    _require(accuracy >= min_accuracy,
             f"accuracy {accuracy:.4f} against the known truth is below {min_accuracy}")


def check_training_report(report_path: str, rows: int, cols: int,
                          plastic_frac: float = 0.15) -> int:
    """Armijo monotonicity, best-validation bookkeeping and 70/15/15 split
    sizes; returns the iterations run."""
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    history = report["training"]["loss_history"]
    train = [h[1] for h in history]
    rises = [k for k in range(1, len(train)) if train[k] > train[k - 1]]
    _require(not rises, f"train loss rises at history entries {rises[:5]}")
    best_val = min(h[2] for h in history)
    _require(report["training"]["final_val_loss"] == best_val,
             f"final_val_loss {report['training']['final_val_loss']!r} is not the "
             f"minimum validation loss {best_val!r}")
    n = 2 * round(plastic_frac * rows * cols)
    n_train, n_val = 7 * n // 10, 15 * n // 100
    want = {"train": n_train, "val": n_val, "test": n - n_train - n_val}
    _require(report["split"] == want, f"split sizes {report['split']} != {want}")
    return int(report["training"]["iterations_run"])


# ---------------------------------------------------------------------------
# index route

def fdi(cube: np.ndarray) -> np.ndarray:
    factor = 10.0 * (WL_B8 - WL_B4) / (WL_B11 - WL_B4)
    b6, b11 = _plane(cube, "B6"), _plane(cube, "B11")
    return _plane(cube, "B8") - (b6 + factor * (b11 - b6))


def ndvi(cube: np.ndarray) -> np.ndarray:
    b4, b8 = _plane(cube, "B4"), _plane(cube, "B8")
    s = b8 + b4
    return np.divide(b8 - b4, s, out=np.zeros_like(s), where=s != 0)


def _near(values: np.ndarray, threshold: float) -> np.ndarray:
    return np.abs(values - threshold) <= ABS_TOL + REL_TOL * np.abs(values)


def check_fdi(cube_path: str, fdi_path: str, mask_path: str, threshold: float) -> None:
    want = fdi(open_cube(cube_path))
    got = read_float_raster(fdi_path)
    _require(got.shape == want.shape, f"fdi: shape {got.shape} != {want.shape}")
    _agree(got, want, "fdi")
    _mask_agrees(mask_path, want >= threshold, _near(want, threshold), "fdi mask")


def check_combined(cube_path: str, mask_path: str, ndvi_max: float, fdi_min: float) -> None:
    cube = open_cube(cube_path)
    f, v = fdi(cube), ndvi(cube)
    _mask_agrees(mask_path, (f >= fdi_min) & (v <= ndvi_max),
                 _near(f, fdi_min) | _near(v, ndvi_max), "combined mask")


def check_b8b9(cube_path: str, b8b9_path: str) -> None:
    cube = open_cube(cube_path)
    b8, b9 = _plane(cube, "B8"), _plane(cube, "B9")
    s = b8 + b9
    want = np.divide(b8 - b9, s, out=np.zeros_like(s), where=s != 0)
    _agree(read_float_raster(b8b9_path), want, "b8b9")


# ---------------------------------------------------------------------------
# alignment

def lanczos3(x: np.ndarray) -> np.ndarray:
    """sinc(x) sinc(x/3) on |x| < 3."""
    return np.where(np.abs(x) < 3.0, np.sinc(x) * np.sinc(x / 3.0), 0.0)


def axis_taps(dst: np.ndarray, n_src: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Clamped source indices and normalised weights, (len(dst), 6) each,
    for destination samples `dst` under pixel-centre mapping."""
    src = (dst + 0.5) / scale - 0.5
    idx = np.floor(src).astype(np.int64)[:, None] + np.arange(-2, 4)
    w = lanczos3(src[:, None] - idx)
    return np.clip(idx, 0, n_src - 1), w / w.sum(axis=1, keepdims=True)


def lanczos3_at(img: np.ndarray, scale: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Separable Lanczos3 upscaled values of `img` at output pixels (rows, cols)."""
    iy, wy = axis_taps(rows.astype(np.float64), img.shape[0], scale)
    ix, wx = axis_taps(cols.astype(np.float64), img.shape[1], scale)
    window = img.astype(np.float64)[iy[:, :, None], ix[:, None, :]]
    return np.einsum("ka,kb,kab->k", wy, wx, window)


def check_alignment(band_paths: dict[str, str], cube_path: str,
                    constant_band: str, n_samples: int = 512) -> None:
    """10 m bands pass unchanged, the constant band stays constant, and a
    seeded sample of every upscaled band (corners included) matches the
    clamped, normalised Lanczos3 sum."""
    cube = open_cube(cube_path)
    rows, cols = cube.shape[:2]
    rng = np.random.default_rng(0)
    rr = np.concatenate([[0, 0, rows - 1, rows - 1], rng.integers(0, rows, n_samples)])
    cc = np.concatenate([[0, cols - 1, 0, cols - 1], rng.integers(0, cols, n_samples)])
    for bid, path in band_paths.items():
        src = read_pgm(path)
        scale = rows // src.shape[0]
        _require(src.shape[0] * scale == rows and src.shape[1] * scale == cols,
                 f"{bid}: {src.shape} does not divide the {rows}x{cols} grid")
        out = cube[:, :, BAND[bid]]
        if scale == 1:
            _require(np.array_equal(out, src), f"{bid}: 10 m band changed by alignment")
            continue
        if bid == constant_band:
            value = float(src[0, 0])
            _require((src == src[0, 0]).all(), f"{bid}: input band is not constant")
            _agree(np.asarray(out, dtype=np.float64), np.full(out.shape, value),
                   f"{bid}: constant band")
        got = np.asarray(out[rr, cc], dtype=np.float64)
        want = lanczos3_at(src, scale, rr, cc)
        bad = np.abs(got - want) > ABS_TOL + REL_TOL * np.abs(want)
        if bad.any():
            k = int(np.argmax(bad))
            raise CheckError(f"{bid}: Lanczos3 sample at ({rr[k]}, {cc[k]}) is "
                             f"{got[k]!r}, expected {want[k]!r}")
