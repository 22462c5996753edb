"""Labeled per-pixel samples: class balancing on the labels, extraction of
the kept pixels from the cube, 70/15/15 split, min-max input normalization.

All randomness flows through the SplitMix64 generator so a given seed
reproduces the exact same splits and subsets.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .bands import CANONICAL_ORDER
from .raster_io import row_ranges
from .resample import CubeHeader, map_cube_rows
from .rng import SplitMix64

N_FEATURES = len(CANONICAL_ORDER)


@dataclass(frozen=True)
class Normalizer:
    """Per-band min/max from the training split; maps values to [-1, 1]."""

    minimum: np.ndarray  # (13,)
    maximum: np.ndarray  # (13,)

    def __post_init__(self):
        lo = np.ascontiguousarray(np.asarray(self.minimum, dtype=np.float64))
        hi = np.ascontiguousarray(np.asarray(self.maximum, dtype=np.float64))
        if lo.shape != (N_FEATURES,) or hi.shape != (N_FEATURES,):
            raise ValueError(f"normalizer needs {N_FEATURES} min/max pairs")
        if not (lo < hi).all():
            bad = [i for i in range(N_FEATURES) if lo[i] >= hi[i]]
            raise ValueError(f"degenerate band(s) at index {bad}: min >= max")
        with np.errstate(over="ignore"):  # an overflowing span is rejected, not warned about
            if not np.isfinite(hi - lo).all():
                raise ValueError("normalizer max - min must be finite")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "minimum", lo)
        object.__setattr__(self, "maximum", hi)


@dataclass(frozen=True)
class SplitSpec:
    """The train and validation shares of a split; the test set is the rest."""

    train_frac: float = 0.70
    val_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for f in (self.train_frac, self.val_frac):
            if not 0.0 < f < 1.0:
                raise ValueError("split fractions must be in (0, 1)")
        if not self.train_frac + self.val_frac < 1.0:
            raise ValueError("train and validation fractions must sum to less than 1")


def check_grid(header: CubeHeader, labels: np.ndarray) -> None:
    """Raise ValueError unless `labels` lie on the cube's grid and the cube
    has the 13 bands of a sample."""
    if labels.shape != (header.rows, header.cols):
        raise ValueError(f"mask {'x'.join(map(str, labels.shape))} does not match cube "
                         f"{header.rows}x{header.cols}")
    if len(header.band_ids) != N_FEATURES:
        raise ValueError(f"cube has {len(header.band_ids)} bands, need {N_FEATURES}")


def balance(labels: np.ndarray, seed: int) -> np.ndarray:
    """The sorted flat indices of the pixels kept when the majority class of
    the 2-D bool mask `labels` is undersampled to the minority count.

    The majority subset is the first k entries of a seeded Fisher-Yates
    shuffle of the majority indices.
    """
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    if idx0.size == 0 or idx1.size == 0:
        raise ValueError("both classes must be present to balance")
    minority, majority = (idx0, idx1) if idx0.size <= idx1.size else (idx1, idx0)
    perm = SplitMix64(seed).permutation(majority.size)
    return np.sort(np.concatenate([minority, majority[perm[:minority.size]]]))


def split(pixels: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, tuple[int, int]]:
    """A seeded shuffle of `pixels` and the ends of its train and validation
    parts, for `np.split`: a contiguous partition of sizes floor(n*train),
    floor(n*val) and the remainder, the test part. A train or validation
    part of no pixel raises ValueError."""
    n = len(pixels)
    n_train, n_val = int(n * spec.train_frac), int(n * spec.val_frac)
    if n_train == 0 or n_val == 0:
        raise ValueError(f"train and validation sets must be nonempty: {n} samples "
                         f"split into {n_train} and {n_val}")
    shuffled = np.asarray(pixels)[SplitMix64(spec.seed).permutation(n)]
    return shuffled, (n_train, n_train + n_val)


def extract_samples(header: CubeHeader, labels: np.ndarray,
                    pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 13) float64 band values and the (n,) labels of `pixels`, flat
    indices into the cube's grid: row i is the i-th pixel, its values widened
    from f32 and its label in `labels`, a mask on that grid (`check_grid`).
    Each pixel of the grid is given at most once, as `balance` and `split`
    give them. One pass over the cube's row blocks (`resample.map_cube_rows`,
    every value of every band checked) gathers each block's pixels in the
    thread that maps it and writes them straight into their rows."""
    rows = np.argsort(pixels)  # the row of each pixel, in grid order
    in_grid_order = pixels[rows]

    def offsets():
        """Each block's kept pixels, in grid order, as offsets into the block."""
        lo = 0
        for r0, r1 in row_ranges(header.rows, header.cols):
            hi = np.searchsorted(in_grid_order, r1 * header.cols)
            yield in_grid_order[lo:hi] - r0 * header.cols
            lo = hi

    def gather(band_ids, block, at):
        return block.reshape(-1, N_FEATURES)[at]

    features = np.empty((len(pixels), N_FEATURES))
    lo = 0
    # closed on any error, so the stream's helper thread stops here
    with contextlib.closing(map_cube_rows(header, gather, offsets())) as blocks:
        for values in blocks:
            features[rows[lo:lo + len(values)]] = values
            lo += len(values)
    return features, labels.flat[pixels]


def fit_normalizer(features: np.ndarray) -> Normalizer:
    """The per-band min/max of the (n, 13) training rows `features`."""
    return Normalizer(features.min(axis=0), features.max(axis=0))


def normalize_set(norm: Normalizer, features: np.ndarray) -> None:
    """Map the float64 `features` in place to 2*(x - min)/(max - min) - 1 per
    band, with no clamping: values outside the training range land outside
    [-1, 1]."""
    features -= norm.minimum
    features *= 2.0
    features /= norm.maximum - norm.minimum
    features -= 1.0


def apply_normalizer(norm: Normalizer, v: np.ndarray) -> np.ndarray:
    """A float64 copy of `v` through `normalize_set`."""
    v = np.array(v, dtype=np.float64)
    normalize_set(norm, v)
    return v

