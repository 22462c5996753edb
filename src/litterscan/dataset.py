"""Labeled per-pixel samples: extraction, class balancing, 70/15/15 split,
min-max input normalization.

All randomness flows through the SplitMix64 generator so a given seed
reproduces the exact same splits and subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster_io import check_labels
from .resample import AlignedCube
from .rng import SplitMix64

N_FEATURES = 13
MIN_SAMPLES_PER_WEIGHT = 15


@dataclass(frozen=True)
class SampleSet:
    features: np.ndarray  # (n, 13) float64
    labels: np.ndarray    # (n,) uint8 of {0, 1}

    def __post_init__(self):
        f = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        lb = np.asarray(self.labels)
        if f.ndim != 2 or f.shape[1] != N_FEATURES:
            raise ValueError(f"features must be (n, {N_FEATURES})")
        if lb.shape != (f.shape[0],):
            raise ValueError("labels length must match features")
        check_labels(lb)
        lb = np.ascontiguousarray(lb, dtype=np.uint8)
        if not np.isfinite(f).all():
            raise ValueError("features must be finite")
        f.setflags(write=False)
        lb.setflags(write=False)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", lb)

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, indices) -> "SampleSet":
        idx = np.asarray(indices, dtype=np.int64)
        return SampleSet(self.features[idx], self.labels[idx])


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
    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for f in (self.train_frac, self.val_frac, self.test_frac):
            if not 0.0 < f < 1.0:
                raise ValueError("split fractions must be in (0, 1)")
        if abs(self.train_frac + self.val_frac + self.test_frac - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


def extract_samples(cube: AlignedCube, mask: np.ndarray) -> SampleSet:
    """One sample per pixel: 13 band values + the {0, 1} label of a mask on
    the cube's grid."""
    if mask.shape != (cube.rows, cube.cols):
        raise ValueError(f"mask {'x'.join(map(str, mask.shape))} does not match cube "
                         f"{cube.rows}x{cube.cols}")
    if cube.n_bands != N_FEATURES:
        raise ValueError(f"cube has {cube.n_bands} bands, need {N_FEATURES}")
    feats = cube.values.reshape(-1, N_FEATURES)
    return SampleSet(feats, mask.reshape(-1))


def balance(samples: SampleSet, seed: int) -> SampleSet:
    """Undersample the majority class to the minority count.

    The majority subset is the first k entries of a seeded Fisher-Yates
    shuffle of the majority indices; the kept indices are then emitted in
    their original order.
    """
    idx0 = np.flatnonzero(samples.labels == 0)
    idx1 = np.flatnonzero(samples.labels == 1)
    if idx0.size == 0 or idx1.size == 0:
        raise ValueError("both classes must be present to balance")
    minority, majority = (idx0, idx1) if idx0.size <= idx1.size else (idx1, idx0)
    perm = SplitMix64(seed).permutation(majority.size)
    keep = np.sort(np.concatenate([minority, majority[perm[:minority.size]]]))
    return samples.take(keep)


def split(samples: SampleSet, spec: SplitSpec) -> tuple[SampleSet, SampleSet, SampleSet]:
    """Seeded shuffle then contiguous partition; sizes floor(n*train),
    floor(n*val), remainder to test."""
    n = len(samples)
    if n == 0:
        raise ValueError("cannot split an empty sample set")
    perm = SplitMix64(spec.seed).permutation(n)
    n_train = int(n * spec.train_frac)
    n_val = int(n * spec.val_frac)
    p = np.asarray(perm, dtype=np.int64)
    return (
        samples.take(p[:n_train]),
        samples.take(p[n_train:n_train + n_val]),
        samples.take(p[n_train + n_val:]),
    )


def fit_normalizer(train: SampleSet) -> Normalizer:
    if len(train) == 0:
        raise ValueError("cannot fit a normalizer on an empty set")
    return Normalizer(train.features.min(axis=0), train.features.max(axis=0))


def apply_normalizer(norm: Normalizer, v: np.ndarray) -> np.ndarray:
    """2*(x - min)/(max - min) - 1 per component; no clamping, so values
    outside the training range land outside [-1, 1]."""
    v = np.asarray(v, dtype=np.float64)
    return 2.0 * (v - norm.minimum) / (norm.maximum - norm.minimum) - 1.0


def normalize_set(norm: Normalizer, samples: SampleSet) -> SampleSet:
    return SampleSet(apply_normalizer(norm, samples.features), samples.labels)


def dataset_report(samples: SampleSet) -> dict:
    from .mlp import N_PARAMS  # mlp imports this module, so bind at call time

    n = len(samples)
    n_pos = int(samples.labels.sum())
    spw = n / N_PARAMS
    return {
        "n_samples": n,
        "n_negative": n - n_pos,
        "n_positive": n_pos,
        "n_weights": N_PARAMS,
        "samples_per_weight": spw,
        "samples_per_weight_ok": spw > MIN_SAMPLES_PER_WEIGHT,
    }

