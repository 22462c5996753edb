"""Seeded synthetic two-class scene generator, used by tests and the
tutorial because the original imagery is not distributed.

Two spectral classes on 13 bands: per band the class means sit 5 within-
class standard deviations apart (sigma = 60 DN), so a per-pixel classifier
should separate them almost perfectly.
"""

from __future__ import annotations

import numpy as np

from .bands import CANONICAL_ORDER
from .resample import AlignedCube
from .rng import SplitMix64

SIGMA = 60.0
MEAN_SEPARATION = 5.0 * SIGMA  # >= 4 sigma, per band


def class_means() -> tuple[np.ndarray, np.ndarray]:
    """(background, plastic) per-band mean digital numbers."""
    background = 800.0 + 120.0 * np.arange(13)
    sign = np.where(np.arange(13) % 2 == 0, 1.0, -1.0)
    return background, background + sign * MEAN_SEPARATION


def plastic_mask(rows: int, cols: int, plastic_frac: float) -> np.ndarray:
    """Bool mask: a centered rectangular patch covering round(frac * rows *
    cols) pixels."""
    n = rows * cols
    k = int(round(plastic_frac * n))
    if not 0 < k < n:
        raise ValueError("plastic fraction leaves no pixels for one class")
    h = min(rows, max(1, int(round((k * rows / cols) ** 0.5))))
    w = min(cols, -(-k // h))  # ceil, so h*w >= k when it fits
    while h * w < k:
        h = min(rows, h + 1)
    r0 = (rows - h) // 2
    c0 = (cols - w) // 2
    mask = np.zeros((rows, cols), dtype=bool)
    mask[r0:r0 + h, c0:c0 + w].flat[:k] = True  # first k pixels, row-major
    return mask


def make_scene(rows: int = 100, cols: int = 100, plastic_frac: float = 0.15,
               seed: int = 0) -> tuple[AlignedCube, np.ndarray]:
    """Gaussian per-band values around the class mean of each pixel."""
    mask = plastic_mask(rows, cols, plastic_frac)
    mean_bg, mean_pl = class_means()
    rng = SplitMix64(seed)
    # draws in row, column, band order
    n = rows * cols * 13
    values = np.fromiter((rng.normal() for _ in range(n)), np.float64, n).reshape(rows, cols, 13)
    values *= SIGMA
    values += np.where(mask[:, :, None], mean_pl, mean_bg)
    return AlignedCube(CANONICAL_ORDER, values), mask
