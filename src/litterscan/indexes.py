"""Normalized-difference index maps, the floating-debris index, and
threshold masks. An index reads a cube (or cube block) as its band ids and
its (rows, cols, n_bands) values, and widens to float64 only the planes it
reads (`plane`). A map is a (rows, cols) float64 array and a mask a bool
array, on the grid of the cube they are computed from. Values come checked:
the cube reader refuses a non-finite band value, and the command line a
non-finite threshold before it reads the cube."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bands import SENTINEL2_BANDS

# 10 * (lambda_B8 - lambda_B4) / (lambda_B11 - lambda_B4), center wavelengths
# 842 / 665 / 1610 nm.
FDI_WAVELENGTH_FACTOR = 10.0 * (
    (SENTINEL2_BANDS["B8"].wavelength_nm - SENTINEL2_BANDS["B4"].wavelength_nm)
    / (SENTINEL2_BANDS["B11"].wavelength_nm - SENTINEL2_BANDS["B4"].wavelength_nm)
)


def normalized_difference(a, b):
    """(a - b) / (a + b) elementwise; 0 where a + b = 0 so all-dark pixels
    stay neutral instead of going NaN. A negative input raises ValueError."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (a < 0).any() or (b < 0).any():
        raise ValueError("inputs must be nonnegative")
    s = a + b
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(s == 0, 0.0, (a - b) / np.where(s == 0, 1.0, s))
    if out.ndim == 0:
        return float(out)
    return out


def plane(band_ids: Sequence[str], values: np.ndarray, band_id: str) -> np.ndarray:
    """Band `band_id` of the cube `values`, whose planes are `band_ids`, as float64."""
    try:
        i = band_ids.index(band_id)
    except ValueError:
        raise ValueError(f"cube has no band {band_id!r}") from None
    return values[:, :, i].astype(np.float64)


def b8b9_index(band_ids: Sequence[str], values: np.ndarray) -> np.ndarray:
    """(B8 - B9) / (B8 + B9)."""
    return normalized_difference(plane(band_ids, values, "B8"), plane(band_ids, values, "B9"))


def ndvi(band_ids: Sequence[str], values: np.ndarray) -> np.ndarray:
    """(B8 - B4) / (B8 + B4): NIR vs red, high over vegetation."""
    return normalized_difference(plane(band_ids, values, "B8"), plane(band_ids, values, "B4"))


def fdi(band_ids: Sequence[str], values: np.ndarray) -> np.ndarray:
    """NIR departure from the red-edge -> SWIR baseline:
    B8 - (B6 + (B11 - B6) * FDI_WAVELENGTH_FACTOR)."""
    b6, b8, b11 = (plane(band_ids, values, b) for b in ("B6", "B8", "B11"))
    baseline = b6 + (b11 - b6) * FDI_WAVELENGTH_FACTOR
    return b8 - baseline


def check_threshold(*thresholds: float) -> None:
    """Raise ValueError unless every threshold given is finite."""
    if not np.isfinite(thresholds).all():
        raise ValueError("threshold must be finite")


def threshold_map(values: np.ndarray, t: float) -> np.ndarray:
    """True where value >= t."""
    check_threshold(t)
    return values >= t


def combined_index_mask(band_ids: Sequence[str], values: np.ndarray,
                        ndvi_max: float, fdi_min: float) -> np.ndarray:
    """True where FDI >= fdi_min and NDVI <= ndvi_max: debris is FDI-bright
    and not vegetation."""
    return (fdi(band_ids, values) >= fdi_min) & (ndvi(band_ids, values) <= ndvi_max)
