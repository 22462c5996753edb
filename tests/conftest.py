import json
import math
import os

import numpy as np
import pytest

from litterscan.bands import CANONICAL_ORDER, canonical_spec
from litterscan.raster_io import Band


def make_cube(planes: dict[str, np.ndarray]) -> tuple[tuple[str, ...], np.ndarray]:
    """Band ids and (rows, cols, n_bands) float64 values from {band id: 2-D
    grid}, in canonical band order."""
    ids = tuple(b for b in CANONICAL_ORDER if b in planes)
    return ids, np.stack([np.asarray(planes[b], dtype=np.float64) for b in ids], axis=-1)


def make_band(band_id: str, pixels) -> Band:
    return Band(canonical_spec(band_id), np.asarray(pixels, dtype=np.uint16))


def read_float_raster(path) -> np.ndarray:
    """The <f4 float raster at `path`, shaped by its JSON sidecar, as float64."""
    with open(f"{os.fspath(path)}.json", encoding="utf-8") as f:
        meta = json.load(f)
    data = np.fromfile(path, dtype="<f4")
    assert data.size == meta["rows"] * meta["cols"], f"{path}: wrong payload size"
    return data.reshape(meta["rows"], meta["cols"]).astype(np.float64)


def oracle_lanczos3(x: float) -> float:
    """Scalar kernel, written independently of the package."""
    if abs(x) >= 3.0:
        return 0.0
    if x == 0.0:
        return 1.0
    return (math.sin(math.pi * x) / (math.pi * x)) * (
        math.sin(math.pi * x / 3.0) / (math.pi * x / 3.0)
    )


def oracle_resample(img: np.ndarray, scale: int) -> np.ndarray:
    """Brute-force scalar loops: same pixel-center mapping, clamped borders,
    per-sample normalization."""
    img = np.asarray(img, dtype=np.float64)
    rows, cols = img.shape
    out = np.zeros((rows * scale, cols * scale))
    for i in range(rows * scale):
        sy = (i + 0.5) / scale - 0.5
        by = math.floor(sy)
        for j in range(cols * scale):
            sx = (j + 0.5) / scale - 0.5
            bx = math.floor(sx)
            acc = wsum = 0.0
            for ky in range(by - 2, by + 4):
                wy = oracle_lanczos3(sy - ky)
                for kx in range(bx - 2, bx + 4):
                    w = wy * oracle_lanczos3(sx - kx)
                    acc += w * img[min(max(ky, 0), rows - 1), min(max(kx, 0), cols - 1)]
                    wsum += w
            out[i, j] = acc / wsum
    return out


@pytest.fixture
def full_band_order():
    return CANONICAL_ORDER


def write_coast_pgms(directory, size: int, band_ids, seed: int) -> list[str]:
    """`import` arguments for a seeded coastline stack: one 16-bit PGM per
    band at its native grid, `size` px square on the finest grid present.
    Land lies west of a meandering coast, 1500-3100 DN brighter than the
    water, with uniform noise, so Lanczos3 rings across the coast."""
    finest = min(canonical_spec(b).native_gsd_m for b in band_ids)
    rng = np.random.default_rng(seed)
    argv = []
    for i, bid in enumerate(band_ids):
        n = int(size * finest // canonical_spec(bid).native_gsd_m)
        centre = (np.arange(n) + 0.5) / n
        land = centre[None, :] < 0.5 + 0.2 * np.sin(3.0 * np.pi * centre)[:, None]
        px = np.where(land, 1600 + 100 * i, 100) + rng.integers(0, 40, (n, n))
        path = directory / f"{bid}.pgm"
        path.write_bytes(f"P5\n{n} {n}\n65535\n".encode("ascii") + px.astype(">u2").tobytes())
        argv += ["--band", f"{bid}={path}"]
    return argv + ["--extent-m", str(size * finest)]
