"""Seeded input generators for the benchmark workloads.

The inputs come from numpy's PCG64 generator seeded with the workload seed,
not from the program, so the program only ever sees the files written here.
run.py runs this file as a child process, which keeps the generator's time
and memory out of the process that is measured:

    python3 perfbench/inputs.py tile  --seed 3 --size 2000 --out DIR
    python3 perfbench/inputs.py bands --seed 3 --size 1800 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

BAND_IDS = ("B1", "B2", "B3", "B4", "B5", "B6", "B7",
            "B8", "B8A", "B9", "B10", "B11", "B12")
NATIVE_GSD_M = {"B1": 60, "B2": 10, "B3": 10, "B4": 10, "B5": 20, "B6": 20,
                "B7": 20, "B8": 10, "B8A": 20, "B9": 60, "B10": 60, "B11": 20,
                "B12": 20}

# Class spectra of the program's synthetic scene, so that a model trained on
# `make-synthetic` output separates the tile: background 800 + 120 b DN on
# band b, plastic 5 sigma away with alternating sign, sigma 60 DN.
SIGMA = 60.0
BACKGROUND = 800.0 + 120.0 * np.arange(13)
PLASTIC = BACKGROUND + np.where(np.arange(13) % 2 == 0, 1.0, -1.0) * 5.0 * SIGMA

# Coastline scene: (land, water) digital numbers per band.  B9 keeps the
# 3000 -> 50 DN step that Lanczos3 undershoots below zero, and B10 is flat.
LAND_WATER = {"B1": (1500, 300), "B2": (1400, 250), "B3": (1600, 200),
              "B4": (1800, 150), "B5": (2200, 140), "B6": (2600, 130),
              "B7": (2800, 125), "B8": (3000, 120), "B8A": (3100, 115),
              "B9": (3000, 50), "B10": (1000, 1000), "B11": (2500, 110),
              "B12": (2000, 100)}
BAND_NOISE_DN = 15.0
# Bands written without noise: the B9 step that makes `index --method b8b9`
# fail, and the constant B10 that the alignment check needs.
NOISELESS = ("B9", "B10")

ROW_BLOCK = 128


def write_pgm(path: str, pixels: np.ndarray) -> None:
    """Binary P5 PGM: maxval 255 for uint8, 65535 (big-endian) for uint16."""
    maxval = 255 if pixels.dtype == np.uint8 else 65535
    rows, cols = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{cols} {rows}\n{maxval}\n".encode("ascii"))
        f.write(pixels.astype(np.uint8 if maxval == 255 else ">u2").tobytes())


def tile_truth(size: int, seed: int) -> tuple[int, int, int, int]:
    """Seeded plastic rectangle (r0, r1, c0, c1) covering 4-25% of the tile."""
    rng = np.random.default_rng([seed, 1])
    h, w = (int(rng.integers(size // 5, size // 2 + 1)) for _ in range(2))
    r0 = int(rng.integers(0, size - h + 1))
    c0 = int(rng.integers(0, size - w + 1))
    return r0, r0 + h, c0, c0 + w


def write_tile(out_dir: str, size: int, seed: int) -> None:
    """size x size x 13 f32 cube (tile.json + tile.f32) and truth.pgm."""
    r0, r1, c0, c1 = tile_truth(size, seed)
    truth = np.zeros((size, size), dtype=np.uint8)
    truth[r0:r1, c0:c1] = 255
    write_pgm(os.path.join(out_dir, "truth.pgm"), truth)
    rng = np.random.default_rng([seed, 2])
    with open(os.path.join(out_dir, "tile.f32"), "wb") as f:
        for b0 in range(0, size, ROW_BLOCK):
            plastic = truth[b0:b0 + ROW_BLOCK] > 0
            mean = np.where(plastic[..., None], PLASTIC, BACKGROUND)
            block = mean + SIGMA * rng.standard_normal(mean.shape)
            f.write(block.astype("<f4").tobytes())
    doc = {"rows": size, "cols": size, "bands": list(BAND_IDS),
           "dtype": "f32le", "file": "tile.f32"}
    with open(os.path.join(out_dir, "tile.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f)


def coast_land(n: int, gsd: int, extent_m: float) -> np.ndarray:
    """Land mask on an n x n grid: land west of a meandering coastline that
    does not depend on the seed."""
    centre = (np.arange(n) + 0.5) * gsd
    coast = extent_m * (0.5 + 0.2 * np.sin(3.0 * np.pi * centre / extent_m))
    return centre[None, :] < coast[:, None]


def write_bands(out_dir: str, size: int, seed: int) -> None:
    """13 band PGMs B*.pgm at their native grids; size is the 10 m grid."""
    if size % 6:
        raise ValueError("size must be a multiple of 6 (10/20/60 m grids)")
    extent_m = size * 10.0
    rng = np.random.default_rng([seed, 3])
    for bid in BAND_IDS:
        gsd = NATIVE_GSD_M[bid]
        n = size * 10 // gsd
        land, water = LAND_WATER[bid]
        px = np.where(coast_land(n, gsd, extent_m), float(land), float(water))
        if bid not in NOISELESS:
            px += BAND_NOISE_DN * rng.standard_normal(px.shape)
        write_pgm(os.path.join(out_dir, f"{bid}.pgm"),
                  np.clip(np.rint(px), 0, 65535).astype(np.uint16))


GENERATORS = {"tile": write_tile, "bands": write_bands}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    GENERATORS[args.kind](args.out, args.size, args.seed)


if __name__ == "__main__":
    main()
