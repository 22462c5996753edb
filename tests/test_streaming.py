"""`predict` and `index` read the cube in row blocks and write each block's
result as it is computed: the artifacts do not depend on the block size, a
bad value in the last block leaves no output, no map larger than one block
is built, and memory stays below 1 B per pixel with one-row blocks.
`resample` builds and writes the cube in row blocks: its bytes do not depend
on the block size and it holds the stack plus one block; `align_stack`
holds one float64 cube."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import make_band, write_coast_pgms
from litterscan import raster_io, resample
from litterscan.bands import CANONICAL_ORDER, canonical_spec
from litterscan.cli import main
from litterscan.dataset import Normalizer
from litterscan.mlp import init_model, save_model
from litterscan.raster_io import BandStack, write_mask

ROWS, COLS = 23, 17  # 391 px


def write_cube(directory, rows, cols, seed=0):
    """Seeded cube of f32 digital numbers in [100, 3100), written without
    going through float64."""
    rng = np.random.default_rng(seed)
    values = rng.random((rows, cols, len(CANONICAL_ORDER)), dtype=np.float32)
    values *= 3000.0
    values += 100.0
    values.astype("<f4").tofile(directory / "cube.f32")
    manifest = directory / "cube.json"
    manifest.write_text(json.dumps({"rows": rows, "cols": cols, "bands": list(CANONICAL_ORDER),
                                    "dtype": "f32le", "file": "cube.f32"}))
    return manifest


def write_model(directory):
    path = directory / "model.json"
    norm = Normalizer(np.full(13, 100.0), np.full(13, 3100.0))
    save_model(init_model(3, norm, CANONICAL_ORDER), path)
    return path


def commands(cube, model, out):
    """Every streamed subcommand, with all of its outputs under `out`."""
    index = ["index", "--cube", str(cube)]
    return [
        ["predict", "--model", str(model), "--cube", str(cube), "--out", str(out / "pred.pgm"),
         "--map-out", str(out / "scores.f32")],
        *[[*index, "--method", method, "--out", str(out / f"{method}.f32"),
           "--threshold", str(t), "--mask-out", str(out / f"{method}.pgm")]
          for method, t in (("ndvi", 0.0), ("fdi", 0.0), ("b8b9", 0.0))],
        [*index, "--method", "combined", "--ndvi-max", "0.1", "--fdi-min", "0",
         "--out", str(out / "combined.pgm")],
    ]


def artifacts(cube, model, out):
    out.mkdir()
    for argv in commands(cube, model, out):
        assert main(argv) == 0, argv
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("block_pixels", [
    5 * COLS,  # 5 rows per block, a ragged last block of 3
    COLS,      # single-row blocks
    1,         # a row wider than a block: still one row per block
])
def test_artifacts_do_not_depend_on_block_size(tmp_path, monkeypatch, block_pixels):
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    whole = artifacts(cube, model, tmp_path / "whole")
    assert len(whole) == 13  # 5 rasters with sidecars, 3 masks
    blocks = []
    read_rows = resample._read_rows

    def recording_read_rows(f, header, n_rows):
        blocks.append(n_rows)
        return read_rows(f, header, n_rows)

    monkeypatch.setattr(resample, "_read_rows", recording_read_rows)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    assert artifacts(cube, model, tmp_path / "blocked") == whole
    per_block = max(1, block_pixels // COLS)
    full, ragged = divmod(ROWS, per_block)
    per_command = [per_block] * full + ([ragged] if ragged else [])
    assert blocks == per_command * len(commands(cube, model, tmp_path))


def test_nonfinite_value_in_last_row_leaves_no_output(tmp_path, monkeypatch, capsys):
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    payload = np.fromfile(tmp_path / "cube.f32", dtype="<f4")
    payload[-1] = np.nan
    payload.tofile(tmp_path / "cube.f32")
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(cube, model, out):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"litterscan {argv[0]}: cube values must be finite\n"
    assert list(out.iterdir()) == []


def test_no_map_larger_than_one_block_is_built(tmp_path, monkeypatch):
    cube, model = write_cube(tmp_path, ROWS, COLS), write_model(tmp_path)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", COLS)  # one-row blocks
    sizes = []
    write = raster_io._write

    def recording_write(files, values, **kwargs):
        """Record the size of every map block written, or of a whole map."""
        if isinstance(values, np.ndarray):
            sizes.append(values.size)
            return write(files, values, **kwargs)

        def recorded(blocks):
            for block in blocks:
                sizes.append(block.size)
                yield block
        return write(files, recorded(values), **kwargs)

    monkeypatch.setattr(raster_io, "_write", recording_write)
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(cube, model, out):
        sizes.clear()
        assert main(argv) == 0, argv
        assert sizes and max(sizes) == COLS, (argv, max(sizes))


def traced_peak(argv):
    """Peak bytes allocated through numpy and Python while `main(argv)` runs."""
    tracemalloc.start()
    try:
        assert main(argv) == 0, argv
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_steps_use_less_memory_than_the_cube_payload(tmp_path):
    rows = cols = 1000
    cube, model = write_cube(tmp_path, rows, cols), write_model(tmp_path)
    payload_bytes = rows * cols * len(CANONICAL_ORDER) * 4
    steps = {
        "predict": ["predict", "--model", str(model), "--cube", str(cube),
                    "--out", str(tmp_path / "pred.pgm"), "--map-out", str(tmp_path / "s.f32")],
        "index fdi": ["index", "--cube", str(cube), "--method", "fdi",
                      "--out", str(tmp_path / "fdi.f32"), "--threshold", "0",
                      "--mask-out", str(tmp_path / "fdi.pgm")],
        "index combined": ["index", "--cube", str(cube), "--method", "combined",
                           "--ndvi-max", "0.1", "--fdi-min", "0",
                           "--out", str(tmp_path / "combined.pgm")],
    }
    peaks = {name: traced_peak(argv) for name, argv in steps.items()}
    assert all(peak < payload_bytes for peak in peaks.values()), (
        {name: f"{peak / payload_bytes:.2f}x payload" for name, peak in peaks.items()})


def test_map_steps_hold_less_than_a_byte_per_pixel(tmp_path, monkeypatch):
    rows = cols = 1000
    cube, model = write_cube(tmp_path, rows, cols), write_model(tmp_path)
    # one-row blocks, so the peak is what grows with the map, not a block
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", cols)
    steps = {
        "predict --map-out": ["predict", "--model", str(model), "--cube", str(cube),
                              "--out", str(tmp_path / "pred.pgm"),
                              "--map-out", str(tmp_path / "s.f32")],
        "index fdi --threshold": ["index", "--cube", str(cube), "--method", "fdi",
                                  "--out", str(tmp_path / "fdi.f32"), "--threshold", "0",
                                  "--mask-out", str(tmp_path / "fdi.pgm")],
        "index combined": ["index", "--cube", str(cube), "--method", "combined",
                           "--ndvi-max", "0.1", "--fdi-min", "0",
                           "--out", str(tmp_path / "combined.pgm")],
    }
    per_pixel = {name: traced_peak(argv) / (rows * cols) for name, argv in steps.items()}
    assert all(b < 1 for b in per_pixel.values()), per_pixel


def test_mask_steps_hold_a_few_bytes_per_mask_pixel(tmp_path, monkeypatch):
    rows = cols = 1000
    cube = write_cube(tmp_path, rows, cols)
    # one-row blocks, so the peak is the mask's and not a block's
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", cols)
    rng = np.random.default_rng(1)
    for name in ("a.pgm", "b.pgm"):
        write_mask(rng.random((rows, cols)) < 0.5, tmp_path / name)
    steps = {
        "eval": ["eval", "--pred", str(tmp_path / "a.pgm"), "--truth", str(tmp_path / "b.pgm"),
                 "--out", str(tmp_path / "eval.json")],
        "index combined": ["index", "--cube", str(cube), "--method", "combined",
                           "--ndvi-max", "0.1", "--fdi-min", "0",
                           "--out", str(tmp_path / "combined.pgm")],
    }
    per_pixel = {name: traced_peak(argv) / (rows * cols) for name, argv in steps.items()}
    assert all(b < 8 for b in per_pixel.values()), per_pixel


def test_align_and_save_hold_one_float64_cube(tmp_path, monkeypatch):
    size = 240  # 10 m grid; 20 m and 60 m bands are 120² and 40²
    rng = np.random.default_rng(4)
    bands = []
    for bid in CANONICAL_ORDER:
        n = int(size * 10 // canonical_spec(bid).native_gsd_m)
        bands.append(make_band(bid, rng.integers(0, 4096, (n, n))))
    stack = BandStack(tuple(bands), size * 10.0)
    # one-row write blocks, so the peak is the cube's and not a block's
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", size)
    tracemalloc.start()
    try:
        resample.save_cube(resample.align_stack(stack), tmp_path / "cube.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cube_bytes = size * size * len(CANONICAL_ORDER) * 8
    assert peak < 1.5 * cube_bytes, f"{peak / cube_bytes:.2f}x the float64 cube"


COARSE_IDS = tuple(b for b in CANONICAL_ORDER if canonical_spec(b).native_gsd_m > 10)
# name -> (finest grid size, band ids): a 10 m stack (scales 1, 2, 6) and a
# 20 m one (scales 1, 3)
RESAMPLE_STACKS = {"mixed": (42, CANONICAL_ORDER), "coarse": (27, COARSE_IDS)}


def resample_artifacts(directory, name):
    """{file: bytes} of `import -> resample` on one seeded coastline stack."""
    directory.mkdir()
    size, band_ids = RESAMPLE_STACKS[name]
    args = write_coast_pgms(directory, size, band_ids, seed=5)
    assert main(["import", *args, "--out", str(directory / "stack.json")]) == 0
    assert main(["resample", "--manifest", str(directory / "stack.json"),
                 "--out", str(directory / "cube.json")]) == 0
    return {name: (directory / name).read_bytes() for name in ("cube.f32", "cube.json")}


@pytest.mark.parametrize("block_rows, extra_pixels", [
    (0, 1),  # one pixel: a row wider than a block, so one row per block
    (1, 0),  # single-row blocks
    (2, 2),  # two rows: a ragged last block of one on the 27-row stack
    (4, 0),  # ragged last blocks on both stacks
])
@pytest.mark.parametrize("name", sorted(RESAMPLE_STACKS))
def test_resample_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, name,
                                                    block_rows, extra_pixels):
    size = RESAMPLE_STACKS[name][0]
    whole = resample_artifacts(tmp_path / "whole", name)
    blocks = []
    rows_block = resample.StackAlignment.rows_block

    def recording_rows_block(self, r0, r1):
        blocks.append(r1 - r0)
        return rows_block(self, r0, r1)

    block_pixels = block_rows * size + extra_pixels
    monkeypatch.setattr(resample.StackAlignment, "rows_block", recording_rows_block)
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    assert resample_artifacts(tmp_path / "blocked", name) == whole
    per_block = max(1, block_rows)
    full, ragged = divmod(size, per_block)
    assert blocks == [per_block] * full + ([ragged] if ragged else [])


def test_resample_holds_less_than_half_the_cube_payload(tmp_path):
    size = 1200  # 10 m grid
    rng = np.random.default_rng(6)
    bands = []
    for bid in CANONICAL_ORDER:
        n = int(size * 10 // canonical_spec(bid).native_gsd_m)
        bands.append(make_band(bid, rng.integers(0, 4096, (n, n))))
    raster_io.save_stack(BandStack(tuple(bands), size * 10.0), tmp_path / "stack.json")
    del bands
    peak = traced_peak(["resample", "--manifest", str(tmp_path / "stack.json"),
                        "--out", str(tmp_path / "cube.json")])
    payload_bytes = size * size * len(CANONICAL_ORDER) * 4
    assert peak < 0.5 * payload_bytes, f"{peak / payload_bytes:.2f}x the f32 payload"
