import json
import os
import stat

import numpy as np
import pytest

from conftest import make_band
from litterscan import raster_io
from litterscan.bands import CANONICAL_ORDER, SENTINEL2_BANDS, canonical_spec
from litterscan.dataset import Normalizer
from litterscan.mlp import init_model, save_model
from litterscan.raster_io import (
    Band,
    BandStack,
    import_pgm_band,
    load_stack,
    read_float_raster,
    read_mask,
    save_stack,
    write_float_raster,
    write_mask,
)
from litterscan.resample import AlignedCube, save_cube

# Sentinel-2 MSI band table: (wavelength nm, resolution m).
TABLE_I = {
    "B1": (443, 60), "B2": (490, 10), "B3": (560, 10), "B4": (665, 10),
    "B5": (705, 20), "B6": (740, 20), "B7": (783, 20), "B8": (842, 10),
    "B8A": (865, 20), "B9": (945, 60), "B10": (1375, 60), "B11": (1610, 20),
    "B12": (2190, 20),
}


def test_canonical_band_table():
    assert len(SENTINEL2_BANDS) == 13
    assert set(SENTINEL2_BANDS) == set(CANONICAL_ORDER)
    for bid, (wl, gsd) in TABLE_I.items():
        spec = SENTINEL2_BANDS[bid]
        assert spec.wavelength_nm == wl
        assert spec.native_gsd_m == gsd


def test_bad_band_spec():
    from litterscan.bands import BandSpec

    with pytest.raises(ValueError):
        BandSpec("B99", 500, 10)
    with pytest.raises(ValueError):
        BandSpec("B2", 490, 15)


def test_standard_grid_dimension_arithmetic():
    # the real product: 109800 m footprint
    assert 10980 * 10 == 5490 * 20 == 1830 * 60 == 109800
    assert 1830 * 1830 == 3_348_900


def test_stack_canonical_order(tmp_path):
    b8 = make_band("B8", np.zeros((6, 6)))
    b4 = make_band("B4", np.ones((6, 6)))
    stack = BandStack((b8, b4), extent_m=60.0)
    assert stack.band_ids == ("B4", "B8")


def test_stack_dimension_extent_mismatch():
    b8 = make_band("B8", np.zeros((100, 100)))
    with pytest.raises(ValueError, match="dimension/extent mismatch"):
        BandStack((b8,), extent_m=109800.0)


def test_stack_duplicate_band():
    b = make_band("B8", np.zeros((6, 6)))
    with pytest.raises(ValueError, match="duplicate"):
        BandStack((b, b), extent_m=60.0)


def test_full_13_band_stack_small_grid():
    # same 10/20/60 ratios as the real product, scaled-down extent
    bands = []
    for bid in CANONICAL_ORDER:
        n = int(360 / SENTINEL2_BANDS[bid].native_gsd_m)
        bands.append(make_band(bid, np.full((n, n), 7)))
    stack = BandStack(tuple(bands), extent_m=360.0)
    assert stack.band_ids == CANONICAL_ORDER
    rows = {b.spec.id: b.rows for b in stack.bands}
    assert (rows["B9"], rows["B2"]) == (6, 36)


def test_stack_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    bands = [
        make_band("B4", rng.integers(0, 4096, size=(12, 12))),
        make_band("B11", rng.integers(0, 4096, size=(6, 6))),
        make_band("B9", rng.integers(0, 4096, size=(2, 2))),
    ]
    stack = BandStack(tuple(bands), extent_m=120.0)
    path = tmp_path / "scene.json"
    save_stack(stack, path)
    back = load_stack(path)
    assert back.extent_m == stack.extent_m
    assert back.band_ids == stack.band_ids
    for a, b in zip(back.bands, stack.bands):
        assert a.spec == b.spec
        assert np.array_equal(a.pixels, b.pixels)


def test_load_stack_errors(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(FileNotFoundError):
        load_stack(path)
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_stack(path)
    # payload shorter than rows*cols
    (tmp_path / "b.u16").write_bytes(b"\x00\x00" * 3)
    path.write_text(json.dumps({
        "extent_m": 40.0,
        "bands": [{"id": "B8", "wavelength_nm": 842, "native_gsd_m": 10,
                   "rows": 4, "cols": 4, "file": "b.u16", "dtype": "u16le"}],
    }))
    with pytest.raises(ValueError, match="payload"):
        load_stack(path)
    # unknown band id
    path.write_text(json.dumps({
        "extent_m": 40.0,
        "bands": [{"id": "B99", "wavelength_nm": 842, "native_gsd_m": 10,
                   "rows": 4, "cols": 4, "file": "b.u16", "dtype": "u16le"}],
    }))
    with pytest.raises(ValueError, match="unknown band id"):
        load_stack(path)


# --- PGM ---

def test_import_pgm_16bit(tmp_path):
    path = tmp_path / "b.pgm"
    payload = np.array([0, 4095, 1000, 2000], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n2 2\n65535\n" + payload)
    band = import_pgm_band(path, canonical_spec("B8"))
    assert np.array_equal(band.pixels, [[0, 4095], [1000, 2000]])


def test_import_pgm_8bit_widens_without_scaling(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 128, 255]))
    band = import_pgm_band(path, canonical_spec("B2"))
    assert np.array_equal(band.pixels, [[0, 128, 255]])


def test_import_pgm_rejects_ascii_variant(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0\n")
    with pytest.raises(ValueError, match="unsupported PGM variant"):
        import_pgm_band(path, canonical_spec("B2"))


def test_import_pgm_bad_maxval_and_truncation(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P5\n1 1\n1023\n\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        import_pgm_band(path, canonical_spec("B2"))
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    with pytest.raises(ValueError, match="truncated"):
        import_pgm_band(path, canonical_spec("B2"))


# --- masks ---

def test_write_mask_encoding(tmp_path):
    path = tmp_path / "m.pgm"
    write_mask(np.array([[0, 1]], dtype=np.uint8), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 1\n255\n")
    assert raw[-2:] == bytes([0, 255])


def test_write_all_zero_mask(tmp_path):
    path = tmp_path / "m.pgm"
    write_mask(np.zeros((4, 4), dtype=np.uint8), path)
    assert path.read_bytes().endswith(bytes(16))


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
def test_mask_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, size=(32, 32)).astype(dtype)
    path = tmp_path / "m.pgm"
    write_mask(labels, path)
    pixels = np.where(labels, 255, 0).astype(np.uint8)  # one byte per pixel
    assert path.read_bytes() == b"P5\n32 32\n255\n" + pixels.tobytes()
    mask = read_mask(path)
    assert mask.dtype == np.bool_ and np.array_equal(mask, labels)


def test_mask_validation(tmp_path):
    for bad, match in ((np.array([[0, 2]]), "0 or 1"), (np.array([0, 1]), "2-D"),
                       (np.zeros((0, 3), dtype=bool), "non-empty")):
        with pytest.raises(ValueError, match=match):
            write_mask(bad, tmp_path / "m.pgm")
    assert list(tmp_path.iterdir()) == []


# --- float rasters ---

def test_float_raster_round_trip(tmp_path):
    path = tmp_path / "r.f32"
    grid = np.array([[-1.0, 0.0, 1.0]])
    write_float_raster(grid, path)
    assert (tmp_path / "r.f32").stat().st_size == 12
    assert np.array_equal(read_float_raster(path), grid)


def test_float_raster_rejects_nan(tmp_path):
    with pytest.raises(ValueError, match="finite"):
        write_float_raster(np.array([[np.nan, 0.0]]), tmp_path / "r.f32")


def test_float_raster_random_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(17, 9)).astype(np.float32).astype(np.float64)
    path = tmp_path / "r.f32"
    write_float_raster(grid, path)
    assert np.array_equal(read_float_raster(path), grid)


def test_float_raster_sidecar_must_be_object(tmp_path):
    path = tmp_path / "r.f32"
    write_float_raster(np.zeros((2, 2)), path)
    (tmp_path / "r.f32.json").write_text("[2, 2]")
    with pytest.raises(ValueError, match="malformed float raster sidecar .*not a JSON object"):
        read_float_raster(path)


def test_band_rejects_out_of_range_pixels():
    with pytest.raises(ValueError):
        Band(canonical_spec("B2"), np.array([[70000]], dtype=np.int64))


# --- the one writer ---

ROWS, COLS = 7, 5


def write_every_raster(directory):
    """A cube, a band stack, a float raster and a mask from the same seeded
    values; returns {file name: bytes} and the bytes a one-shot encoding gives."""
    rng = np.random.default_rng(8)
    values = rng.integers(0, 4096, size=(ROWS, COLS, 2)).astype(np.float64)
    labels = (values[:, :, 0] > 2048).astype(np.uint8)
    directory.mkdir()
    save_cube(AlignedCube(("B4", "B8"), values), directory / "cube.json")
    band = values[:COLS, :, 0]  # bands are square
    save_stack(BandStack((make_band("B4", band),), extent_m=10.0 * COLS), directory / "s.json")
    write_float_raster(values[:, :, 1] / 7.0, directory / "r.f32")
    write_mask(labels, directory / "m.pgm")
    one_shot = {
        "cube.f32": values.astype("<f4").tobytes(),
        "s_B4.u16": band.astype("<u2").tobytes(),
        "r.f32": (values[:, :, 1] / 7.0).astype("<f4").tobytes(),
        "r.f32.json": b'{"rows": 7, "cols": 5}',
        "m.pgm": b"P5\n5 7\n255\n" + (labels * np.uint8(255)).tobytes(),
    }
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}, one_shot


@pytest.mark.parametrize("block_pixels", [
    1,              # a row wider than a block: one row per block
    COLS,           # single-row blocks
    2 * COLS + 2,   # two rows per block, a ragged last block of one
])
def test_written_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, block_pixels):
    whole, one_shot = write_every_raster(tmp_path / "whole")
    assert {name: whole[name] for name in one_shot} == one_shot
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", block_pixels)
    assert write_every_raster(tmp_path / "blocked")[0] == whole


def test_failure_in_second_block_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(raster_io, "ROW_BLOCK_PIXELS", 2)  # one row per block
    values = np.array([[1.0, 2.0], [3.0, "not a number"]], dtype=object)
    with pytest.raises(ValueError, match="not a number"):
        raster_io.atomic_write(tmp_path / "r.f32", b"", values, "<f4")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("target", ["raster", "mask", "both"])
def test_write_map_rejects_nonfinite_last_block(tmp_path, target, bad):
    blocks = [np.zeros((2, 3)), np.full((2, 3), 0.75), np.array([[0.25, bad, 1.0]])]
    raster = None if target == "mask" else tmp_path / "map.f32"
    mask = None if target == "raster" else tmp_path / "map.pgm"
    threshold = None if target == "raster" else 0.5
    with pytest.raises(ValueError, match="map values must be finite"):
        raster_io.write_map(iter(blocks), 5, 3, raster, mask, threshold)
    assert list(tmp_path.iterdir()) == []


def test_write_json_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        raster_io.write_json(tmp_path / "m.json", {"recall": [1.0, float("nan")]})
    assert list(tmp_path.iterdir()) == []


def test_artifacts_honour_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_mask(np.eye(3), tmp_path / "m.pgm")
        save_cube(AlignedCube(("B8",), np.ones((2, 3, 1))), tmp_path / "cube.json")
        write_float_raster(np.ones((2, 3)), tmp_path / "r.f32")
        save_model(init_model(0, Normalizer(np.zeros(13), np.ones(13)), CANONICAL_ORDER),
                   tmp_path / "model.json")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["m.pgm", "cube.f32", "cube.json", "r.f32", "r.f32.json", "model.json"], 0o644)
