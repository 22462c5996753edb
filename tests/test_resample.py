import numpy as np
import pytest

from conftest import make_band, oracle_lanczos3, oracle_resample
from litterscan.raster_io import BandStack
from litterscan.resample import (
    align_stack,
    lanczos3_kernel,
    load_cube,
    resample_band,
    save_cube,
)

# sinc(0.5) * sinc(1/6), evaluated at high precision beforehand
LANCZOS3_AT_HALF = 0.607927101854


def test_kernel_center_and_zeros():
    assert lanczos3_kernel(0.0) == 1.0
    for x in (1.0, 2.0, 3.0, -1.0, -2.0, -3.0):
        assert lanczos3_kernel(x) == pytest.approx(0.0, abs=1e-15)
    assert lanczos3_kernel(3.5) == 0.0
    assert lanczos3_kernel(-10.0) == 0.0


def test_kernel_pinned_value_at_half():
    assert lanczos3_kernel(0.5) == pytest.approx(LANCZOS3_AT_HALF, rel=1e-11)


def test_kernel_symmetry():
    for x in np.linspace(0, 3.2, 100):
        assert lanczos3_kernel(x) == lanczos3_kernel(-x)


def test_kernel_matches_independent_definition():
    for x in np.linspace(-3.5, 3.5, 173):
        assert lanczos3_kernel(float(x)) == pytest.approx(oracle_lanczos3(float(x)), abs=1e-14)


def test_raw_tap_sum_near_one():
    # partition-of-unity sanity: raw 6-tap sums within 0.05 of 1
    for phase in np.linspace(0, 1, 50, endpoint=False):
        s = sum(lanczos3_kernel(phase - k) for k in range(-2, 4))
        assert abs(s - 1.0) < 0.05


@pytest.mark.parametrize("scale", [2, 3, 6])
def test_constant_preservation(scale):
    img = np.full((5, 7), 4095.0)
    out = resample_band(img, scale)
    assert out.shape == (5 * scale, 7 * scale)
    assert np.abs(out / 4095.0 - 1.0).max() < 1e-9


def test_identity_at_scale_1():
    img = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(resample_band(img, 1), img)


def test_unsupported_scale():
    with pytest.raises(ValueError, match="unsupported scale"):
        resample_band(np.zeros((2, 2)), 4)


def test_impulse_matches_oracle():
    img = np.zeros((7, 7))
    img[3, 3] = 1000.0
    out = resample_band(img, 2)
    expect = oracle_resample(img, 2)
    assert np.abs(out - expect).max() < 1e-9


@pytest.mark.parametrize("scale", [2, 3, 6])
def test_random_grid_matches_oracle(scale):
    rng = np.random.default_rng(scale)
    img = rng.integers(0, 4096, size=(3, 3)).astype(np.float64)
    out = resample_band(img, scale)
    expect = oracle_resample(img, scale)
    assert np.abs(out - expect).max() < 1e-9


def test_linearity():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 5))
    y = rng.normal(size=(4, 5))
    a, b = 2.5, -1.25
    lhs = resample_band(a * x + b * y, 3)
    rhs = a * resample_band(x, 3) + b * resample_band(y, 3)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-6 * scale


def test_align_stack_mixed_resolutions():
    b2 = make_band("B2", np.arange(16).reshape(4, 4))
    b11 = make_band("B11", np.full((2, 2), 500))
    stack = BandStack((b2, b11), extent_m=40.0)
    cube = align_stack(stack)
    assert cube.shape == (4, 4, 2) and cube.dtype == np.float32
    assert stack.band_ids == ("B2", "B11")
    # native-resolution band passes through exactly
    assert np.array_equal(cube[:, :, 0], np.arange(16.0).reshape(4, 4))
    assert np.array_equal(cube[:, :, 1], resample_band(b11.pixels, 2).astype(np.float32))


def test_align_stack_only_10m_is_identity():
    b2 = make_band("B2", np.arange(9).reshape(3, 3))
    b8 = make_band("B8", np.arange(9, 18).reshape(3, 3))
    cube = align_stack(BandStack((b2, b8), extent_m=30.0))
    assert np.array_equal(cube[:, :, 0], np.arange(9.0).reshape(3, 3))
    assert np.array_equal(cube[:, :, 1], np.arange(9.0, 18.0).reshape(3, 3))


def test_align_stack_60m_matches_oracle():
    rng = np.random.default_rng(1)
    px = rng.integers(0, 4096, size=(3, 3))
    b1 = make_band("B1", px)
    b2 = make_band("B2", rng.integers(0, 4096, size=(18, 18)))
    cube = align_stack(BandStack((b1, b2), extent_m=180.0))
    assert cube.shape == (18, 18, 2) and cube.dtype == np.float32
    assert np.array_equal(cube[:, :, 0], resample_band(px, 6).astype(np.float32))


def test_cube_container_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.integers(0, 4096, size=(5, 4, 3)).astype(np.float64)
    path = tmp_path / "cube.json"
    save_cube(values, 5, 4, ("B2", "B3", "B8"), path)
    band_ids, back = load_cube(path)
    assert band_ids == ("B2", "B3", "B8")
    assert back.dtype == np.float32 and np.array_equal(back, values)


def test_cube_validation(tmp_path):
    """A cube is read only with a finite value in every band of every pixel,
    and only with one value per band and pixel."""
    save_cube(np.zeros((2, 2, 1)), 2, 2, ("B2",), tmp_path / "cube.json")
    payload = np.zeros(4, dtype="<f4")
    payload[2] = np.nan  # written past save_cube, which refuses it
    payload.tofile(tmp_path / "cube.f32")
    with pytest.raises(ValueError, match="cube values must be finite"):
        load_cube(tmp_path / "cube.json")
    save_cube(np.zeros((2, 2, 1)), 2, 2, ("B2", "B3"), tmp_path / "cube.json")
    with pytest.raises(ValueError, match="payload has 4 samples, expected 8"):
        load_cube(tmp_path / "cube.json")


@pytest.mark.parametrize("bad", [1e39, np.nan])
def test_save_cube_refuses_a_value_not_finite_in_float32(tmp_path, bad):
    """1e39 is finite in float64 but would be written as inf: a cube that
    no reader accepts is not written."""
    values = np.ones((2, 2, 1))
    values[1, 1, 0] = bad
    with pytest.raises(ValueError, match="cube values must be finite in float32"):
        save_cube(values, 2, 2, ("B8",), tmp_path / "c.json")
    assert list(tmp_path.iterdir()) == []
