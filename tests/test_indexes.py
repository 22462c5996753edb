import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_cube
from litterscan.indexes import (
    FDI_WAVELENGTH_FACTOR,
    b8b9_index,
    combined_index_mask,
    fdi,
    ndvi,
    normalized_difference,
    threshold_map,
)

finite_nonneg = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


def test_normalized_difference_examples():
    assert normalized_difference(1000.0, 1000.0) == 0.0
    assert normalized_difference(3000.0, 1000.0) == 0.5
    assert normalized_difference(0.0, 0.0) == 0.0


def test_normalized_difference_rejects_bad_input():
    with pytest.raises(ValueError):
        normalized_difference(-1.0, 2.0)
    with pytest.raises(ValueError):
        normalized_difference(np.nan, 2.0)


@given(finite_nonneg, finite_nonneg)
def test_normalized_difference_antisymmetry(a, b):
    assert normalized_difference(a, b) == -normalized_difference(b, a)


@given(finite_nonneg, finite_nonneg,
       st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_normalized_difference_scale_invariance(a, b, k):
    # the property is about the index, not about float underflow: k * x must
    # stay a normal float (or stay 0), else e.g. k=0.5, x=5e-324 rounds to 0
    # before the index sees it
    tiny = np.finfo(np.float64).tiny
    assume(all(x == 0 or (x >= tiny and k * x >= tiny) for x in (a, b)))
    assert normalized_difference(k * a, k * b) == pytest.approx(
        normalized_difference(a, b), abs=1e-12)


@given(finite_nonneg, finite_nonneg)
def test_normalized_difference_range(a, b):
    assert -1.0 <= normalized_difference(a, b) <= 1.0


def test_b8b9_examples():
    cube = make_cube({
        "B8": np.array([[2000.0, 3000.0]]),
        "B9": np.array([[2000.0, 1000.0]]),
    })
    out = b8b9_index(cube)
    assert out.dtype == np.float64
    assert np.array_equal(out, [[0.0, 0.5]])


def test_b8b9_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    b8 = rng.integers(0, 4096, size=(2, 2)).astype(float)
    b9 = rng.integers(0, 4096, size=(2, 2)).astype(float)
    out = b8b9_index(make_cube({"B8": b8, "B9": b9}))
    for i in range(2):
        for j in range(2):
            s = b8[i, j] + b9[i, j]
            expect = 0.0 if s == 0 else (b8[i, j] - b9[i, j]) / s
            assert out[i, j] == expect


def test_missing_band_error():
    cube = make_cube({"B8": np.ones((2, 2))})
    with pytest.raises(ValueError, match="no band"):
        b8b9_index(cube)


def test_ndvi_examples():
    cube = make_cube({
        "B4": np.array([[1000.0, 1000.0]]),
        "B8": np.array([[1000.0, 4000.0]]),
    })
    out = ndvi(cube)
    assert out.dtype == np.float64 and out.shape == (1, 2)
    assert out[0, 0] == 0.0
    assert out[0, 1] == pytest.approx(0.6)
    # dense vegetation: high NIR, low red
    veg = ndvi(make_cube({"B4": np.array([[300.0]]), "B8": np.array([[3500.0]])}))
    assert veg[0, 0] > 0.5


FDI_EXAMPLE = 235.3574603175  # B8 - baseline for DNs 0.05/0.03/0.01 * 4096


def test_fdi_wavelength_factor_pinned():
    assert FDI_WAVELENGTH_FACTOR == pytest.approx(10.0 * 177.0 / 945.0, rel=1e-15)
    assert FDI_WAVELENGTH_FACTOR == pytest.approx(1.873015873016, rel=1e-11)


def test_fdi_example_values():
    flat = make_cube({
        "B6": np.array([[1000.0]]),
        "B8": np.array([[1000.0]]),
        "B11": np.array([[1000.0]]),
    })
    assert fdi(flat)[0, 0] == pytest.approx(0.0, abs=1e-12)
    cube = make_cube({
        "B6": np.array([[0.03 * 4096]]),
        "B8": np.array([[0.05 * 4096]]),
        "B11": np.array([[0.01 * 4096]]),
    })
    assert fdi(cube).dtype == np.float64
    assert fdi(cube)[0, 0] == pytest.approx(FDI_EXAMPLE, rel=1e-10)


@given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
def test_fdi_positive_homogeneity(k):
    base = make_cube({
        "B6": np.array([[120.0]]), "B8": np.array([[480.0]]),
        "B11": np.array([[60.0]]),
    })
    scaled = make_cube({
        "B6": np.array([[120.0 * k]]), "B8": np.array([[480.0 * k]]),
        "B11": np.array([[60.0 * k]]),
    })
    assert fdi(scaled)[0, 0] == pytest.approx(k * fdi(base)[0, 0], rel=1e-12)


def test_threshold_map():
    values = np.array([[-0.2, 0.5]])
    assert np.array_equal(threshold_map(values, 0.0), [[0, 1]])
    assert threshold_map(values, 0.0).dtype == np.bool_
    assert threshold_map(values, -2.0).all()
    assert not threshold_map(values, 2.0).any()


def test_threshold_monotone_in_t():
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, size=(8, 8))
    prev = None
    for t in np.linspace(-1.1, 1.1, 23):
        cur = threshold_map(values, t)
        if prev is not None:
            assert not (cur & ~prev).any()  # raising t never adds labels
        prev = cur


def test_combined_index_mask_single_debris_pixel():
    # water everywhere except one FDI-bright, low-NDVI pixel
    b4 = np.full((3, 3), 800.0)
    b6 = np.full((3, 3), 600.0)
    b8 = np.full((3, 3), 400.0)
    b11 = np.full((3, 3), 500.0)
    b8[1, 1] = 2000.0  # bright in NIR, NDVI still moderate
    cube = make_cube({"B4": b4, "B6": b6, "B8": b8, "B11": b11})
    fdi_vals = fdi(cube)
    ndvi_vals = ndvi(cube)
    mask = combined_index_mask(cube, ndvi_max=0.8, fdi_min=500.0)
    expect = ((fdi_vals >= 500.0) & (ndvi_vals <= 0.8)).astype(np.uint8)
    assert mask.dtype == np.bool_
    assert np.array_equal(mask, expect)
    assert mask.sum() == 1 and mask[1, 1] == 1


def test_combined_mask_threshold_logic():
    cube = make_cube({
        "B4": np.array([[800.0, 800.0]]),
        "B6": np.array([[600.0, 600.0]]),
        "B8": np.array([[400.0, 2000.0]]),
        "B11": np.array([[500.0, 500.0]]),
    })
    # fdi_min above both pixels -> nothing labeled
    assert not combined_index_mask(cube, ndvi_max=1.0, fdi_min=1e5).any()
    # pixel 1 passes both constraints
    mask = combined_index_mask(cube, ndvi_max=1.0, fdi_min=1000.0)
    assert np.array_equal(mask, [[0, 1]])
