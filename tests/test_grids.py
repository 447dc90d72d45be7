import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from finslerheat.errors import OutOfRangeError, SpecValidationError
from finslerheat.grids import (GridFunction, RadialProfile, empty_layout,
                               grid_from_function, observed_order, refinements)


def _demo_grid():
    return grid_from_function([(-1.0, 2.0), (0.0, 1.0)], (6, 4),
                              lambda c: c[..., 0] + 2.0 * c[..., 1])


def test_spacing_and_axes():
    gf = _demo_grid()
    assert gf.spacing == (0.5, 0.25)
    assert gf.values.shape == (7, 5)
    np.testing.assert_allclose(gf.axes()[0], np.linspace(-1, 2, 7))


def test_resolution_floor():
    with pytest.raises(SpecValidationError):
        GridFunction(((0, 1),), (3,), np.zeros(4))


def test_values_shape_checked():
    with pytest.raises(SpecValidationError):
        GridFunction(((0, 1), (0, 1)), (4, 4), np.zeros((4, 4)))


def test_nonfinite_rejected_by_default():
    vals = np.zeros((5, 5))
    vals[2, 2] = np.nan
    with pytest.raises(SpecValidationError):
        GridFunction(((0, 1), (0, 1)), (4, 4), vals)
    gf = GridFunction(((0, 1), (0, 1)), (4, 4), vals, check_finite=False)
    assert np.isnan(gf.values[2, 2])


def test_binary_round_trip_is_bit_exact():
    gf = _demo_grid()
    again = GridFunction.from_bytes(gf.to_bytes())
    assert again.box == gf.box and again.resolution == gf.resolution
    assert again.values.tobytes() == gf.values.tobytes()


def test_binary_file_round_trip(tmp_path):
    gf = _demo_grid()
    path = tmp_path / "field.grid"
    gf.save(path)
    again = GridFunction.load(path)
    np.testing.assert_array_equal(again.values, gf.values)


def test_csv_round_trip():
    gf = _demo_grid()
    again = GridFunction.from_csv(gf.to_csv())
    assert again.box == gf.box
    np.testing.assert_allclose(again.values, gf.values, rtol=0, atol=0)


def test_profile_requires_zero_start():
    with pytest.raises(SpecValidationError):
        RadialProfile(np.array([0.1, 0.5, 1.0]), np.zeros(3))
    with pytest.raises(SpecValidationError):
        RadialProfile(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))


def test_even_profile_rejects_sloped_data():
    r = np.linspace(0, 1, 33)
    with pytest.raises(SpecValidationError):
        RadialProfile(r, r.copy(), even=True)
    RadialProfile(r, r.copy(), even=False)     # fine when not flagged even


def test_even_profile_has_flat_origin():
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 257)
    assert prof.derivative(0.0, 1) == pytest.approx(0.0, abs=1e-14)


def test_spline_accuracy():
    prof = RadialProfile.from_function(lambda r: np.cos(r), 4.0, 1025)
    r = np.linspace(0.1, 3.9, 57)
    np.testing.assert_allclose(prof(r), np.cos(r), atol=1e-9)
    np.testing.assert_allclose(prof.derivative(r, 2), -np.cos(r), atol=1e-4)


def test_profile_out_of_range():
    prof = RadialProfile.from_function(lambda r: r * 0 + 1, 2.0, 65)
    with pytest.raises(OutOfRangeError):
        prof(np.array([2.5]))


@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@pytest.mark.parametrize("n", [2, 3, 4, 2049])
@pytest.mark.parametrize("even", [True, False])
@pytest.mark.parametrize("uniform", [True, False])
def test_profile_spline_is_scipys_cubic_spline(n, even, uniform):
    """Coefficients, values and derivatives of orders 1-3 equal those of
    CubicSpline (clamped zero slope at 0 when even, else not-a-knot; the
    far end not-a-knot) bit for bit."""
    rng = np.random.default_rng(n)
    r = (np.linspace(0.0, 3.0, n) if uniform else
         np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))]))
    v = 2.0 - 0.5 * r**2 if even else 2.0 + 0.3 * r
    v[3:] += rng.standard_normal(max(n - 3, 0))
    if even and n == 2:         # the parabola through two samples is sloped
        v[:] = 2.0
    prof = RadialProfile(r, v, even=even)
    spline = CubicSpline(r, v,
                         bc_type=((1, 0.0), "not-a-knot") if even else "not-a-knot")
    assert np.array_equal(prof.coefficients, spline.c)
    x = np.concatenate([r, rng.uniform(0.0, r[-1], 2000)])
    assert np.array_equal(prof(x), spline(x))
    for order in (1, 2, 3):
        assert np.array_equal(prof.derivative(x, order), spline(x, nu=order))
    assert np.array_equal(prof.derivative(r[-1], 2), spline(r[-1], nu=2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_refinements_and_observed_order(data):
    N = data.draw(st.integers(1, 3))
    lo = [data.draw(st.floats(-10.0, 10.0)) for _ in range(N)]
    box = [(a, a + data.draw(st.floats(0.1, 10.0))) for a in lo]
    res = tuple(data.draw(st.integers(4, 9)) for _ in range(N))
    levels = data.draw(st.integers(2, 4))
    layouts = refinements(empty_layout(box, res), levels)
    assert len(layouts) == levels
    for level, lay in enumerate(layouts):
        assert lay.box == layouts[0].box
        assert lay.resolution == tuple(r * 2**level for r in res)
        assert not np.any(lay.values)
    # errors C h^p read back as order p
    C = data.draw(st.floats(1e-6, 1e6))
    p = data.draw(st.floats(0.5, 4.0))
    h = [max(lay.spacing) for lay in layouts]
    assert observed_order([C * hl**p for hl in h], h) == pytest.approx(p, abs=1e-12)
