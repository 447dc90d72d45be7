import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from finslerheat import grids
from finslerheat.errors import OutOfRangeError, SpecValidationError
from finslerheat.grids import (MAX_NODES, MAX_RADIUS, MAX_VALUE, GridFunction, RadialProfile,
                               _tridiagonal_solve, blocks, empty_layout, grid_from_function,
                               observed_order, refinements)


def _demo_grid():
    return grid_from_function([(-1.0, 2.0), (0.0, 1.0)], (6, 4),
                              lambda c: c[..., 0] + 2.0 * c[..., 1])


def test_spacing_and_axes():
    gf = _demo_grid()
    assert gf.spacing == (0.5, 0.25)
    assert gf.values.shape == (7, 5)
    np.testing.assert_allclose(gf.axes()[0], np.linspace(-1, 2, 7))


@settings(max_examples=40)
@given(data=st.data())
def test_coords_fill_one_array_with_the_stacked_meshgrid(data, work):
    """`coords` is the stacked `meshgrid` of the axes bit for bit, for N = 1
    to 3, and its traced peak is its one result plus the axes (the
    meshgrid's copies and the stack took two results); `coords(rows)` is
    its block of rows along axis 0."""
    N = data.draw(st.integers(1, 3))
    resolution = tuple(data.draw(st.integers(4, 80 if N < 3 else 24)) for _ in range(N))
    box = tuple((lo, lo + data.draw(st.floats(0.1, 50.0)))
                for lo in (data.draw(st.floats(-20.0, 20.0)) for _ in range(N)))
    gf = GridFunction(box, resolution, np.zeros(tuple(r + 1 for r in resolution)))
    want = np.stack(np.meshgrid(*gf.axes(), indexing="ij"), axis=-1)
    gf.coords()
    warm = work(gf.coords, count=False, cold=False)
    got = warm.result
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert warm.peak <= got.nbytes + 8 * sum(resolution) + 8 * N + 2048
    start = data.draw(st.integers(0, resolution[0]))
    rows = slice(start, data.draw(st.integers(start + 1, resolution[0] + 1)))
    assert gf.coords(rows).tobytes() == want[rows].tobytes()


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


@settings(max_examples=60)
@given(data=st.data())
def test_refinements_and_observed_order(data):
    N = data.draw(st.integers(1, 3))
    lo = [data.draw(st.floats(-10.0, 10.0)) for _ in range(N)]
    box = [(a, a + data.draw(st.floats(0.1, 10.0))) for a in lo]
    res = tuple(data.draw(st.integers(4, 9)) for _ in range(N))
    levels = data.draw(st.integers(2, 4))
    layouts = list(refinements(empty_layout(box, res), levels))
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


def test_layouts_and_profile_radii_are_bounded():
    # 6001^2 nodes (288 MB) are refused before they are allocated, and so is
    # a profile beyond MAX_RADIUS before its slope fit overflows (no warning)
    assert MAX_NODES == 2**25 and MAX_RADIUS == 1e6
    with pytest.raises(SpecValidationError, match="nodes"):
        empty_layout([(0.0, 1.0), (0.0, 1.0)], (6000, 6000))
    with pytest.raises(SpecValidationError, match="nodes"):
        refinements(empty_layout([(0.0, 1.0), (0.0, 1.0)], (2048, 2048)), 3)
    assert RadialProfile([0.0, MAX_RADIUS], [1.0, 0.0], even=False).r_max == MAX_RADIUS
    for r_max in (2 * MAX_RADIUS, np.inf, np.nan):
        with pytest.raises(SpecValidationError, match="radii"):
            RadialProfile([0.0, r_max], [1.0, 0.0], even=False)
    with pytest.raises(SpecValidationError, match="radii"):
        RadialProfile.from_function(lambda r: np.exp(-r**2), 1e200, 9)


def test_profile_values_are_bounded():
    # values past MAX_VALUE (a flow of 1e300 overflowed in its L^2 norm's
    # squares) are refused with the non-finite ones; the growing classify
    # profiles stay admissible, exp(r^3) to r = 6 reading 6.4e93
    assert MAX_VALUE == 1e100
    assert RadialProfile([0.0, 1.0], [-MAX_VALUE, MAX_VALUE], even=False).values[1] == MAX_VALUE
    for value in (2 * MAX_VALUE, -np.inf, np.nan):
        with pytest.raises(SpecValidationError, match="values"):
            RadialProfile([0.0, 1.0], [1.0, value], even=False)
    with pytest.raises(SpecValidationError, match="values"):
        RadialProfile.from_function(lambda r: 1e308 * np.exp(-r**2), 4.0, 9)


def test_profile_samples_are_bounded_before_they_are_laid_out(monkeypatch):
    # 2^25 + 1 samples would lay out 268 MB and solve the spline over them
    # in Python floats: the count is refused first, here against a bound of 64
    monkeypatch.setattr(grids, "MAX_NODES", 64)
    assert len(RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 64).radii) == 64
    with pytest.raises(SpecValidationError, match="samples"):
        RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 65)


@settings(max_examples=200)
@given(n=st.integers(0, 5000), size=st.integers(1, 20000))
def test_blocks_cover_the_range_once_in_order_within_four_thirds_of_a_block(n, size, block):
    """`blocks(n, size)` cuts range(n) into consecutive slices of one count
    (the last one shorter), the whole number of size-value slabs nearest to
    a block's values (`block.size`), or one: a block of more than one index
    holds at most 4/3 of them, and none is shorter than it need be."""
    cuts = blocks(n, size)
    assert [i for b in cuts for i in range(n)[b]] == list(range(n))
    assert all(b.step is None and b.stop > b.start for b in cuts)
    assert all(b.stop - b.start == cuts[0].stop for b in cuts[:-1])
    for b in cuts:
        assert b.stop - b.start == 1 or (b.stop - b.start) * size <= 4 * block.size / 3
    if len(cuts) > 1:   # one slab more would be further from block.size
        count = cuts[0].stop
        assert abs((count + 1) * size - block.size) >= abs(count * size - block.size)


def test_grid_from_function_checks_the_values_it_samples():
    # the values pass GridFunction's checks: a NaN, or a shape off the layout's nodes
    box = [(0.0, 1.0), (0.0, 1.0)]
    with pytest.raises(SpecValidationError, match="finite"):
        grid_from_function(box, (4, 4), lambda c: np.full(c.shape[:-1], np.nan))
    with pytest.raises(SpecValidationError, match="shape"):
        grid_from_function(box, (4, 4), lambda c: np.zeros(3))


def test_observed_order_of_a_vanishing_error_is_inf_or_nan():
    # a finest error that underflows to 0 reads as order inf (nan if the
    # first does too): no ZeroDivisionError, and no warning escapes
    assert observed_order([1e-3, 0.0], [0.5, 0.25]) == np.inf
    assert np.isnan(observed_order([0.0, 0.0], [0.5, 0.25]))
    assert np.isnan(observed_order(np.zeros(3), [0.5, 0.25, 0.125]))


@settings(max_examples=100)
@given(data=st.data())
def test_tridiagonal_solve_is_solve_banded_bit_for_bit(data):
    """`_tridiagonal_solve` against scipy.linalg.solve_banded((1, 1), ...),
    with diagonals scaled down so that most draws swap rows."""
    from scipy.linalg import solve_banded
    n = data.draw(st.integers(2, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dl, du, b = rng.standard_normal(n - 1), rng.standard_normal(n - 1), rng.standard_normal(n)
    d = rng.standard_normal(n) * data.draw(st.sampled_from([0.1, 1.0, 10.0]))
    bands = np.zeros((3, n))
    bands[0, 1:], bands[1], bands[2, :-1] = du, d, dl
    ours = _tridiagonal_solve(dl.tolist(), d.tolist(), du.tolist(), b.tolist())
    assert np.array(ours).tobytes() == solve_banded((1, 1), bands, b).tobytes()


def test_three_point_solve_is_scipys_bit_for_bit():
    """numpy's `solve`, which the 3-point not-a-knot spline takes, against
    scipy.linalg.solve on random 3 x 3 systems, pivoting rows included."""
    from scipy.linalg import solve
    rng = np.random.default_rng(12)
    for _ in range(500):
        A, b = rng.standard_normal((3, 3)), rng.standard_normal(3)
        assert np.linalg.solve(A, b).tobytes() == solve(A, b[:, None])[:, 0].tobytes()


def _zero_pivot(dl: list, d: list, du: list) -> list:
    """`_tridiagonal_solve` of a singular system that dgtsv, as
    `scipy.linalg.solve_banded((1, 1), ...)` calls it, refuses too."""
    from scipy.linalg import LinAlgError, solve_banded
    bands = np.zeros((3, len(d)))
    bands[0, 1:], bands[1], bands[2, :-1] = du, d, dl
    with pytest.raises(LinAlgError, match="singular"):
        solve_banded((1, 1), bands, np.ones(len(d)))
    return _tridiagonal_solve(dl, d, du, [1.0] * len(d))


@pytest.mark.parametrize("call, match", [
    (lambda: GridFunction(((1.0, 0.0),), (4,), np.zeros(5)), "box sides"),
    (lambda: _zero_pivot([0.0], [0.0, 1.0], [1.0]), "singular spline system"),
    (lambda: _zero_pivot([0.0], [1.0, 0.0], [0.0]), "singular spline system"),
], ids=["box-side-hi-below-lo", "tridiagonal-pivot-in-elimination",
        "tridiagonal-last-pivot"])
def test_grids_refuse_bad_arguments_by_name(call, match):
    with pytest.raises(SpecValidationError, match=match):
        call()
