import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from finslerheat import measures, norms
from finslerheat.errors import SpecValidationError
from finslerheat.grids import MAX_VALUE, GridFunction, RadialProfile, empty_layout
from finslerheat.measures import (_ball_kernel, _lattice_box, classify, fftconvolve,
                                  growth_functional, irfftn, measure_from_atoms,
                                  measure_from_density, measure_from_radial,
                                  mollify, next_fast_len, rfftn)

EUCLID = norms.euclidean(2)


def _radial_measure(fn, r_max=16.0, samples=2049, norm=EUCLID):
    return measure_from_radial(RadialProfile.from_function(fn, r_max, samples), norm)


def test_unit_atom_functional_is_one():
    atom = measure_from_atoms([((0.0, 0.0), 1.0)])
    for lam in (0.2, 1.0, 3.0):
        assert growth_functional(atom, lam, EUCLID) == pytest.approx(1.0)


def test_lebesgue_density_against_polar_oracle():
    # sup sits at the origin: int_{B(0,1)} e^{-|y|^2} = pi (1 - 1/e)
    leb = _radial_measure(lambda r: np.ones_like(r))
    value = growth_functional(leb, 1.0, EUCLID, window=4.0, spacing=0.05)
    assert value == pytest.approx(np.pi * (1 - np.exp(-1)), rel=1e-2)


def test_weight_cancellation_gives_ball_volume():
    # density e^{lam H0^2} cancels the weight: value = |B_{H0}(0, 1/sqrt(lam))|
    lam = 0.5
    m = _radial_measure(lambda r: np.exp(lam * r**2))
    value = growth_functional(m, lam, EUCLID, window=6.0, spacing=0.05)
    assert value == pytest.approx(np.pi / lam, rel=1e-2)


def test_radial_density_is_radial_in_its_own_norm():
    # exp(-H0^2) in the euclidean norm and in the ellipse norm are different
    # measures; the window, weight and balls stay in spec's norm
    ellipse = norms.ellipse(np.diag([4.0, 1.0]))
    lay = empty_layout(*_lattice_box(ellipse, 6.0, 0.25))
    in_window = norms.dual_norm_eval(ellipse, lay.coords()) <= 6.0
    values = []
    for norm in (EUCLID, ellipse):
        m = _radial_measure(lambda r: np.exp(-r**2), norm=norm)
        rho = norms.dual_norm_eval(norm, lay.coords())
        density = measure_from_density(
            lay.with_values(np.where(in_window, m.profile(rho), 0.0)))
        values.append(growth_functional(m, 0.5, ellipse, window=6.0, spacing=0.25))
        assert values[-1] == growth_functional(density, 0.5, ellipse, window=6.0)
    assert values[0] < 0.7 * values[1]


def test_growth_monotone_in_lam():
    # both the balls (radius 1/sqrt(lam)) and the weights shrink as lam grows
    m = _radial_measure(lambda r: np.exp(-0.1 * r**2))
    vals = [growth_functional(m, lam, EUCLID, window=6.0, spacing=0.1)
            for lam in (0.25, 0.5, 1.0, 2.0)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_window_monotonicity():
    m = _radial_measure(lambda r: np.exp(0.2 * r**2))
    vals = [growth_functional(m, 0.1, EUCLID, window=w, spacing=0.25)
            for w in (4.0, 6.0, 8.0)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_classifier_quarter_growth_density():
    m = _radial_measure(lambda r: np.exp(0.25 * r**2))
    res = classify(m, EUCLID, [0.1, 0.2, 0.3, 0.5], windows=(4, 6, 8, 12),
                   spacing=0.25)
    assert res.admissible
    assert res.lam_star == pytest.approx(0.3)
    assert res.horizon == pytest.approx(1 / 1.2)
    assert not res.stabilized[0.2]


def test_classifier_needs_two_distinct_windows():
    # the datum needs lam > 1/4: with the two largest windows equal every
    # lam read as stabilized, and lam* came out 0.1
    m = _radial_measure(lambda r: np.exp(0.25 * r**2))
    with pytest.raises(SpecValidationError, match="two distinct windows"):
        classify(m, EUCLID, [0.1, 0.2, 0.3, 0.5], windows=(12, 12), spacing=0.25)
    res = classify(m, EUCLID, [0.1, 0.2, 0.3, 0.5], windows=(8, 12, 12), spacing=0.25)
    assert res.windows == [8.0, 12.0]
    assert res.lam_star == pytest.approx(0.3)


def test_classifier_compact_density():
    m = _radial_measure(lambda r: np.maximum(1 - r**2, 0.0) ** 3, r_max=16.0)
    res = classify(m, EUCLID, [0.1, 0.2, 0.3], windows=(4, 6, 8), spacing=0.25)
    assert res.lam_star == pytest.approx(0.1)


def test_classifier_cubic_growth_is_non_admissible():
    m = _radial_measure(lambda r: np.exp(r**3), r_max=6.0)
    with pytest.warns(UserWarning, match="window smaller than the ball radius"):
        res = classify(m, EUCLID, [0.1, 0.5, 1.0, 2.0], windows=(2, 3, 4, 5),
                       spacing=0.125)
    assert not res.admissible


def test_blowup_datum_growth_membership():
    # e^{L H0^2} satisfies the growth condition for lam > L, fails below
    L = 0.25
    m = _radial_measure(lambda r: np.exp(L * r**2))
    res = classify(m, EUCLID, [0.15, 0.35], windows=(4, 6, 8, 12), spacing=0.25)
    assert res.stabilized[0.35]
    assert not res.stabilized[0.15]


def test_scaling_coherence():
    # G(mu(k .), lam) = k^{-N} G(mu, lam / k^2) with matching windows
    k = 2.0
    base = _radial_measure(lambda r: np.exp(-0.05 * r**2), r_max=20.0)
    scaled = _radial_measure(lambda r: np.exp(-0.05 * (k * r) ** 2), r_max=10.0)
    lam = 1.0
    lhs = growth_functional(scaled, lam, EUCLID, window=4.0, spacing=0.05)
    rhs = k**-2 * growth_functional(base, lam / k**2, EUCLID, window=8.0,
                                    spacing=0.1)
    assert lhs == pytest.approx(rhs, rel=2e-2)


def test_classifier_determinism():
    m = _radial_measure(lambda r: np.exp(0.25 * r**2))
    a = classify(m, EUCLID, [0.3, 0.5], windows=(4, 6), spacing=0.25)
    b = classify(m, EUCLID, [0.3, 0.5], windows=(4, 6), spacing=0.25)
    assert a.table == b.table


def _square_layout(half, cells):
    return GridFunction(((-half, half), (-half, half)), (cells, cells),
                        np.zeros((cells + 1, cells + 1)))


def test_mollify_zero_measure():
    lay = _square_layout(2.0, 32)
    zero = measure_from_density(lay)
    out = mollify(zero, 0.5, lay)
    np.testing.assert_array_equal(out.values, 0.0)


def test_mollify_atom_mass():
    lay = _square_layout(2.0, 64)
    atom = measure_from_atoms([((0.3, -0.2), 1.0)])
    out = mollify(atom, 0.25, layout=lay)
    assert float(np.sum(out.values)) * lay.cell_volume == pytest.approx(1.0,
                                                                        abs=1e-12)


def test_mollify_atom_pair_cancels():
    lay = _square_layout(3.0, 96)
    pair = measure_from_atoms([((1.0, 0.0), 1.0), ((-1.0, 0.0), -1.0)])
    out = mollify(pair, 0.3, layout=lay)
    total = float(np.sum(out.values)) * lay.cell_volume
    positive = float(np.sum(np.maximum(out.values, 0.0))) * lay.cell_volume
    assert total == pytest.approx(0.0, abs=1e-12)
    assert positive == pytest.approx(1.0, abs=1e-6)


def test_mollify_width_floor():
    lay = _square_layout(2.0, 16)
    atom = measure_from_atoms([((0.0, 0.0), 1.0)])
    with pytest.raises(SpecValidationError):
        mollify(atom, 0.1, layout=lay)


def test_atom_validation():
    with pytest.raises(SpecValidationError):
        measure_from_atoms([((0.0, np.inf), 1.0)])
    with pytest.raises(SpecValidationError):
        measure_from_atoms([])


def _assert_same_as_scipy(field_shape, kernel_shape, seed):
    rng = np.random.default_rng(seed)
    field = rng.standard_normal(field_shape)
    kernel = rng.uniform(0.0, 1.0, kernel_shape)
    ours, want = fftconvolve(field, kernel), signal.fftconvolve(field, kernel, mode="same")
    assert ours.shape == field.shape
    if min(field_shape + kernel_shape) >= 2:
        assert np.array_equal(ours, want)
    else:   # scipy broadcasts an axis of length 1 that `fftconvolve` transforms;
        # a value near 0 may differ in its leading digit, so the tolerance is
        # relative to the largest value
        np.testing.assert_allclose(ours, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("field_shape, kernel_shape", [
    ((17,), (5,)), ((4,), (11,)), ((1,), (6,)), ((6,), (1,)),
    ((20, 13), (7, 5)), ((5, 4), (9, 12)), ((9, 8), (1, 5)), ((9, 8), (3, 1)),
    ((1, 7), (4, 1)), ((1, 1), (1, 1)),
    ((9, 7, 6), (3, 5, 3)), ((4, 3, 5), (7, 9, 8)), ((6, 1, 5), (3, 4, 1)),
])
def test_fftconvolve_matches_scipy_on_chosen_shapes(field_shape, kernel_shape):
    """Kernels larger than the field, in N = 1, 2 and 3: scipy's bits where
    every side is at least 2, and scipy's values to rounding with axes of
    length 1 on either side, which scipy broadcasts, down to no axis that
    scipy transforms at all."""
    _assert_same_as_scipy(field_shape, kernel_shape, seed=len(field_shape))


@settings(max_examples=60)
@given(data=st.data())
def test_fftconvolve_matches_scipy_bit_for_bit(data):
    N = data.draw(st.integers(1, 3))
    field_shape = tuple(data.draw(st.integers(2, 24)) for _ in range(N))
    kernel_shape = tuple(data.draw(st.integers(2, 30)) for _ in range(N))
    _assert_same_as_scipy(field_shape, kernel_shape, data.draw(st.integers(0, 2**31)))


def test_fftconvolve_matches_scipy_on_the_monitor_kernel():
    """The ball kernel of the flow monitor on a 257 x 129 ellipse grid."""
    spec = norms.ellipse(np.diag([4.0, 1.0]))
    kernel = _ball_kernel(spec, 1.0, (6.0 / 64, 6.0 / 64))
    field = np.random.default_rng(3).uniform(0.0, 1.0, (257, 129))
    assert np.array_equal(fftconvolve(field, kernel),
                          signal.fftconvolve(field, kernel, mode="same"))


def test_next_fast_len_is_scipys():
    from scipy.fft import next_fast_len as scipy_next_fast_len
    assert [next_fast_len(n) for n in range(1, 5001)] == \
        [scipy_next_fast_len(n, True) for n in range(1, 5001)]


@settings(max_examples=80)
@given(data=st.data())
def test_fft_pair_is_scipys_bit_for_bit(data):
    """`rfftn` and `irfftn` against scipy.fft's over the shapes that
    `fftconvolve` transforms: every axis of 1-3, each side at least 2 and
    each transform length at or past the input's.  Memory of the spectrum's
    size is filled with NaN and freed just before `rfftn` allocates, so pad
    rows it left unzeroed would show; `irfftn`, which overwrites its input
    as `fftconvolve` calls it, gets a copy."""
    from scipy import fft
    N = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(2, 40 if N == 1 else 12)) for _ in range(N))
    lengths = [n + data.draw(st.integers(0, 12)) for n in shape]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal(shape)
    X = fft.rfftn(x, lengths)
    np.full(X.shape, np.nan, dtype=complex)
    ours = rfftn(x, lengths)
    assert ours.dtype == X.dtype and ours.tobytes() == X.tobytes()
    back = irfftn(X.copy(), lengths)
    assert back.dtype == x.dtype and back.tobytes() == fft.irfftn(X, lengths).tobytes()


def _traced_convolution(work, field, kernel, where=None):
    """fftconvolve of field and kernel, given the kernel's rows, and the peak
    that tracemalloc reads for a warm call, and the padded lengths."""
    rows = measures.kernel_rows(kernel, field.shape)
    fftconvolve(field, kernel, rows, where)
    warm = work(lambda: fftconvolve(field, kernel, rows, where), count=False, cold=False)
    return warm.result, warm.peak, [measures.next_fast_len(n + m - 1)
                                    for n, m in zip(field.shape, kernel.shape)]


def test_fftconvolve_allocates_one_spectrum_and_one_padded_array(work):
    """A convolution with its kernel's rows allocates one complex array of
    the padded spectrum's shape and one real array of the padded shape,
    and at most 16 KiB besides.  Padded to 4050 x 4, the spectrum takes 1.5
    times the real array and a block of the kernel's spectrum (4050 x 2)
    one real array, so a product or a complex pass out of place shows."""
    rng = np.random.default_rng(6)
    field, kernel = rng.standard_normal((4000, 3)), rng.uniform(0.0, 1.0, (5, 2))
    ours, peak, (n0, n1) = _traced_convolution(work, field, kernel)
    assert np.array_equal(ours, signal.fftconvolve(field, kernel, mode="same"))
    assert peak <= n0 * (n1 // 2 + 1) * 16 + n0 * n1 * 8 + 16384


def test_the_masked_maximum_allocates_no_padded_array(work, block):
    """The maximum over a mask of a convolution padded to 2025 x 45 peaks
    at the spectrum and one block of the kernel's spectrum, at most a
    `grids.blocks` block of complex values, and 16 KiB besides: the inverse
    real FFT runs on blocks of the cropped rows (the padded real array took
    729,000 bytes more, a spectrum formed whole 616,000)."""
    rng = np.random.default_rng(7)
    field, kernel = rng.standard_normal((2000, 40)), rng.uniform(0.0, 1.0, (5, 3))
    mask = rng.uniform(size=field.shape) < 0.5
    ours, peak, (n0, n1) = _traced_convolution(work, field, kernel, mask)
    assert ours == np.max(signal.fftconvolve(field, kernel, mode="same")[mask])
    assert peak <= n0 * (n1 // 2 + 1) * 16 + block.size * 16 + 16384


@settings(max_examples=80)
@given(data=st.data())
def test_the_masked_maximum_is_np_max_of_the_convolution_bit_for_bit(data, block):
    """`fftconvolve(field, kernel, rows, mask)` is `np.max` of scipy's
    same-mode convolution over the mask, N = 1-3, in blocks of `block.size`
    values or of one or a few: NaN where that holds one (a NaN in the field,
    or values near the largest double, whose transforms overflow), and an
    empty mask raises ValueError, as `np.max` does."""
    N = data.draw(st.integers(1, 3))
    field_shape = tuple(data.draw(st.integers(2, 24)) for _ in range(N))
    kernel_shape = tuple(data.draw(st.integers(2, 30)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    field = rng.uniform(-1.0, 1.0, field_shape) * 10.0 ** data.draw(st.sampled_from([0, 306, 308]))
    if data.draw(st.booleans()):
        field[tuple(rng.integers(0, n) for n in field_shape)] = np.nan
    kernel = rng.uniform(0.0, 1.0, kernel_shape)
    mask = rng.uniform(size=field_shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    with block(data.draw(st.sampled_from([block.size, 1, 40]))):
        with np.errstate(all="ignore"):
            want = signal.fftconvolve(field, kernel, mode="same")[mask]
            rows = measures.kernel_rows(kernel, field_shape)
            if not mask.any():
                with pytest.raises(ValueError, match="zero-size array"):
                    fftconvolve(field, kernel, rows, mask)
                return
            got = fftconvolve(field, kernel, rows, mask)
    assert np.isnan(got) == np.isnan(want).any()
    assert np.isnan(got) or got.tobytes() == np.max(want).tobytes()


def test_the_masked_maximum_is_nan_where_an_overflow_leaves_nan_among_numbers():
    # two nodes of 1e306 overflow the product with a 3 x 3 kernel's spectrum:
    # the convolution holds NaN, inf and finite values in each block of rows,
    # so a block maximum that skipped NaN would read a number
    field, kernel = np.zeros((40, 300)), np.ones((3, 3))
    field[3, 3] = field[-2, -5] = 1e306
    with np.errstate(all="ignore"):
        want = signal.fftconvolve(field, kernel, mode="same")
        got = fftconvolve(field, kernel, where=True)
    assert np.isnan(want).any() and np.isinf(want).any() and np.isfinite(want).any()
    assert np.isnan(got)


def test_inverse_fft_scale_is_rounded_from_long_double():
    """scipy scales by 1 / n computed in long double: at n = 2731 that
    rounds to a different double than 1.0 / 2731."""
    from scipy import fft
    assert float(1 / np.longdouble(2731)) != 1.0 / 2731
    X = fft.rfft(np.random.default_rng(2).standard_normal(2731))
    assert irfftn(X, [2731]).tobytes() == fft.irfftn(X, [2731]).tobytes()


_PROFILED = _radial_measure(lambda r: np.exp(-r**2))


@pytest.mark.parametrize("call, match", [
    (lambda: measures.MeasureSpec("density"), "needs a grid"),
    (lambda: measures.MeasureSpec("radial_density", profile=_PROFILED.profile),
     "needs a profile and a norm"),
    (lambda: measures.MeasureSpec("mist"), "unknown measure kind 'mist'"),
    (lambda: growth_functional(_PROFILED, 0.1, EUCLID, window=4.0, spacing=0.0), "spacing"),
    (lambda: growth_functional(_PROFILED, 0.0, EUCLID, window=4.0), "lam"),
    (lambda: growth_functional(_PROFILED, 0.1, EUCLID), "window"),
    (lambda: classify(_PROFILED, EUCLID, []), "lambda grid is empty"),
    (lambda: classify(_PROFILED, EUCLID, [0.1], stabilization_tol=-1.0), "stabilization_tol"),
], ids=["density-without-grid", "radial-without-norm", "kind-unknown", "spacing-0", "lam-0",
        "radial-without-window", "lambda-grid-empty", "stabilization-tol-negative"])
def test_measures_refuse_bad_arguments_by_name(call, match):
    with pytest.raises(SpecValidationError, match=match):
        call()


def test_a_density_whose_total_mass_overflows_is_refused():
    # density values are bounded by MAX_VALUE (a 9 x 9 grid of 1e305 passed
    # the total and overflowed in the growth functional's FFT), so only a
    # cell volume past the largest double, here of a box 4e200 wide, gives
    # an infinite total |mass|: the spec refuses that total
    lay = empty_layout(((-1.0, 1.0), (-1.0, 1.0)), (8, 8))
    for value in (1e305, 2 * MAX_VALUE, np.inf):
        with pytest.raises(SpecValidationError, match="density values must be at most 1e"):
            measure_from_density(lay.with_values(np.full(lay.values.shape, value), False))
    huge = empty_layout(((-2e200, 2e200), (-2e200, 2e200)), (8, 8))
    with pytest.raises(SpecValidationError, match="finite total, not inf"):
        measure_from_density(huge.with_values(np.ones(huge.values.shape)))
    density = measure_from_density(lay.with_values(np.full(lay.values.shape, MAX_VALUE)))
    result = classify(density, EUCLID, [0.1, 0.3], windows=(4.0, 6.0))
    assert all(math.isfinite(v) for v in result.table.values())


def test_atoms_whose_total_mass_overflows_are_refused():
    # two atoms of mass 1e308 are each finite, but their total |mass| is
    # not: the functional summed them to inf in every window, warned of the
    # overflow and marked every lambda not stabilized.  Each mass is bounded
    # by MAX_VALUE, so any number of atoms has a finite total
    for mass in (1e308, 2 * MAX_VALUE, np.nan):
        with pytest.raises(SpecValidationError, match="atom masses must be at most 1e"):
            measure_from_atoms([((0.0, 0.0), mass), ((0.5, 0.0), -1.0)])
    atoms = measure_from_atoms([((0.0, 0.0), MAX_VALUE), ((0.5, 0.0), -MAX_VALUE)])
    result = classify(atoms, EUCLID, [0.1, 0.3], windows=(4.0, 6.0))
    assert all(math.isfinite(v) for v in result.table.values())


def test_atoms_whose_points_pass_max_value_are_refused():
    # an atom at 1e300 warned of an overflow in H0 of the mollified datum
    # before the run refused it: points are bounded as masses are
    for x in (1e300, 2 * MAX_VALUE, np.inf, np.nan):
        with pytest.raises(SpecValidationError, match="atom points must be at most 1e"):
            measure_from_atoms([((0.0, 0.0), 1.0), ((x, 0.0), 1.0)])
    assert measure_from_atoms([((MAX_VALUE, -MAX_VALUE), 1.0)]).kind == "atoms"


def test_a_mollified_atom_whose_peak_passes_max_value_is_refused():
    # an atom of mass MAX_VALUE spread over a bump of width 0.25, whose
    # lattice sum times the cell volume is about 0.03, would peak near
    # 1.2e101: refused, as is a unit atom outside the grid whose bump
    # reaches one node at 0.9988 of its width, a lattice sum near 1e-181
    lay = _square_layout(1.0, 16)
    for atom in (((0.0, 0.0), MAX_VALUE), ((1.2497, 0.0), 1.0)):
        with pytest.raises(SpecValidationError, match="mollified atom's peak"):
            mollify(measure_from_atoms([atom]), 0.25, lay)
    out = mollify(measure_from_atoms([((0.0, 0.0), 1e98)]), 0.25, lay)
    assert np.max(out.values) <= MAX_VALUE


@settings(max_examples=40)
@given(exponent=st.floats(0.0, 100.0), seed=st.integers(0, 2**31))
def test_classify_of_a_density_up_to_max_value_is_finite(exponent, seed):
    """Density values are bounded by MAX_VALUE so that the growth
    functional's FFT cannot overflow: a 9 x 9 density of values up to the
    bound in magnitude gives a finite table (1e305 overflowed)."""
    lay = empty_layout(((-1.0, 1.0), (-1.0, 1.0)), (8, 8))
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, lay.values.shape)
    density = measure_from_density(lay.with_values(values * min(10.0**exponent, MAX_VALUE)))
    result = classify(density, EUCLID, [0.1, 0.3], windows=(4.0, 6.0))
    assert all(math.isfinite(v) for v in result.table.values())


def test_classify_marks_a_lambda_with_an_infinite_functional_not_stabilized():
    # a spacing of 1e200 makes the cell volume, and so every windowed mass
    # of the radial density, overflow to inf: no lambda is stabilized
    with np.errstate(over="ignore"):
        result = classify(_PROFILED, EUCLID, [0.1, 0.3], windows=(4.0, 6.0), spacing=1e200)
    assert all(v == np.inf for v in result.table.values())
    assert result.stabilized == {0.1: False, 0.3: False} and result.lam_star is None
