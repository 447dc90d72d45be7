import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from finslerheat import norms
from finslerheat.errors import SpecValidationError
from finslerheat.grids import GridFunction, RadialProfile, empty_layout
from finslerheat.measures import (_ball_kernel, _lattice_box, classify, fftconvolve,
                                  growth_functional, measure_from_atoms,
                                  measure_from_density, measure_from_radial,
                                  mollify)

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
    ours = fftconvolve(field, kernel)
    assert ours.shape == field.shape
    assert np.array_equal(ours, signal.fftconvolve(field, kernel, mode="same"))


@pytest.mark.parametrize("field_shape, kernel_shape", [
    ((17,), (5,)), ((4,), (11,)), ((1,), (6,)), ((6,), (1,)),
    ((20, 13), (7, 5)), ((5, 4), (9, 12)), ((9, 8), (1, 5)), ((9, 8), (3, 1)),
    ((1, 7), (4, 1)), ((1, 1), (1, 1)),
    ((9, 7, 6), (3, 5, 3)), ((4, 3, 5), (7, 9, 8)), ((6, 1, 5), (3, 4, 1)),
])
def test_fftconvolve_matches_scipy_on_chosen_shapes(field_shape, kernel_shape):
    """Kernels larger than the field, axes of length 1 on either side, and
    no transformed axis at all, in N = 1, 2 and 3."""
    _assert_same_as_scipy(field_shape, kernel_shape, seed=len(field_shape))


@settings(max_examples=60)
@given(data=st.data())
def test_fftconvolve_matches_scipy_bit_for_bit(data):
    N = data.draw(st.integers(1, 3))
    field_shape = tuple(data.draw(st.integers(1, 24)) for _ in range(N))
    kernel_shape = tuple(data.draw(st.integers(1, 30)) for _ in range(N))
    _assert_same_as_scipy(field_shape, kernel_shape, data.draw(st.integers(0, 2**31)))


def test_fftconvolve_matches_scipy_on_the_monitor_kernel():
    """The ball kernel of the flow monitor on a 257 x 129 ellipse grid."""
    spec = norms.ellipse(np.diag([4.0, 1.0]))
    kernel = _ball_kernel(spec, 1.0, (6.0 / 64, 6.0 / 64))
    field = np.random.default_rng(3).uniform(0.0, 1.0, (257, 129))
    assert np.array_equal(fftconvolve(field, kernel),
                          signal.fftconvolve(field, kernel, mode="same"))
