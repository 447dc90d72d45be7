import mpmath
import numpy as np
import pytest

from finslerheat import norms
from finslerheat.errors import DomainError, SpecValidationError
from finslerheat.grids import RadialProfile
from finslerheat.radial import (_scaled_sphere_integral, bessel_I0,
                                radial_heat_profile, radial_heat_solution,
                                sphere_integral_I)


def test_sphere_integral_at_zero_is_sphere_measure():
    assert sphere_integral_I(0.0, 2) == pytest.approx(
        2 * np.pi, rel=1e-14)
    assert sphere_integral_I(0.0, 3) == pytest.approx(
        4 * np.pi, rel=1e-14)


def test_sphere_integral_n3_closed_form():
    assert sphere_integral_I(1.0, 3) == pytest.approx(4 * np.pi * np.sinh(1.0),
                                                      rel=1e-12)
    for z in (0.5, 2.0, 10.0, 50.0):
        assert sphere_integral_I(z, 3) == pytest.approx(
            4 * np.pi * np.sinh(z) / z, rel=1e-10)


def test_sphere_integral_n1_extension():
    assert sphere_integral_I(1.3, 1) == pytest.approx(2 * np.cosh(1.3), rel=1e-14)


@pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_bessel_identity_n2(z):
    I = sphere_integral_I(z, 2)
    assert abs(I - 2 * np.pi * bessel_I0(z)) / I <= 1e-8


def test_bessel_series_values():
    assert bessel_I0(0.0) == 1.0
    # mpmath gives the independent high-precision oracle
    assert bessel_I0(2.0, 200) == pytest.approx(float(mpmath.besseli(0, 2)),
                                                rel=1e-14)
    assert abs(bessel_I0(1.0, 60) - bessel_I0(1.0, 120)) <= 1e-15


def test_bessel_series_accuracy_z30():
    assert bessel_I0(30.0, 60) == pytest.approx(float(mpmath.besseli(0, 30)),
                                                rel=1e-13)


def test_scaled_sphere_integral_n2_matches_mpmath():
    # 2 pi e^{-z} I0(z) on both sides of z = 40 and far into the tail
    zs = np.array([39.999, 40.001, 100.0, 1e4])
    vals = _scaled_sphere_integral(zs, 2)
    with mpmath.workdps(40):
        refs = [float(2 * mpmath.pi * mpmath.exp(-mpmath.mpf(z))
                      * mpmath.besseli(0, mpmath.mpf(z))) for z in zs]
    np.testing.assert_allclose(vals, refs, rtol=1e-14, atol=0.0)


def test_sphere_integral_positive_and_monotone():
    zs = np.linspace(0.0, 20.0, 41)
    vals = [sphere_integral_I(z, 2) for z in zs]
    assert all(v > 0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_overflow_guard():
    with pytest.raises(DomainError):
        sphere_integral_I(800.0, 2)


def test_constants_are_invariant():
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 14.0, 257)
    rho = np.linspace(0.0, 2.0, 9)
    for dim in (1, 2, 3):
        u = radial_heat_profile(prof, dim, rho, 0.5)
        np.testing.assert_allclose(u, 1.0, atol=1e-6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_closed_form(dim):
    # e^{-r^2} evolves to (1+4t)^{-N/2} e^{-r^2/(1+4t)}
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 14.0, 2049)
    rho = np.linspace(0.0, 2.0, 17)
    t = 0.25
    u = radial_heat_profile(prof, dim, rho, t)
    exact = (1 + 4 * t) ** (-dim / 2) * np.exp(-(rho**2) / (1 + 4 * t))
    np.testing.assert_allclose(u, exact, rtol=1e-9)


def test_point_evaluation_through_ellipse():
    el = norms.ellipse(np.diag([4.0, 1.0]))
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 14.0, 2049)
    x = np.array([1.0, 0.5])
    t = 0.25
    rho = float(norms.dual_norm_eval(el, x))
    expected = (1 + 4 * t) ** -1 * np.exp(-(rho**2) / (1 + 4 * t))
    assert radial_heat_solution(prof, el, x, t) == pytest.approx(expected, rel=1e-8)


def test_semigroup_property():
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 14.0, 2049)
    t1, t2 = 0.2, 0.15
    rr = np.linspace(0.0, 12.0, 1025)
    mid = RadialProfile(rr, radial_heat_profile(prof, 2, rr, t1), even=True)
    rho = np.linspace(0.0, 1.0, 9)
    two = radial_heat_profile(mid, 2, rho, t2)
    one = radial_heat_profile(prof, 2, rho, t1 + t2)
    np.testing.assert_allclose(two, one, atol=1e-5)


def test_initial_value_recovery():
    # mild Lipschitz data: the t -> 0 drift is t * |radial laplacian| < 1e-3
    prof = RadialProfile.from_function(lambda r: np.exp(-(r**2) / 8.0), 14.0, 2049)
    rho = np.linspace(0.0, 1.0, 11)
    u = radial_heat_profile(prof, 2, rho, 1e-3)
    np.testing.assert_allclose(u, np.exp(-(rho**2) / 8.0), atol=1e-3)


def test_short_profile_tail_is_flagged():
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 2.0, 65)
    with pytest.raises(DomainError):
        radial_heat_profile(prof, 2, np.array([1.5]), 0.5)


def test_negative_time_rejected():
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 14.0, 65)
    with pytest.raises(DomainError):
        radial_heat_profile(prof, 2, np.array([0.5]), 0.0)
