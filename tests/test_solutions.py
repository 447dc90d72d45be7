import numpy as np
import pytest

from finslerheat import norms
from finslerheat.errors import DomainError, SpecValidationError
from finslerheat.grids import RadialProfile
from finslerheat.operators import (empty_layout, finsler_laplacian,
                                   interior_mask, lift_radial)
from finslerheat.solutions import (SolutionSpec, eval_solution, pde_residual,
                                   singular_poly_check)

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))


def test_gauss_kernel_matches_classical_heat_kernel():
    spec = SolutionSpec("gauss_kernel", EUCLID)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    t = 0.7
    expected = (4 * np.pi * t) ** -1 * np.exp(-np.sum(x**2, axis=-1) / (4 * t))
    np.testing.assert_allclose(eval_solution(spec, x, t), expected, rtol=1e-14)


def test_blowup_center_values():
    spec = SolutionSpec("blowup", EUCLID, lam=0.25)
    assert eval_solution(spec, np.zeros(2), 0.0) == pytest.approx(1.0)
    assert eval_solution(spec, np.zeros(2), 0.5) == pytest.approx((1 - 0.5) ** -1)
    assert spec.blowup_time == pytest.approx(1.0)


def test_blowup_expires_at_horizon():
    spec = SolutionSpec("blowup", EUCLID, lam=0.25)
    with pytest.raises(DomainError):
        eval_solution(spec, np.zeros(2), 1.0)


def test_blowup_minimum_at_origin():
    spec = SolutionSpec("blowup", ELLIPSE, lam=0.25)
    lay = empty_layout([(-2, 2), (-1, 1)], (64, 32))
    for t in (0.1, 0.5, 0.9):
        vals = eval_solution(spec, lay.coords(), t)
        center = eval_solution(spec, np.zeros(2), t)
        assert np.min(vals) >= center - 1e-14
        r = norms.dual_norm_eval(ELLIPSE, lay.coords())
        assert np.all(vals[r > 1e-9] > center)


def test_barenblatt_exponents_n1_m2():
    spec = SolutionSpec("barenblatt", norms.euclidean(1), m=2.0, C=1.0)
    alpha, beta, k = spec.barenblatt_exponents
    assert alpha == pytest.approx(1.0 / 3.0)
    assert beta == pytest.approx(1.0 / 3.0)
    assert k == pytest.approx(1.0 / 12.0)


def test_barenblatt_support_is_sharp():
    spec = SolutionSpec("barenblatt", norms.euclidean(1), m=2.0, C=1.0)
    t = 1.5
    edge = spec.barenblatt_support_radius(t)
    x_out = np.array([[edge * 1.01], [edge * 2.0], [-edge * 1.5]])
    np.testing.assert_array_equal(eval_solution(spec, x_out, t), 0.0)
    assert eval_solution(spec, np.array([edge * 0.95]), t) > 0.0


def test_gauss_scaling_identity():
    # u(k x, k^2 t) = k^{-N} u(x, t), an algebraic identity of the family
    spec = SolutionSpec("gauss_kernel", ELLIPSE)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 2))
    t, k = 0.4, 2.0
    lhs = eval_solution(spec, k * x, k * k * t)
    rhs = k ** (-2.0) * eval_solution(spec, x, t)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_gauss_mass_constant_in_time():
    # integral over the truncated domain is sqrt(det M), t-independent
    spec = SolutionSpec("gauss_kernel", ELLIPSE)
    lay = empty_layout([(-16, 16), (-8, 8)], (256, 128))
    masses = []
    for t in (0.25, 0.5, 1.0):
        vals = eval_solution(spec, lay.coords(), t)
        masses.append(float(np.sum(vals)) * lay.cell_volume)
    np.testing.assert_allclose(masses, 2.0, atol=1e-6)
    assert max(masses) - min(masses) <= 1e-6


def test_residual_gauss_kernel_second_order():
    spec = SolutionSpec("gauss_kernel", ELLIPSE)
    lay = empty_layout([(-4, 4), (-2, 2)], (128, 64))
    rep = pde_residual(spec, lay, t=0.5, dt=0.01, levels=2)
    assert 1.5 <= rep.order <= 2.5


def test_residual_blowup_second_order():
    spec = SolutionSpec("blowup", ELLIPSE, lam=0.25)
    lay = empty_layout([(-2, 2), (-1, 1)], (64, 32))
    rep = pde_residual(spec, lay, t=0.5, dt=0.005, levels=2)
    assert 1.5 <= rep.order <= 2.5


def test_residual_barenblatt_first_order_or_better():
    spec = SolutionSpec("barenblatt", norms.euclidean(1), m=2.0, C=1.0)
    lay = empty_layout([(-6.0, 6.0)], (768,))
    rep = pde_residual(spec, lay, t=1.5, dt=0.002, levels=2)
    assert rep.order >= 1.0


def test_stationary_power_law_residual_does_not_vanish():
    # (A + B r^{p/(p-1)})^{1-N/p} solves no lap_H equation unless p = 2,
    # N >= 3 and N(N-2)AB = 1 (the critical power (N+2)/(N-2)); every
    # other profile is rejected instead of reported as an O(1) residual
    for norm, p, A, B in ((ELLIPSE, 3.0, 1.0, 1.0), (ELLIPSE, 2.0, 1.0, 1.0),
                          (norms.euclidean(3), 3.0, 1.0, 1.0 / 3.0),
                          (norms.euclidean(3), 2.0, 1.0, 1.0),
                          (norms.euclidean(1), 2.0, 1.0, 1.0)):
        with pytest.raises(SpecValidationError):
            SolutionSpec("talenti", norm, p=p, A=A, B=B)
    SolutionSpec("talenti", norms.euclidean(3), p=2.0, A=1.0, B=1.0 / 3.0)
    SolutionSpec("talenti", norms.euclidean(4), p=2.0, A=2.0, B=1.0 / 16.0)


def test_critical_inverse_sqrt_profile_is_stationary_n3():
    # N=3: w = (A + B r^2)^{-1/2} with 3AB = 1 satisfies -lap_H w = w^5;
    # the discrete residual of that identity refines at second order
    A, B = 1.0, 1.0 / 3.0
    spec3 = norms.ellipse(np.diag([4.0, 1.0, 1.0]))
    prof = RadialProfile.from_function(lambda r: (A + B * r**2) ** -0.5, 12.0, 4097)
    errs = []
    for cells in (32, 64):
        lay = empty_layout([(-3, 3), (-1.5, 1.5), (-1.5, 1.5)],
                           (2 * cells, cells, cells))
        w = lift_radial(prof, spec3, lay)
        lap = finsler_laplacian(w, spec3).values
        resid = -lap - w.values**5
        errs.append(float(np.nanmax(np.abs(resid)[interior_mask(lay)])))
    order = np.log2(errs[0] / errs[1])
    assert errs[1] < errs[0]
    assert 1.5 <= order <= 2.5


def test_singular_poly_harmonic_branches():
    # N=3: r^{-1}; N=2: log r (the even-offset branch)
    spec3 = SolutionSpec("singular_poly", norms.euclidean(3), m_order=1)
    x = np.array([[0.5, 0.0, 0.0]])
    assert eval_solution(spec3, x) == pytest.approx(2.0)
    spec2 = SolutionSpec("singular_poly", EUCLID, m_order=1)
    assert eval_solution(spec2, np.array([[0.5, 0.0]])) == pytest.approx(np.log(0.5))


def test_singular_poly_raises_at_origin():
    spec = SolutionSpec("singular_poly", EUCLID, m_order=1)
    with pytest.raises(DomainError):
        eval_solution(spec, np.zeros(2))


def test_singular_poly_annihilation_euclid_n2():
    spec = SolutionSpec("singular_poly", EUCLID, m_order=1)
    lay = empty_layout([(-1.5, 1.5), (-1.5, 1.5)], (384, 384))
    assert singular_poly_check(spec, lay) <= 0.05


def test_singular_poly_annihilation_ellipse_n2():
    spec = SolutionSpec("singular_poly", ELLIPSE, m_order=1)
    lay = empty_layout([(-3.0, 3.0), (-1.5, 1.5)], (768, 384))
    assert singular_poly_check(spec, lay) <= 0.05


def test_singular_poly_refines_n3():
    spec = SolutionSpec("singular_poly", norms.euclidean(3), m_order=1)
    res = []
    for cells in (48, 96):
        lay = empty_layout([(-1.2, 1.2)] * 3, (cells,) * 3)
        res.append(singular_poly_check(spec, lay))
    # op contract is a C h^{1/2} cap; the measured ratio is much better
    assert res[1] <= res[0] / np.sqrt(2.0)


def test_validation_of_parameters():
    with pytest.raises(SpecValidationError):
        SolutionSpec("barenblatt", EUCLID, m=1.0, C=1.0)
    with pytest.raises(SpecValidationError):
        SolutionSpec("blowup", EUCLID, lam=0.0)
    with pytest.raises(SpecValidationError):
        SolutionSpec("talenti", EUCLID, p=3.0, A=-1.0, B=1.0)
    with pytest.raises(SpecValidationError):
        SolutionSpec("nope", EUCLID)


def test_solution_spec_json_round_trip():
    spec = SolutionSpec("blowup", ELLIPSE, lam=0.25)
    again = SolutionSpec.from_dict(spec.to_dict())
    x = np.array([[0.3, -0.2]])
    np.testing.assert_allclose(eval_solution(again, x, 0.5),
                               eval_solution(spec, x, 0.5), rtol=1e-15)
