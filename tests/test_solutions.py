import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerheat import norms, solutions
from finslerheat.errors import DomainError, SpecValidationError
from finslerheat.grids import (RadialProfile, blocks, empty_layout, observed_order,
                               refinements)
from finslerheat.operators import finsler_laplacian, interior_mask, lift_radial
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
    assert 1.5 <= observed_order(rep["max"], rep["h"]) <= 2.5


def test_residual_blowup_second_order():
    spec = SolutionSpec("blowup", ELLIPSE, lam=0.25)
    lay = empty_layout([(-2, 2), (-1, 1)], (64, 32))
    rep = pde_residual(spec, lay, t=0.5, dt=0.005, levels=2)
    assert 1.5 <= observed_order(rep["max"], rep["h"]) <= 2.5


def test_residual_barenblatt_first_order_or_better():
    spec = SolutionSpec("barenblatt", norms.euclidean(1), m=2.0, C=1.0)
    lay = empty_layout([(-6.0, 6.0)], (768,))
    rep = pde_residual(spec, lay, t=1.5, dt=0.002, levels=2)
    assert observed_order(rep["max"], rep["h"]) >= 1.0


@pytest.mark.parametrize("spec, box, resolution, t, levels", [
    (SolutionSpec("gauss_kernel", ELLIPSE), [(-4, 4), (-2, 2)], (64, 32), 0.5, 3),
    (SolutionSpec("blowup", ELLIPSE, lam=0.25), [(-2, 2), (-1, 1)], (64, 32), 0.5, 3),
    (SolutionSpec("barenblatt", ELLIPSE, m=2.0, C=1.0), [(-6, 6), (-3, 3)], (64, 32), 1.5, 3),
    (SolutionSpec("talenti", norms.euclidean(3), p=2.0, A=1.0, B=1.0 / 3.0),
     [(-1, 1)] * 3, (24, 24, 24), 0.0, 2),
], ids=["gauss_kernel", "blowup", "barenblatt", "talenti"])
def test_pde_residual_peaks_at_a_bounded_number_of_fields_per_level(spec, box, resolution, t,
                                                                     levels, work):
    """A warm `pde_residual` peaks under 4 fields of its finest level: the
    2-D families at three levels of the benchmark's verify-exact grid (65 x
    33 nodes to 257 x 129) 3.70 with numpy 2.4, the 3-D critical family at
    two (25^3 to 49^3) 3.63.  Each level holds its H0 and one field, filled
    and turned into the residual a block of rows at a time, beside the
    operator's zero-rimmed copy.  With the field's closed form formed whole
    they took 4.13, with the residual's term formed whole before the
    operator 5.39 and 4.63, and with every term formed whole 5.14 and 4.64."""
    coarse = empty_layout(box, resolution)
    finest = list(refinements(coarse, levels))[-1].values.size
    first = pde_residual(spec, coarse, t=t, dt=0.01, levels=levels)
    again = work(lambda: pde_residual(spec, coarse, t=t, dt=0.01, levels=levels),
                 count=False, cold=False)
    assert again.result == first and again.peak < 4.0 * finest * 8


@pytest.mark.parametrize("spec, box, resolution, t", [
    (SolutionSpec("gauss_kernel", ELLIPSE), [(-4, 4), (-2, 2)], (32, 16), 0.5),
    (SolutionSpec("barenblatt", norms.euclidean(1), m=2.0, C=1.0), [(-6.0, 6.0)], (96,), 1.5),
    (SolutionSpec("talenti", norms.euclidean(3), p=2.0, A=1.0, B=1.0 / 3.0),
     [(-1, 1)] * 3, (8, 8, 8), 0.0),
], ids=["gauss", "barenblatt", "talenti"])
def test_pde_residual_reads_h0_once_per_level(monkeypatch, spec, box, resolution, t):
    """Each level evaluates H0 at its nodes once, for u(t), u(t +- dt) and
    the Barenblatt front's window alike (it took four reads), counted in
    nodes, as the layout's H0 is evaluated a block of rows at a time (the
    17^3 level takes two), and the residuals keep the bits of the closed
    forms evaluated at the nodes."""
    lay, nodes, dual_norm_eval = empty_layout(box, resolution), [], norms.dual_norm_eval

    def counting(norm, x):
        nodes.append(np.prod(x.shape[:-1]))
        return dual_norm_eval(norm, x)
    monkeypatch.setattr(norms, "dual_norm_eval", counting)
    monkeypatch.setattr(solutions, "dual_norm_eval", counting)
    rep = pde_residual(spec, lay, t=t, dt=0.01, levels=2)
    assert sum(nodes) == sum(grid.values.size for grid in refinements(lay, 2))
    if spec.kind == "gauss_kernel":
        monkeypatch.undo()
        for level, grid in enumerate(refinements(lay, 2)):
            x, dt = grid.coords(), 0.01 / 2**level
            u = grid.with_values(eval_solution(spec, x, t))
            du_dt = (eval_solution(spec, x, t + dt) - eval_solution(spec, x, t - dt)) / (2 * dt)
            residual = du_dt - finsler_laplacian(u, spec.norm).values
            assert rep["max"][level] == float(np.max(np.abs(residual)[interior_mask(grid)]))


_ELLIPSE3 = norms.ellipse(np.diag([4.0, 1.0, 1.0]))
# each family, its norm, the half sides of its box and its t
_BLOCKED = {
    "gauss_kernel": (SolutionSpec("gauss_kernel", ELLIPSE), (4.0, 2.0), 0.5),
    "blowup": (SolutionSpec("blowup", ELLIPSE, lam=0.25), (2.0, 1.0), 0.5),
    "barenblatt": (SolutionSpec("barenblatt", ELLIPSE, m=2.0, C=1.0), (6.0, 3.0), 1.5),
    "talenti": (SolutionSpec("talenti", _ELLIPSE3, p=2.0, A=1.0, B=1.0 / 3.0),
                (2.0, 1.0, 1.0), 0.0),
}


def _whole_field_residuals(spec, layout, t, dt, levels):
    """Each level's residual formed over whole fields, every term in the
    order of its expression, as `pde_residual` formed it before it worked a
    block of rows at a time."""
    h0, maxes = max(layout.spacing), []
    for lay in refinements(layout, levels):
        h, x = max(lay.spacing), lay.coords()
        dt_l, r, window = dt * (h / h0), norms.dual_norm_eval(spec.norm, x), interior_mask(lay)
        if spec.kind == "talenti":
            w, N = eval_solution(spec, x, 0.0), spec.norm.dimension
            lap = finsler_laplacian(lay.with_values(w), spec.norm).values
            residual = -lap - w ** ((N + 2) / (N - 2))
        else:
            u = eval_solution(spec, x, t)
            u = u**spec.m if spec.kind == "barenblatt" else u
            lap = finsler_laplacian(lay.with_values(u), spec.norm).values
            residual = (eval_solution(spec, x, t + dt_l)
                        - eval_solution(spec, x, t - dt_l)) / (2.0 * dt_l) - lap
            if spec.kind == "barenblatt":
                rf = spec.barenblatt_support_radius(t)
                move = abs(spec.barenblatt_support_radius(t + dt_l)
                           - spec.barenblatt_support_radius(t - dt_l))
                window &= np.abs(r - rf) > 2.0 * h + move
        maxes.append(float(np.max(np.abs(residual)[window])))
    return maxes


@settings(max_examples=40)
@given(kind=st.sampled_from(sorted(_BLOCKED)), data=st.data())
def test_blocked_residual_keeps_the_bits_of_the_whole_field_expression(kind, data):
    """`pde_residual` forms each level's field and residual a `grids.blocks`
    block of rows at a time; every step is elementwise, so each level's
    residual keeps the bits of the same expression over whole fields.  The
    coarse level's rows fill a whole number of blocks or leave a part block
    over, and the finer level's are cut as they fall."""
    spec, half, t = _BLOCKED[kind]
    columns = data.draw(st.integers(8, 40 if kind == "talenti" else 160), label="columns")
    count = blocks(10**6, (columns + 1) ** (len(half) - 1))[0].stop    # rows per block
    part = data.draw(st.booleans(), label="part block") and count > 1
    rows = count * data.draw(st.integers(1, 3)) + (data.draw(st.integers(1, count - 1)) if part
                                                   else 0)
    lay = empty_layout([(-a, a) for a in half], (rows - 1,) + (columns,) * (len(half) - 1))
    levels = data.draw(st.integers(1, 2), label="levels")
    assert (rows % count != 0) == part
    rep = pde_residual(spec, lay, t=t, dt=0.01, levels=levels)
    assert rep["max"] == _whole_field_residuals(spec, lay, t, 0.01, levels)


def test_blocked_singular_check_and_origin_check_keep_the_bits_of_whole_fields():
    """The singular family's check and the blow-up origin check form their
    closed forms a block of rows at a time, with the bits of the whole-field
    expressions: 385 rows of 385 nodes are 18 blocks of 21 rows and a part
    block of 7."""
    lay = empty_layout([(-1.5, 1.5), (-1.5, 1.5)], (384, 384))
    assert len(blocks(385, 385)) == 19 and 385 % blocks(385, 385)[0].stop == 7
    x = lay.coords()
    spec = SolutionSpec("singular_poly", ELLIPSE, m_order=1)
    puncture = norms.dual_norm_eval(ELLIPSE, x) == 0.0
    v = eval_solution(spec, np.where(puncture[..., None], 1.0, x))
    lap = finsler_laplacian(lay.with_values(np.where(puncture, 0.0, v)), ELLIPSE).values
    window = solutions.singular_poly_window(spec, lay) & np.isfinite(lap)
    assert singular_poly_check(spec, lay) == float(np.max(np.abs(lap[window])))
    blowup = SolutionSpec("blowup", ELLIPSE, lam=0.25)
    for layout in (lay, empty_layout([(-1.5, 1.5), (-1.5, 1.5)], (383, 383))):
        h0 = norms.dual_norm_eval(ELLIPSE, layout.coords()).ravel()
        u, least = eval_solution(blowup, layout.coords(), 0.5).ravel(), np.argmin(h0)
        whole = bool(abs(u.min() - u[least]) < 1e-12 and h0[np.argmin(u)] - h0[least] < 1e-12)
        assert whole and solutions.blowup_min_at_origin(blowup, layout, 0.5) == whole


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
    errs, spacings = [], []
    coarse = empty_layout([(-3, 3), (-1.5, 1.5), (-1.5, 1.5)], (64, 32, 32))
    for lay in refinements(coarse, 2):
        w = lift_radial(prof, spec3, lay)
        lap = finsler_laplacian(w, spec3).values
        resid = -lap - w.values**5
        errs.append(float(np.nanmax(np.abs(resid)[interior_mask(lay)])))
        spacings.append(max(lay.spacing))
    order = observed_order(errs, spacings)
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


def test_singular_poly_check_evaluates_h0_once_and_keeps_its_bits(monkeypatch):
    """`singular_poly_check` evaluates H0 at the layout's nodes once, for the
    window, the puncture and the closed form (the window, the puncture and
    `eval_solution` each took one), and its residual keeps the bits of the
    closed form evaluated at the punctured coordinates."""
    spec = SolutionSpec("singular_poly", ELLIPSE, m_order=1)
    lay = empty_layout([(-2, 2), (-1, 1)], (64, 32))
    x = lay.coords()
    puncture = norms.dual_norm_eval(ELLIPSE, x) == 0.0
    v = eval_solution(spec, np.where(puncture[..., None], 1.0, x))
    lap = finsler_laplacian(lay.with_values(np.where(puncture, 0.0, v)), ELLIPSE).values
    window = solutions.singular_poly_window(spec, lay) & np.isfinite(lap)
    nodes, dual_norm_eval = [], norms.dual_norm_eval

    def counting(norm, x):
        nodes.append(np.prod(x.shape[:-1]))
        return dual_norm_eval(norm, x)
    monkeypatch.setattr(norms, "dual_norm_eval", counting)
    monkeypatch.setattr(solutions, "dual_norm_eval", counting)
    assert puncture.sum() == 1
    assert singular_poly_check(spec, lay) == float(np.max(np.abs(lap[window])))
    assert sum(nodes) == lay.values.size


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


_LAYOUT = empty_layout([(-1.0, 1.0), (-1.0, 1.0)], (8, 8))
_GAUSS = SolutionSpec("gauss_kernel", EUCLID)


@pytest.mark.parametrize("call, error, match", [
    (lambda: _GAUSS.blowup_time, DomainError, "blowup_time"),
    (lambda: pde_residual(SolutionSpec("singular_poly", EUCLID, m_order=1), _LAYOUT, 0.5, 0.01),
     DomainError, "singular_poly_check"),
    (lambda: pde_residual(_GAUSS, _LAYOUT, 0.5, 0.0), SpecValidationError, "dt"),
    (lambda: singular_poly_check(_GAUSS, _LAYOUT), DomainError, "singular family"),
    (lambda: solutions.blowup_min_at_origin(_GAUSS, _LAYOUT, 0.5), DomainError, "blowup family"),
], ids=["blowup-time-of-gauss", "residual-of-singular-poly", "residual-dt-0",
        "singular-check-of-gauss", "origin-check-of-gauss"])
def test_solutions_refuse_bad_arguments_by_name(call, error, match):
    with pytest.raises(error, match=match):
        call()
