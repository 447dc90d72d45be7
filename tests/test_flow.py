import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerheat import norms
from finslerheat.errors import SpecValidationError, StabilityError
from finslerheat.flow import (FlowProblem, InnerSolverConfig, ball_layout,
                              ball_mask, energy, energy_gradient, explicit_step,
                              monitor_weighted_L1, monitor_weighted_L2,
                              nested_domain_study, prox_homogeneity_defect,
                              proximal_step, scaling_check, solve)
from finslerheat.grids import RadialProfile
from finslerheat.measures import measure_from_atoms, measure_from_radial
from finslerheat.operators import lift_radial

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))


def _ball_problem(spec, radius, spacing, profile_fn, r_max=16.0, **kw):
    lay = ball_layout(spec, radius, spacing)
    prof = RadialProfile.from_function(profile_fn, r_max, 2049)
    datum = lift_radial(prof, spec, lay)
    return FlowProblem(norm=spec, radius=radius, datum=datum, **kw), prof


def test_ball_layout_hugs_the_ball():
    lay = ball_layout(ELLIPSE, 6.0, 6 / 128)
    assert lay.box == ((-12.0, 12.0), (-6.0, 6.0))
    assert lay.resolution == (512, 256)


def test_energy_of_zero_field():
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    assert energy(lay, EUCLID) == 0.0


def test_energy_quarter_pi_example():
    # lift of r^2/2 on the unit disk: (1/2) int |x|^2 dx = pi/4; the
    # interior-face reading erodes a boundary layer, an O(h) effect
    prof = RadialProfile.from_function(lambda r: 0.5 * r**2, 3.0, 1025)
    errs = []
    for cells_per_unit in (64, 128):
        lay = ball_layout(EUCLID, 1.0, 1.0 / cells_per_unit)
        mask = ball_mask(EUCLID, lay, 1.0)
        lifted = lift_radial(prof, EUCLID, lay)
        E = energy(lifted, EUCLID, mask, interior_faces_only=True)
        errs.append(abs(E - np.pi / 4))
        assert abs(E - np.pi / 4) <= 4.0 / cells_per_unit
    assert errs[1] < errs[0]


def test_interior_face_energy_reads_only_masked_nodes():
    # only faces whose whole stencil lies in the mask count, so values off
    # the mask cannot change the interior reading
    rng = np.random.default_rng(2)
    for spec in (ELLIPSE, norms.p_norm(3, 2), norms.ellipse(np.diag([4.0, 1.0, 2.25]))):
        lay = ball_layout(spec, 1.0, 1 / 8)
        mask = ball_mask(spec, lay, 1.0)
        u = rng.standard_normal(lay.values.shape)
        off = np.where(mask, 0.0, rng.standard_normal(u.shape))
        E = energy(lay.with_values(u), spec, mask, interior_faces_only=True)
        assert E > 0.0
        assert energy(lay.with_values(u + off), spec, mask,
                      interior_faces_only=True) == E


def test_energy_scales_quadratically():
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 3.0, 513)
    lay = ball_layout(EUCLID, 1.0, 1 / 32)
    mask = ball_mask(EUCLID, lay, 1.0)
    u = lift_radial(prof, EUCLID, lay)
    E1 = energy(u, EUCLID, mask)
    E3 = energy(u.with_values(3.0 * u.values), EUCLID, mask)
    assert E3 == pytest.approx(9.0 * E1, rel=1e-13)


@pytest.mark.parametrize("spec", [EUCLID, ELLIPSE, norms.p_norm(3, 2),
                                  norms.p_norm(1.5, 2)])
def test_energy_gradient_is_exact_adjoint(spec):
    rng = np.random.default_rng(5)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    u = np.where(mask, rng.standard_normal(lay.values.shape), 0.0)
    d = np.where(mask, rng.standard_normal(u.shape), 0.0)
    g = energy_gradient(u, spec, lay.spacing, mask)
    eps = 1e-6
    fd = (energy(lay.with_values(u + eps * d), spec, mask)
          - energy(lay.with_values(u - eps * d), spec, mask)) / (2 * eps)
    assert np.sum(g * d) * lay.cell_volume == pytest.approx(fd, rel=1e-7)


def test_prox_fixed_point_at_zero():
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    mask = ball_mask(EUCLID, lay, 1.0)
    out = proximal_step(lay, EUCLID, mask, 1e-2)
    np.testing.assert_array_equal(out.values, 0.0)


def test_prox_matches_independent_linear_solver():
    # euclidean energy is quadratic: the prox solves (I + tau K) u = v; K is
    # probed column by column from energy_gradient on the masked nodes and
    # the system is solved densely
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    v = np.where(mask, np.exp(-3 * r**2), 0.0)
    tau = 1e-2
    prox = proximal_step(lay.with_values(v), EUCLID, mask, tau,
                         InnerSolverConfig(tolerance=1e-12))
    idx = np.flatnonzero(mask)
    K = np.empty((idx.size, idx.size))
    for col, node in enumerate(idx):
        e = np.zeros(v.size)
        e[node] = 1.0
        K[:, col] = energy_gradient(e.reshape(v.shape), EUCLID, lay.spacing,
                                    mask).ravel()[idx]
    sol = np.linalg.solve(np.eye(idx.size) + tau * K, v.ravel()[idx])
    full = np.zeros(v.size)
    full[idx] = sol
    np.testing.assert_allclose(prox.values, full.reshape(v.shape), atol=1e-10)


def test_prox_descends_the_objective():
    lay = ball_layout(ELLIPSE, 1.0, 1 / 12)
    mask = ball_mask(ELLIPSE, lay, 1.0)
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    v = np.where(mask, np.exp(-2 * r**2), 0.0)
    gf = lay.with_values(v)
    out = proximal_step(gf, ELLIPSE, mask, 5e-3)
    assert energy(out, ELLIPSE, mask) < energy(gf, ELLIPSE, mask)


def test_prox_homogeneity():
    lay = ball_layout(ELLIPSE, 1.0, 1 / 16)
    mask = ball_mask(ELLIPSE, lay, 1.0)
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    u = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    assert prox_homogeneity_defect(u, ELLIPSE, mask, 1e-3, 3.0) <= 1e-8


def test_prox_p_norm_backoff_path():
    # non-quadratic norm exercises the damped Newton loop
    spec = norms.p_norm(1.5, 2)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    r = norms.dual_norm_eval(spec, lay.coords())
    gf = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    out = proximal_step(gf, spec, mask, 1e-3, InnerSolverConfig(tolerance=1e-8))
    assert energy(out, spec, mask) <= energy(gf, spec, mask)


@pytest.mark.parametrize("p, tau", [(1.5, 1e-3), (3.0, 1e-2)])
def test_prox_p_norm_meets_its_stopping_test(p, tau):
    # h = 1/32 from exp(-2 H0^2): the gradient of J is recomputed here from
    # the returned field, and the step must descend J
    spec = norms.p_norm(p, 2)
    lay = ball_layout(spec, 1.0, 1 / 32)
    mask = ball_mask(spec, lay, 1.0)
    r = norms.dual_norm_eval(spec, lay.coords())
    v = np.where(mask, np.exp(-2 * r**2), 0.0)
    inner = InnerSolverConfig(tolerance=1e-8)
    u = proximal_step(lay.with_values(v), spec, mask, tau, inner).values

    def l2(f):
        return np.sqrt(np.sum(f * f) * lay.cell_volume)

    def J(w):
        return l2(w - v) ** 2 / (2 * tau) + energy(lay.with_values(w), spec, mask)

    grad = np.where(mask, (u - v) / tau + energy_gradient(u, spec, lay.spacing, mask),
                    0.0)
    assert l2(grad) <= inner.tolerance * (1 + l2(v))
    assert J(u) <= J(v)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(p=st.floats(1.5, 4.0), cells=st.sampled_from([8, 12]))
@example(p=1.5, cells=12)
def test_prox_homogeneity_p_norms(p, cells):
    # inner tolerance 1e-7: at p = 1.5, h = 1/12 a 1-ulp change of the field
    # moves ||grad psi|| by 2e-8 and the solve settles near 5e-8, so a
    # tighter stopping test would pass or fail by rounding
    spec = norms.p_norm(p, 2)
    lay = ball_layout(spec, 1.0, 1 / cells)
    mask = ball_mask(spec, lay, 1.0)
    r = norms.dual_norm_eval(spec, lay.coords())
    u = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    assert prox_homogeneity_defect(u, spec, mask, 1e-3, 3.0,
                                   InnerSolverConfig(tolerance=1e-7)) <= 1e-8


def test_explicit_zero_fixed_point():
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    mask = ball_mask(EUCLID, lay, 1.0)
    out = explicit_step(lay, EUCLID, mask, 1e-4)
    np.testing.assert_array_equal(out.values, 0.0)


def test_explicit_matches_ftcs():
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    v = np.where(mask, np.exp(-3 * r**2), 0.0)
    h = lay.spacing[0]
    tau = h * h / 8
    lap = np.zeros_like(v)
    lap[1:-1, 1:-1] = ((v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1])
                       + (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2])) / h**2
    ftcs = np.where(mask, v + tau * lap, 0.0)
    out = explicit_step(lay.with_values(v), EUCLID, mask, tau)
    np.testing.assert_allclose(out.values, ftcs, atol=1e-12)


def test_explicit_richardson_consistency():
    # for the linear euclidean operator, one step minus two half steps is
    # exactly -(tau^2/4) L^2 u
    from finslerheat.operators import finsler_laplacian
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    gf = lay.with_values(np.where(mask, np.exp(-3 * r**2), 0.0))
    tau = lay.spacing[0] ** 2 / 8
    one = explicit_step(gf, EUCLID, mask, tau)
    half = explicit_step(explicit_step(gf, EUCLID, mask, tau / 2),
                         EUCLID, mask, tau / 2)
    lap = finsler_laplacian(gf, EUCLID).values
    lap = np.where(mask & np.isfinite(lap), lap, 0.0)
    lap2 = finsler_laplacian(gf.with_values(lap), EUCLID).values
    lap2 = np.where(mask & np.isfinite(lap2), lap2, 0.0)
    np.testing.assert_allclose(one.values - half.values, -(tau**2 / 4) * lap2,
                               atol=1e-14)


def test_explicit_stability_guard():
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    with pytest.raises(StabilityError):
        explicit_step(lay, EUCLID, mask, 1.0)


def test_solve_zero_datum():
    problem, _ = _ball_problem(EUCLID, 1.0, 1 / 8, lambda r: 0.0 * r,
                               tau=1e-3, t_end=5e-3)
    traj = solve(problem)
    np.testing.assert_array_equal(traj.slices[-1].values, 0.0)
    np.testing.assert_array_equal(traj.monitors["energy"], 0.0)
    np.testing.assert_array_equal(traj.monitors["mass"], 0.0)


def test_solve_dissipates_and_conserves_mass():
    problem, _ = _ball_problem(
        EUCLID, 3.0, 3 / 48, lambda r: np.maximum(1 - (2 * r) ** 2, 0.0) ** 3,
        tau=1e-3, t_end=2e-2, inner=InnerSolverConfig(tolerance=1e-9))
    traj = solve(problem)
    en = traj.monitors["energy"]
    assert np.all(np.diff(en) <= 1e-9)
    mass = traj.monitors["mass"]
    assert abs(mass[-1] - mass[0]) <= 1e-6
    assert float(np.min(traj.slices[-1].values)) >= -1e-8


def test_implicit_and_explicit_schemes_agree():
    # the schemes share the PDE but differ in time stepping (O(tau)) and in
    # operator realization (O(h^2)); the gap must track tau + h^2
    gaps = []
    for spacing in (1 / 24, 1 / 48):
        kw = dict(tau=spacing**2 / 8, t_end=64 * (1 / 48) ** 2 / 8)
        imp, _ = _ball_problem(EUCLID, 2.0, spacing, lambda r: np.exp(-4 * r**2),
                               scheme="implicit_proximal",
                               inner=InnerSolverConfig(tolerance=1e-10), **kw)
        exp, _ = _ball_problem(EUCLID, 2.0, spacing, lambda r: np.exp(-4 * r**2),
                               scheme="explicit_euler", **kw)
        a = solve(imp).slices[-1].values
        b = solve(exp).slices[-1].values
        gap = float(np.max(np.abs(a - b)))
        gaps.append(gap)
        assert gap <= 2.0 * (kw["tau"] + spacing**2)
    assert gaps[1] <= gaps[0] / 2.5


def test_monitor_weighted_l2_at_zero_matches_datum_integral():
    lam = 0.5
    lay = ball_layout(ELLIPSE, 2.0, 1 / 16)
    mask = ball_mask(ELLIPSE, lay, 2.0)
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    phi = np.where(mask, np.exp(-r**2), 0.0)
    gf = lay.with_values(phi)
    direct = float(np.sum(np.exp(-2 * lam * r**2) * phi**2)) * lay.cell_volume
    assert monitor_weighted_L2(gf, ELLIPSE, lam, 0.0, mask) == pytest.approx(direct)


def test_monitor_weighted_l1_forms():
    lam = 0.5
    lay = ball_layout(EUCLID, 2.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 2.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    phi = np.where(mask, np.exp(-r**2), 0.0)
    gf = lay.with_values(phi)
    direct = float(np.sum(np.exp(-lam * r**2) * np.abs(phi))) * lay.cell_volume
    assert monitor_weighted_L1(gf, EUCLID, 0.0, lam=lam,
                               mask=mask) == pytest.approx(direct)
    local = monitor_weighted_L1(gf, EUCLID, 0.1, ell=0.25, mask=mask)
    assert 0.0 < local <= direct + 1e-12
    with pytest.raises(SpecValidationError):
        monitor_weighted_L1(gf, EUCLID, 0.1, lam=lam, ell=0.25)


def test_weighted_l2_monotone_along_trajectory():
    problem, _ = _ball_problem(ELLIPSE, 3.0, 3 / 32, lambda r: np.exp(-r**2),
                               tau=2e-3, t_end=4e-2, monitor_lambda=0.5,
                               inner=InnerSolverConfig(tolerance=1e-8))
    traj = solve(problem)
    w = traj.monitors["weighted_l2"]
    assert np.all(w[1:] <= w[0] + 1e-6)


def test_scaling_check_identity_when_k_cancels():
    problem, _ = _ball_problem(EUCLID, 2.0, 1 / 16, lambda r: np.exp(-r**2),
                               tau=1e-3, t_end=4e-3,
                               inner=InnerSolverConfig(tolerance=1e-9))
    rep = scaling_check(problem, 1, compare_times=[4e-3])
    assert rep.max_defect <= 1e-12


def test_nested_domain_zero_datum():
    zero = measure_from_atoms([((0.0, 0.0), 0.0)])
    rep = nested_domain_study(zero, [2.0, 3.0], EUCLID, lam=0.25, spacing=0.25,
                              tau=5e-3, compare_times=(0.05, 0.1),
                              core_radius=0.5)
    assert rep.differences == [0.0]


def test_flow_problem_validation():
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    with pytest.raises(SpecValidationError):
        FlowProblem(norm=EUCLID, radius=0.5, datum=lay, tau=1e-3, t_end=1e-2)
    with pytest.raises(SpecValidationError):
        FlowProblem(norm=EUCLID, radius=1.0, datum=lay, tau=1e-3, t_end=1e-2,
                    scheme="magic")
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 65)
    with pytest.raises(SpecValidationError):
        FlowProblem(norm=EUCLID, radius=1.0,
                    datum=measure_from_radial(prof, EUCLID),
                    tau=1e-3, t_end=1e-2)   # measures need a spacing


def test_local_weighted_l1_stays_bounded_along_trajectory():
    # the localized weighted quantity stays below an O(1) multiple of its
    # initial value along the flow; the empirical ratio is recorded
    problem, _ = _ball_problem(EUCLID, 3.0, 3 / 32,
                               lambda r: np.maximum(1 - (2 * r) ** 2, 0.0) ** 3,
                               tau=2e-3, t_end=4e-2, monitor_ell=0.25,
                               inner=InnerSolverConfig(tolerance=1e-8))
    traj = solve(problem)
    series = traj.monitors["weighted_l1_local"]
    ratio = float(np.max(series) / series[0])
    assert np.isfinite(ratio) and ratio <= 1.5


def test_nested_domain_growing_datum():
    prof = RadialProfile.from_function(lambda r: np.exp(0.2 * r**2), 16.0, 2049)
    grow = measure_from_radial(prof, EUCLID)
    rep = nested_domain_study(grow, [4.0, 6.0, 8.0], EUCLID, lam=0.25,
                              spacing=1 / 8, tau=2e-3,
                              compare_times=(0.1, 0.15, 0.2),
                              inner=InnerSolverConfig(tolerance=1e-9))
    assert rep.decreasing


def test_one_dimensional_flow_matches_closed_form():
    eu1 = norms.euclidean(1)
    problem, _ = _ball_problem(eu1, 6.0, 6 / 128, lambda r: np.exp(-r**2),
                               r_max=10.0, tau=1e-3, t_end=0.1,
                               store_times=(0.1,),
                               inner=InnerSolverConfig(tolerance=1e-8))
    traj = solve(problem)
    x = traj.slices[-1].axes()[0]
    exact = (1 + 0.4) ** -0.5 * np.exp(-(x**2) / 1.4)
    win = np.abs(x) <= 2.0
    assert float(np.max(np.abs(traj.slices[-1].values[win] - exact[win]))) <= 5e-3


def test_three_dimensional_flow_dissipates():
    el3 = norms.ellipse(np.diag([4.0, 1.0, 2.25]))
    lay = ball_layout(el3, 1.0, 1 / 6)
    prof = RadialProfile.from_function(lambda r: np.exp(-2 * r**2), 4.0, 513)
    datum = lift_radial(prof, el3, lay)
    problem = FlowProblem(norm=el3, radius=1.0, datum=datum, tau=1e-3,
                          t_end=5e-3, inner=InnerSolverConfig(tolerance=1e-8),
                          monitor_lambda=1.0)
    traj = solve(problem)
    assert np.all(np.diff(traj.monitors["energy"]) <= 1e-9)
    w = traj.monitors["weighted_l2"]
    assert np.all(w[1:] <= w[0] + 1e-6)
