"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one [criterion N] PASS/FAIL line (run pytest with -s to
see the passing ones).  Heavy trajectories are computed once per session
and shared: the ellipse comparison run feeds criteria 6, 7 and 8; the
scaling and exhaustion runs feed criteria 9, 11 and 8.
"""

import json

import numpy as np
import pytest

from finslerheat import norms
from finslerheat.cli import main
from finslerheat.flow import (FlowProblem, InnerSolverConfig, ball_layout,
                              ball_mask, nested_domain_study,
                              prox_homogeneity_defect, scaling_check, solve)
from finslerheat.grids import (RadialProfile, empty_layout, observed_order,
                               refinements)
from finslerheat.measures import classify, measure_from_radial
from finslerheat.operators import (check_linearity, check_radial_reduction,
                                   finsler_laplacian, interior_mask,
                                   lift_radial, radial_operator_values)
from finslerheat.radial import (_scaled_sphere_integral, bessel_I0, radial_heat_profile,
                               sphere_integral_I)
from finslerheat.solutions import SolutionSpec, pde_residual

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))
_c, _s = np.cos(np.pi / 6), np.sin(np.pi / 6)
_R = np.array([[_c, -_s], [_s, _c]])
ROTATED = norms.ellipse(_R @ np.diag([3.0, 1.0]) @ _R.T)
SQUARE = norms.smoothed_polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.05)

GAUSS_PROFILE = RadialProfile.from_function(lambda r: np.exp(-r**2), 6.0, 4097)
QUAD_PROFILE = RadialProfile.from_function(lambda r: r**2, 6.0, 4097)


def _line(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def reduction_reports():
    lay = empty_layout([(-3, 3), (-3, 3)], (192, 192))
    return {
        "ellipse": check_radial_reduction(GAUSS_PROFILE, ELLIPSE, lay, levels=2),
        "p3": check_radial_reduction(GAUSS_PROFILE, norms.p_norm(3, 2), lay,
                                     levels=2),
    }


@pytest.fixture(scope="session")
def comparison_run():
    """Ellipse ball R=6, h=6/128, tau=1e-3 to T=0.25 with monitors."""
    profile = RadialProfile.from_function(lambda r: np.exp(-r**2), 16.0, 2049)
    layout = ball_layout(ELLIPSE, 6.0, 6 / 128)
    datum = lift_radial(profile, ELLIPSE, layout)
    # inner tolerance 1e-7: the objective suboptimality after stopping is
    # bounded by g^2 tau / 2 ~ 5e-18, far below the 1e-9 dissipation slack
    problem = FlowProblem(norm=ELLIPSE, radius=6.0, datum=datum, tau=1e-3,
                          t_end=0.25, store_times=(0.25,),
                          inner=InnerSolverConfig(tolerance=1e-7),
                          monitor_lambda=0.5)
    return profile, problem, solve(problem)


@pytest.fixture(scope="session")
def scaling_run():
    layout = ball_layout(EUCLID, 2.0, 1 / 64)
    datum = lift_radial(RadialProfile.from_function(
        lambda r: np.exp(-r**2), 8.0, 2049), EUCLID, layout)
    problem = FlowProblem(norm=EUCLID, radius=2.0, datum=datum, tau=4e-4,
                          t_end=0.08, inner=InnerSolverConfig(tolerance=1e-7))
    return scaling_check(problem, 2, compare_times=[0.02])


@pytest.fixture(scope="session")
def nested_run():
    # support radius 2.5 reaches into the region the smallest ball's cutoff
    # touches (it is 1 only below H0 = 2), so the first exhaustion
    # difference carries a real truncation signal instead of roundoff
    bump = measure_from_radial(RadialProfile.from_function(
        lambda r: np.maximum(1.0 - (r / 2.5) ** 2, 0.0) ** 3, 16.0, 2049), EUCLID)
    return nested_domain_study(bump, [4.0, 6.0, 8.0], EUCLID, spacing=1 / 16,
                               tau=2e-3, compare_times=(0.1, 0.15, 0.2),
                               inner=InnerSolverConfig(tolerance=1e-9))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_norm_identity_suite():
    closed = [EUCLID, norms.p_norm(1.5, 2), norms.p_norm(2, 2),
              norms.p_norm(3, 2), norms.p_norm(4, 2), ELLIPSE, ROTATED]
    numeric_cfg = norms.DualEvalConfig(sphere_samples=4096)
    closed_tols = {"duality_inequality": 1e-10, "grad_on_dual_sphere": 1e-8,
                   "dual_grad_on_primal_sphere": 1e-8, "inversion_primal": 1e-6,
                   "inversion_dual": 1e-6}
    numeric_tols = {**closed_tols, "grad_on_dual_sphere": 1e-5,
                    "dual_grad_on_primal_sphere": 1e-5}
    runs = [(spec, None, closed_tols) for spec in closed]
    runs.append((SQUARE, numeric_cfg, numeric_tols))
    failures = []
    for spec, cfg, tols in runs:
        rep = norms.verify_identities(spec, 1000, cfg, seed=20240601)
        failures += [f"{spec.label()}:{n}={rep[n]:.2e}" for n, tol in tols.items()
                     if rep[n] > tol]
    _line(1, not failures, failures or "all identities within tolerance")
    assert not failures


def test_criterion_02_radial_reduction_ellipse(reduction_reports):
    rep = reduction_reports["ellipse"]
    order = observed_order(rep["max"], rep["h"])
    ok = rep["max"][1] < rep["max"][0] and 1.6 <= order <= 2.4
    _line("2/ellipse", ok,
          f"max errors {rep['max']}, order {order:.2f}")
    assert ok


def test_criterion_02_radial_reduction_p3(reduction_reports):
    # off-axis max error: on the axes the p=3 lift has |y|^{3/2} cusps, not C^3
    rep = reduction_reports["p3"]
    spec = norms.p_norm(3, 2)
    band = 0.25  # physical width; at a fixed cell offset the error never shrinks
    off_axis, spacings = [], []
    for lay in refinements(empty_layout([(-3, 3), (-3, 3)], (192, 192)), 2):
        r = norms.dual_norm_eval(spec, lay.coords())
        lap = finsler_laplacian(lift_radial(GAUSS_PROFILE, spec, lay), spec).values
        err = np.abs(lap - radial_operator_values(GAUSS_PROFILE, 2, r))
        window = interior_mask(lay) & (r >= 2.0 * rep["h"][0]) \
            & (np.min(np.abs(lay.coords()), axis=-1) >= band)
        off_axis.append(float(np.max(err[window])))
        spacings.append(max(lay.spacing))
    order, order_mean = observed_order(off_axis, spacings), observed_order(rep["mean"], rep["h"])
    ok = off_axis[1] < off_axis[0] and 1.6 <= order <= 2.4 \
        and order_mean >= 0.8
    _line("2/p3", ok,
          f"max errors {off_axis} with min|x_i| >= {band}, order "
          f"{order:.2f}; whole-window mean-error order {order_mean:.2f}")
    assert ok


def test_criterion_03_linearity(reduction_reports):
    lay = empty_layout([(-3, 3), (-3, 3)], (192, 192))
    failures = []
    for name, spec in (("ellipse", ELLIPSE), ("p3", norms.p_norm(3, 2))):
        rep = check_linearity(GAUSS_PROFILE, QUAD_PROFILE, 2.0, -3.0, spec,
                              lay, levels=2)
        red = reduction_reports[name]
        for defect, allowed in zip(rep["radial"], red["max"]):
            if defect > 10.0 * allowed:
                failures.append(f"{name}: defect {defect:.2e} > 10x reduction")
        vanished = rep["radial"][-1] <= 1e-9
        if not vanished and (order := observed_order(rep["radial"], rep["h"])) < 1.5:
            failures.append(f"{name}: defect order {order:.2f} < 1.5")
        if name == "p3" and any(d < 0.1 for d in rep["control"]):
            failures.append(f"p3 control defect {min(rep['control']):.3f}")
    _line(3, not failures, failures or "radial defects vanish, control persists")
    assert not failures


def test_criterion_04_residual_gauss_and_blowup():
    failures = []
    lay = empty_layout([(-4, 4), (-2, 2)], (128, 64))
    rep = pde_residual(SolutionSpec("gauss_kernel", ELLIPSE), lay,
                       t=0.5, dt=0.01, levels=2)
    if not 1.5 <= (order := observed_order(rep["max"], rep["h"])) <= 2.5:
        failures.append(f"gauss order {order:.2f}")
    lay_b = empty_layout([(-2, 2), (-1, 1)], (64, 32))
    for t in (0.25, 0.5, 0.75):
        rep = pde_residual(SolutionSpec("blowup", ELLIPSE, lam=0.25), lay_b,
                           t=t, dt=0.005, levels=2)
        if not 1.5 <= (order := observed_order(rep["max"], rep["h"])) <= 2.5:
            failures.append(f"blowup t={t} order {order:.2f}")
    _line("4/gauss+blowup", not failures, failures or "orders ~2")
    assert not failures


def test_criterion_04_residual_talenti():
    # N=3 critical family, -lap_H w = w^5 with w = (A + B H0^2)^{-1/2}, 3AB = 1
    spec = SolutionSpec("talenti", norms.ellipse(np.diag([4.0, 1.0, 1.0])),
                        p=2.0, A=1.0, B=1.0 / 3.0)
    lay = empty_layout([(-3, 3), (-1.5, 1.5), (-1.5, 1.5)], (64, 32, 32))
    rep = pde_residual(spec, lay, t=0.0, dt=0.01, levels=2)
    residuals, order = rep["max"], observed_order(rep["max"], rep["h"])
    ok = residuals[1] < residuals[0] and 1.5 <= order <= 2.5
    _line("4/talenti", ok,
          f"residuals {residuals}, order {order:.2f} "
          "(critical N=3 profile, -lap_H w = w^5)")
    assert ok


def test_criterion_04_residual_barenblatt():
    spec = SolutionSpec("barenblatt", norms.euclidean(1), m=2.0, C=1.0)
    lay = empty_layout([(-6.0, 6.0)], (768,))
    rep = pde_residual(spec, lay, t=1.5, dt=0.002, levels=2)
    order = observed_order(rep["max"], rep["h"])
    ok = order >= 1.0
    _line("4/barenblatt", ok, f"order {order:.2f} away from the interface")
    assert ok


def test_criterion_05_sphere_bessel_identity():
    worst2 = max(abs(sphere_integral_I(z, 2) - 2 * np.pi * bessel_I0(z))
                 / sphere_integral_I(z, 2)
                 for z in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0))
    worst3 = max(abs(sphere_integral_I(z, 3) - 4 * np.pi * np.sinh(z) / z)
                 / (4 * np.pi * np.sinh(z) / z)
                 for z in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0))
    # the kernel in use: radial_heat_profile reads e^(-z) I(z) from
    # _scaled_sphere_integral, which must match I on all of [0, 700]
    z = np.concatenate([[0.0, 1e-13, 1e-8, 1e-3], np.linspace(0.0, 700.0, 1401)[1:],
                        np.geomspace(1e-6, 700.0, 200)])
    scaled = [max(abs(np.exp(-zi) * sphere_integral_I(zi, N) - s) / s
                  for zi, s in zip(z, _scaled_sphere_integral(z, N))) for N in (1, 2, 3)]
    ok = worst2 <= 1e-8 and worst3 <= 1e-10 and max(scaled) <= 1e-10
    _line(5, ok, f"N=2 identity rel {worst2:.2e}, N=3 closed form rel {worst3:.2e}, "
          f"scaled kernel rel {max(scaled):.2e}")
    assert ok


def test_criterion_06_representation_vs_solver(comparison_run):
    profile, problem, traj = comparison_run
    final = traj.slice_at(0.25)
    r = norms.dual_norm_eval(ELLIPSE, final.coords())
    window = r <= 2.0
    rho = r[window]
    u_rep = np.empty_like(rho)
    order = np.argsort(rho)
    u_rep[order] = radial_heat_profile(profile, 2, rho[order], 0.25)
    rel = float(np.max(np.abs(final.values[window] - u_rep) / np.abs(u_rep)))
    ok = rel <= 2e-2
    _line(6, ok, f"max relative gap on H0<=2: {rel:.2e} (tolerance 2e-2)")
    assert ok


def test_criterion_07_weighted_l2_monitor(comparison_run):
    _, problem, traj = comparison_run
    w = traj.monitors["weighted_l2"]
    excess = float(np.max(w[1:] - w[0]))
    ok = excess <= 1e-6
    _line(7, ok, f"max excess over the initial value: {excess:.2e}")
    assert ok


def test_criterion_08_energy_dissipation(comparison_run, scaling_run, nested_run):
    worst = -np.inf
    runs = [comparison_run[2], *scaling_run["trajectories"], *nested_run["trajectories"]]
    for traj in runs:
        worst = max(worst, float(np.max(np.diff(traj.monitors["energy"]))))
    ok = worst <= 1e-9
    _line(8, ok, f"max energy increase across {len(runs)} trajectories: {worst:.2e}")
    assert ok


def test_criterion_09_scaling_symmetry(scaling_run):
    lay = ball_layout(ELLIPSE, 1.0, 1 / 16)
    mask = ball_mask(ELLIPSE, lay, 1.0)
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    u = lay.with_values(np.where(mask, np.exp(-2.0 * r**2), 0.0))
    hom = prox_homogeneity_defect(u, ELLIPSE, mask, 1e-3, 3.0)
    defect = max(scaling_run["defects"])
    ok = hom <= 1e-8 and defect <= 3e-2
    _line(9, ok, f"prox homogeneity {hom:.2e}, space-time defect {defect:.2e}")
    assert ok


def test_criterion_10_growth_classifier():
    quarter = measure_from_radial(RadialProfile.from_function(
        lambda r: np.exp(0.25 * r**2), 16.0, 2049), EUCLID)
    res = classify(quarter, EUCLID, [0.1, 0.2, 0.3, 0.5],
                   windows=(4, 6, 8, 12), spacing=0.25)
    ok = res["lam_star"] == pytest.approx(0.3) and res["horizon"] == pytest.approx(
        1 / 1.2, abs=1e-12)

    compact = measure_from_radial(RadialProfile.from_function(
        lambda r: np.maximum(1 - r**2, 0.0) ** 3, 16.0, 2049), EUCLID)
    res_c = classify(compact, EUCLID, [0.1, 0.2, 0.3, 0.5],
                     windows=(4, 6, 8, 12), spacing=0.25)
    ok &= res_c["lam_star"] == pytest.approx(0.1)

    cubic = measure_from_radial(RadialProfile.from_function(
        lambda r: np.exp(r**3), 6.0, 2049), EUCLID)
    with pytest.warns(UserWarning, match="window smaller than the ball radius"):
        res_n = classify(cubic, EUCLID, [0.1, 0.5, 1.0, 2.0],
                         windows=(2, 3, 4, 5), spacing=0.125)
    admissible = res_n["lam_star"] is not None
    ok &= not admissible
    _line(10, ok, f"first stabilized {res['lam_star']}, horizon {res['horizon']:.4f}; "
          f"compact -> {res_c['lam_star']}; cubic admissible={admissible}")
    assert ok


def test_criterion_11_nested_domain_study(nested_run):
    diffs = nested_run["differences"]
    ok = all(b < a for a, b in zip(diffs, diffs[1:])) and diffs[-1] <= 1e-4
    _line(11, ok, f"consecutive core differences {diffs}")
    assert ok


def test_criterion_12_determinism(tmp_path):
    euclid_json = {"family": "euclidean", "params": {}, "dimension": 2}
    ellipse_json = {"family": "ellipse", "params": {"matrix": [[4, 0], [0, 1]]},
                    "dimension": 2}
    jobs = {
        "verify-norms": ({"seed": 7, "samples": 300,
                          "norms": [euclid_json, ellipse_json]},
                         "norm_identities.csv"),
        "verify-exact": ({"cases": [{"kind": "gauss_kernel",
                                     "norm": ellipse_json,
                                     "box": [[-4, 4], [-2, 2]],
                                     "resolution": [64, 32], "t": 0.5,
                                     "dt": 0.01, "levels": 2}]},
                         "exact_residuals.csv"),
        "radial-solve": ({"norm": euclid_json,
                          "profile": {"type": "gaussian", "r_max": 14.0},
                          "times": [0.25],
                          "points": [[0.0, 0.0], [1.0, 0.5], [0.0, 1.5]]},
                         "radial_solution.csv"),
        "classify": ({"norm": euclid_json,
                      "measure": {"kind": "radial_density",
                                  "profile": {"type": "exp_power",
                                              "r_max": 16.0,
                                              "coefficient": 0.25,
                                              "power": 2}},
                      "lambda_grid": [0.2, 0.3], "windows": [4, 6],
                      "spacing": 0.25},
                     "classification.csv"),
        "simulate": ({"norm": euclid_json,
                      "problem": {"radius": 2.0, "spacing": 0.125,
                                  "datum": {"kind": "radial",
                                            "profile": {"type": "gaussian",
                                                        "r_max": 8.0}},
                                  "tau": 2e-3, "t_end": 0.02,
                                  "store_times": [0.02]},
                      "inner": {"tolerance": 1e-8},
                      "checks": {"dissipation_slack": 1e-9}},
                     "monitor_energy.csv"),
    }
    mismatched = []
    for command, (cfg, artifact) in jobs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in ("one", "two"):
            outdir = tmp_path / f"{command}-{run}"
            code = main([command, "--config", str(cfg_path), "--out",
                         str(outdir), "--no-timestamp"])
            assert code == 0, f"{command} exited {code}"
            outs.append((outdir / artifact).read_bytes())
        if outs[0] != outs[1]:
            mismatched.append(command)
    _line(12, not mismatched, mismatched or "byte-identical CSV reruns")
    assert not mismatched
