"""Command-line front end: JSON experiment configs in, CSV/grid artifacts out.

Subcommands: verify-norms, verify-exact, simulate, radial-solve, classify,
compare.  Exit codes: 0 all checks passed, 1 a numerical check failed,
2 malformed config, 3 an iterative procedure failed to converge.  All
floats print with 17 significant digits; identical config + seed gives
byte-identical CSVs (the timestamp header is suppressed by --no-timestamp).
Schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import flow, measures, norms, operators, radial, solutions
from .errors import ConvergenceError, DomainError, SpecValidationError, integer
from .grids import GridFunction, RadialProfile, empty_layout

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _reject_unknown(cfg: dict, allowed: set, context: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise SpecValidationError(
            f"unknown keys in {context}: {', '.join(sorted(unknown))}")


def _need(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise SpecValidationError(f"{context} requires {key!r}")
    return cfg[key]


def _optional(cfg: dict, casts: dict) -> dict:
    """The optional keys that cfg sets, cast (`int` by `integer`); the callee owns the defaults."""
    return {key: integer(cfg[key], key) if cast is int else cast(cfg[key])
            for key, cast in casts.items() if key in cfg}


def _limit(cfg: dict, key: str, context: str, default=None, low: float = -np.inf):
    """cfg[key] as a float (`default` if absent), a number that a check
    compares against; one that is NaN or not above `low` is a config error.
    Commands read every limit before any work."""
    if key not in cfg:
        return default
    value = float(cfg[key])
    if not value > low:  # NaN fails
        raise SpecValidationError(f"{context} {key} must be a number above {low:g}, "
                                  f"not {cfg[key]!r}")
    return value


def _range(cfg: dict, key: str, context: str):
    """cfg[key] as (lo, hi), two finite numbers lo < hi, or None if absent."""
    if key not in cfg:
        return None
    pair = [float(x) for x in cfg[key]]
    if not (len(pair) == 2 and np.isfinite(pair).all() and pair[0] < pair[1]):
        raise SpecValidationError(f"{context} {key} must be two finite numbers in "
                                  f"ascending order, not {cfg[key]!r}")
    return tuple(pair)


_NUMBER = (int, float, np.floating)


def _write_csv(path: Path, header: list, rows: list, timestamp: bool) -> None:
    """Numbers print with `_fmt` (%.17g), anything else as str; a table of
    numbers only, all rows of one width, is formatted in one pass."""
    with open(path, "w", newline="") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        kinds = {type(c) for row in rows for c in row}
        if rows and len({len(row) for row in rows}) == 1 and all(
                issubclass(k, _NUMBER) and not issubclass(k, bool) for k in kinds):
            line = ",".join(["%.17g"] * len(rows[0])) + "\n"
            fh.write(line * len(rows) % tuple(np.asarray(rows, dtype=float).ravel().tolist()))
            return
        for row in rows:
            writer.writerow(_fmt(c) if isinstance(c, _NUMBER)
                            and not isinstance(c, bool) else str(c) for c in row)


def _load_grid(path, context: str) -> GridFunction:
    """GridFunction.load; a path it cannot read is a config error."""
    try:
        return GridFunction.load(path)
    except OSError as exc:
        raise SpecValidationError(f"{context}: cannot read grid {path!r}: "
                                  f"{exc.strerror or exc}") from exc


_PROFILE_KEYS = {"gaussian": {"scale"}, "bump": {"radius"}, "exp_power": {"coefficient", "power"}}


def _profile_from_config(cfg: dict) -> RadialProfile:
    kind = _need(cfg, "type", "profile")
    if kind == "samples":
        _reject_unknown(cfg, {"type", "radii", "values", "even"}, "profile")
        return RadialProfile(np.asarray(cfg["radii"], dtype=float),
                             np.asarray(cfg["values"], dtype=float),
                             even=bool(cfg.get("even", True)))
    if kind not in _PROFILE_KEYS:
        raise SpecValidationError(f"unknown profile type {kind!r}")
    _reject_unknown(cfg, {"type", "r_max", "samples", "amplitude", *_PROFILE_KEYS[kind]},
                    "profile")
    r_max = float(_need(cfg, "r_max", "profile"))
    samples = integer(cfg.get("samples", 2049), "profile samples")
    amp = float(cfg.get("amplitude", 1.0))
    if kind == "gaussian":
        scale = float(cfg.get("scale", 1.0))
        fn = lambda r: amp * np.exp(-((r / scale) ** 2))
    elif kind == "bump":
        rad = float(cfg.get("radius", 1.0))
        fn = lambda r: amp * np.maximum(1.0 - (r / rad) ** 2, 0.0) ** 3
    else:
        c = float(_need(cfg, "coefficient", "profile"))
        q = float(_need(cfg, "power", "profile"))
        fn = lambda r: amp * np.exp(c * r**q)
    return RadialProfile.from_function(fn, r_max, samples)


def _measure_from_config(cfg: dict, spec: norms.NormSpec) -> measures.MeasureSpec:
    kind = _need(cfg, "kind", "measure")
    if kind == "atoms":
        _reject_unknown(cfg, {"kind", "atoms"}, "measure")
        return measures.measure_from_atoms([(p, w) for p, w in cfg["atoms"]])
    if kind == "density":
        _reject_unknown(cfg, {"kind", "path"}, "measure")
        return measures.measure_from_density(
            _load_grid(_need(cfg, "path", "measure"), "measure"))
    if kind == "radial_density":
        _reject_unknown(cfg, {"kind", "profile"}, "measure")
        return measures.measure_from_radial(_profile_from_config(cfg["profile"]), spec)
    raise SpecValidationError(f"unknown measure kind {kind!r}")


_DUAL_KEYS = {"sphere_samples": int, "refinement_iters": int, "tolerance": float}


def _dual_oracle(cfg: dict) -> norms.DualEvalConfig | None:
    """The `sphere_maximization` settings that `dual` selects, or None for
    the closed forms (method `auto`); the settings are checked either way."""
    _reject_unknown(cfg, {"method", *_DUAL_KEYS}, "dual")
    method = cfg.get("method", "auto")
    if method not in ("auto", "sphere_maximization"):
        raise SpecValidationError(f"unknown dual evaluation method {method!r}")
    oracle = norms.DualEvalConfig(**_optional(cfg, _DUAL_KEYS))
    return oracle if method == "sphere_maximization" else None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_IDENTITY_DEFAULTS = {
    "duality_inequality": 1e-10, "grad_on_dual_sphere": 1e-8,
    "dual_grad_on_primal_sphere": 1e-8, "inversion_primal": 1e-6,
    "inversion_dual": 1e-6, "homogeneity": 1e-12, "map_quadratic": 1e-12,
}


def cmd_verify_norms(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    _reject_unknown(cfg, {"seed", "samples", "norms", "dual", "tolerances"},
                    "verify-norms config")
    seed = cfg.get("seed") if seed is None else seed
    if seed is None:
        raise SpecValidationError("verify-norms samples randomly and needs a seed")
    seed, samples = integer(seed, "seed"), integer(cfg.get("samples", 1000), "samples")
    oracle = _dual_oracle(cfg.get("dual", {}))
    overrides = cfg.get("tolerances", {})
    _reject_unknown(overrides, set(_IDENTITY_DEFAULTS), "tolerances")
    tols = {name: _limit(overrides, name, "tolerances", default)
            for name, default in _IDENTITY_DEFAULTS.items()}
    rows, ok = [], True
    for norm_obj in _need(cfg, "norms", "verify-norms config"):
        spec = norms.NormSpec.from_dict(norm_obj)
        report = norms.verify_identities(spec, samples, oracle, seed=seed)
        for name, value in report.items():
            tol = tols[name]
            passed = value <= tol
            ok &= passed
            rows.append((spec.label(), name, samples, value, tol, passed))
    _write_csv(out / "norm_identities.csv",
               ["family", "identity", "samples", "max_violation", "tolerance",
                "pass"], rows, timestamp)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _case_limits(case: dict) -> tuple:
    """A verify-exact case's (order_window, annulus, max_residual), its keys checked."""
    _reject_unknown(case, {"kind", "params", "norm", "box", "resolution", "t", "dt",
                           "levels", "order_window", "annulus", "max_residual"},
                    "verify-exact case")
    return (_range(case, "order_window", "verify-exact case"),
            _range(case, "annulus", "verify-exact case"),
            _limit(case, "max_residual", "verify-exact case", np.inf))


def cmd_verify_exact(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    _reject_unknown(cfg, {"cases"}, "verify-exact config")
    cases = _need(cfg, "cases", "verify-exact config")
    rows, ok = [], True
    for case, (window, annulus, cap) in zip(cases, [_case_limits(c) for c in cases]):
        spec = norms.NormSpec.from_dict(_need(case, "norm", "case"))
        sol = solutions.SolutionSpec(_need(case, "kind", "case"), spec,
                                     **case.get("params", {}))
        layout = empty_layout(case["box"], case["resolution"])
        t = float(case.get("t", 0.0))
        if sol.kind == "singular_poly":
            residual = solutions.singular_poly_check(
                sol, layout, **({} if annulus is None else {"annulus": annulus}))
            passed = residual <= cap
            ok &= passed
            rows.append((sol.kind, spec.label(), max(layout.spacing), 0.0,
                         residual, np.nan, passed))
            continue
        rep = solutions.pde_residual(sol, layout, t, float(case.get("dt", 1e-2)),
                                     **_optional(case, {"levels": int}))
        passed = window is None or window[0] <= rep.order <= window[1]
        ok &= passed
        for family, norm_label, h, dt, mx, order in rep.rows():
            rows.append((family, norm_label, h, dt, mx, order, passed))
        if sol.kind == "blowup":
            # the minimum over x sits at the origin, so over the nodes it
            # sits at the node of least H0
            coords = layout.coords()
            u = solutions.eval_solution(sol, coords, t).ravel()
            h0 = norms.dual_norm_eval(spec, coords).ravel()
            least = np.argmin(h0)
            origin_ok = bool(abs(u.min() - u[least]) < 1e-12
                             and h0[np.argmin(u)] - h0[least] < 1e-12)
            ok &= origin_ok
            rows.append(("blowup_min_at_origin", spec.label(),
                         max(layout.spacing), 0.0, 0.0, np.nan, origin_ok))
    _write_csv(out / "exact_residuals.csv",
               ["family", "norm", "h", "dt", "max_residual", "order", "pass"],
               rows, timestamp)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _datum_from_config(cfg: dict, spec: norms.NormSpec,
                       layout: GridFunction):
    kind = _need(cfg, "kind", "datum")
    if kind == "radial":
        _reject_unknown(cfg, {"kind", "profile"}, "datum")
        profile = _profile_from_config(cfg["profile"])
        return operators.lift_radial(profile, spec, layout), profile
    if kind == "grid":
        _reject_unknown(cfg, {"kind", "path"}, "datum")
        datum = _load_grid(_need(cfg, "path", "datum"), "datum")
        if not datum.same_layout(layout):
            raise SpecValidationError("grid datum does not lie on the layout of the "
                                      "run's radius and spacing")
        return datum, None
    if kind in ("atoms", "density", "radial_density"):  # mollified at two cells
        measure = _measure_from_config(cfg, spec)
        return measures.mollify(measure, 2.0 * max(layout.spacing), layout), None
    raise SpecValidationError(f"unknown datum kind {kind!r}")


def _comparison_kind(comp: dict, datum_cfg: dict) -> str:
    """The comparison's kind; one that cannot hold for the datum is rejected."""
    _reject_unknown(comp, {"kind", "window", "tolerance", "time"}, "compare")
    kind = comp.get("kind", "gaussian_closed_form")
    prof = datum_cfg.get("profile") if datum_cfg.get("kind") == "radial" else None
    unit_gaussian = bool(prof) and prof.get("type") == "gaussian" and all(
        float(prof.get(key, 1.0)) == 1.0 for key in ("amplitude", "scale"))
    if kind == "gaussian_closed_form" and not unit_gaussian:
        raise SpecValidationError("gaussian_closed_form holds only for the radial "
                                  "gaussian datum of amplitude 1 and scale 1; "
                                  "use radial_representation")
    if kind == "radial_representation" and prof is None:
        raise SpecValidationError("radial_representation comparison needs a radial datum")
    if kind not in ("gaussian_closed_form", "radial_representation"):
        raise SpecValidationError(f"unknown comparison {kind!r}")
    return kind


def cmd_simulate(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    _reject_unknown(cfg, {"norm", "problem", "inner", "monitors", "checks",
                          "compare"}, "simulate config")
    spec = norms.NormSpec.from_dict(_need(cfg, "norm", "simulate config"))
    pc = _need(cfg, "problem", "simulate config")
    _reject_unknown(pc, {"radius", "spacing", "datum", "scheme", "tau", "t_end",
                         "store_times"}, "problem")
    radius = float(_need(pc, "radius", "problem"))
    spacing = float(_need(pc, "spacing", "problem"))
    checks, comp = cfg.get("checks", {}), cfg.get("compare")
    _reject_unknown(checks, {"dissipation_slack", "weighted_l2_slack"}, "checks")
    dissipation_slack, weighted_l2_slack = (
        _limit(checks, key, "checks") for key in ("dissipation_slack", "weighted_l2_slack"))
    if comp is not None:
        reach = _limit(comp, "window", "compare", radius / 2, low=0.0)
        tolerance = _limit(comp, "tolerance", "compare", np.inf)
    layout = flow.ball_layout(spec, radius, spacing)
    datum, profile = _datum_from_config(_need(pc, "datum", "problem"), spec, layout)
    ic = cfg.get("inner", {})
    _reject_unknown(ic, {"tolerance", "max_iters"}, "inner")
    inner = flow.InnerSolverConfig(**_optional(ic, {"tolerance": float,
                                                    "max_iters": int}))
    mc = cfg.get("monitors", {})
    _reject_unknown(mc, {"lambda", "ell"}, "monitors")
    problem = flow.FlowProblem(
        norm=spec, radius=radius, datum=datum,
        tau=float(_need(pc, "tau", "problem")),
        t_end=float(_need(pc, "t_end", "problem")), inner=inner,
        monitor_lambda=mc.get("lambda"), monitor_ell=mc.get("ell"),
        **_optional(pc, {"scheme": str, "store_times": tuple}))
    if comp is not None:  # checked before stepping
        kind = _comparison_kind(comp, pc["datum"])
        asked = float(comp.get("time", problem.t_end))
        if (t := problem.stores(asked)) is None:
            raise SpecValidationError(f"compare.time {asked} is not a stored time")

    failure = None
    try:
        traj = flow.solve(problem)
    except ConvergenceError as exc:  # write the steps before it, then fail
        traj, failure = exc.partial, exc
    for name, series in traj.monitors.items():
        _write_csv(out / f"monitor_{name}.csv", ["t", name],
                   list(zip(traj.monitor_times, series)), timestamp)
    for stamp, gf in zip(traj.times, traj.slices):
        gf.save(out / f"slice_t{stamp:.6f}.grid")
    if failure is not None:
        raise failure

    ok = True
    if dissipation_slack is not None and problem.scheme == "implicit_proximal":
        ok &= bool(np.all(np.diff(traj.monitors["energy"]) <= dissipation_slack))
    if weighted_l2_slack is not None and "weighted_l2" in traj.monitors:
        w = traj.monitors["weighted_l2"]
        w = w[np.isfinite(w)]
        ok &= bool(np.all(w[1:] <= w[0] + weighted_l2_slack))

    if comp is not None:
        gf = traj.slice_at(t)
        r = traj.h0
        window = r <= reach
        if kind == "gaussian_closed_form":
            exact = (1 + 4 * t) ** (-spec.dimension / 2) \
                * np.exp(-r[window] ** 2 / (1 + 4 * t))
        else:
            exact = radial.radial_heat_profile(profile, spec.dimension,
                                               r[window], t)
        rel = np.abs(gf.values[window] - exact) / np.maximum(np.abs(exact), 1e-300)
        _write_csv(out / "comparison.csv", ["t", "max_abs_error", "max_rel_error"],
                   [(t, float(np.max(np.abs(gf.values[window] - exact))),
                     float(np.max(rel)))], timestamp)
        ok &= float(np.max(rel)) <= tolerance
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_radial_solve(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    _reject_unknown(cfg, {"norm", "profile", "times", "points", "crosscheck"},
                    "radial-solve config")
    spec = norms.NormSpec.from_dict(_need(cfg, "norm", "radial-solve config"))
    profile = _profile_from_config(_need(cfg, "profile", "radial-solve config"))
    points = np.asarray(_need(cfg, "points", "radial-solve config"), dtype=float)
    rows = []
    cross = cfg.get("crosscheck")
    refs = None
    if cross is not None:
        _reject_unknown(cross, {"path", "tolerance"}, "crosscheck")
        tolerance = _limit(cross, "tolerance", "crosscheck", np.inf)
        ref = _load_grid(_need(cross, "path", "crosscheck"), "crosscheck")
        if ref.dimension != spec.dimension:
            raise SpecValidationError(f"crosscheck grid is {ref.dimension}-D, "
                                      f"the norm {spec.dimension}-D")
        refs = ref.sample_nearest(points)
    worst = 0.0
    rho = norms.dual_norm_eval(spec, points)
    for t in _need(cfg, "times", "radial-solve config"):
        vals = radial.radial_heat_profile(profile, spec.dimension, rho, float(t))
        columns = [points, np.full(len(points), float(t)), vals]
        if refs is not None:
            rel = np.abs(vals - refs) / np.maximum(np.abs(vals), 1e-300)
            worst = max(worst, float(np.max(rel)))
            columns.append(rel)
        rows.extend(np.column_stack(columns).tolist())
    header = [f"x{i+1}" for i in range(spec.dimension)] + ["t", "u"]
    if refs is not None:
        header.append("rel_error")
    _write_csv(out / "radial_solution.csv", header, rows, timestamp)
    if cross is not None and worst > tolerance:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_classify(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    _reject_unknown(cfg, {"norm", "measure", "lambda_grid", "windows", "spacing",
                          "stabilization_tol"}, "classify config")
    spec = norms.NormSpec.from_dict(_need(cfg, "norm", "classify config"))
    measure = _measure_from_config(_need(cfg, "measure", "classify config"), spec)
    result = measures.classify(
        measure, spec, _need(cfg, "lambda_grid", "classify config"),
        **_optional(cfg, {"windows": tuple, "spacing": float,
                          "stabilization_tol": float}))
    _write_csv(out / "classification.csv",
               ["lambda", "window", "value", "stabilized"], result.rows(), timestamp)
    summary = {"admissible": result.admissible, "lambda_star": result.lam_star,
               "horizon": result.horizon}
    (out / "classification.json").write_text(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_compare(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    _reject_unknown(cfg, {"a", "b", "tolerance", "relative"}, "compare config")
    tol = _limit(cfg, "tolerance", "compare config")
    a = _load_grid(_need(cfg, "a", "compare config"), "compare a")
    b = _load_grid(_need(cfg, "b", "compare config"), "compare b")
    if not a.same_layout(b):
        raise SpecValidationError("grids have different layouts")
    diff = np.abs(a.values - b.values)
    denom = np.maximum(np.abs(a.values), 1e-300)
    max_abs = float(np.max(diff))
    max_rel = float(np.max(diff / denom))
    _write_csv(out / "comparison.csv", ["max_abs_diff", "max_rel_diff"],
               [(max_abs, max_rel)], timestamp)
    if tol is not None:
        value = max_rel if cfg.get("relative", False) else max_abs
        if value > tol:
            return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {
    "verify-norms": cmd_verify_norms,
    "verify-exact": cmd_verify_exact,
    "simulate": cmd_simulate,
    "radial-solve": cmd_radial_solve,
    "classify": cmd_classify,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finslerheat",
        description="Anisotropic heat-equation toolkit: verification and solvers")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="suppress the timestamp header line in CSVs")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](cfg, out, args.seed,
                                       timestamp=not args.no_timestamp)
    except (SpecValidationError, DomainError, KeyError, TypeError, ValueError,
            OverflowError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
