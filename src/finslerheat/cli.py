"""Command-line front end: JSON experiment configs in, CSV/grid artifacts out.

Subcommands: verify-norms, verify-exact, simulate, radial-solve, classify,
compare.  Exit codes: 0 all checks passed, 1 a numerical check failed,
2 malformed config, 3 an iterative procedure failed to converge.  All
floats print with 17 significant digits; identical config + seed gives
byte-identical CSVs (the timestamp header is suppressed by --no-timestamp).
Each command reads its whole config, nested objects included, through
`_section` before any work.  Schemas are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from numbers import Real
from pathlib import Path

import numpy as np

from . import flow, measures, norms, operators, radial, solutions
from .errors import ConvergenceError, DomainError, SpecValidationError, finite, integer
from .grids import GridFunction, RadialProfile, blocks, empty_layout, observed_order

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x) -> str:
    return f"{float(x):.17g}"


_NUMBER = (int, float, np.floating)


def _write_csv(path: Path, header: list, rows, timestamp: bool) -> None:
    """Numbers print with `_fmt` (%.17g), anything else as str; a 2-D float
    array, the one numeric table, is formatted a `grids.blocks` block of
    rows at a time."""
    with open(path, "w", newline="") as fh:
        if timestamp:
            fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            for block in blocks(len(rows), rows.shape[1]):
                part = rows[block]
                fh.write(line * len(part) % tuple(part.ravel().tolist()))
            return
        for row in rows:
            writer.writerow(_fmt(c) if isinstance(c, _NUMBER)
                            and not isinstance(c, bool) else str(c) for c in row)


# ---------------------------------------------------------------------------
# config reading: one section reader, one reader per kind of value
# ---------------------------------------------------------------------------

def _section(cfg, what: str, required: dict, optional: dict | None = None) -> dict:
    """The config object `cfg` with each value read by the reader of its key,
    `reader(value, name)`.  A key outside `required` and `optional`, a missing
    required key and a value that its reader refuses are config errors.  An
    absent optional key stays absent, so the callee keeps its default."""
    if not isinstance(cfg, dict):
        raise SpecValidationError(f"{what} must be an object, not {cfg!r}")
    readers = {**required, **(optional or {})}
    if unknown := set(cfg) - set(readers):
        raise SpecValidationError(f"unknown keys in {what}: {', '.join(sorted(unknown))}")
    if missing := [key for key in required if key not in cfg]:
        raise SpecValidationError(f"{what} requires {missing[0]!r}")
    return {key: readers[key](value, f"{what} {key}") for key, value in cfg.items()}


def _object(required: dict, optional: dict | None = None):
    """The reader of a nested object with these keys (see `_section`)."""
    return lambda value, what: _section(value, what, required, optional)


def _reader(test, need: str):
    """The reader of a value that passes `test`, returned as given; `need`
    says what else is a config error."""
    def read(value, what: str):
        if test(value):
            return value
        raise SpecValidationError(f"{what} must be {need}, not {value!r}")
    return read


def _real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


_text = _reader(lambda v: isinstance(v, str), "a string")
_flag = _reader(lambda v: isinstance(v, bool), "true or false")
_number = _reader(finite, "a finite number")
_positive = _reader(lambda v: finite(v) and v > 0, "a finite number above 0")
_range = _reader(lambda v: isinstance(v, list) and len(v) == 2 and all(map(finite, v))
                 and v[0] < v[1], "two finite numbers in ascending order")


def _limit(low: float = -math.inf):
    """The reader of a limit that a check compares against: Infinity sets no
    limit, NaN is refused."""
    return _reader(lambda v: _real(v) and v > low, f"a number above {low:g}")


def _one_of(*names: str):
    """The reader of a string that names one of `names`."""
    return _reader(lambda v: isinstance(v, str) and v in names, f"one of {', '.join(names)}")


def _kind(table, key: str, value, what: str) -> str:
    """The tag `value[key]` of a tagged object, which must name an entry of `table`."""
    return _one_of(*table)(value.get(key) if isinstance(value, dict) else None, f"{what} {key}")


def _list(item, least: int = 1):
    """The reader of a list of at least `least` entries, each read by `item`."""
    def read(value, what: str) -> list:
        if isinstance(value, list) and len(value) >= least:
            return [item(entry, what) for entry in value]
        raise SpecValidationError(f"{what} must be a list of at least {least} "
                                  f"entries, not {value!r}")
    return read


def _numbers(value, what: str):
    """A finite number, or a nonempty list of such values (an atom's point and mass)."""
    return _list(_numbers)(value, what) if isinstance(value, list) else _number(value, what)


def _float(value, what: str) -> float:
    return float(_number(value, what))


def _rows(value, what: str) -> tuple:
    """A matrix: a nonempty list of rows of finite numbers, as `norms._rows` keeps it."""
    return norms._rows(_list(_list(_number))(value, what))


# each norm family's params, all required: NormSpec(family, dimension, **params)
_NORM_PARAMS = {"euclidean": {}, "p_norm": {"p": _float}, "ellipse": {"matrix": _rows},
                "smoothed_polytope": {"directions": _rows, "epsilon": _float}}


def _norm(value, what: str) -> norms.NormSpec:
    """A norm: its `family`, its `dimension` and the params of that family."""
    params = _NORM_PARAMS[_kind(_NORM_PARAMS, "family", value, what)]
    c = _section(value, what, {"family": _text, "dimension": integer},
                 {"params": _object(params)})
    return norms.NormSpec(c["family"], c["dimension"], **c.get("params", {}))


def _grid(value, what: str) -> GridFunction:
    """The grid that the path `value` names; a file it cannot read, or one
    that holds no grid dump, is a config error."""
    path = _text(value, what)
    try:
        return GridFunction.load(path)
    except (OSError, IndexError, ValueError, OverflowError) as exc:
        raise SpecValidationError(f"{what}: cannot read grid {path!r}: "
                                  f"{getattr(exc, 'strerror', None) or exc}") from exc


def _profile(value, what: str) -> RadialProfile:
    """A radial profile: `samples`, or a gaussian, bump or exp_power sampled on
    [0, r_max] (2049 samples unless `samples` says otherwise)."""
    kind = _kind(("samples", "gaussian", "bump", "exp_power"), "type", value, what)
    if kind == "samples":
        c = _section(value, what, {"type": _text, "radii": _list(_number),
                                   "values": _list(_number)}, {"even": _flag})
        return RadialProfile(c["radii"], c["values"], even=c.get("even", True))
    required = {"type": _text, "r_max": _positive}
    optional = {"samples": integer, "amplitude": _number}
    if kind == "gaussian":
        c = _section(value, what, required, {**optional, "scale": _positive})
        fn = lambda r, scale=c.get("scale", 1.0): np.exp(-((r / scale) ** 2))
    elif kind == "bump":
        c = _section(value, what, required, {**optional, "radius": _positive})
        fn = lambda r, rad=c.get("radius", 1.0): np.maximum(1.0 - (r / rad) ** 2, 0.0) ** 3
    else:
        own = {"coefficient": _number, "power": _positive}
        c = _section(value, what, {**required, **own}, optional)
        fn = lambda r: np.exp(c["coefficient"] * r ** c["power"])
    amp = c.get("amplitude", 1.0)
    return RadialProfile.from_function(lambda r: amp * fn(r), c["r_max"], c.get("samples", 2049))


# a datum or measure object: its kind, and the one key that kind takes
_SOURCES = {"radial": ("profile", _profile), "grid": ("path", _grid),
            "atoms": ("atoms", _list(_numbers)), "density": ("path", _grid),
            "radial_density": ("profile", _profile)}


def _source(*kinds: str):
    """The reader of a datum or measure object of one of `kinds`; a path is
    read as the grid it names."""
    def read(value, what: str) -> dict:
        key, reader = _SOURCES[_kind(kinds, "kind", value, what)]
        return _section(value, what, {"kind": _text, key: reader})
    return read


def _measure(source: dict, spec: norms.NormSpec) -> measures.MeasureSpec:
    """The measure of a read source; a radial density is radial in `spec`."""
    if source["kind"] == "atoms":
        return measures.measure_from_atoms(source["atoms"])
    if source["kind"] == "density":
        return measures.measure_from_density(source["path"])
    return measures.measure_from_radial(source["profile"], spec)


def _dual(value, what: str) -> norms.DualEvalConfig | None:
    """The `sphere_maximization` settings that `dual` selects, or None for
    the closed forms (method `auto`, the default, which takes no settings)."""
    oracle = isinstance(value, dict) and value.get("method") == "sphere_maximization"
    settings = {"sphere_samples": integer, "tolerance": _positive} if oracle else {}
    c = _section(value, what, {}, {"method": _one_of("auto", "sphere_maximization"), **settings})
    c.pop("method", None)
    return norms.DualEvalConfig(**c) if oracle else None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_IDENTITY_DEFAULTS = {
    "duality_inequality": 1e-10, "grad_on_dual_sphere": 1e-8,
    "dual_grad_on_primal_sphere": 1e-8, "inversion_primal": 1e-6,
    "inversion_dual": 1e-6, "homogeneity": 1e-12, "map_quadratic": 1e-12,
}


def cmd_verify_norms(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    c = _section(cfg, "verify-norms config", {"norms": _list(_norm)}, {
        "seed": integer, "samples": integer, "dual": _dual,
        "tolerances": _object({}, dict.fromkeys(_IDENTITY_DEFAULTS, _limit()))})
    seed = c.get("seed") if seed is None else seed
    if seed is None:
        raise SpecValidationError("verify-norms samples randomly and needs a seed")
    samples = c.get("samples", 1000)
    tols = {**_IDENTITY_DEFAULTS, **c.get("tolerances", {})}
    rows, ok = [], True
    for spec in c["norms"]:
        report = norms.verify_identities(spec, samples, c.get("dual"), seed=seed)
        for name, value in report.items():
            tol = tols[name]
            passed = value <= tol
            ok &= passed
            rows.append((spec.label(), name, samples, value, tol, passed))
    _write_csv(out / "norm_identities.csv",
               ["family", "identity", "samples", "max_violation", "tolerance",
                "pass"], rows, timestamp)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_ORDER = {"levels": integer, "order_window": _range}
_TIMED = {"t": _number, "dt": _positive, **_ORDER}
# each case kind: its optional keys and its params, all required (SolutionSpec's)
_CASES = {"gauss_kernel": (_TIMED, {}), "blowup": (_TIMED, {"lam": _number}),
          "barenblatt": (_TIMED, {"m": _number, "C": _number}),
          "talenti": (_ORDER, {"p": _number, "A": _number, "B": _number}),
          "singular_poly": ({"annulus": _range, "max_residual": _limit()}, {"m_order": integer})}


def _case(value, what: str) -> dict:
    """A verify-exact case: the keys and params of its kind."""
    optional, params = _CASES[_kind(_CASES, "kind", value, what)]
    return _section(value, what, {"kind": _text, "norm": _norm, "box": _list(_range),
                                  "resolution": _list(integer)},
                    {**optional, "params": _object(params)})


def _annulus(case: dict) -> dict:
    """The annulus a singular_poly case names, if it names one."""
    return {"annulus": case["annulus"]} if "annulus" in case else {}


def cmd_verify_exact(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    cases = _section(cfg, "verify-exact config", {"cases": _list(_case)})["cases"]
    if any("order_window" in case and case.get("levels", 2) < 2 for case in cases):
        raise SpecValidationError("an order_window needs levels >= 2: an order compares two")
    built = [(case, solutions.SolutionSpec(case["kind"], case["norm"], **case.get("params", {})),
              empty_layout(case["box"], case["resolution"])) for case in cases]
    for i, (case, sol, layout) in enumerate(built):     # every window before any case runs
        if sol.kind == "singular_poly":
            try:
                solutions.singular_poly_window(sol, layout, **_annulus(case))
            except DomainError as exc:
                raise SpecValidationError(f"verify-exact cases[{i}] (singular_poly): "
                                          f"{exc}") from None
    rows, ok = [], True
    for case, sol, layout in built:
        spec, t, coarse = sol.norm, case.get("t", 0.0), [max(layout.spacing)]
        # each check: its family, per level its h, dt (nan where it takes no
        # time difference) and residual, and whether it passed
        if sol.kind == "singular_poly":
            residual = solutions.singular_poly_check(sol, layout, **_annulus(case))
            checks = [(sol.kind, coarse, [np.nan], [residual],
                       residual <= case.get("max_residual", np.inf))]
        else:
            rep = solutions.pde_residual(sol, layout, t, case.get("dt", 1e-2),
                                         **({"levels": case["levels"]} if "levels" in case else {}))
            window = case.get("order_window")
            checks = [(sol.kind, rep.spacings, rep.time_steps, rep.max_residuals,
                       window is None or window[0] <= rep.order <= window[1])]
        if sol.kind == "blowup":
            checks.append(("blowup_min_at_origin", coarse, [np.nan], [0.0],
                           solutions.blowup_min_at_origin(sol, layout, t)))
        for family, spacings, steps, values, passed in checks:
            ok &= passed
            rows.extend((family, spec.label(), h, dt, value, np.nan if i == 0 else
                         observed_order(values[i - 1:i + 1], spacings[i - 1:i + 1]), passed)
                        for i, (h, dt, value) in enumerate(zip(spacings, steps, values)))
    _write_csv(out / "exact_residuals.csv",
               ["family", "norm", "h", "dt", "max_residual", "order", "pass"],
               rows, timestamp)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _datum(source: dict, spec: norms.NormSpec, layout: GridFunction):
    """The run's datum on `layout`, and its profile if it is radial."""
    if source["kind"] == "radial":
        return operators.lift_radial(source["profile"], spec, layout), source["profile"]
    if source["kind"] == "grid":
        if not source["path"].same_layout(layout):
            raise SpecValidationError("grid datum does not lie on the layout of the "
                                      "run's radius and spacing")
        return source["path"], None
    # a measure, mollified at two cells
    return measures.mollify(_measure(source, spec), 2.0 * max(layout.spacing), layout), None


_SLICE = "slice_t{:.6f}.grid"   # the file of the slice stamped t
_PROBLEM = _object({"radius": _positive, "spacing": _positive, "tau": _positive,
                    "t_end": _positive, "datum": _source(*_SOURCES)},
                   {"scheme": _text, "store_times": _list(_number, least=0)})
_COMPARISON = _object({}, {"kind": _one_of("gaussian_closed_form", "radial_representation"),
                           "window": _limit(0.0), "tolerance": _limit(), "time": _number})


def cmd_simulate(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    c = _section(cfg, "simulate config", {"norm": _norm, "problem": _PROBLEM}, {
        "inner": _object({}, {"tolerance": _positive, "max_iters": integer}),
        "monitors": _object({}, {"lambda": _positive, "ell": _number}),
        "checks": _object({}, {"dissipation_slack": _limit(), "weighted_l2_slack": _limit()}),
        "compare": _COMPARISON})
    spec, pc, checks, comp = c["norm"], c["problem"], c.get("checks", {}), c.get("compare")
    if comp is not None:  # a comparison that cannot hold for the datum is refused
        kind, source = comp.get("kind", "gaussian_closed_form"), pc["datum"]
        prof = source["profile"] if source["kind"] == "radial" else None
        unit_gaussian = prof is not None and np.array_equal(prof.values, np.exp(-prof.radii**2))
        if kind == "gaussian_closed_form" and not unit_gaussian:
            raise SpecValidationError("gaussian_closed_form holds only for the radial "
                                      "datum exp(-r^2) (a gaussian of amplitude 1 and "
                                      "scale 1); use radial_representation")
        if kind == "radial_representation" and prof is None:
            raise SpecValidationError("radial_representation comparison needs a radial datum")
    # the layout's zero field is not held through the solve
    datum, profile = _datum(pc.pop("datum"), spec,
                            flow.ball_layout(spec, pc["radius"], pc.pop("spacing")))
    mc = c.get("monitors", {})
    problem = flow.FlowProblem(norm=spec, datum=datum,
                               inner=flow.InnerSolverConfig(**c.get("inner", {})),
                               monitor_lambda=mc.get("lambda"), monitor_ell=mc.get("ell"), **pc)
    names = {_SLICE.format(k * problem.tau) for k in problem.stored}
    if len(names) < len(problem.stored):   # a save would overwrite another
        raise SpecValidationError(f"{len(problem.stored)} stored slices would share "
                                  f"the file names {sorted(names)}")
    if comp is not None:  # checked before stepping
        asked = comp.get("time", problem.t_end)
        if (k := problem.step_of(asked)) not in problem.stored:
            raise SpecValidationError(f"compare.time {asked} is not a stored time")
        t = k * problem.tau

    try:
        traj = flow.solve(problem)
    except ConvergenceError as exc:  # write the steps before it, then fail
        traj, failure = exc.partial, exc
    else:
        failure = None
        if comp is not None:  # the reference, which may refuse, before the first file
            window = traj.h0 <= comp.get("window", problem.radius / 2)
            r = traj.h0[window]
            if kind == "gaussian_closed_form":
                exact = (1 + 4 * t) ** (-spec.dimension / 2) * np.exp(-r ** 2 / (1 + 4 * t))
            else:
                exact = radial.radial_heat_profile(profile, spec.dimension, r, t)
    for name, series in traj.monitors.items():
        _write_csv(out / f"monitor_{name}.csv", ["t", name],
                   np.column_stack((traj.monitor_times, series)), timestamp)
    for stamp, gf in zip(traj.times, traj.slices):
        gf.save(out / _SLICE.format(stamp))
    if failure is not None:
        raise failure

    ok = True
    if "dissipation_slack" in checks and problem.scheme == "implicit_proximal":
        ok &= bool(np.all(np.diff(traj.monitors["energy"]) <= checks["dissipation_slack"]))
    if "weighted_l2_slack" in checks and "weighted_l2" in traj.monitors:
        w = traj.monitors["weighted_l2"]
        w = w[np.isfinite(w)]
        ok &= bool(np.all(w[1:] <= w[0] + checks["weighted_l2_slack"]))

    if comp is not None:
        gf = traj.slice_at(t)
        rel = np.abs(gf.values[window] - exact) / np.maximum(np.abs(exact), 1e-300)
        _write_csv(out / "comparison.csv", ["t", "max_abs_error", "max_rel_error"],
                   [(t, float(np.max(np.abs(gf.values[window] - exact))),
                     float(np.max(rel)))], timestamp)
        ok &= float(np.max(rel)) <= comp.get("tolerance", np.inf)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_radial_solve(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    c = _section(cfg, "radial-solve config", {
        "norm": _norm, "profile": _profile, "times": _list(_positive),
        "points": _list(_list(_number))},
        {"crosscheck": _object({"path": _grid}, {"tolerance": _limit()})})
    spec, points, cross = c["norm"], np.array(c["points"]), c.get("crosscheck")
    refs = None
    if cross is not None:
        ref = cross["path"]
        if ref.dimension != spec.dimension:
            raise SpecValidationError(f"crosscheck grid is {ref.dimension}-D, "
                                      f"the norm {spec.dimension}-D")
        refs = ref.sample_nearest(points)
    worst = 0.0
    rho = norms.dual_norm_eval(spec, points)
    header = [f"x{i+1}" for i in range(spec.dimension)] + ["t", "u"]
    if refs is not None:
        header.append("rel_error")
    n, N = len(points), spec.dimension    # per time, the rows x, t, u (, rel_error)
    table = np.empty((len(c["times"]) * n, len(header)))
    for rows, t in zip(np.split(table, len(c["times"])), c["times"]):
        rows[:, :N], rows[:, N] = points, t
        rows[:, N + 1] = vals = radial.radial_heat_profile(c["profile"], N, rho, t)
        if refs is not None:
            rows[:, N + 2] = rel = np.abs(vals - refs) / np.maximum(np.abs(vals), 1e-300)
            worst = max(worst, float(np.max(rel)))
    _write_csv(out / "radial_solution.csv", header, table, timestamp)
    if cross is not None and worst > cross.get("tolerance", np.inf):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_classify(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    c = _section(cfg, "classify config", {
        "norm": _norm, "measure": _source("atoms", "density", "radial_density"),
        "lambda_grid": _list(_positive)},
        {"windows": _list(_positive), "spacing": _positive, "stabilization_tol": _number})
    spec = c.pop("norm")
    if "spacing" in c and math.isinf(math.prod([c["spacing"]] * spec.dimension)):
        raise SpecValidationError(f"classify config spacing {c['spacing']!r}: the "
                                  f"lattice's cell volume overflows in {spec.dimension}-D")
    result = measures.classify(_measure(c.pop("measure"), spec), spec, c.pop("lambda_grid"), **c)
    _write_csv(out / "classification.csv", ["lambda", "window", "value", "stabilized"],
               [(lam, w, value, result.stabilized[lam])
                for (lam, w), value in result.table.items()], timestamp)
    summary = {"admissible": result.admissible, "lambda_star": result.lam_star,
               "horizon": result.horizon}
    (out / "classification.json").write_text(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_compare(cfg: dict, out: Path, seed, timestamp: bool) -> int:
    c = _section(cfg, "compare config", {"a": _grid, "b": _grid},
                 {"tolerance": _limit(), "relative": _flag})
    a, b = c["a"], c["b"]
    if not a.same_layout(b):
        raise SpecValidationError("grids have different layouts")
    diff = np.abs(a.values - b.values)
    denom = np.maximum(np.abs(a.values), 1e-300)
    max_abs = float(np.max(diff))
    max_rel = float(np.max(diff / denom))
    _write_csv(out / "comparison.csv", ["max_abs_diff", "max_rel_diff"],
               [(max_abs, max_rel)], timestamp)
    if "tolerance" in c:
        value = max_rel if c.get("relative", False) else max_abs
        if value > c["tolerance"]:
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
