"""Workload definitions: seed-driven CLI job lists and their output checks.

Each workload is a fixed list of `finslerheat` CLI jobs.  The seed draws
only the inputs that are meant to vary (the `radial-solve` points and the
`verify-norms` sample seed); every flow job is seed-independent, so the
solver counts of a workload repeat exactly from run to run.

A job's check returns a list of problems; an empty list means the outputs
are right.  Checks compare against references computed here, independent
of the package, wherever a closed form exists.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 3

ELLIPSE = {"family": "ellipse", "params": {"matrix": [[4, 0], [0, 1]]},
           "dimension": 2}
EUCLID = {"family": "euclidean", "params": {}, "dimension": 2}
SQUARE = {"family": "smoothed_polytope",
          "params": {"directions": [[1, 0], [0, 1]], "epsilon": 0.05},
          "dimension": 2}


def p_norm(p: float) -> dict:
    return {"family": "p_norm", "params": {"p": p}, "dimension": 2}


@dataclass
class Job:
    name: str
    command: str
    config: dict
    check: Callable[[Path, "Job"], list]
    expect: int = EXIT_OK        # documented exit code; 3 marks a known defect
    steps: int = 0               # time steps of a simulate job
    points: int = 0              # points x times of a radial-solve job


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(path: Path, name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in read_csv(path)])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_simulate(out: Path, job: Job) -> list:
    problems = []
    cfg = job.config
    names = ["energy", "mass", "inner_iterations"]
    if cfg.get("monitors", {}).get("lambda") is not None:
        names += ["weighted_l2", "weighted_l1_lambda"]
    if cfg.get("monitors", {}).get("ell") is not None:
        names += ["weighted_l1_local"]
    for name in names:
        path = out / f"monitor_{name}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        col = _column(path, name)
        if col.size != job.steps + 1:
            problems.append(f"{path.name}: {col.size} rows, want {job.steps + 1}")
        if not np.all(np.isfinite(col)):
            problems.append(f"{path.name}: non-finite values")
    if problems:
        return problems
    energy = _column(out / "monitor_energy.csv", "energy")
    if cfg["problem"].get("scheme", "implicit_proximal") == "implicit_proximal":
        if float(np.max(np.diff(energy))) > 1e-9:
            problems.append("energy increased along an implicit trajectory")
        iters = _column(out / "monitor_inner_iterations.csv", "inner_iterations")
        if np.any(iters[1:] < 1):
            problems.append("an implicit step reports no inner iterations")
    t_end = cfg["problem"]["t_end"]
    if not (out / f"slice_t{t_end:.6f}.grid").is_file():
        problems.append(f"missing final slice at t = {t_end}")
    tol = cfg.get("compare", {}).get("tolerance")
    if tol is not None:
        rel = _column(out / "comparison.csv", "max_rel_error")
        if not (rel.size == 1 and rel[0] <= tol):
            problems.append(f"comparison max_rel_error {rel} above {tol}")
    return problems


def _ellipse_gauss_reference(x: np.ndarray, t: float) -> np.ndarray:
    """exp(-H0^2) evolved to time t in two dimensions, H0^2 = x^T M^-1 x."""
    r2 = x[:, 0] ** 2 / 4.0 + x[:, 1] ** 2
    return np.exp(-r2 / (1.0 + 4.0 * t)) / (1.0 + 4.0 * t)


def _check_radial_solve(out: Path, job: Job) -> list:
    rows = read_csv(out / "radial_solution.csv")
    want = len(job.config["points"]) * len(job.config["times"])
    if len(rows) != want:
        return [f"radial_solution.csv: {len(rows)} rows, want {want}"]
    x = np.array([[float(r["x1"]), float(r["x2"])] for r in rows])
    t = np.array([float(r["t"]) for r in rows])
    u = np.array([float(r["u"]) for r in rows])
    worst = 0.0
    for tv in job.config["times"]:
        sel = t == tv
        ref = _ellipse_gauss_reference(x[sel], tv)
        worst = max(worst, float(np.max(np.abs(u[sel] - ref) / ref)))
    return [] if worst <= 1e-6 else [f"radial-solve off the closed form by {worst:.2e}"]


def _check_verify_norms(out: Path, job: Job) -> list:
    # split from the right: family labels such as
    # "smoothed_polytope(k=2,eps=0.05)" carry an unquoted comma
    lines = (out / "norm_identities.csv").read_text().splitlines()[1:]
    rows = [line.rsplit(",", 5) for line in lines]
    want = 7 * len(job.config["norms"])
    if len(rows) != want:
        return [f"norm_identities.csv: {len(rows)} rows, want {want}"]
    bad = [f"{r[0]}/{r[1]}" for r in rows if r[5] != "True"]
    return [f"identities failed: {', '.join(bad)}"] if bad else []


def _check_classify(out: Path, job: Job) -> list:
    got = json.loads((out / "classification.json").read_text())
    if got.get("admissible") is not True or got.get("lambda_star") != 0.3 \
            or not math.isclose(got.get("horizon") or 0.0, 1 / 1.2, abs_tol=1e-12):
        return [f"classification {got}, want lambda_star 0.3, horizon 1/1.2"]
    return []


def _check_verify_exact(out: Path, job: Job) -> list:
    rows = read_csv(out / "exact_residuals.csv")
    levels = job.config["cases"][0]["levels"]
    if len(rows) != levels:
        return [f"exact_residuals.csv: {len(rows)} rows, want {levels}"]
    res = np.array([float(r["max_residual"]) for r in rows])
    if not (np.all(np.isfinite(res)) and np.all(np.diff(res) < 0)):
        return [f"residuals do not decrease under refinement: {res}"]
    return []


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _simulate(name: str, norm: dict, radius: float, spacing: float,
              profile: dict, scheme: str, tau: float, steps: int,
              tolerance: float, extra: dict, expect: int = EXIT_OK) -> Job:
    t_end = round(tau * steps, 12)
    cfg = {"norm": norm,
           "problem": {"radius": radius, "spacing": spacing,
                       "datum": {"kind": "radial", "profile": profile},
                       "scheme": scheme, "tau": tau, "t_end": t_end,
                       "store_times": [t_end]},
           "inner": {"tolerance": tolerance}}
    cfg.update(extra)
    return Job(name, "simulate", cfg, _check_simulate, expect=expect, steps=steps)


def ellipse_flow(seed: int) -> list[Job]:
    """513x257 ellipse grid of the acceptance comparison run, fewer steps."""
    gauss = {"type": "gaussian", "r_max": 16.0}
    checks = {"checks": {"dissipation_slack": 1e-9, "weighted_l2_slack": 1e-6},
              "compare": {"kind": "radial_representation", "window": 0.5,
                          "tolerance": 2e-2}}
    implicit = dict(checks, monitors={"lambda": 0.5, "ell": 0.25})
    explicit = dict(checks, monitors={"lambda": 0.5})
    return [
        _simulate("implicit-tau1e-3", ELLIPSE, 6.0, 6 / 128, gauss,
                  "implicit_proximal", 1e-3, 10, 1e-7, implicit),
        _simulate("implicit-tau1e-2", ELLIPSE, 6.0, 6 / 128, gauss,
                  "implicit_proximal", 1e-2, 3, 1e-7, implicit),
        _simulate("explicit-tau1e-4", ELLIPSE, 6.0, 6 / 128, gauss,
                  "explicit_euler", 1e-4, 100, 1e-7, explicit),
    ]


def pnorm_flow(seed: int) -> list[Job]:
    """Nonlinear flux on the unit p-norm ball from exp(-2 H0^2)."""
    datum = {"type": "gaussian", "r_max": 8.0, "scale": 1 / math.sqrt(2.0)}
    checks = {"checks": {"dissipation_slack": 1e-9}}
    return [
        _simulate("p3-h1/32", p_norm(3.0), 1.0, 1 / 32, datum,
                  "implicit_proximal", 1e-2, 3, 1e-8, checks),
        _simulate("p3-h1/64", p_norm(3.0), 1.0, 1 / 64, datum,
                  "implicit_proximal", 1e-2, 2, 1e-8, checks),
        _simulate("p1.5-h1/8", p_norm(1.5), 1.0, 1 / 8, datum,
                  "implicit_proximal", 1e-3, 2, 1e-8, checks),
        # known defect: the p < 2 inner solver stalls at 10,000 iterations
        # and the CLI exits 3; kept so that a fix shows as one fewer failure
        _simulate("p1.5-h1/16", p_norm(1.5), 1.0, 1 / 16, datum,
                  "implicit_proximal", 1e-3, 1, 1e-8, checks,
                  expect=EXIT_NO_CONVERGENCE),
    ]


def oracles(seed: int) -> list[Job]:
    """The verification commands: representation formula, norms, growth."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(4000, 2)).tolist()
    times = [0.05, 1.0]
    norm_seed = int(rng.integers(1, 2**31))
    radial = Job("radial-solve", "radial-solve",
                 {"norm": ELLIPSE, "profile": {"type": "gaussian", "r_max": 16.0},
                  "times": times, "points": points},
                 _check_radial_solve, points=len(points) * len(times))
    verify = Job("verify-norms", "verify-norms",
                 {"seed": norm_seed, "samples": 300,
                  "norms": [EUCLID, ELLIPSE, SQUARE]}, _check_verify_norms)
    numeric = Job("verify-norms-numeric", "verify-norms",
                  {"seed": norm_seed, "samples": 300, "norms": [ELLIPSE],
                   "dual": {"method": "sphere_maximization"}},
                  _check_verify_norms)
    classify = Job("classify", "classify",
                   {"norm": EUCLID,
                    "measure": {"kind": "radial_density",
                                "profile": {"type": "exp_power", "r_max": 16.0,
                                            "coefficient": 0.25, "power": 2}},
                    "lambda_grid": [0.1, 0.2, 0.3, 0.5],
                    "windows": [4, 6, 8, 12], "spacing": 0.25},
                   _check_classify)
    exact = Job("verify-exact", "verify-exact",
                {"cases": [{"kind": "gauss_kernel", "norm": ELLIPSE,
                            "box": [[-4, 4], [-2, 2]], "resolution": [128, 64],
                            "t": 0.5, "dt": 0.01, "levels": 3,
                            "order_window": [1.5, 2.5]}]},
                _check_verify_exact)
    polytope = _simulate(
        "polytope-flow", SQUARE, 1.0, 1 / 16,
        {"type": "gaussian", "r_max": 8.0, "scale": 1 / math.sqrt(2.0)},
        "implicit_proximal", 1e-3, 5, 1e-8,
        {"checks": {"dissipation_slack": 1e-9}, "monitors": {"lambda": 0.5}})
    return [radial, verify, numeric, classify, exact, polytope]


def pnorm_oracles(seed: int) -> list[Job]:
    """Every non-quadratic job: the p-norm flows, then the oracles."""
    return pnorm_flow(seed) + oracles(seed)


WORKLOADS = {
    "ellipse-flow": ellipse_flow,
    "pnorm-flow": pnorm_flow,
    "oracles": oracles,
    "pnorm-oracles": pnorm_oracles,
}
