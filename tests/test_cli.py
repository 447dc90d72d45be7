import csv
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import finslerheat
from finslerheat import cli, flow, measures, norms, operators, radial, solutions
from finslerheat.cli import main
from finslerheat.errors import DomainError, SpecValidationError
from finslerheat.grids import (GridFunction, RadialProfile, empty_layout,
                               grid_from_function, observed_order)

import output_digests

EUCLID_JSON = {"family": "euclidean", "params": {}, "dimension": 2}
ELLIPSE_JSON = {"family": "ellipse", "params": {"matrix": [[4, 0], [0, 1]]},
                "dimension": 2}


def _run(tmp_path, command, cfg, name="cfg.json", out="out", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    outdir = tmp_path / out
    return main([command, "--config", str(path), "--out", str(outdir),
                 "--no-timestamp", *extra]), outdir


def test_verify_norms_default_suite(tmp_path):
    cfg = {"seed": 1, "samples": 200, "norms": [EUCLID_JSON, ELLIPSE_JSON]}
    code, outdir = _run(tmp_path, "verify-norms", cfg)
    assert code == 0
    text = (outdir / "norm_identities.csv").read_text()
    assert "duality_inequality" in text and "True" in text


def test_verify_norms_csv_quotes_labels_with_commas(tmp_path):
    specs = [{"family": "smoothed_polytope", "dimension": 2,
              "params": {"directions": [[1, 0], [0, 1]], "epsilon": 0.05}},
             {"family": "p_norm", "params": {"p": 3}, "dimension": 2}]
    labels = ["smoothed_polytope(k=2,eps=0.05)", "p_norm(p=3,N=2)"]
    cfg = {"seed": 1, "samples": 200, "norms": specs}
    code, outdir = _run(tmp_path, "verify-norms", cfg)
    assert code == 0
    with open(outdir / "norm_identities.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * len(specs)
    assert all(len(row) == 6 and None not in row for row in rows)
    assert [row["family"] for row in rows] == [label for label in labels
                                               for _ in range(7)]


def _per_cell_csv(path, header, rows):
    """The writer `cli._write_csv` replaced for tables of numbers: csv.writer
    and one 17-digit format per cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(f"{float(c):.17g}" if isinstance(c, (int, float, np.floating))
                            and not isinstance(c, bool) else str(c) for c in row)


SPECIAL_CELLS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 3, -7, 2**60 + 1, np.float64(0.1),
                 np.float64(-1e-300), np.float32(0.1), 5e-324, 1.7976931348623157e308]


@settings(max_examples=60)
@given(cells=st.lists(st.one_of(st.floats(), st.integers(-2**70, 2**70),
                                st.sampled_from(SPECIAL_CELLS)), min_size=1, max_size=40),
       width=st.integers(1, 4))
@example(cells=SPECIAL_CELLS, width=1)
@example(cells=SPECIAL_CELLS[:12], width=4)
def test_numeric_csv_bytes_match_the_per_cell_writer(tmp_path_factory, cells, width):
    tmp = tmp_path_factory.mktemp("csv")
    rows = [tuple(cells[i:i + width]) for i in range(0, len(cells) - width + 1, width)]
    # a list of rows takes the per-cell path, numbers only or with a string,
    # a bool, a numpy int or a ragged row; the numbers only as a 2-D float
    # array take the array path, to the same bytes
    for table in (rows, np.asarray(rows, dtype=float).reshape(-1, width),
                  rows + [("a,b", True)], rows + [(np.int64(2**62),)],
                  rows + [tuple(cells[:width + 1])]):
        cli._write_csv(tmp / "new.csv", ["c"] * width, table, timestamp=False)
        _per_cell_csv(tmp / "old.csv", ["c"] * width,
                      rows if isinstance(table, np.ndarray) else table)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.integers(0, 5000), width=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(rows=1, width=1, seed=0)
@example(rows=4097, width=2, seed=1)
def test_an_array_table_writes_the_bytes_of_its_rows(tmp_path, rows, width, seed):
    """`_write_csv` of a 2-D float array, a `grids.blocks` block of rows at
    a time, writes the bytes of the list path of its rows (`tolist`), for
    tables of one block or several, special values among them."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
    hit = rng.random((rows, width)) < 0.1
    table[hit] = rng.choice(special, int(hit.sum()))
    cli._write_csv(tmp_path / "array.csv", ["c"] * width, table, timestamp=False)
    cli._write_csv(tmp_path / "list.csv", ["c"] * width, table.tolist(), timestamp=False)
    assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


def test_default_header_is_the_utc_time_over_the_untimestamped_bytes(tmp_path):
    # every other test passes --no-timestamp; without it each CSV opens
    # with "# generated <UTC time in ISO 8601>" and is otherwise the same
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "samples": 20, "norms": [ELLIPSE_JSON]}))
    for out, flags in (("stamped", ()), ("plain", ("--no-timestamp",))):
        assert main(["verify-norms", "--config", str(config), "--out", str(tmp_path / out),
                     *flags]) == 0
    head, rest = (tmp_path / "stamped" / "norm_identities.csv").read_bytes().split(b"\n", 1)
    assert head.startswith(b"# generated ")
    stamp = datetime.fromisoformat(head.decode()[len("# generated "):])
    assert stamp.utcoffset() == timedelta(0)
    assert rest == (tmp_path / "plain" / "norm_identities.csv").read_bytes()


def test_unreadable_grid_paths_are_config_errors(tmp_path, capsys):
    """Each place a config names a grid file: the density measure, the grid
    datum, radial-solve's crosscheck and compare's a and b; and a file that
    holds no grid dump (an empty one raised IndexError)."""
    grid = tmp_path / "there.grid"
    grid_from_function([(-1, 1), (-1, 1)], (8, 8),
                       lambda c: np.sum(c**2, axis=-1)).save(grid)
    missing = str(tmp_path / "nope.grid")
    (tmp_path / "empty.grid").write_bytes(b"")
    (tmp_path / "text.grid").write_text('{"a": 1}')
    gauss = {"type": "gaussian", "r_max": 4.0}
    cases = [
        ("classify", {"norm": EUCLID_JSON, "measure": {"kind": "density", "path": missing},
                      "lambda_grid": [0.1]}),
        ("simulate", {"norm": EUCLID_JSON,
                      "problem": {"radius": 1.0, "spacing": 0.25, "tau": 1e-3, "t_end": 1e-3,
                                  "datum": {"kind": "grid", "path": missing}}}),
        ("radial-solve", {"norm": EUCLID_JSON, "profile": gauss, "times": [0.1],
                          "points": [[0.0, 0.0]], "crosscheck": {"path": missing}}),
        ("compare", {"a": missing, "b": str(grid)}),
        ("compare", {"a": str(grid), "b": missing}),
        ("compare", {"a": str(grid), "b": str(tmp_path)}),     # a directory
        ("compare", {"a": str(tmp_path / "empty.grid"), "b": str(grid)}),
        ("compare", {"a": str(grid), "b": str(tmp_path / "text.grid")}),
    ]
    for n, (command, cfg) in enumerate(cases):
        code, outdir = _run(tmp_path, command, cfg, out=f"out{n}")
        err = capsys.readouterr().err
        assert code == 2, (command, cfg)
        assert err.startswith("config error") and "cannot read grid" in err
        assert not list(outdir.iterdir())


def test_a_density_whose_total_mass_overflows_is_a_config_error(tmp_path, capsys):
    # every node of 1 is finite, but on a box 4e200 wide the total |mass|
    # is not: classify returned NaN for every window with exit 0 (as on a
    # grid of 1e308, which the value bound now refuses), and refuses the grid
    grid = tmp_path / "huge.grid"
    grid_from_function([(-2e200, 2e200), (-2e200, 2e200)], (8, 8),
                       lambda c: np.ones(c.shape[:-1])).save(grid)
    code, outdir = _run(tmp_path, "classify", {
        "norm": EUCLID_JSON, "measure": {"kind": "density", "path": str(grid)},
        "lambda_grid": [0.1, 0.3]})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and "finite total, not inf" in err
    assert not list(outdir.iterdir())


def test_data_past_max_value_are_config_errors(tmp_path, capsys):
    # a datum that cannot be represented is a bad config: simulate on the
    # unit ball (h = 1/8, tau = 1e-2, lambda = 0.5) with one atom of mass
    # 1e300 or a grid datum of 1e200 warned of an overflow in the L^2 norm,
    # wrote six monitor CSVs and exited 3; a 9 x 9 density of 1e305 passed
    # its total and overflowed in classify's FFT.  Each is refused by name
    # before any work, with exit 2 and no file
    datum = tmp_path / "datum.grid"
    layout = flow.ball_layout(norms.euclidean(2), 1.0, 0.125)
    layout.with_values(np.full(layout.values.shape, 1e200)).save(datum)
    density = tmp_path / "density.grid"
    grid_from_function([(-1, 1), (-1, 1)], (8, 8),
                       lambda c: np.full(c.shape[:-1], 1e305)).save(density)
    problem = {"radius": 1.0, "spacing": 0.125, "tau": 1e-2, "t_end": 2e-2}
    cases = [("simulate", "atom masses", {
                 "norm": EUCLID_JSON, "monitors": {"lambda": 0.5},
                 "problem": {**problem, "datum": {"kind": "atoms", "atoms": [[[0, 0], 1e300]]}}}),
             ("simulate", "flow data", {
                 "norm": EUCLID_JSON, "monitors": {"lambda": 0.5},
                 "problem": {**problem, "datum": {"kind": "grid", "path": str(datum)}}}),
             ("classify", "density values", {
                 "norm": EUCLID_JSON, "measure": {"kind": "density", "path": str(density)},
                 "lambda_grid": [0.1, 0.3]})]
    for n, (command, name, cfg) in enumerate(cases):
        code, outdir = _run(tmp_path, command, cfg, out=f"out{n}")
        err = capsys.readouterr().err
        assert code == 2, command
        assert err.startswith("config error") and f"{name} must be at most 1e+100" in err
        assert not list(outdir.iterdir())


def test_verify_norms_requires_seed(tmp_path):
    code, _ = _run(tmp_path, "verify-norms",
                   {"samples": 10, "norms": [EUCLID_JSON]})
    assert code == 2


def test_verify_norms_rejects_p1(tmp_path):
    cfg = {"seed": 1, "samples": 10,
           "norms": [{"family": "p_norm", "params": {"p": 1.0}, "dimension": 2}]}
    code, _ = _run(tmp_path, "verify-norms", cfg)
    assert code == 2


def test_verify_norms_unknown_key_rejected(tmp_path):
    cfg = {"seed": 1, "norms": [EUCLID_JSON], "bogus": True}
    code, _ = _run(tmp_path, "verify-norms", cfg)
    assert code == 2


def test_verify_norms_impossible_tolerance_fails(tmp_path):
    cfg = {"seed": 1, "samples": 200, "norms": [ELLIPSE_JSON],
           "tolerances": {"duality_inequality": 1e-300,
                          "inversion_primal": 1e-300}}
    code, _ = _run(tmp_path, "verify-norms", cfg)
    assert code == 1


def test_verify_norms_rejects_a_misspelled_tolerance(tmp_path):
    cfg = {"seed": 1, "samples": 200, "norms": [ELLIPSE_JSON],
           "tolerances": {"inversion_primall": 1e-300}}
    code, outdir = _run(tmp_path, "verify-norms", cfg)
    assert code == 2
    assert not (outdir / "norm_identities.csv").exists()


@pytest.mark.parametrize("dual", [{}, {"method": "sphere_maximization"}])
def test_identity_suite_and_cli_tolerances_list_the_same_names(tmp_path, dual):
    names = list(cli._IDENTITY_DEFAULTS)
    oracle = norms.DualEvalConfig() if dual else None
    assert list(norms.verify_identities(norms.ellipse(np.diag([4.0, 1.0])), 20,
                                        oracle, seed=1)) == names
    code, outdir = _run(tmp_path, "verify-norms",
                        {"seed": 1, "samples": 20, "norms": [ELLIPSE_JSON],
                         "dual": dual})
    assert code == 0
    with open(outdir / "norm_identities.csv", newline="") as fh:
        assert [row["identity"] for row in csv.DictReader(fh)] == names


@pytest.mark.parametrize("dual", [{"method": "sphere_maximisation"},
                                  {"method": "sphere_maximization", "tolerance": -1.0}])
def test_verify_norms_rejects_a_bad_dual_setting(tmp_path, capsys, dual):
    cfg = {"seed": 1, "samples": 20, "norms": [ELLIPSE_JSON], "dual": dual}
    code, outdir = _run(tmp_path, "verify-norms", cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (outdir / "norm_identities.csv").exists()


def test_verify_norms_unconverged_oracle_exits_3(tmp_path, capsys):
    cfg = {"seed": 1, "samples": 50, "norms": [ELLIPSE_JSON],
           "dual": {"method": "sphere_maximization", "sphere_samples": 4}}
    code, _ = _run(tmp_path, "verify-norms", cfg)
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


def test_verify_exact_gauss_case(tmp_path):
    cfg = {"cases": [{"kind": "gauss_kernel", "norm": ELLIPSE_JSON,
                      "box": [[-4, 4], [-2, 2]], "resolution": [64, 32],
                      "t": 0.5, "dt": 0.01, "levels": 2,
                      "order_window": [1.5, 2.5]}]}
    code, outdir = _run(tmp_path, "verify-exact", cfg)
    assert code == 0
    assert "gauss_kernel" in (outdir / "exact_residuals.csv").read_text()


def test_verify_exact_blowup_property_row(tmp_path):
    cfg = {"cases": [{"kind": "blowup", "params": {"lam": 0.25},
                      "norm": EUCLID_JSON, "box": [[-2, 2], [-2, 2]],
                      "resolution": [32, 32], "t": 0.5, "dt": 0.005,
                      "levels": 2, "order_window": [1.4, 2.6]}]}
    code, outdir = _run(tmp_path, "verify-exact", cfg)
    assert code == 0
    assert "blowup_min_at_origin" in (outdir / "exact_residuals.csv").read_text()


def test_verify_exact_blowup_evaluates_h0_once_per_level_and_once_for_the_origin(
        tmp_path, monkeypatch):
    """The blow-up case's origin check takes H0 once from
    `norms.dual_norm_nodes` and its closed form from that H0: with the
    residual's one H0 per level, H0 is evaluated at 17^2 + 33^2 + 17^2
    nodes.  It evaluated H0 twice over the coarse layout's coordinates."""
    nodes, dual_norm_eval = [], norms.dual_norm_eval

    def counting(norm, x):
        nodes.append(int(np.prod(np.shape(x)[:-1])))
        return dual_norm_eval(norm, x)
    monkeypatch.setattr(norms, "dual_norm_eval", counting)
    monkeypatch.setattr(solutions, "dual_norm_eval", counting)
    cfg = {"cases": [{"kind": "blowup", "params": {"lam": 0.25},
                      "norm": ELLIPSE_JSON, "box": [[-2, 2], [-2, 2]],
                      "resolution": [16, 16], "t": 0.5, "dt": 0.005, "levels": 2}]}
    code, outdir = _run(tmp_path, "verify-exact", cfg)
    assert code == 0
    assert sum(nodes) == 17**2 + 33**2 + 17**2
    assert (outdir / "exact_residuals.csv").read_text().splitlines()[-1] == \
        "blowup_min_at_origin,ellipse(N=2),0.25,nan,0,nan,True"


def test_verify_exact_blowup_row_passes_off_the_origin(tmp_path):
    # 31 cells on [-2, 2]: no node at the origin, so the minimum over the
    # grid is u at the four nodes of least H0, above u(0, t)
    cfg = {"cases": [{"kind": "blowup", "params": {"lam": 0.25},
                      "norm": EUCLID_JSON, "box": [[-2, 2], [-2, 2]],
                      "resolution": [31, 31], "t": 0.5, "dt": 0.005,
                      "levels": 2}]}
    code, outdir = _run(tmp_path, "verify-exact", cfg)
    assert code == 0
    with open(outdir / "exact_residuals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["pass"] for row in rows if row["family"] == "blowup"] == ["True"] * 2
    assert [(row["family"], row["pass"]) for row in rows][-1] == \
        ("blowup_min_at_origin", "True")


EUCLID3_JSON = {"family": "euclidean", "params": {}, "dimension": 3}
# one case of each kind, with a library twin (norm, params); barenblatt's
# window cannot hold, so its rows read False
_FIVE_KINDS = [
    ({"kind": "gauss_kernel", "norm": ELLIPSE_JSON, "box": [[-4, 4], [-2, 2]],
      "resolution": [32, 16], "t": 0.5, "dt": 0.01, "levels": 3,
      "order_window": [1.5, 2.5]}, norms.ellipse(np.diag([4.0, 1.0]))),
    ({"kind": "blowup", "params": {"lam": 0.25}, "norm": EUCLID_JSON,
      "box": [[-1, 1], [-1, 1]], "resolution": [16, 16], "t": 0.5, "dt": 0.005},
     norms.euclidean(2)),
    ({"kind": "barenblatt", "params": {"m": 2.0, "C": 1.0},
      "norm": {"family": "euclidean", "params": {}, "dimension": 1}, "box": [[-6, 6]],
      "resolution": [96], "t": 1.5, "dt": 0.002, "order_window": [5, 6]},
     norms.euclidean(1)),
    ({"kind": "talenti", "params": {"p": 2.0, "A": 1.0, "B": 1 / 3}, "norm": EUCLID3_JSON,
      "box": [[0.5, 1.5]] * 3, "resolution": [8] * 3, "levels": 2}, norms.euclidean(3)),
    ({"kind": "singular_poly", "params": {"m_order": 1}, "norm": EUCLID_JSON,
      "box": [[-1.5, 1.5], [-1.5, 1.5]], "resolution": [32, 32]}, norms.euclidean(2)),
]


def _exact_rows(outdir):
    with open(outdir / "exact_residuals.csv", newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def test_exact_residual_rows_are_the_library_checks_laid_out(tmp_path):
    # the layout only: each value comes from the library, so no float is pinned
    code, outdir = _run(tmp_path, "verify-exact", {"cases": [c for c, _ in _FIVE_KINDS]})
    assert code == 1
    want = []
    for case, norm in _FIVE_KINDS:
        sol = solutions.SolutionSpec(case["kind"], norm, **case.get("params", {}))
        layout = empty_layout(case["box"], case["resolution"])
        h = max(layout.spacing)
        if sol.kind == "singular_poly":
            residual = solutions.singular_poly_check(sol, layout)
            want.append((sol.kind, norm.label(), h, np.nan, residual, np.nan, "True"))
            continue
        rep = solutions.pde_residual(sol, layout, case.get("t", 0.0), case.get("dt", 1e-2),
                                     case.get("levels", 2))
        window = case.get("order_window", [-np.inf, np.inf])
        passed = str(window[0] <= rep.order <= window[1])
        for i, (hi, dt, mx) in enumerate(zip(rep.spacings, rep.time_steps, rep.max_residuals)):
            order = np.nan if i == 0 else observed_order(rep.max_residuals[i - 1:i + 1],
                                                         rep.spacings[i - 1:i + 1])
            want.append((sol.kind, norm.label(), hi, dt, mx, order, passed))
        if sol.kind == "blowup":
            want.append(("blowup_min_at_origin", norm.label(), h, np.nan, 0.0, np.nan, "True"))
    header, rows = _exact_rows(outdir)
    assert header == ["family", "norm", "h", "dt", "max_residual", "order", "pass"]
    assert [(r[0], r[1], r[6]) for r in rows] == [(w[0], w[1], w[6]) for w in want]
    assert [w[6] for w in want].count("False") == 2
    np.testing.assert_array_equal(np.array([r[2:6] for r in rows], dtype=float),
                                  np.array([w[2:6] for w in want], dtype=float))


def test_rows_without_a_time_difference_write_nan_dt(tmp_path):
    # the stationary talenti levels, the singular row and the blowup
    # property row take no time step; every timed level halves the case's dt
    cases = [c for c, _ in _FIVE_KINDS if c["kind"] != "barenblatt"]
    code, outdir = _run(tmp_path, "verify-exact", {"cases": cases})
    assert code == 0
    rows = _exact_rows(outdir)[1]
    untimed = [r for r in rows if r[0] in ("talenti", "singular_poly", "blowup_min_at_origin")]
    assert len(untimed) == 4 and all(r[3] == "nan" for r in untimed)
    for case in cases[:2]:
        steps = [float(r[3]) for r in rows if r[0] == case["kind"]]
        assert steps == [case["dt"] / 2**level for level in range(case.get("levels", 2))]


def test_classification_rows_run_lambda_outer_window_inner(tmp_path):
    atoms = [[[0.0, 0.0], 1.0], [[1.0, 0.0], -0.5]]
    cfg = {"norm": EUCLID_JSON, "measure": {"kind": "atoms", "atoms": atoms},
           "lambda_grid": [0.5, 0.1, 0.5, 0.3], "windows": [8, 4, 8, 6], "spacing": 0.25}
    code, outdir = _run(tmp_path, "classify", cfg)
    assert code == 0
    result = measures.classify(measures.measure_from_atoms(atoms), norms.euclidean(2),
                               cfg["lambda_grid"], windows=cfg["windows"], spacing=0.25)
    want = [(lam, w, result.table[(lam, w)], str(result.stabilized[lam]))
            for lam in (0.1, 0.3, 0.5) for w in (4.0, 6.0, 8.0)]
    with open(outdir / "classification.csv", newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["lambda", "window", "value", "stabilized"]
        rows = [(float(a), float(b), float(c), d) for a, b, c, d in reader]
    assert rows == want


def test_simulate_zero_datum(tmp_path):
    cfg = {"norm": EUCLID_JSON,
           "problem": {"radius": 1.0, "spacing": 0.125,
                       "datum": {"kind": "radial",
                                 "profile": {"type": "bump", "r_max": 4.0,
                                             "amplitude": 0.0}},
                       "tau": 1e-3, "t_end": 5e-3},
           "checks": {"dissipation_slack": 1e-9}}
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0
    text = (outdir / "monitor_mass.csv").read_text()
    assert all(float(line.split(",")[1]) == 0.0
               for line in text.splitlines()[1:])


def test_simulate_unstable_explicit_is_config_error(tmp_path):
    cfg = {"norm": EUCLID_JSON,
           "problem": {"radius": 1.0, "spacing": 0.125,
                       "datum": {"kind": "radial",
                                 "profile": {"type": "gaussian", "r_max": 4.0}},
                       "scheme": "explicit_euler", "tau": 0.5, "t_end": 1.0}}
    code, _ = _run(tmp_path, "simulate", cfg)
    assert code == 2


def test_simulate_gaussian_closed_form_comparison(tmp_path):
    cfg = {"norm": EUCLID_JSON,
           "problem": {"radius": 4.0, "spacing": 1 / 16,
                       "datum": {"kind": "radial",
                                 "profile": {"type": "gaussian", "r_max": 12.0}},
                       "tau": 2e-3, "t_end": 0.05, "store_times": [0.05]},
           "inner": {"tolerance": 1e-8},
           "checks": {"dissipation_slack": 1e-9},
           "compare": {"kind": "gaussian_closed_form", "window": 1.5,
                       "tolerance": 2e-2}}
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0
    assert (outdir / "slice_t0.050000.grid").exists()
    line = (outdir / "comparison.csv").read_text().splitlines()[-1]
    assert float(line.split(",")[-1]) <= 2e-2


def _gaussian_flow(profile, store_times=(0.05,), **extra):
    return {"norm": EUCLID_JSON,
            "problem": {"radius": 2.0, "spacing": 1 / 8,
                        "datum": {"kind": "radial", "profile": profile},
                        "tau": 1e-2, "t_end": 0.05,
                        "store_times": list(store_times)},
            **extra}


def test_simulate_closed_form_comparison_needs_the_unit_gaussian(tmp_path, capsys):
    compare = {"compare": {"window": 1.0}}
    for profile in ({"type": "gaussian", "r_max": 8.0, "amplitude": 3},
                    {"type": "gaussian", "r_max": 8.0, "scale": 0.5},
                    {"type": "bump", "r_max": 8.0}):
        code, outdir = _run(tmp_path, "simulate", _gaussian_flow(profile, **compare))
        assert code == 2
        assert "radial_representation" in capsys.readouterr().err
        assert not (outdir / "comparison.csv").exists()
    code, _ = _run(tmp_path, "simulate", _gaussian_flow(
        {"type": "gaussian", "r_max": 8.0, "amplitude": 1.0}, **compare))
    assert code == 0


def test_simulate_closed_form_comparison_takes_samples_of_the_unit_gaussian(tmp_path):
    # the datum decides, not its type: exp(-r^2) sampled by hand is admitted
    r = np.linspace(0.0, 8.0, 257)
    profile = {"type": "samples", "radii": r.tolist(), "values": np.exp(-r**2).tolist()}
    code, outdir = _run(tmp_path, "simulate", _gaussian_flow(profile, compare={"window": 1.0}))
    assert code == 0
    assert (outdir / "comparison.csv").exists()


def test_simulate_rejects_store_times_outside_the_run(tmp_path):
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0},
                         store_times=(0.1, -0.01))
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 2
    assert not list(outdir.glob("slice_*.grid"))


def test_simulate_rejects_an_unstored_compare_time_before_stepping(tmp_path, capsys):
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0}, store_times=(),
                         compare={"time": 0.03})
    cfg["problem"]["radius"] = 1.0
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 2
    assert "compare.time" in capsys.readouterr().err
    assert not (outdir / "monitor_energy.csv").exists()
    cfg["problem"]["store_times"] = [0.03]
    code, outdir = _run(tmp_path, "simulate", cfg, out="stored")
    assert code == 0
    rows = (outdir / "comparison.csv").read_text().splitlines()
    assert float(rows[1].split(",")[0]) == pytest.approx(0.03)


def test_simulate_compares_at_every_store_time_it_accepts(tmp_path):
    # 0.030000005 is step 3 to 5e-7 steps: admitted as a store time, so the
    # comparison must find the slice stored for it, and compare at that
    # slice's own stamp 3 tau = 0.03
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0},
                         store_times=(0.030000005,), compare={"time": 0.030000005})
    cfg["problem"].update(radius=1.0, t_end=0.03)
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0
    assert (outdir / "slice_t0.030000.grid").exists()
    rows = (outdir / "comparison.csv").read_text().splitlines()
    assert float(rows[1].split(",")[0]) == 0.03


def test_simulate_mollifies_a_measure_datum(tmp_path):
    cfg = _gaussian_flow({}, store_times=())
    cfg["problem"]["datum"] = {"kind": "atoms",
                               "atoms": [[[0.0, 0.0], 1.0], [[0.5, 0.25], -0.5]]}
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0
    with open(outdir / "monitor_mass.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    assert float(first["t"]) == 0.0
    assert float(first["mass"]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("datum, measure", [
    ({"kind": "atoms", "atoms": [[[0.0, 0.0], 1.0], [[0.5, 0.25], -0.5]]},
     measures.measure_from_atoms([((0.0, 0.0), 1.0), ((0.5, 0.25), -0.5)])),
    ({"kind": "radial_density", "profile": {"type": "gaussian", "r_max": 8.0}},
     measures.measure_from_radial(RadialProfile.from_function(
         lambda r: np.exp(-r**2), 8.0, 2049), norms.euclidean(2)))])
def test_simulate_mollifies_measures_at_two_cells_on_the_ball_layout(
        tmp_path, datum, measure):
    cfg = _gaussian_flow({}, store_times=(0.0, 0.02))
    cfg["problem"]["datum"] = datum
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0
    spec = norms.euclidean(2)
    lay = flow.ball_layout(spec, 2.0, 1 / 8)
    traj = flow.solve(flow.FlowProblem(
        norm=spec, radius=2.0, datum=measures.mollify(measure, 2 / 8, lay),
        tau=1e-2, t_end=0.05, store_times=(0.0, 0.02)))
    assert len(traj.slices) == 3
    for stamp, gf in zip(traj.times, traj.slices):
        assert (outdir / f"slice_t{stamp:.6f}.grid").read_bytes() == gf.to_bytes()


def test_classify_and_simulate_read_a_density_grid_on_another_layout(tmp_path):
    # a density measure is the grid that its path names: classify takes the
    # centres over that grid's nodes, and simulate samples it at the nearest
    # node of the ball layout, then mollifies it there at two cells
    grid_from_function([(-8, 8), (-8, 8)], (64, 64),
                       lambda c: np.exp(-np.sum(c**2, axis=-1))).save(tmp_path / "d.grid")
    density = GridFunction.load(tmp_path / "d.grid")
    source, measure = ({"kind": "density", "path": str(tmp_path / "d.grid")},
                       measures.measure_from_density(density))
    spec = norms.euclidean(2)
    cfg = {"norm": EUCLID_JSON, "measure": source, "lambda_grid": [0.1, 0.3],
           "windows": [4, 5, 6]}
    code, outdir = _run(tmp_path, "classify", cfg, out="classify")
    assert code == 0
    result = measures.classify(measure, spec, [0.1, 0.3], windows=[4, 5, 6])
    with open(outdir / "classification.csv", newline="") as fh:
        assert [float(row["value"]) for row in csv.DictReader(fh)] == list(result.table.values())
    assert json.loads((outdir / "classification.json").read_text())["lambda_star"] \
        == result.lam_star

    cfg = _gaussian_flow({}, store_times=(0.0,))
    cfg["problem"]["datum"] = source
    code, outdir = _run(tmp_path, "simulate", cfg, out="simulate")
    assert code == 0
    lay = flow.ball_layout(spec, 2.0, 1 / 8)
    assert not density.same_layout(lay)
    traj = flow.solve(flow.FlowProblem(
        norm=spec, radius=2.0, datum=measures.mollify(measure, 2 / 8, lay),
        tau=1e-2, t_end=0.05, store_times=(0.0,)))
    assert len(traj.slices) == 2
    for stamp, gf in zip(traj.times, traj.slices):
        assert (outdir / f"slice_t{stamp:.6f}.grid").read_bytes() == gf.to_bytes()


def test_simulate_refuses_a_radial_representation_of_a_datum_that_is_not_radial(
        tmp_path, capsys):
    cfg = _gaussian_flow({}, compare={"kind": "radial_representation"})
    cfg["problem"]["datum"] = {"kind": "atoms", "atoms": [[[0.0, 0.0], 1.0]]}
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 2
    assert "radial_representation comparison needs a radial datum" in capsys.readouterr().err
    assert not any(outdir.iterdir())


def test_simulate_restarts_from_a_stored_grid(tmp_path):
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0}, store_times=(0.0,))
    code, radial = _run(tmp_path, "simulate", cfg, out="radial")
    assert code == 0
    cfg["problem"]["datum"] = {"kind": "grid",
                               "path": str(radial / "slice_t0.000000.grid")}
    code, restart = _run(tmp_path, "simulate", cfg, out="restart")
    assert code == 0
    assert (restart / "slice_t0.050000.grid").read_bytes() == \
        (radial / "slice_t0.050000.grid").read_bytes()


@pytest.mark.parametrize("radius, spacing", [(2.0, 1 / 8), (1.0, 1 / 16),
                                             (2.0, 1 / 16)])
def test_simulate_rejects_a_grid_datum_off_the_runs_layout(tmp_path, radius, spacing):
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0}, store_times=(0.0,))
    cfg["problem"]["radius"] = 1.0
    code, first = _run(tmp_path, "simulate", cfg, out="first")
    assert code == 0
    cfg["problem"].update(radius=radius, spacing=spacing, datum={
        "kind": "grid", "path": str(first / "slice_t0.000000.grid")})
    code, restart = _run(tmp_path, "simulate", cfg, out="restart")
    assert code == 2
    assert not list(restart.glob("slice_*.grid"))


def test_simulate_evaluates_h0_over_the_layout_twice(tmp_path, monkeypatch, block):
    # once to lift the radial datum and once in solve; the comparison reads
    # Trajectory.h0.  Counted in nodes of the layout's blocks of rows, as the
    # layout's H0 is evaluated a block at a time: at 40 values a block, the
    # 33 x 33 layout takes 33 blocks of one row
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0},
                         compare={"kind": "radial_representation", "window": 0.5})
    nodes = flow.ball_layout(norms.euclidean(2), 2.0, 1 / 8).values.shape
    dual_norm_eval, full = norms.dual_norm_eval, []

    def counted(spec, x, *args, **kwargs):
        if np.shape(x)[1:-1] == nodes[1:]:
            full.append(np.prod(np.shape(x)[:-1]))
        return dual_norm_eval(spec, x, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "finslerheat"
                and getattr(module, "dual_norm_eval", None) is dual_norm_eval):
            monkeypatch.setattr(module, "dual_norm_eval", counted)
    with block(40):
        code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0 and (outdir / "comparison.csv").is_file()
    assert sum(full) == 2 * np.prod(nodes) and len(full) == 2 * nodes[0]


def test_simulate_ellipse_representation_and_weighted_l2_check(tmp_path):
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0},
                         monitors={"lambda": 0.5},
                         checks={"weighted_l2_slack": 1e-6},
                         compare={"kind": "radial_representation", "window": 0.5})
    cfg["norm"] = ELLIPSE_JSON
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0
    rows = (outdir / "comparison.csv").read_text().splitlines()
    assert float(rows[1].split(",")[0]) == 0.05
    assert float(rows[1].split(",")[-1]) <= 1e-2
    # the check does run: no slack below zero admits the starting value
    cfg["checks"]["weighted_l2_slack"] = -1.0
    code, _ = _run(tmp_path, "simulate", cfg, out="strict")
    assert code == 1


@pytest.mark.parametrize("norm, scheme, radius, want", [
    (ELLIPSE_JSON, "implicit_proximal", 6.0, [0, 1, 1]),   # quiet boundary band
    (ELLIPSE_JSON, "implicit_proximal", 1.0, [0, 0, 0]),   # datum reaches it
    (ELLIPSE_JSON, "explicit_euler", 6.0, [0, 0, 0]),
    ({"family": "p_norm", "params": {"p": 3}, "dimension": 2}, "implicit_proximal",
     6.0, [0, 1, 1]),   # p >= 2: every Newton step's CG
    ({"family": "p_norm", "params": {"p": 1.5}, "dimension": 2}, "implicit_proximal",
     6.0, [0, 0, 0]),   # p < 2: plain CG
])
def test_simulate_writes_whether_each_step_was_preconditioned(tmp_path, norm, scheme,
                                                               radius, want):
    cfg = {"norm": norm,
           "problem": {"radius": radius, "spacing": 1 / 4,
                       "datum": {"kind": "radial",
                                 "profile": {"type": "gaussian", "r_max": 16.0}},
                       "scheme": scheme, "tau": 1e-3, "t_end": 2e-3}}
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0
    rows = csv.DictReader((outdir / "monitor_preconditioned.csv").read_text().splitlines())
    assert [r["preconditioned"] for r in rows] == [str(w) for w in want]


def test_radial_solve_constant_profile(tmp_path):
    cfg = {"norm": EUCLID_JSON,
           "profile": {"type": "samples",
                       "radii": list(np.linspace(0, 14, 57)),
                       "values": [1.0] * 57},
           "times": [0.25],
           "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.5]]}
    code, outdir = _run(tmp_path, "radial-solve", cfg)
    assert code == 0
    rows = (outdir / "radial_solution.csv").read_text().splitlines()[1:]
    for row in rows:
        assert float(row.split(",")[-1]) == pytest.approx(1.0, abs=1e-6)


def test_radial_solve_rejects_quadrature_settings(tmp_path):
    cfg = {"norm": EUCLID_JSON,
           "profile": {"type": "gaussian", "r_max": 8.0},
           "times": [0.25], "points": [[0.0, 0.0]],
           "quad": {"nodes_per_unit": 64, "tolerance": 1e-9}}
    code, _ = _run(tmp_path, "radial-solve", cfg)
    assert code == 2


def test_radial_solve_refuses_an_unresolved_time(tmp_path):
    # t = 1e-7 is below what 4096 nodes per unit panel resolve
    cfg = {"norm": ELLIPSE_JSON,
           "profile": {"type": "gaussian", "r_max": 16.0},
           "times": [1e-7], "points": [[0.0, 0.5123]]}
    code, outdir = _run(tmp_path, "radial-solve", cfg)
    assert code == 3
    assert not (outdir / "radial_solution.csv").exists()


def test_radial_solve_refuses_a_dimension_past_3_by_name(tmp_path, capsys):
    # the sphere factor of the representation formula is known for N <= 3:
    # N = 4 raised KeyError(4) and printed "config error: 4"
    cfg = {"norm": {"family": "euclidean", "params": {}, "dimension": 4},
           "profile": {"type": "gaussian", "r_max": 14.0},
           "times": [1e-3], "points": [[0.5, 0.5, 0.0, 0.0]]}
    code, outdir = _run(tmp_path, "radial-solve", cfg)
    assert code == 2
    assert "dimension 1, 2 or 3, not 4" in capsys.readouterr().err
    assert not (outdir / "radial_solution.csv").exists()


def test_radial_solve_crosscheck_column(tmp_path):
    gf = grid_from_function([(-2, 2), (-2, 2)], (32, 32),
                            lambda c: np.exp(-np.sum(c**2, axis=-1)))
    ref = tmp_path / "ref.grid"
    gf.save(ref)
    cfg = {"norm": EUCLID_JSON,
           "profile": {"type": "gaussian", "r_max": 14.0},
           "times": [1e-3],
           "points": [[0.5, 0.5], [1.0, 0.0]],
           "crosscheck": {"path": str(ref), "tolerance": 2e-2}}
    code, outdir = _run(tmp_path, "radial-solve", cfg)
    assert code == 0
    header = (outdir / "radial_solution.csv").read_text().splitlines()[0]
    assert header.endswith("rel_error")


@pytest.mark.parametrize("dimension, crosscheck", [
    (2, {"tolerence": 1e-3}),    # misspelled key; all-zero reference
    (1, {"tolerance": 1e-3}),    # grid of lower dimension than the norm
    (3, {"tolerance": 1e-3}),    # grid of higher dimension than the norm
    (2, None),                   # no path
])
def test_radial_solve_rejects_a_bad_crosscheck(tmp_path, dimension, crosscheck):
    ref = tmp_path / "ref.grid"
    grid_from_function([(-2, 2)] * dimension, (8,) * dimension,
                       lambda c: np.zeros(c.shape[:-1])).save(ref)
    crosscheck = {"path": str(ref), **crosscheck} if crosscheck else {"tolerance": 1e-3}
    cfg = {"norm": EUCLID_JSON,
           "profile": {"type": "gaussian", "r_max": 14.0},
           "times": [1e-3], "points": [[0.5, 0.5], [1.0, 0.0]],
           "crosscheck": crosscheck}
    code, outdir = _run(tmp_path, "radial-solve", cfg)
    assert code == 2
    assert not (outdir / "radial_solution.csv").exists()


def test_classify_compact_datum(tmp_path):
    cfg = {"norm": EUCLID_JSON,
           "measure": {"kind": "radial_density",
                       "profile": {"type": "bump", "r_max": 16.0}},
           "lambda_grid": [0.1, 0.3], "windows": [4, 6, 8], "spacing": 0.25}
    code, outdir = _run(tmp_path, "classify", cfg)
    assert code == 0
    summary = json.loads((outdir / "classification.json").read_text())
    assert summary["admissible"] and summary["lambda_star"] == 0.1


def test_compare_equal_and_different(tmp_path):
    gf = grid_from_function([(-1, 1), (-1, 1)], (8, 8),
                            lambda c: np.sum(c**2, axis=-1))
    a = tmp_path / "a.grid"
    b = tmp_path / "b.grid"
    gf.save(a)
    gf.save(b)
    code, _ = _run(tmp_path, "compare",
                   {"a": str(a), "b": str(b), "tolerance": 0.0}, out="eq")
    assert code == 0
    gf.with_values(gf.values + 1e-3).save(b)
    code, _ = _run(tmp_path, "compare",
                   {"a": str(a), "b": str(b), "tolerance": 1e-6}, out="ne")
    assert code == 1


def test_compare_refuses_grids_on_different_layouts(tmp_path, capsys):
    for name, cells in (("a.grid", 8), ("b.grid", 16)):
        grid_from_function([(-1, 1), (-1, 1)], (cells, cells),
                           lambda c: np.sum(c**2, axis=-1)).save(tmp_path / name)
    code, outdir = _run(tmp_path, "compare", {"a": str(tmp_path / "a.grid"),
                                              "b": str(tmp_path / "b.grid")})
    assert code == 2
    assert "grids have different layouts" in capsys.readouterr().err
    assert not any(outdir.iterdir())


_SIMULATE = {"norm": EUCLID_JSON,
             "problem": {"radius": 1.0, "spacing": 0.125, "tau": 1e-3, "t_end": 5e-3,
                         "datum": {"kind": "radial",
                                   "profile": {"type": "gaussian", "r_max": 4.0}}}}
_CLASSIFY = {"norm": EUCLID_JSON,
             "measure": {"kind": "radial_density",
                         "profile": {"type": "bump", "r_max": 16.0}},
             "lambda_grid": [0.1, 0.3], "windows": [4, 6, 8], "spacing": 0.25}
_EXACT = {"cases": [{"kind": "gauss_kernel", "norm": EUCLID_JSON,
                     "box": [[-4, 4], [-4, 4]], "resolution": [16, 16],
                     "t": 0.5, "dt": 0.01, "levels": 2}]}
_VERIFY = {"seed": 1, "samples": 20, "norms": [ELLIPSE_JSON]}
_RADIAL = {"norm": EUCLID_JSON, "profile": {"type": "gaussian", "r_max": 14.0},
           "times": [1e-3], "points": [[0.5, 0.5], [1.0, 0.0]]}
_SINGULAR = {"cases": [{"kind": "singular_poly", "params": {"m_order": 1},
                        "norm": EUCLID_JSON, "box": [[-1.5, 1.5], [-1.5, 1.5]],
                        "resolution": [64, 64], "annulus": [0.25, 1.0],
                        "max_residual": 1e3}]}
# grids that `_grid_pair` writes to the working directory, one apart
_COMPARE = {"a": "a.grid", "b": "b.grid", "tolerance": 1e-6}
_CROSSCHECK = dict(_RADIAL, crosscheck={"path": "a.grid", "tolerance": 1e-3})
INF, NAN = float("inf"), float("nan")


def _grid_pair(directory: Path) -> None:
    """a.grid and b.grid in `directory`: 2-D grids that differ by 1; and
    d4.grid, a dump in the grid layout (docs/formats.md) of a 4-D grid,
    which no grid holds."""
    gf = grid_from_function([(-1, 1), (-1, 1)], (8, 8), lambda c: np.sum(c**2, axis=-1))
    gf.save(directory / "a.grid")
    gf.with_values(gf.values + 1.0).save(directory / "b.grid")
    (directory / "d4.grid").write_bytes(
        np.array([4], "<i8").tobytes() + np.array([-1.0, 1.0] * 4, "<f8").tobytes()
        + np.array([4] * 4, "<i8").tobytes() + np.zeros(5**4, "<f8").tobytes())


def _mutated(base: dict, path: tuple, value, how: str = "set") -> dict:
    """A copy of the config `base` with the entry at `path` set to `value`,
    or (`how`) dropped or misspelled with a trailing "s"."""
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if how == "set":
        node[path[-1]] = value
    else:
        child = node.pop(path[-1])
        if how == "misspell":
            node[path[-1] + "s"] = child
    return cfg


# int() of Infinity raises OverflowError, 1e15 samples a MemoryError, 1e300
# levels would build ever finer grids; the other values passed unchecked.
# A window of 8001^2 nodes at spacing 0.001 and a ball of 20001^2 at 1e-4
# would take 0.5 and 3.2 GB a field, so `grids.MAX_NODES` refuses them
# before any allocation; r_max 1e300 and 1e200 would overflow in the even
# profile's slope fit, so `grids.MAX_RADIUS` refuses them before any arithmetic
@pytest.mark.parametrize("command, base, path, value", [
    ("simulate", _SIMULATE, ("problem", "tau"), INF),
    ("simulate", _SIMULATE, ("problem", "radius"), INF),
    ("classify", _CLASSIFY, ("spacing",), 0),
    ("classify", _CLASSIFY, ("lambda_grid",), []),
    ("classify", _CLASSIFY, ("stabilization_tol",), NAN),
    ("verify-exact", _EXACT, ("cases", 0, "levels"), 0),
    ("verify-exact", _EXACT, ("cases", 0, "dt"), 0),
    ("simulate", _SIMULATE, ("inner",), {"max_iters": INF}),
    ("simulate", _SIMULATE, ("problem", "datum", "profile", "samples"), INF),
    ("radial-solve", _RADIAL, ("profile", "samples"), INF),
    ("verify-norms", _VERIFY, ("samples",), INF),
    ("verify-norms", _VERIFY, ("seed",), INF),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization",
                                          "sphere_samples": INF}),
    ("verify-exact", _EXACT, ("cases", 0, "levels"), INF),
    ("simulate", _SIMULATE, ("inner",), {"tolerance": INF}),
    ("simulate", _SIMULATE, ("inner",), {"tolerance": NAN}),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization",
                                          "tolerance": NAN}),
    ("simulate", _SIMULATE, ("monitors",), {"lambda": NAN}),
    ("simulate", _SIMULATE, ("monitors",), {"lambda": INF}),
    ("radial-solve", _RADIAL, ("times",), [INF]),
    ("verify-norms", _VERIFY, ("samples",), 1e15),
    ("radial-solve", _RADIAL, ("profile",), {"type": "gaussian", "r_max": 14.0,
                                             "samples": 1e15}),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization",
                                          "sphere_samples": 1e15}),
    ("verify-exact", _EXACT, ("cases", 0, "levels"), 1e300),
    ("verify-norms", _VERIFY, ("norms",), [{"family": "ellipse", "dimension": 3,
                                            "params": {"matrix": [[4, 0], [0, 1]]}}]),
    ("verify-norms", _VERIFY, ("norms",), [{"family": "ellipse", "dimension": 2,
                                            "params": {"matrix": [[4, 0], [0, 1]],
                                                       "typo": 5}}]),
    ("simulate", _SIMULATE, ("norm",), {"family": "smoothed_polytope", "dimension": 3,
                                        "params": {"directions": [[1, 0], [0, 1]],
                                                   "epsilon": 0.05}}),
    ("simulate", _SIMULATE, ("norm", "params"), {"p": 3}),
    ("simulate", _SIMULATE, ("norm", "dimensions"), 2),
    ("simulate", _SIMULATE, ("norm", "dimension"), 2.7),
    ("verify-norms", _VERIFY, ("seed",), 1.7),
    ("verify-norms", _VERIFY, ("samples",), 20.9),
    ("verify-exact", _EXACT, ("cases", 0, "levels"), 2.9),
    ("verify-exact", _EXACT, ("cases", 0, "resolution"), [16.5, 16]),
    ("simulate", _SIMULATE, ("inner",), {"max_iters": 10.5}),
    ("compare", _COMPARE, ("tolerance",), NAN),
    ("radial-solve", _CROSSCHECK, ("crosscheck", "tolerance"), NAN),
    ("simulate", _SIMULATE, ("compare",), {"window": NAN}),
    ("simulate", _SIMULATE, ("compare",), {"window": -1.0}),
    ("simulate", _SIMULATE, ("compare",), {"tolerance": NAN}),
    ("simulate", _SIMULATE, ("checks",), {"dissipation_slack": NAN}),
    ("simulate", _SIMULATE, ("checks",), {"weighted_l2_slack": NAN}),
    ("verify-norms", _VERIFY, ("tolerances",), {"homogeneity": NAN}),
    ("verify-exact", _EXACT, ("cases", 0, "order_window"), [1.5]),
    ("verify-exact", _EXACT, ("cases", 0, "order_window"), [NAN, 3.0]),
    ("verify-exact", _EXACT, ("cases", 0, "order_window"), [3.0, 1.0]),
    ("verify-exact", _SINGULAR, ("cases", 0, "annulus"), [0.5]),
    ("verify-exact", _SINGULAR, ("cases", 0, "max_residual"), NAN),
    ("radial-solve", _RADIAL, ("points",), [[NAN, 0.5], [0.1, 0.2]]),
    ("radial-solve", _RADIAL, ("times",), []),
    ("verify-norms", _VERIFY, ("norms",), []),
    ("verify-exact", _EXACT, ("cases",), []),
    ("verify-exact", _EXACT, ("cases", 0, "t"), INF),
    ("simulate", _SIMULATE, ("problem", "tau"), "0.001"),
    ("simulate", _SIMULATE, ("problem", "radius"), True),
    ("simulate", _SIMULATE, ("problem", "datum", "profile", "scale"), 0),
    ("classify", _CLASSIFY, ("measure", "profile", "radius"), 0),
    ("classify", _CLASSIFY, ("windows",), [12, 12]),
    ("simulate", _SIMULATE, ("problem",), {
        "radius": 1.0, "spacing": 0.125, "tau": 1e-7, "t_end": 3e-7,
        "store_times": [1e-7, 2e-7],
        "datum": {"kind": "radial", "profile": {"type": "gaussian", "r_max": 8.0}}}),
    ("classify", _CLASSIFY, ("measure", "profile"), {"type": "exp_power", "r_max": 16.0,
                                                     "coefficient": 1000, "power": 2}),
    ("verify-exact", _EXACT, ("cases", 0), {"kind": "gauss_kernel", "norm": EUCLID_JSON,
                                            "box": [[-2, 2], [-2, 2]], "resolution": [16, 16],
                                            "t": 0.5, "dt": 0.01, "levels": 1,
                                            "order_window": [1.5, 2.5]}),
    ("simulate", _SIMULATE, ("problem", "t_end"), 1e300),
    ("simulate", _SIMULATE, ("problem",), {
        "radius": 1.0, "spacing": 0.125, "tau": 1e-300, "t_end": 1e10,
        "datum": {"kind": "radial", "profile": {"type": "gaussian", "r_max": 8.0}}}),
    ("classify", _CLASSIFY, ("spacing",), 0.001),
    ("simulate", _SIMULATE, ("problem", "spacing"), 1e-4),
    ("classify", _CLASSIFY, ("measure", "profile"), {"type": "gaussian", "r_max": 1e300}),
    ("classify", _CLASSIFY, ("measure", "profile"), {"type": "gaussian", "r_max": 1e200}),
    ("verify-exact", _EXACT, ("cases", 0, "max_residual"), 1e-30),
    ("verify-exact", _SINGULAR, ("cases", 0, "order_window"), [5, 6]),
    ("verify-exact", _EXACT, ("cases", 0, "params"), {"lam": 5}),
    ("verify-exact", _EXACT, ("cases", 0), {
        "kind": "talenti", "params": {"p": 2.0, "A": 1.0, "B": 1 / 3}, "t": 0.5,
        "norm": {"family": "euclidean", "params": {}, "dimension": 3},
        "box": [[0.5, 1.5]] * 3, "resolution": [8, 8, 8]}),
    ("simulate", dict(_SIMULATE, compare={"kind": "radial_representation", "window": 0.5}),
     ("problem",), {"radius": 1.0, "spacing": 0.125, "tau": 0.01, "t_end": 0.05, "datum": {
         "kind": "radial", "profile": {"type": "gaussian", "r_max": 1.5}}}),
    ("radial-solve", _RADIAL, ("profile", "samples"), 2**25 + 1),
    ("verify-norms", _VERIFY, ("dual",), {"method": "auto", "sphere_samples": 4,
                                          "tolerance": 1e-300}),
    ("simulate", _SIMULATE, ("problem", "datum", "profile", "amplitude"), 1e300),
    ("radial-solve", _RADIAL, ("profile", "amplitude"), 1e308),
    ("classify", _CLASSIFY, ("spacing",), 1e200),
    ("classify", dict(_CLASSIFY, windows=[4, 6]), ("measure", "profile", "r_max"), 2.0),
    ("verify-exact", _EXACT, ("cases", 0, "resolution"), [16, 16, 16]),
    ("verify-exact", _EXACT, ("cases", 0, "t"), 0.005),
    ("verify-exact", _EXACT, ("cases", 0), {
        "kind": "barenblatt", "params": {"m": 2.0, "C": 1.0},
        "norm": {"family": "euclidean", "params": {}, "dimension": 1}, "box": [[-6, 6]],
        "resolution": [96], "t": 0.005, "dt": 0.01}),
    ("verify-exact", _SINGULAR, ("cases", 0, "params", "m_order"), 0),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization",
                                          "sphere_samples": 3}),
    ("verify-norms", dict(_VERIFY, dual={"method": "sphere_maximization"}), ("norms",),
     [{"family": "euclidean", "params": {}, "dimension": 4}]),
    ("verify-norms", _VERIFY, ("norms",), [{"family": "ellipse", "dimension": 2,
                                            "params": {"matrix": [[4, 0], [0, 1], [0, 0]]}}]),
    ("verify-norms", _VERIFY, ("norms",), [{"family": "smoothed_polytope", "dimension": 2,
                                            "params": {"directions": [[2, 0], [0, 1]],
                                                       "epsilon": 0.05}}]),
    ("radial-solve", _RADIAL, ("profile",), {"type": "samples", "radii": [0, 1, 2],
                                             "values": [1, 0]}),
    ("radial-solve", _RADIAL, ("profile", "samples"), 1),
    ("simulate", _SIMULATE, ("problem", "datum"), {"kind": "atoms", "atoms": [[[5, 5], 1]]}),
    ("classify", _CLASSIFY, ("measure",), {"kind": "atoms",
                                           "atoms": [[[0, 0], 1e308], [[0.5, 0], 1e308]]}),
    ("compare", _COMPARE, ("a",), "d4.grid"),
    ("compare", _COMPARE, ("a",), 5),
], ids=["tau-inf", "radius-inf", "spacing-0", "lambda-grid-empty", "tolerance-nan",
        "levels-0", "dt-0", "max-iters-inf", "simulate-samples-inf",
        "radial-samples-inf", "verify-samples-inf", "seed-inf", "sphere-samples-inf",
        "levels-inf", "inner-tolerance-inf",
        "inner-tolerance-nan", "dual-tolerance-nan", "lambda-nan", "lambda-inf",
        "times-inf", "verify-samples-1e15", "radial-samples-1e15",
        "sphere-samples-1e15", "levels-1e300",
        "ellipse-dimension-3", "ellipse-typo-param", "polytope-dimension-3",
        "euclidean-with-p", "norm-typo-key", "dimension-2.7", "seed-1.7",
        "samples-20.9", "levels-2.9", "resolution-16.5", "max-iters-10.5",
        "compare-tolerance-nan", "crosscheck-tolerance-nan", "compare-window-nan",
        "compare-window-negative", "simulate-compare-tolerance-nan",
        "dissipation-slack-nan", "weighted-l2-slack-nan", "identity-tolerance-nan",
        "order-window-one-number", "order-window-nan", "order-window-descending",
        "annulus-one-number", "max-residual-nan", "points-nan", "times-empty",
        "norms-empty", "cases-empty", "exact-t-inf", "tau-string", "radius-true",
        "gaussian-scale-0", "bump-radius-0", "windows-equal", "slice-names-alike",
        "exp-power-overflow", "order-window-one-level", "steps-unbounded",
        "steps-overflow", "window-nodes-unbounded", "ball-nodes-unbounded",
        "profile-r-max-1e300", "profile-r-max-1e200", "gauss-max-residual",
        "singular-order-window", "gauss-params-lam", "talenti-t", "compare-profile-too-short",
        "radial-samples-past-max-nodes", "dual-auto-with-settings", "gaussian-amplitude-1e300",
        "radial-amplitude-1e308", "spacing-cell-volume-overflows",
        "profile-shorter-than-window", "resolution-rank-3",
        "gauss-t-below-dt", "barenblatt-t-below-dt", "m-order-0", "sphere-samples-below-2n",
        "oracle-dimension-4", "ellipse-matrix-3x2", "polytope-directions-not-unit",
        "samples-radii-values-unmatched", "gaussian-samples-1", "atom-outside-the-grid",
        "atoms-mass-overflows", "compare-grid-4d", "compare-path-number"])
def test_non_finite_zero_or_empty_settings_are_config_errors(tmp_path, capsys, monkeypatch,
                                                            command, base, path, value):
    # json reads and writes Infinity, so a config can hold it; a limit that
    # a check compares against is refused before any work.  Eleven cases,
    # from points-nan on, each ran without the section reader: a NaN point
    # zeroed the valid one's u, an empty list wrote a header-only CSV,
    # t = Infinity passed with residual 0, "0.001" and true read as numbers,
    # a zero scale or radius divided by zero before the run refused it,
    # equal windows gave every lambda as stabilized, and the path 5 read
    # (and closed) file descriptor 5, so that case comes last.  Before it:
    # three slices stamped 1e-7 apart were all saved as
    # slice_t0.000000.grid, each over the last; exp(1000 r^2) warned of
    # overflow before the profile's finite check; and the order of one
    # level read nan, which failed the window as a numerical check (exit 1);
    # 1e303 steps were accepted (the run would not end) and 1e310 raised
    # OverflowError from round(inf).  A case key or param that its kind does
    # not read (a bound never checked) passed with every row "pass", and a
    # comparison whose profile is too short for its reference wrote the
    # monitors and the slice before it was refused.  A gaussian of amplitude
    # 1e300 overflowed in the flow's L^2 norm and exited 3 with partial
    # files, and radial-solve wrote u = 8e307 from an amplitude of 1e308.
    # Two atoms of mass 1e308 made classify warn, write inf and exit 0, and
    # so did a spacing of 1e200, whose lattice cell volume overflows in 2-D.
    # The thirteen rows from profile-shorter-than-window on were refused
    # already; each is the one run of a library refusal through the CLI
    monkeypatch.chdir(tmp_path)
    _grid_pair(tmp_path)
    code, outdir = _run(tmp_path, command, _mutated(base, path, value))
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not any(outdir.iterdir())


@pytest.mark.parametrize("command, base, path, value, key", [
    ("radial-solve", _RADIAL, ("points",), [[0, 0], [1]], "radial-solve config points"),
    ("radial-solve", _RADIAL, ("points",), [[0, 0, 1]], "radial-solve config points"),
    ("classify", _CLASSIFY, ("measure",), {"kind": "atoms", "atoms": [[1.0]]},
     "classify config measure atoms"),
    ("simulate", _SIMULATE, ("problem", "datum"), {"kind": "atoms", "atoms": [[[0, 0, 0], 1.0]]},
     "simulate config problem datum atoms point"),
    ("classify", _CLASSIFY, ("measure",), {"kind": "atoms", "atoms": [[[0, 0], [1.0, 2.0]]]},
     "classify config measure atoms mass"),
    ("radial-solve", _RADIAL, ("points",), [[0, 0], [1e300, 0]], "radial-solve config points"),
    ("simulate", _SIMULATE, ("problem", "datum"), {"kind": "atoms", "atoms": [[[0, 1e300], 1.0]]},
     "simulate config problem datum atoms point"),
], ids=["points-ragged", "point-3d-on-2d", "atom-without-mass", "atom-3d-on-2d", "mass-a-list",
        "point-1e300", "atom-point-1e300"])
def test_malformed_points_and_atoms_are_refused_by_name(tmp_path, capsys, command, base, path,
                                                        value, key):
    # a point is the norm's dimension of numbers at most 1e100 in magnitude,
    # an atom [point, mass]: each case exited 2 with no file before, but with
    # numpy's or Python's own text ("setting an array element with a
    # sequence", "vector dimension 3 != spec dimension 2", "not enough values
    # to unpack", "operands could not be broadcast", "float() argument must
    # be"), and a point at 1e300 after a warning of an overflow in H0
    code, outdir = _run(tmp_path, command, _mutated(base, path, value))
    assert code == 2 and not any(outdir.iterdir())
    assert capsys.readouterr().err.startswith(f"config error: {key} must ")


def test_verify_norms_refuses_sample_counts_past_max_nodes(tmp_path, capsys, monkeypatch):
    # verify_identities allocates a dozen arrays of samples x N and the
    # oracle's scan one of sphere_samples x N: each count is refused past
    # MAX_NODES, here 64, before any allocation
    monkeypatch.setattr(norms, "MAX_NODES", 64)
    oracle = {"method": "sphere_maximization", "sphere_samples": 65}
    for out, cfg in (("samples", dict(_VERIFY, samples=65)),
                     ("oracle", dict(_VERIFY, dual=oracle))):
        code, outdir = _run(tmp_path, "verify-norms", cfg, out=out)
        assert code == 2
        assert "samples" in capsys.readouterr().err
        assert not any(outdir.iterdir())
    code, _ = _run(tmp_path, "verify-norms", dict(_VERIFY, samples=64), out="64")
    assert code == 0


_EUCLID = norms.euclidean(2)
_BALL = flow.ball_layout(_EUCLID, 1.0, 0.125)
_BUMP = measures.measure_from_radial(RadialProfile.from_function(
    lambda r: np.maximum(1 - r**2, 0.0) ** 3, 16.0, 2049), _EUCLID)


@pytest.mark.parametrize("command, base, path, value, said, call, owner_said", [
    ("simulate", _SIMULATE, ("problem", "radius"), -1.0, "simulate config problem radius",
     lambda: flow.ball_layout(_EUCLID, -1.0, 0.125), "radius"),
    ("simulate", _SIMULATE, ("problem", "spacing"), 0.0, "simulate config problem spacing",
     lambda: flow.ball_layout(_EUCLID, 1.0, 0.0), "spacing"),
    ("simulate", _SIMULATE, ("problem", "tau"), -1e-3, "simulate config problem tau",
     lambda: flow.FlowProblem(_EUCLID, 1.0, _BALL, -1e-3, 5e-3), "tau"),
    ("simulate", _SIMULATE, ("problem", "t_end"), 0.0, "simulate config problem t_end",
     lambda: flow.FlowProblem(_EUCLID, 1.0, _BALL, 1e-3, 0.0), "t_end"),
    ("simulate", _SIMULATE, ("inner",), {"tolerance": -1e-8}, "simulate config inner: tolerance",
     lambda: flow.InnerSolverConfig(tolerance=-1e-8), "tolerance"),
    ("simulate", _SIMULATE, ("monitors",), {"lambda": -0.5}, "simulate config monitors: lambda",
     lambda: flow.FlowProblem(_EUCLID, 1.0, _BALL, 1e-3, 5e-3, monitor_lambda=-0.5), "lambda"),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization", "tolerance": 0},
     "verify-norms config dual: tolerance", lambda: norms.DualEvalConfig(tolerance=0),
     "tolerance"),
    ("classify", _CLASSIFY, ("lambda_grid",), [0.1, -0.3], "classify config lambda_grid",
     lambda: measures.growth_functional(_BUMP, -0.3, _EUCLID, window=4.0), "lam"),
    ("classify", _CLASSIFY, ("windows",), [4, -6], "classify config windows",
     lambda: measures.growth_functional(_BUMP, 0.1, _EUCLID, window=-6), "window"),
    ("classify", _CLASSIFY, ("spacing",), -0.25, "classify config spacing",
     lambda: measures.growth_functional(_BUMP, 0.1, _EUCLID, window=4.0, spacing=-0.25),
     "spacing"),
    ("verify-exact", _EXACT, ("cases", 0, "dt"), -0.01, "verify-exact config cases dt",
     lambda: solutions.pde_residual(solutions.SolutionSpec("gauss_kernel", _EUCLID),
                                    empty_layout([(-4, 4), (-4, 4)], (16, 16)), 0.5, -0.01), "dt"),
    ("radial-solve", _RADIAL, ("times",), [1e-3, -1], "radial-solve config times",
     lambda: radial.radial_heat_profile(RadialProfile.from_function(
         lambda r: np.exp(-r**2), 14.0, 2049), 2, np.array([0.5]), -1), "t"),
], ids=["radius", "spacing", "tau", "t-end", "inner-tolerance", "monitor-lambda",
        "dual-tolerance", "lambda-grid", "windows", "classify-spacing", "dt", "times"])
def test_a_range_the_library_owns_is_refused_at_section_time_under_its_config_path(
        tmp_path, capsys, command, base, path, value, said, call, owner_said):
    """One check owns each range, `errors.positive`: the library entry point
    refuses the bad value naming its argument, and the CLI reader calls the
    same check while it reads the config, so the refusal names the config
    path and comes before any work (a refusal that the library made later
    would not name the path)."""
    with pytest.raises(SpecValidationError) as refused:
        call()
    message = str(refused.value)
    assert message.startswith(f"{owner_said} must be a finite number above 0, not ")
    code, outdir = _run(tmp_path, command, _mutated(base, path, value))
    assert code == 2 and not any(outdir.iterdir())
    # the library's message, the value included, with the config path for the argument
    assert capsys.readouterr().err == f"config error: {said}{message.removeprefix(owner_said)}\n"


@pytest.mark.parametrize("command, base, path, value, said, call", [
    ("simulate", _SIMULATE, ("inner",), {"max_iters": 0}, "simulate config inner: ",
     lambda: flow.InnerSolverConfig(max_iters=0)),
    ("simulate", _SIMULATE, ("monitors",), {"ell": 0.75}, "simulate config monitors: ",
     lambda: flow.FlowProblem(_EUCLID, 1.0, _BALL, 1e-3, 5e-3, monitor_ell=0.75)),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization", "sphere_samples": 1},
     "verify-norms config dual: ", lambda: norms.DualEvalConfig(sphere_samples=1)),
], ids=["max-iters-0", "monitor-ell", "sphere-samples-1"])
def test_a_library_object_that_the_cli_builds_refuses_under_its_config_path(
        tmp_path, capsys, command, base, path, value, said, call):
    # the CLI builds the library's own object or check of these settings
    # while it reads the config: the library's refusal, under the path
    with pytest.raises(SpecValidationError) as refused:
        call()
    code, outdir = _run(tmp_path, command, _mutated(base, path, value))
    assert code == 2 and not any(outdir.iterdir())
    assert capsys.readouterr().err == f"config error: {said}{refused.value}\n"


# each flow setting that FlowProblem owns, with a radial datum (lifted) and
# a measure (mollified): the problem is built on the ball's empty layout, so
# a refusal comes before the datum is laid (it came after the lift or the
# mollify, and without the config path; the step bound after H0 too)
@pytest.mark.parametrize("change", [
    {"problem": {"radius": 0.5}},
    {"problem": {"scheme": "foo"}},
    {"problem": {"tau": 0.01, "t_end": 0.055}},
    {"problem": {"tau": 1e-8, "t_end": 1.0}},
    {"problem": {"store_times": [-0.01]}},
    {"problem": {"scheme": "explicit_euler", "tau": 0.01, "t_end": 0.02}},
    {"problem": {"tau": 0.01, "t_end": 0.02}, "monitors": {"lambda": 30}},
], ids=["radius-0.5", "scheme-foo", "t-end-off-the-steps", "steps-past-1e7",
        "store-time-negative", "explicit-tau-past-the-bound", "lambda-past-its-horizon"])
def test_every_flow_setting_is_refused_before_the_datum_is_laid(tmp_path, capsys, work, change):
    problem = {**_SIMULATE["problem"], **change["problem"]}
    problem.pop("datum")
    lam = change.get("monitors", {}).get("lambda")
    with pytest.raises(SpecValidationError) as refused:
        flow.FlowProblem(norm=_EUCLID, datum=flow.ball_layout(
            _EUCLID, problem["radius"], problem.pop("spacing")), monitor_lambda=lam, **problem)
    work_done = {"lift": operators.lift_radial, "mollify": measures.mollify,
                 "h0": norms.dual_norm_nodes, "solve": flow.solve}
    for n, datum in enumerate([_SIMULATE["problem"]["datum"],
                               {"kind": "atoms", "atoms": [[[0, 0], 1.0]]}]):
        cfg = {**_SIMULATE, **change, "problem": {**_SIMULATE["problem"], **change["problem"],
                                                  "datum": datum}}
        run = work(lambda: _run(tmp_path, "simulate", cfg, out=f"out{n}"), trace=False,
                   also=work_done)
        code, outdir = run.result
        assert code == 2 and not any(outdir.iterdir())
        assert capsys.readouterr().err == f"config error: simulate config problem: {refused.value}\n"
        assert {name: run.counts[name] for name in work_done} == dict.fromkeys(work_done, 0)


_BASES = {"_SIMULATE": ("simulate", _SIMULATE), "_CLASSIFY": ("classify", _CLASSIFY),
          "_EXACT": ("verify-exact", _EXACT), "_VERIFY": ("verify-norms", _VERIFY),
          "_RADIAL": ("radial-solve", _RADIAL), "_SINGULAR": ("verify-exact", _SINGULAR),
          "_COMPARE": ("compare", _COMPARE), "_CROSSCHECK": ("radial-solve", _CROSSCHECK)}
_BAD_VALUES = (0, -1, NAN, INF, -INF, "x", True, [], {})


def _mutations(node, path=(), values=_BAD_VALUES):
    """(path, how, value) for every config one step from `node`: each key
    dropped or misspelled, each entry (a leaf, a list or an object) set to
    each of `values`."""
    if path:
        for value in values:
            yield path, "set", value
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,), "drop", None
            yield path + (key,), "misspell", None
            yield from _mutations(child, path + (key,), values)
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _mutations(child, path + (index,), values)


_MUTATIONS = [(name, *mutation) for name, (_, base) in _BASES.items()
              for mutation in _mutations(base)]


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(_MUTATIONS))
@example(mutation=("_RADIAL", ("points",), "set", 0))   # raised IndexError
@example(mutation=("_EXACT", ("cases", 0, "box", 0, 1), "set", INF))   # a RuntimeWarning
def test_one_mutation_of_a_base_config_ends_in_an_exit_code(tmp_path, monkeypatch, capsys,
                                                            mutation):
    """Every command ends a config one step from a valid one in exit 0, 1, 2
    or 3 and raises nothing (warnings are errors here); exit 2 says "config
    error" and writes no file."""
    name, path, how, value = mutation
    command, base = _BASES[name]
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "a.grid").exists():
        _grid_pair(tmp_path)
    out = Path(tempfile.mkdtemp(dir=tmp_path)).name
    code, outdir = _run(tmp_path, command, _mutated(base, path, value, how), out=out)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert "config error" in err
        assert not any(outdir.iterdir())


def _shrunk(job):
    """A benchmark job on a grid shrunk so that it runs in milliseconds: a
    flow at 16 cells a radius, 3 points, 20 samples, a 16 x 8 finest grid."""
    cfg = json.loads(json.dumps(job.config))
    if job.command == "simulate":
        cfg["problem"]["spacing"] = cfg["problem"]["radius"] / 16
    elif job.command == "radial-solve":
        cfg["points"] = cfg["points"][:3]
    elif job.command == "verify-norms":
        cfg["samples"] = 20
    elif job.command == "verify-exact":
        cfg["cases"][0]["resolution"] = [16, 8]
    return dataclasses.replace(job, config=cfg)


# the jobs of both benchmark workloads, loaded as `test_benchmark_jobs.py` loads them
_JOBS = {f"{workload}/{job.name}": _shrunk(job) for workload, job in output_digests.jobs(1)}
_JOB_MUTATIONS = [(name, *mutation) for name, job in _JOBS.items()
                  for mutation in _mutations(job.config, values=_BAD_VALUES + (1e300,))]


@pytest.mark.parametrize("name", list(_JOBS))
def test_the_shrunk_benchmark_jobs_pass_their_checks(tmp_path, name):
    code, out = output_digests.run_job(_JOBS[name], tmp_path)
    assert code == 0 and _JOBS[name].check(out, _JOBS[name]) == []


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(_JOB_MUTATIONS))
# each warned of an overflow in H0 before the run refused it
@example(mutation=("ellipse-flow/implicit-tau1e-3", ("problem", "spacing"), "set", 1e300))
@example(mutation=("pnorm-oracles/verify-exact", ("cases", 0, "box", 0, 1), "set", 1e300))
@example(mutation=("pnorm-oracles/radial-solve", ("points", 0, 0), "set", 1e300))
def test_one_mutation_of_a_benchmark_config_ends_in_an_exit_code(tmp_path, capsys, mutation):
    """The property above over the benchmark's job configs, with 1e300 among
    the values, which needs a bound rather than a type.  On exit 0 the job's
    own check reads every output it expects: none is missing or short (its
    other findings compare against the unmutated job, such as a closed form
    of the norm that a mutation changed)."""
    name, path, how, value = mutation
    job = dataclasses.replace(_JOBS[name], config=_mutated(_JOBS[name].config, path, value, how))
    out = Path(tempfile.mkdtemp(dir=tmp_path)).name
    code, out = _run(tmp_path, job.command, job.config, out=out)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert "config error" in capsys.readouterr().err
        assert not any(out.iterdir())
    if code == 0 and how == "set":    # a dropped key takes a default that the check cannot read
        problems = job.check(out, job)
        assert not [p for p in problems if "missing" in p or "rows, want" in p]


# the eleven one-step mutations of the base and benchmark configs (of 5,374)
# that exited 2 only through `main`'s catch-all, with numpy's or Python's
# text ("expected non-negative integer", "Maximum allowed dimension
# exceeded", an OverflowError), and the --seed flag: each is refused by the
# library's check, which the CLI calls as it reads the config
_SEED = lambda: norms.verify_identities(_EUCLID, 20, seed=-1)
_DIMENSION = lambda: norms.euclidean(1e300)
_EPSILON = lambda: norms.smoothed_polytope(np.eye(2), 1e300)


@pytest.mark.parametrize("name, path, value, extra, said, call", [
    ("_VERIFY", ("seed",), -1, (), "verify-norms config ", _SEED),
    ("pnorm-oracles/verify-norms", ("seed",), -1, (), "verify-norms config ", _SEED),
    ("pnorm-oracles/verify-norms-numeric", ("seed",), -1, (), "verify-norms config ", _SEED),
    ("_VERIFY", None, None, ("--seed", "-1"), "--", _SEED),
    *[(f"pnorm-oracles/{job}", ("norm", "dimension"), 1e300, (), "simulate config norm: ",
       _DIMENSION) for job in ("p3-h1/32", "p3-h1/64", "p1.5-h1/8", "p1.5-h1/16")],
    ("pnorm-oracles/verify-norms", ("norms", 0, "dimension"), 1e300, (),
     "verify-norms config norms: ", _DIMENSION),
    ("pnorm-oracles/classify", ("norm", "dimension"), 1e300, (), "classify config norm: ",
     _DIMENSION),
    ("pnorm-oracles/verify-norms", ("norms", 2, "params", "epsilon"), 1e300, (),
     "verify-norms config norms: ", _EPSILON),
    ("pnorm-oracles/polytope-flow", ("norm", "params", "epsilon"), 1e300, (),
     "simulate config norm: ", _EPSILON),
], ids=["seed-base", "seed-verify-norms", "seed-verify-norms-numeric", "seed-flag",
        "dimension-p3-h1/32", "dimension-p3-h1/64", "dimension-p1.5-h1/8",
        "dimension-p1.5-h1/16", "dimension-verify-norms", "dimension-classify",
        "epsilon-verify-norms", "epsilon-polytope-flow"])
def test_a_mutation_that_reached_the_catch_all_is_refused_by_its_owner(
        tmp_path, capsys, name, path, value, extra, said, call):
    with pytest.raises(SpecValidationError) as refused:
        call()
    command, base = _BASES[name] if name in _BASES else (_JOBS[name].command,
                                                         _JOBS[name].config)
    cfg = base if path is None else _mutated(base, path, value)
    code, outdir = _run(tmp_path, command, cfg, extra=extra)
    assert code == 2 and not any(outdir.iterdir())
    # the library's message, which names the key, after the config path or flag
    assert capsys.readouterr().err == f"config error: {said}{refused.value}\n"


def test_an_oracle_too_coarse_for_a_later_norm_is_refused_before_the_first_runs(
        tmp_path, capsys, work):
    # sphere_samples 4 is 2N for the 2-D norm and short of it for the 3-D one,
    # which ran after the 2-D identities and exited 2 without the config path
    with pytest.raises(SpecValidationError) as refused:
        norms.sphere_maximization(norms.euclidean(3), np.ones((1, 3)),
                                  norms.DualEvalConfig(sphere_samples=4))
    cfg = {"seed": 1, "samples": 20, "dual": {"method": "sphere_maximization", "sphere_samples": 4},
           "norms": [EUCLID_JSON, {"family": "euclidean", "params": {}, "dimension": 3}]}
    run = work(lambda: _run(tmp_path, "verify-norms", cfg), trace=False,
               also={"identities": norms.verify_identities})
    code, outdir = run.result
    assert code == 2 and not any(outdir.iterdir()) and run.counts["identities"] == 0
    assert capsys.readouterr().err == f"config error: verify-norms config dual: {refused.value}\n"


def test_an_oracle_norm_above_three_dimensions_is_refused_before_the_first_runs(
        tmp_path, capsys, work):
    # the oracle's scan samples directions for N <= 3 only: a 4-D norm after
    # a 2-D one ran the 2-D identities, then exited 2 with "direction sampling
    # implemented for N <= 3" and no config path
    with pytest.raises(SpecValidationError) as refused:
        norms.sphere_maximization(norms.euclidean(4), np.ones((1, 4)), norms.DualEvalConfig())
    cfg = {"seed": 1, "samples": 20, "dual": {"method": "sphere_maximization"},
           "norms": [EUCLID_JSON, {"family": "euclidean", "params": {}, "dimension": 4}]}
    run = work(lambda: _run(tmp_path, "verify-norms", cfg), trace=False,
               also={"identities": norms.verify_identities})
    code, outdir = run.result
    assert code == 2 and not any(outdir.iterdir()) and run.counts["identities"] == 0
    assert capsys.readouterr().err == f"config error: verify-norms config dual: {refused.value}\n"
    assert str(refused.value) == "the sphere scan takes norms of dimension at most 3, not 4"


@pytest.mark.parametrize("case", [
    {"kind": "gauss_kernel", "t": 0.005, "dt": 0.01},
    {"kind": "blowup", "params": {"lam": 1.0}, "t": 0.2, "dt": 0.1},
], ids=["gauss-t-below-dt", "blowup-t-plus-dt-past-the-horizon"])
def test_a_time_stencil_outside_the_family_is_refused_before_any_case_runs(
        tmp_path, capsys, work, case):
    # t is in the family's domain, but the residual's stencil reads t - dt or
    # t + dt outside it: "gauss_kernel requires t > 0" came after the cases
    # before it ran, and named neither t nor dt
    sol = solutions.SolutionSpec(case["kind"], _EUCLID, **case.get("params", {}))
    with pytest.raises(DomainError) as refused:
        solutions.pde_residual(sol, empty_layout([(-4, 4), (-4, 4)], (16, 16)),
                               case["t"], case["dt"])
    assert f"t = {case['t']}" in str(refused.value) and f"dt = {case['dt']}" in str(refused.value)
    cfg = {"cases": [_EXACT["cases"][0], {**_EXACT["cases"][0], **case}]}
    run = work(lambda: _run(tmp_path, "verify-exact", cfg), trace=False,
               also={"residual": solutions.pde_residual})
    code, outdir = run.result
    assert code == 2 and not any(outdir.iterdir()) and run.counts["residual"] == 0
    assert capsys.readouterr().err == (f"config error: verify-exact cases[1] ({case['kind']}): "
                                       f"{refused.value}\n")


@pytest.mark.parametrize("command, base, path, value", [
    ("verify-norms", _VERIFY, ("samples",), 20.0),
    ("verify-norms", _VERIFY, ("seed",), 1.0),
    ("verify-norms", _VERIFY, ("norms", 0, "dimension"), 2.0),
    ("verify-exact", _EXACT, ("cases", 0, "resolution"), [16.0, 16.0]),
    ("verify-exact", _EXACT, ("cases", 0, "levels"), 2.0),
])
def test_integral_floats_are_integer_settings(tmp_path, command, base, path, value):
    # 20.0 reads as 20: the run writes the bytes of the integer config
    outputs = []
    for name, config in (("float", _mutated(base, path, value)), ("int", base)):
        code, outdir = _run(tmp_path, command, config, name=f"{name}.json", out=name)
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0] == outputs[1]


def test_classify_reads_its_lambda_grid_as_a_set(tmp_path):
    # [0.3, 0.3] wrote every (lambda, window) row twice
    outputs = []
    for grid in ([0.3, 0.3], [0.3]):
        code, outdir = _run(tmp_path, "classify", dict(_CLASSIFY, lambda_grid=grid),
                            out=str(len(grid)))
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0] == outputs[1]


def test_missing_config_file():
    assert main(["classify", "--config", "/nonexistent.json"]) == 2


def test_rerun_is_byte_identical(tmp_path):
    cfg = {"seed": 42, "samples": 100, "norms": [ELLIPSE_JSON]}
    _, out1 = _run(tmp_path, "verify-norms", cfg, out="one")
    _, out2 = _run(tmp_path, "verify-norms", cfg, out="two")
    assert (out1 / "norm_identities.csv").read_bytes() == \
        (out2 / "norm_identities.csv").read_bytes()


@pytest.mark.parametrize("command, base, want", [
    ("compare", _COMPARE, 1), ("radial-solve", _CROSSCHECK, 1), ("verify-exact", _SINGULAR, 0)])
def test_the_bases_of_the_limit_cases_run(tmp_path, monkeypatch, command, base, want):
    # the configs that the limit cases above mutate are valid: the grids
    # differ by 1 (the crosscheck grid is far from the solution)
    monkeypatch.chdir(tmp_path)
    _grid_pair(tmp_path)
    code, outdir = _run(tmp_path, command, base)
    assert code == want and any(outdir.iterdir())


@pytest.mark.parametrize("window, want", [(None, 0), ([1.5, 2.5], 1)])
def test_verify_exact_residuals_that_underflow_read_as_order_nan(tmp_path, window, want):
    # far out on the Gauss kernel's tail every residual is exactly 0: the
    # order reads nan, which only a window fails
    case = {"kind": "gauss_kernel", "norm": EUCLID_JSON, "box": [[100, 108], [100, 108]],
            "resolution": [16, 16], "t": 0.5, "dt": 0.01, "levels": 2}
    if window is not None:
        case["order_window"] = window
    code, outdir = _run(tmp_path, "verify-exact", {"cases": [case]})
    assert code == want
    rows = list(csv.DictReader((outdir / "exact_residuals.csv").read_text().splitlines()))
    assert [float(r["max_residual"]) for r in rows] == [0.0, 0.0]
    assert np.isnan(float(rows[-1]["order"]))


def test_verify_exact_singular_case(tmp_path):
    cfg = {"cases": [{"kind": "singular_poly", "params": {"m_order": 1},
                      "norm": EUCLID_JSON, "box": [[-1.5, 1.5], [-1.5, 1.5]],
                      "resolution": [256, 256], "annulus": [0.25, 1.0],
                      "max_residual": 0.05}]}
    code, outdir = _run(tmp_path, "verify-exact", cfg)
    assert code == 0
    assert "singular_poly" in (outdir / "exact_residuals.csv").read_text()


def test_an_empty_singular_annulus_is_refused_by_name_before_any_case_runs(tmp_path, capsys):
    """On [0.5, 1.5]^3 with 8 cells the only nodes with H0 <= 1 lie on the
    box edge, where lap_h v is not defined: the case and its default
    annulus are named, and no file is written, not even the first case's."""
    euclid3 = {"family": "euclidean", "params": {}, "dimension": 3}
    cfg = {"cases": [{"kind": "gauss_kernel", "norm": EUCLID_JSON,
                      "box": [[-2, 2], [-2, 2]], "resolution": [16, 16], "t": 0.5},
                     {"kind": "singular_poly", "params": {"m_order": 1}, "norm": euclid3,
                      "box": [[0.5, 1.5]] * 3, "resolution": [8, 8, 8]}]}
    code, outdir = _run(tmp_path, "verify-exact", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "cases[1] (singular_poly)" in err and "annulus [0.25, 1.0]" in err
    assert list(outdir.iterdir()) == []
    # an annulus that reaches one node a cell off the edge is read
    cfg["cases"][1]["annulus"] = [0.25, 1.5]
    code, outdir = _run(tmp_path, "verify-exact", cfg, out="wider")
    assert code == 0 and (outdir / "exact_residuals.csv").is_file()


def test_simulate_non_convergence_exit_code(tmp_path):
    cfg = {"norm": EUCLID_JSON,
           "problem": {"radius": 1.0, "spacing": 0.125,
                       "datum": {"kind": "radial",
                                 "profile": {"type": "gaussian", "r_max": 4.0}},
                       "tau": 1e-3, "t_end": 5e-3},
           "inner": {"tolerance": 1e-14, "max_iters": 2}}
    code, _ = _run(tmp_path, "simulate", cfg)
    assert code == 3


@pytest.mark.parametrize("norm", [
    EUCLID_JSON, {"family": "p_norm", "params": {"p": 3}, "dimension": 2}])
def test_simulate_non_convergence_writes_partial_artifacts(tmp_path, norm):
    cfg = {"norm": norm,
           "problem": {"radius": 1.0, "spacing": 0.125,
                       "datum": {"kind": "radial",
                                 "profile": {"type": "gaussian", "r_max": 4.0}},
                       "tau": 1e-3, "t_end": 5e-3, "store_times": [0.0]},
           "inner": {"max_iters": 1}}
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 3
    with open(outdir / "monitor_energy.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and float(rows[0]["t"]) == 0.0
    assert float(rows[0]["energy"]) > 0.0
    assert (outdir / "slice_t0.000000.grid").is_file()


def _src_env(**extra) -> dict:
    """The environment with this package's `src` first on PYTHONPATH."""
    src = str(Path(finslerheat.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_out_the_slow_scipy_modules():
    """Any scipy module brings in scipy's array-API layer, about 150 modules
    and 0.35 s of start-up for every command: the package computes what it
    used scipy for with numpy, so no `scipy` or `scipy.*` module is loaded."""
    env = _src_env()
    code = ("import sys, finslerheat.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 257 x 129 nodes: OpenBLAS splits a dot product this long across its
    # threads, so CG inner products taken with np.dot changed bits with the
    # thread count (the energy, mass and slice of this run did)
    ellipse = {"norm": ELLIPSE_JSON,
               "problem": {"radius": 6.0, "spacing": 6 / 64, "tau": 1e-2, "t_end": 3e-2,
                           "datum": {"kind": "radial",
                                     "profile": {"type": "gaussian", "r_max": 16.0}}},
               "inner": {"tolerance": 1e-7}}
    (tmp_path / "cfg.json").write_text(json.dumps(ellipse))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "finslerheat.cli", "simulate",
                        "--config", str(tmp_path / "cfg.json"), "--out", str(out),
                        "--no-timestamp"], env=_src_env(OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "slice_t0.030000.grid" in outputs[0] and outputs[0] == outputs[1]
    # each step after the first takes the box solve, whose divisor is formed
    # a block of rows at a time by BLAS products: its bits hold at 1 and 2 threads
    column = outputs[0]["monitor_preconditioned.csv"].decode().split()[1:]
    assert [row.split(",")[1] for row in column] == ["0", "1", "1", "1"]


def _dispatched_above_x86_v3() -> list:
    """numpy's dispatched SIMD targets above X86_V3 that this CPU runs (it
    refuses to disable a target that is not dispatched)."""
    from numpy._core import _multiarray_umath as umath
    targets = list(umath.__cpu_dispatch__)
    above = targets[targets.index("X86_V3") + 1:] if "X86_V3" in targets else []
    return [t for t in above if umath.__cpu_features__.get(t)]


def _output_values(path: Path) -> np.ndarray:
    if path.suffix == ".grid":
        return GridFunction.load(path).values.ravel()
    return np.loadtxt(path, delimiter=",", skiprows=1).ravel()


def test_simulate_values_do_not_depend_on_the_simd_dispatch_beyond_rounding(tmp_path):
    # numpy's AVX-512 exp, log and fractional power round differently from
    # their AVX2 loops, so the bytes hold only for one SIMD dispatch: with
    # the targets above X86_V3 disabled, the solver's counts and paths keep
    # their bytes and every value stays within rounding; with none to
    # disable, the two runs are the same run
    gauss = {"kind": "radial", "profile": {"type": "gaussian", "r_max": 8.0}}
    configs = {
        "quadratic": {"norm": ELLIPSE_JSON, "monitors": {"lambda": 0.5},
                      "problem": {"radius": 2.0, "spacing": 1 / 8, "tau": 1e-2,
                                  "t_end": 3e-2, "datum": gauss}},
        "pnorm": {"norm": {"family": "p_norm", "params": {"p": 3}, "dimension": 2},
                  "problem": {"radius": 1.0, "spacing": 1 / 16, "tau": 1e-2,
                              "t_end": 2e-2, "datum": gauss},
                  "inner": {"tolerance": 1e-8}}}
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    program = ("import sys; from finslerheat.cli import main; sys.exit(max(main(["
               "'simulate', '--config', f'{n}.json', '--out', f'{sys.argv[1]}/{n}', "
               f"'--no-timestamp']) for n in {tuple(configs)!r}))")
    disabled = _dispatched_above_x86_v3()
    for side, extra in (("as_is", {}), ("v3", {"NPY_DISABLE_CPU_FEATURES": " ".join(disabled)}
                                        if disabled else {})):
        subprocess.run([sys.executable, "-c", program, side], cwd=tmp_path,
                       env=_src_env(**extra), check=True, capture_output=True)
    files = sorted(p.relative_to(tmp_path / "as_is") for p in (tmp_path / "as_is").rglob("*.*"))
    assert files == sorted(p.relative_to(tmp_path / "v3") for p in (tmp_path / "v3").rglob("*.*"))
    assert len(files) == 12
    for name in files:
        a, b = tmp_path / "as_is" / name, tmp_path / "v3" / name
        if not disabled or name.stem in ("monitor_inner_iterations", "monitor_preconditioned"):
            assert a.read_bytes() == b.read_bytes(), name
        else:
            x, y = _output_values(a), _output_values(b)
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(x)), name
