import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finslerheat
from finslerheat import cli, flow, measures, norms
from finslerheat.cli import main
from finslerheat.grids import RadialProfile, grid_from_function

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
    # a string, a bool, a numpy int or a ragged row keeps the csv.writer path
    for table in (rows, rows + [("a,b", True)], rows + [(np.int64(2**62),)],
                  rows + [tuple(cells[:width + 1])]):
        cli._write_csv(tmp / "new.csv", ["c"] * width, table, timestamp=False)
        _per_cell_csv(tmp / "old.csv", ["c"] * width, table)
        assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def test_unreadable_grid_paths_are_config_errors(tmp_path, capsys):
    """Each place a config names a grid file: the density measure, the grid
    datum, radial-solve's crosscheck and compare's a and b."""
    grid = tmp_path / "there.grid"
    grid_from_function([(-1, 1), (-1, 1)], (8, 8),
                       lambda c: np.sum(c**2, axis=-1)).save(grid)
    missing = str(tmp_path / "nope.grid")
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
    ]
    for n, (command, cfg) in enumerate(cases):
        code, outdir = _run(tmp_path, command, cfg, out=f"out{n}")
        err = capsys.readouterr().err
        assert code == 2, (command, cfg)
        assert err.startswith("config error") and "cannot read grid" in err
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
                                  {"method": "auto", "tolerance": -1.0}])
def test_verify_norms_rejects_a_bad_dual_setting(tmp_path, capsys, dual):
    cfg = {"seed": 1, "samples": 20, "norms": [ELLIPSE_JSON], "dual": dual}
    code, outdir = _run(tmp_path, "verify-norms", cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (outdir / "norm_identities.csv").exists()


def test_verify_norms_unconverged_oracle_exits_3(tmp_path, capsys):
    cfg = {"seed": 1, "samples": 50, "norms": [ELLIPSE_JSON],
           "dual": {"method": "sphere_maximization", "refinement_iters": 1}}
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


def test_simulate_evaluates_h0_over_the_layout_twice(tmp_path, monkeypatch):
    # once to lift the radial datum and once in solve; the comparison reads
    # Trajectory.h0
    cfg = _gaussian_flow({"type": "gaussian", "r_max": 8.0},
                         compare={"kind": "radial_representation", "window": 0.5})
    nodes = flow.ball_layout(norms.euclidean(2), 2.0, 1 / 8).values.shape
    dual_norm_eval, full = norms.dual_norm_eval, []

    def counted(spec, x, *args, **kwargs):
        if np.shape(x)[:-1] == nodes:
            full.append(spec)
        return dual_norm_eval(spec, x, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "finslerheat"
                and getattr(module, "dual_norm_eval", None) is dual_norm_eval):
            monkeypatch.setattr(module, "dual_norm_eval", counted)
    code, outdir = _run(tmp_path, "simulate", cfg)
    assert code == 0 and (outdir / "comparison.csv").is_file()
    assert len(full) == 2


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
     6.0, [0, 0, 0]),
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
INF, NAN = float("inf"), float("nan")


# int() of Infinity raises OverflowError, 1e15 samples a MemoryError; the
# other values passed unchecked
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
    ("verify-norms", _VERIFY, ("dual",), {"sphere_samples": INF}),
    ("verify-norms", _VERIFY, ("dual",), {"refinement_iters": INF}),
    ("verify-exact", _EXACT, ("cases", 0, "levels"), INF),
    ("simulate", _SIMULATE, ("inner",), {"tolerance": INF}),
    ("simulate", _SIMULATE, ("inner",), {"tolerance": NAN}),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization",
                                          "refinement_iters": 1, "tolerance": NAN}),
    ("simulate", _SIMULATE, ("monitors",), {"lambda": NAN}),
    ("simulate", _SIMULATE, ("monitors",), {"lambda": INF}),
    ("radial-solve", _RADIAL, ("times",), [INF]),
    ("verify-norms", _VERIFY, ("samples",), 1e15),
    ("radial-solve", _RADIAL, ("profile",), {"type": "gaussian", "r_max": 14.0,
                                             "samples": 1e15}),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization",
                                          "sphere_samples": 1e15}),
    ("verify-norms", _VERIFY, ("dual",), {"method": "sphere_maximization",
                                          "refinement_iters": 1e300}),
], ids=["tau-inf", "radius-inf", "spacing-0", "lambda-grid-empty", "tolerance-nan",
        "levels-0", "dt-0", "max-iters-inf", "simulate-samples-inf",
        "radial-samples-inf", "verify-samples-inf", "seed-inf", "sphere-samples-inf",
        "refinement-iters-inf", "levels-inf", "inner-tolerance-inf",
        "inner-tolerance-nan", "dual-tolerance-nan", "lambda-nan", "lambda-inf",
        "times-inf", "verify-samples-1e15", "radial-samples-1e15",
        "sphere-samples-1e15", "refinement-iters-1e300"])
def test_non_finite_zero_or_empty_settings_are_config_errors(tmp_path, capsys, command,
                                                            base, path, value):
    # json reads and writes Infinity, so a config can hold it
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, outdir = _run(tmp_path, command, cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not any(outdir.iterdir())


def test_missing_config_file():
    assert main(["classify", "--config", "/nonexistent.json"]) == 2


def test_rerun_is_byte_identical(tmp_path):
    cfg = {"seed": 42, "samples": 100, "norms": [ELLIPSE_JSON]}
    _, out1 = _run(tmp_path, "verify-norms", cfg, out="one")
    _, out2 = _run(tmp_path, "verify-norms", cfg, out="two")
    assert (out1 / "norm_identities.csv").read_bytes() == \
        (out2 / "norm_identities.csv").read_bytes()


def test_verify_exact_singular_case(tmp_path):
    cfg = {"cases": [{"kind": "singular_poly", "params": {"m_order": 1},
                      "norm": EUCLID_JSON, "box": [[-1.5, 1.5], [-1.5, 1.5]],
                      "resolution": [256, 256], "annulus": [0.25, 1.0],
                      "max_residual": 0.05}]}
    code, outdir = _run(tmp_path, "verify-exact", cfg)
    assert code == 0
    assert "singular_poly" in (outdir / "exact_residuals.csv").read_text()


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


def test_cli_import_leaves_out_the_slow_scipy_modules():
    """`scipy.signal` pulls in `scipy.stats` and `scipy.interpolate` pulls in
    `scipy.optimize`: about 0.9 s of start-up for every command."""
    src = str(Path(finslerheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    slow = ["scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize"]
    code = ("import sys, finslerheat.cli; "
            f"print([m for m in {slow!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
