import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finslerheat
from finslerheat import norms
from finslerheat.cli import main
from finslerheat.grids import grid_from_function

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
    specs = [norms.smoothed_polytope(np.eye(2), 0.05), norms.p_norm(3, 2)]
    cfg = {"seed": 1, "samples": 200, "norms": [s.to_dict() for s in specs]}
    code, outdir = _run(tmp_path, "verify-norms", cfg)
    assert code == 0
    with open(outdir / "norm_identities.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * len(specs)
    assert all(len(row) == 6 and None not in row for row in rows)
    assert [row["family"] for row in rows] == [s.label() for s in specs
                                               for _ in range(7)]


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
