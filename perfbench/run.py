"""finslerheat benchmark entry point (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload's job list `max(1, seconds // NOMINAL_ROUND_S)`
times in one fresh worker process, so the work, and every count, depends
only on the arguments; SETUP_PROBES set-up-only workers add samples of the
set-up time.  It prints the end-to-end metrics.  --trace 1 runs one
untraced round and then one traced round, and prints the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  The last line
of stdout is the result; the line before it is a stamp of the machine,
the versions and every job's exit code and output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# typical time of one round of the job list on a 2-core Xeon VM (Python 3.11,
# numpy 2.4), whose speed drifts by 20-50% over minutes
NOMINAL_ROUND_S = {"ellipse-flow": 15.0, "pnorm-flow": 10.0, "oracles": 13.0,
                   "pnorm-oracles": 22.5}
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _stamp(args, cap: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "cpu": model, "loadavg": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "thread_cap": cap}


def _worker(env: dict, work: Path, args, deadline: float, *extra) -> dict:
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), *extra,
           "--t0", repr(time.perf_counter())]
    # stray stdout from the program goes to stderr: our last line is the result
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(result_path.read_text())


def _jobs(result: dict) -> list:
    return [job for rnd in result["rounds"] for job in rnd]


def _median_seconds(result: dict) -> list:
    """Per job of the list: (job record of round 0, median seconds over rounds)."""
    return [(jobs[0], statistics.median(j["seconds"] for j in jobs))
            for jobs in zip(*result["rounds"])]


def _rate(jobs: list, field: str, command: str) -> float:
    """Work per second over the jobs of one command, at median job times."""
    sel = [(j, s) for j, s in jobs if j["command"] == command]
    return sum(j[field] for j, _ in sel) / sum(s for _, s in sel) if sel else 0.0


def _workload_figures(result: dict) -> dict:
    """Figures of an untraced run; rates of a command the workload does not
    run, and the error of a comparison it does not make, read 0."""
    jobs = _median_seconds(result)
    return {
        "wall_s": sum(s for _, s in jobs),
        "flow_steps_per_s": _rate(jobs, "steps", "simulate"),
        "radial_points_per_s": _rate(jobs, "points", "radial-solve"),
        "ref_rel_err": max((j.get("ref_rel_err", 0.0) for j in _jobs(result)),
                           default=0.0),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _layer_figures(traced: dict, untraced: dict) -> dict:
    """Span and count figures of the traced round; rates from the untraced one."""
    tr = traced["trace"]
    values = _workload_figures(untraced)
    values["trace.overhead_frac"] = (_workload_figures(traced)["wall_s"]
                                     / values["wall_s"] - 1.0)
    values.update((f"os.{k}", v) for k, v in untraced["os"].items())
    for kind in ("calls", "self_s"):
        values.update((f"{span}.{kind}", v) for span, v in tr[kind].items())
    values.update(tr["counts"])
    jobs = _jobs(traced)
    iters = [j for j in jobs if "inner_iters" in j]
    values["flow.inner_iters"] = sum(j["inner_iters"] for j in iters)
    values["flow.inner_iters_per_step.max"] = max(
        (j["inner_iters_max"] for j in iters), default=0)
    values["cli.output_bytes"] = sum(j["output_bytes"] for j in jobs)
    values["cli.other_s"] = tr["self_s"].get("cli.main", 0.0)
    return values


def _select(values: dict, declared: list) -> dict:
    """The declared metrics, in declared order; spans never entered read 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # turn SIGTERM into an exception so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "finslerheat" / "cli.py").is_file():
        print(f"no finslerheat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the jobs are single-threaded numpy; more BLAS threads would only
    # contend with the host's other tenants for the VM's few cores
    cap = 1
    env = dict(os.environ, **{v: str(cap) for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    stamp = _stamp(args, cap)
    rounds = max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        if args.trace:
            # one round each: the traced round against an untraced one
            untraced = _worker(env, work, args, deadline)
            traced = _worker(env, work, args, deadline, "--trace", "1")
            shutil.copy(work / "spans.csv", out_root / f"{args.workload}.spans.csv")
            metrics = _select(_layer_figures(traced, untraced), spec["per_layer"])
            stamp["trace_sites"] = traced["trace"]["sites"]
            stamp["trace_missing"] = traced["trace"]["missing"]
            if stamp["trace_missing"]:
                print(f"trace targets not found: {stamp['trace_missing']}",
                      file=sys.stderr)
            runs = [untraced, traced]
        else:
            setup = [_worker(env, work, args, deadline, "--setup-only")["setup_s"]
                     for _ in range(SETUP_PROBES)]
            untraced = _worker(env, work, args, deadline, "--rounds", str(rounds))
            values = _workload_figures(untraced)
            values["setup_s"] = statistics.median(setup + [untraced["setup_s"]])
            metrics = _select(values, spec["end_to_end"])
            runs = [untraced]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [job for run in runs for job in _jobs(run)]
    stamp["rounds"] = len(jobs) // len(untraced["rounds"][0])
    stamp["jobs"] = [{k: j.get(k) for k in ("name", "code", "expect", "ok",
                                            "seconds", "digest", "problems")}
                     for j in untraced["rounds"][0]]
    stamp["figures"] = _workload_figures(untraced)
    print(json.dumps({"stamp": stamp}))
    # a job may end with its documented non-zero exit code; anything else
    # that is not a clean exit with checked outputs makes the result wrong
    correct = all(j["ok"] or j["code"] == j["expect"] != 0 for j in jobs)
    print(json.dumps({"correct": correct,
                      "attempted": len(jobs),
                      "failed": sum(not j["ok"] for j in jobs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
