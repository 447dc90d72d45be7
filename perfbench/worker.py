"""One workload in one fresh process: set up, run the CLI jobs, report.

Started by run.py with the package's `src` directory on PYTHONPATH.  The
set-up time runs from the parent's clock reading `--t0`, taken just before
this process was spawned (perf_counter is CLOCK_MONOTONIC, shared by all
processes on Linux), to the moment the first job's config is on disk.
The result goes to `<work>/result.json`; nothing is printed on stdout.
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from finslerheat import cli

import workloads
from workloads import read_csv


def _csv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _run_job(main, job, cfg_path: Path, out: Path) -> dict:
    argv = [job.command, "--config", str(cfg_path), "--out", str(out),
            "--no-timestamp"]
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    problems = []
    if code == workloads.EXIT_OK:
        try:
            problems = job.check(out, job)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    rec = {"name": job.name, "command": job.command, "code": code,
           "expect": job.expect, "seconds": seconds, "problems": problems,
           "ok": code == workloads.EXIT_OK and not problems,
           "steps": job.steps if code == workloads.EXIT_OK else 0,
           "points": job.points,
           "output_bytes": sum(p.stat().st_size for p in out.glob("*")
                               if p.is_file()),
           "digest": _csv_digest(out)}
    iters = out / "monitor_inner_iterations.csv"
    if iters.is_file():
        col = [int(float(r["inner_iterations"])) for r in read_csv(iters)]
        rec["inner_iters"] = sum(col)
        rec["inner_iters_max"] = max(col)
    comparison = out / "comparison.csv"
    if job.command == "simulate" and comparison.is_file():
        rec["ref_rel_err"] = float(read_csv(comparison)[0]["max_rel_error"])
    for problem in problems:
        print(f"check failed: {job.name}: {problem}", file=sys.stderr)
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    cfg_paths = []
    for i, job in enumerate(jobs):
        path = work / f"job{i}.json"
        path.write_text(json.dumps(job.config))
        cfg_paths.append(path)
    result = {"setup_s": time.perf_counter() - args.t0}
    if args.setup_only:
        (work / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    run = cli.main
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)

    rounds = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for r in range(args.rounds):
        records = []
        for i, (job, cfg_path) in enumerate(zip(jobs, cfg_paths)):
            if tracer is not None:
                tracer.job = r * len(jobs) + i
            out = work / f"round{r}" / f"job{i}"
            records.append(_run_job(run, job, cfg_path, out))
        rounds.append(records)
        shutil.rmtree(work / f"round{r}")
    after = resource.getrusage(resource.RUSAGE_SELF)
    result["rounds"] = rounds
    result["peak_rss_mb"] = after.ru_maxrss / 1024.0
    # per round: numpy temporaries above the mmap threshold fault in fresh
    # pages on every allocation, which shows as minor faults and system time
    result["os"] = {"minor_faults": (after.ru_minflt - before.ru_minflt) // args.rounds,
                    "sys_s": (after.ru_stime - before.ru_stime) / args.rounds}
    if tracer is not None:
        result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                           "counts": tracer.counts, "sites": tracer.sites,
                           "missing": tracer.missing}
        tracer.write_spans(work / "spans.csv")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
