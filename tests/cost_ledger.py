"""Print a deterministic cost ledger of the benchmark's jobs at seed 1.

Runs the jobs of `tests/output_digests.py` (its workload loader and job
runner) in this process, each through the suite's seam (`observe` of
`tests/seam.py`: `cProfile`, then `tracemalloc`), after the package's
caches are cleared, so that a job's counts do not depend on the
jobs before it, and prints sorted lines

    <workload>/<job> exit=<code> <name>=<calls> ... cg_iterations=<n> peak_kib=<peak>

one per job: the call counts of the functions of `COUNTED`, the CG total
of the job's `monitor_inner_iterations.csv` (`-` for a job that writes
none) and the tracemalloc peak rounded to 64 KiB.  The peak is read from
a second run of the job, without the profiler and after `gc.collect()`
(the profiler's tables and garbage-collection timing moved it by 64 KiB
from run to run).  The counts and, on one machine, the peak do not drift
as wall time does.  Run it on two trees and
`diff` the outputs: every line that differs names a job whose work moved.
A tracer that runs alongside (`tests/line_coverage.py`) moves the peak but
no count.

    PYTHONPATH=src python tests/cost_ledger.py > ledger.txt

With `--fresh`, each job (or each job named, as <workload>/<job>) runs in
a new process instead, and its line ends in ` maxrss_kib=<kib>`, that
process's `ru_maxrss`: the resident peak beside the traced one.  Two trees
whose traced peaks agree but whose resident peaks differ place the same
arrays differently in the heap; a traced peak that moves is a change of
the arrays alive.  The resident peak includes the interpreter, numpy and
the tracers, and it varies from run to run by a few hundred KiB.

    PYTHONPATH=src python tests/cost_ledger.py --fresh ellipse-flow/implicit-tau1e-3

With `--sequence WORKLOAD`, the workload's job list runs instead as the
benchmark's worker runs it (`perfbench/worker.py`, its job runner and job
order, the round count that `perfbench/run.py` takes for the
`run_seconds` of `BENCHMARK.json`, at `--seed`), in one new process with
no tracer, and one line per job and round gives the process's `ru_maxrss`
after that job and how far that job raised it (0 for the first job, whose
rise the process's start-up is not told apart from):

    <workload>/<job> round=<r> exit=<code> maxrss_kib=<kib> raised_kib=<kib>

The workload's resident peak depends on the path the heap took through
the jobs before; `--fresh` runs each job alone, so only this mode shows
which job sets the peak and which job left the heap that it grew from.

    PYTHONPATH=src python tests/cost_ledger.py --sequence pnorm-oracles --seed 2

pytest does not collect this file.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from seam import COUNTED, observe
from finslerheat import cli
from output_digests import jobs, run_job

ROOT = Path(__file__).resolve().parents[1]


def ledger_line(workload: str, job) -> str:
    """The ledger line of one job (`seam.observe`), each of its two runs
    in a temporary directory of its own: profiled for its counts, then
    traced for its peak."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = [Path(tmp) / "counted", Path(tmp) / "traced"]
        for directory in runs:
            directory.mkdir()
        runs = iter(runs)
        work = observe(lambda: run_job(job, next(runs)))
    calls = " ".join(f"{name}={work.counts[name]}" for name in COUNTED)
    cg = "-" if work.cg is None else work.cg
    return (f"{workload}/{job.name} exit={work.result[0]} {calls} cg_iterations={cg} "
            f"peak_kib={64 * round(work.peak / 65536)}")


def ledger(seed: int = 1) -> list:
    """The sorted ledger lines of every job of both workloads."""
    return sorted(ledger_line(workload, job) for workload, job in jobs(seed))


def _new_process(*args: str) -> str:
    """The stdout of this script run with `args` in a new process, with the
    package's `src` and the benchmark's `perfbench` first on its path."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, __file__, *args],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, check=True).stdout.strip()


def fresh_line(name: str) -> str:
    """The ledger line of the job `name`, <workload>/<job>, run at seed 1 in a
    new process, with that process's `ru_maxrss` in KiB appended."""
    return _new_process("--in-process", name)


def sequence(workload: str, seed: int = 1) -> str:
    """The `--sequence` lines of `workload` at `seed`, run in a new process."""
    return _new_process("--in-sequence", workload, "--seed", str(seed))


def _in_sequence(workload: str, seed: int) -> str:
    """The `--sequence` lines of `workload`, run in this process through the
    worker's own job runner, in its order and its round count."""
    import run
    import worker
    rounds = max(1, int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
                        // run.NOMINAL_ROUND_S[workload]))
    listed, lines, peak = worker.workloads.WORKLOADS[workload](seed), [], 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for i, job in enumerate(listed):
            (work / f"job{i}.json").write_text(json.dumps(job.config))
        for r in range(rounds):
            for i, job in enumerate(listed):
                record = worker._run_job(cli.main, job, work / f"job{i}.json",
                                         work / f"round{r}" / f"job{i}")
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                lines.append(f"{workload}/{job.name} round={r} exit={record['code']} "
                             f"maxrss_kib={rss} raised_kib={rss - peak if peak else 0}")
                peak = rss
            shutil.rmtree(work / f"round{r}")
    return "\n".join(lines)


def _in_process(name: str) -> str:
    workload, job = next((w, j) for w, j in jobs(1) if f"{w}/{j.name}" == name)
    line = ledger_line(workload, job)
    return f"{line} maxrss_kib={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fresh", nargs="*", metavar="JOB",
                        help="run each job named as <workload>/<job> (default all) in "
                             "a new process and add its ru_maxrss")
    parser.add_argument("--sequence", metavar="WORKLOAD",
                        help="run the workload's job list as the benchmark's worker runs "
                             "it, in a new process, and print each job's ru_maxrss")
    parser.add_argument("--seed", type=int, default=1, help="the seed of --sequence")
    parser.add_argument("--in-process", metavar="JOB", help=argparse.SUPPRESS)
    parser.add_argument("--in-sequence", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.in_process:
        print(_in_process(args.in_process))
    elif args.in_sequence:
        print(_in_sequence(args.in_sequence, args.seed))
    elif args.sequence:
        print(sequence(args.sequence, args.seed))
    elif args.fresh is not None:
        names = args.fresh or [f"{w}/{j.name}" for w, j in jobs(1)]
        print("\n".join(sorted(fresh_line(name) for name in names)))
    else:
        print("\n".join(ledger()))
