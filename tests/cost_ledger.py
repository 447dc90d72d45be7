"""Print a deterministic cost ledger of the benchmark's jobs at seed 1.

Runs the jobs of `tests/output_digests.py` (its workload loader and job
runner) in this process, each under `cProfile` and `tracemalloc`, after the
package's caches are cleared, so that a job's counts do not depend on the
jobs before it, and prints sorted lines

    <workload>/<job> exit=<code> <name>=<calls> ... cg_iterations=<n> peak_kib=<peak>

one per job: the call counts of the functions of `COUNTED`, the CG total
of the job's `monitor_inner_iterations.csv` (`-` for a job that writes
none) and the tracemalloc peak rounded to 64 KiB.  The counts and, on one
machine, the peak do not drift as wall time does.  Run it on two trees and
`diff` the outputs: every line that differs names a job whose work moved.
A tracer that runs alongside (`tests/line_coverage.py`) moves the peak but
no count.

    PYTHONPATH=src python tests/cost_ledger.py > ledger.txt

pytest does not collect this file.
"""

import cProfile
import csv
import inspect
import pstats
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import CodeType

import numpy as np

from finslerheat import flow, measures, operators
from output_digests import jobs, run_job


def _nested(function, name: str) -> CodeType:
    """The code of the function `name` defined in the body of `function`."""
    return next(code for code in function.__code__.co_consts
                if isinstance(code, CodeType) and code.co_name == name)


# name -> code object, whose (file, first line, name) is its cProfile key
COUNTED = {
    "correlate": operators.correlate.__code__,
    "stencil_energy": operators.stencil_energy.__code__,
    "FaceKernel.form": operators.FaceKernel.form.__code__,
    "cg_solves": _nested(flow._prox_stepper, "cg"),
    "dst1": _nested(flow._dst1, "transform"),
    "fftconvolve": measures.fftconvolve.__code__,
    **{name: inspect.unwrap(getattr(np.fft, name)).__code__
       for name in ("rfft", "irfft", "fft", "ifft")},
}


def _clear_caches() -> None:
    """Empty every `functools` cache of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "finslerheat" or name.startswith("finslerheat."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _cg_total(out: Path) -> str:
    path = out / "monitor_inner_iterations.csv"
    if not path.exists():
        return "-"
    with open(path, newline="") as fh:
        return str(sum(int(float(row["inner_iterations"])) for row in csv.DictReader(fh)))


def ledger_line(workload: str, job) -> str:
    """The ledger line of one job, run in a temporary directory."""
    _clear_caches()
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        profile.enable()
        try:
            code, out = run_job(job, Path(tmp))
        finally:
            profile.disable()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        cg = _cg_total(out)
    stats = pstats.Stats(profile).stats
    calls = " ".join(
        f"{name}={stats.get((c.co_filename, c.co_firstlineno, c.co_name), (0, 0))[1]}"
        for name, c in COUNTED.items())
    return (f"{workload}/{job.name} exit={code} {calls} cg_iterations={cg} "
            f"peak_kib={64 * round(peak / 65536)}")


def ledger(seed: int = 1) -> list:
    """The sorted ledger lines of every job of both workloads."""
    return sorted(ledger_line(workload, job) for workload, job in jobs(seed))


if __name__ == "__main__":
    print("\n".join(ledger()))
