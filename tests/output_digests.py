"""Print the sha256 of every output file of the benchmark's jobs at seed 1.

Runs the jobs of the `ellipse-flow` and `pnorm-oracles` workloads
(`perfbench/workloads.py`, loaded from its file and only read) in this
process with `--no-timestamp`, each in its own temporary directory, and
prints sorted lines

    <sha256>  <workload>/<job>/<file>
    exit <code>  <workload>/<job>

one per output file and one per job.  Run it on two trees and `diff` the
outputs: every line that differs names a file that moved or a job whose
exit code changed, so a claim that a change keeps every output's bits is
checked, not read by eye.

    PYTHONPATH=src python tests/output_digests.py > digests.txt

The bytes hold for one numpy build and SIMD dispatch (`docs/formats.md`).
With `--record` the lines follow one header line, `# ` and `build()`, the
form of `tests/digests.txt`, which tier-1 compares with this output
(`tests/test_benchmark_jobs.py`); a change that moves a byte rewrites it:

    PYTHONPATH=src python tests/output_digests.py --record > tests/digests.txt

pytest does not collect this file.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

from finslerheat.cli import main as cli_main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def jobs(seed: int = 1) -> list:
    """(workload, job) for every job of both workloads at `seed`, in order."""
    workloads = _load_workloads().WORKLOADS
    return [(workload, job) for workload in ("ellipse-flow", "pnorm-oracles")
            for job in workloads[workload](seed)]


def run_job(job, directory: Path) -> tuple:
    """Run one job in this process with `--no-timestamp`, its config and its
    outputs in `directory`, its output quiet: (exit code, output directory)."""
    config, out = directory / "job.json", directory / "out"
    config.write_text(json.dumps(job.config))
    argv = [job.command, "--config", str(config), "--out", str(out), "--no-timestamp"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv), out


def digests(seed: int = 1) -> list:
    """The sorted digest and exit lines of every job of both workloads."""
    lines = []
    for workload, job in jobs(seed):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_job(job, Path(tmp))
            lines.append(f"exit {code}  {workload}/{job.name}")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {workload}/{job.name}/{path.relative_to(out)}")
    return sorted(lines)


def build() -> str:
    """The numpy build that the digests hold for: its version and the SIMD
    targets that it dispatches to on this CPU."""
    dispatch = [target for target in _multiarray_umath.__cpu_dispatch__
                if _multiarray_umath.__cpu_features__.get(target)]
    return f"numpy {np.__version__} dispatch {' '.join(dispatch)}"


if __name__ == "__main__":
    header = [f"# {build()}"] if "--record" in sys.argv[1:] else []
    print("\n".join(header + digests()))
