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


if __name__ == "__main__":
    print("\n".join(digests()))
