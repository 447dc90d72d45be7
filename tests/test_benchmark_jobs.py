"""Every job of the benchmark's two workloads passes its own check.

`perfbench/workloads.py` defines the CLI jobs of `ellipse-flow` and
`pnorm-oracles` and, per job, a check of its outputs (file names, row
counts, monotone energy, the comparison's error).  The benchmark counts a
job as correct when it exits 0 and its check finds no problem; that
verdict is taken here for every job at seed 1, and for the numeric-oracle
job at the seeds where its identities once failed, so a change that
renames an output file or breaks a job fails in the suite, not only at
benchmark time.  The module is loaded from its file and only read, and
each job runs in this process, through `tests/output_digests.py`'s loader
and job runner.  The cost ledger and the output digests of every job are
checked in (`tests/ledger.txt`, `tests/digests.txt`) and compared here, so
a change that moves a count, a peak or a byte rewrites them in its diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cost_ledger
import output_digests

ROOT = Path(__file__).resolve().parents[1]

JOBS = {f"{workload}:{job.name}": job for workload, job in output_digests.jobs(1)}
# seeds at which `verify-norms-numeric` read inversion violations of up to
# 1.02e-6 against its 1e-6 tolerance, while the oracle's 2-D maximizer
# stopped about 2e-7 rad short of the optimum
JOBS.update({f"pnorm-oracles:{job.name}:seed-{seed}": job for seed in (34, 123, 148, 189)
             for workload, job in output_digests.jobs(seed)
             if job.name == "verify-norms-numeric"})


@pytest.mark.parametrize("job", list(JOBS.values()), ids=list(JOBS))
def test_benchmark_job_passes_its_check(tmp_path, job):
    code, out = output_digests.run_job(job, tmp_path)
    assert code == 0
    assert job.check(out, job) == []


def _start(script: str) -> subprocess.Popen:
    """`script` of this directory started in a new process, the package's
    `src` first on its path; read its lines with `_lines`."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.Popen([sys.executable, str(ROOT / "tests" / script)], text=True,
                            env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE)


def _lines(tool: subprocess.Popen) -> list:
    out, _ = tool.communicate(timeout=600)
    assert tool.returncode == 0
    return out.splitlines()


def test_the_ledger_and_the_digests_are_the_checked_in_files(capsys):
    """`tests/cost_ledger.py` and `tests/output_digests.py` print the lines
    of `tests/ledger.txt` and `tests/digests.txt`: every job's call counts,
    CG total, traced peak, exit code and output bytes.  Both run in new
    processes, side by side, so that no tracer of the suite's
    (`tests/line_coverage.py`) moves a peak.  Among the ledger's lines,
    the polytope flow's pins `correlate=64 stencil_energy=6
    FaceKernel.form=1 cg_solves=5 cg_iterations=59`.  The digests hold for
    the numpy build and SIMD dispatch that the digest file's header names;
    on another, the test compares the exit lines and the file list, and
    the ledger's counts without the traced peaks, and says so."""
    with _start("cost_ledger.py") as counted, _start("output_digests.py") as hashed:
        ledger, digests = _lines(counted), _lines(hashed)
    recorded_ledger = (ROOT / "tests" / "ledger.txt").read_text().splitlines()
    header, *recorded_digests = (ROOT / "tests" / "digests.txt").read_text().splitlines()
    assert header.startswith("# numpy ")
    if header == f"# {output_digests.build()}":
        assert ledger == recorded_ledger
        assert digests == recorded_digests
        return
    with capsys.disabled():
        print(f"\n{header[2:]} recorded the digests, not {output_digests.build()}: "
              "compared the exit lines, the file list and the ledger's counts only")
    counts = lambda lines: [line.rsplit(" peak_kib=", 1)[0] for line in lines]
    names = lambda lines: sorted(line if line.startswith("exit ") else line.split("  ", 1)[1]
                                 for line in lines)
    assert counts(ledger) == counts(recorded_ledger)
    assert names(digests) == names(recorded_digests)


def test_cost_ledger_runs_a_job_in_a_fresh_process():
    # `--fresh` mode on the smallest job: the in-process line's counts, the
    # traced peak and the new process's ru_maxrss, which holds the peak
    workload, job = next((w, j) for w, j in output_digests.jobs(1) if j.name == "verify-norms")
    line = cost_ledger.fresh_line(f"{workload}/{job.name}")
    counts = cost_ledger.ledger_line(workload, job).rsplit(" peak_kib=", 1)[0]
    head, peak, rss = line.rsplit(" ", 2)
    assert head == counts
    assert peak.startswith("peak_kib=") and rss.startswith("maxrss_kib=")
    assert int(rss.split("=")[1]) > int(peak.split("=")[1]) > 0


def test_cost_ledger_runs_a_workload_as_the_worker_does():
    # `--sequence` mode on the oracle jobs: the worker's job order, its round
    # count for the benchmark's 45 s (3 rounds of 13 s nominal), and per job
    # the process's ru_maxrss after it and how far the job raised it
    names = [job.name for workload, job in output_digests.jobs(1) if workload == "pnorm-oracles"]
    lines = [line.split() for line in cost_ledger.sequence("oracles").splitlines()]
    assert [line[0] for line in lines] == [f"oracles/{name}" for name in names[4:]] * 3
    assert [line[1] for line in lines] == [f"round={r}" for r in range(3) for _ in names[4:]]
    assert all(line[2] == "exit=0" for line in lines)
    rss = [int(line[3].removeprefix("maxrss_kib=")) for line in lines]
    raised = [int(line[4].removeprefix("raised_kib=")) for line in lines]
    assert rss == sorted(rss) and raised == [0] + [b - a for a, b in zip(rss, rss[1:])]
