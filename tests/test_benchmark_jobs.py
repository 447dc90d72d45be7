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
and job runner.
"""

import pytest

import cost_ledger
import output_digests

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


def test_cost_ledger_pins_the_work_of_the_polytope_flow():
    # the counts part of `tests/cost_ledger.py`'s line: one more matvec per
    # CG step, or one more solve, moves a count; the traced peak is left
    # out, since a tracer that runs the suite (tests/line_coverage.py) adds
    # its own allocations to it
    workload, job = next((w, j) for w, j in output_digests.jobs(1) if j.name == "polytope-flow")
    counts = cost_ledger.ledger_line(workload, job).rsplit(" peak_kib=", 1)[0]
    assert counts == ("pnorm-oracles/polytope-flow exit=0 correlate=64 stencil_energy=6 "
                      "FaceKernel.form=1 cg_solves=5 dst1=0 fftconvolve=0 rfft=0 irfft=0 "
                      "fft=0 ifft=0 cg_iterations=59")


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
