"""Every job of the benchmark's two workloads passes its own check.

`perfbench/workloads.py` defines the CLI jobs of `ellipse-flow` and
`pnorm-oracles` and, per job, a check of its outputs (file names, row
counts, monotone energy, the comparison's error).  The benchmark counts a
job as correct when it exits 0 and its check finds no problem; that
verdict is taken here for every job at seed 1, and for the numeric-oracle
job at the seeds where its identities once failed, so a change that
renames an output file or breaks a job fails in the suite, not only at
benchmark time.  The module is loaded from its file and only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from finslerheat.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads().WORKLOADS
JOBS = {f"{workload}:{job.name}": job for workload in ("ellipse-flow", "pnorm-oracles")
        for job in _WORKLOADS[workload](1)}
# seeds at which `verify-norms-numeric` read inversion violations of up to
# 1.02e-6 against its 1e-6 tolerance, while the oracle's 2-D maximizer
# stopped about 2e-7 rad short of the optimum
JOBS.update({f"pnorm-oracles:{job.name}:seed-{seed}": job for seed in (34, 123, 148, 189)
             for job in _WORKLOADS["pnorm-oracles"](seed) if job.name == "verify-norms-numeric"})


@pytest.mark.parametrize("job", list(JOBS.values()), ids=list(JOBS))
def test_benchmark_job_passes_its_check(tmp_path, job):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(job.config))
    out = tmp_path / "out"
    code = main([job.command, "--config", str(config), "--out", str(out), "--no-timestamp"])
    assert code == 0
    assert job.check(out, job) == []
