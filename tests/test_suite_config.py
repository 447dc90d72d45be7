"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_a_failing_hypothesis_example_is_reported_under_the_warning_filters(tmp_path):
    # filterwarnings = error must not turn hypothesis's failure report
    # (which imports libcst, and libcst warns) into an INTERNALERROR that
    # ends the run with exit 3 and loses the report and the later tests
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
