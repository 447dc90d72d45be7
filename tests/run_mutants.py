"""Run the recorded mutants of `tests/mutants.json` and report the survivors.

Each row names a file, an exact old text that occurs once in it, the new
text that replaces it, and the tests that must fail once it is replaced.
The repository is copied once to a temporary directory; each mutant is
applied to that copy, its tests run there with `pytest -x -q`, and the
file is restored before the next.  A mutant is killed when its tests fail
(pytest exit 1) and survives when they pass; any other exit (the tests not
found, a collection error) is reported as an error.

    python tests/run_mutants.py

Prints one line per mutant, then every survivor and error, and exits 1 if
there is any.  pytest does not collect this file; `tests/test_mutants.py`
checks the table itself in tier-1.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.json"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              ".perfbench_out")


def run(mutant: dict, copy: Path) -> str:
    """'killed', 'survived' or 'error (exit N)' for one mutant on the copy."""
    path = copy / mutant["file"]
    original = path.read_text()
    if original.count(mutant["old"]) != 1:
        return "error (old text does not occur exactly once)"
    path.write_text(original.replace(mutant["old"], mutant["new"]))
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *mutant["tests"]], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    finally:
        path.write_text(original)
    return {0: "survived", 1: "killed"}.get(code, f"error (exit {code})")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        results = {}
        for mutant in json.loads(TABLE.read_text()):
            results[mutant["name"]] = run(mutant, copy)
            print(f"{results[mutant['name']]:<10} {mutant['name']}", flush=True)
    bad = [name for name, result in results.items() if result != "killed"]
    print(f"{len(results) - len(bad)} of {len(results)} mutants killed")
    for name in bad:
        print(f"not killed: {name} ({results[name]})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
