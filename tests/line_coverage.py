"""Print every executable line of the package that no tier-1 test reaches.

Runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, tracing only frames of `src/finslerheat` (the package
is imported after the tracer is set, so its module-level lines count), and
prints, sorted,

    <file>:<line>: <source>

for each line that holds bytecode (`co_lines` of every code object of each
module) and that no test ran, then a count and pytest's exit code.  Lines
run only in a subprocess that a test starts are not seen.  Tracing makes
the suite about 1.7 times slower.

    PYTHONPATH=src python tests/line_coverage.py [pytest args]

With no arguments it runs the whole suite.  pytest does not collect this file.
"""

import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "finslerheat"


def executable_lines(path: Path) -> set:
    """The lines of `path` that hold bytecode, over all its code objects."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def reached_lines(args: list) -> tuple:
    """(the (file, line) pairs of the package that `pytest args` ran, its exit code)."""
    prefix, reached = str(PACKAGE) + os.sep, set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    if any(name == "finslerheat" or name.startswith("finslerheat.") for name in sys.modules):
        raise RuntimeError("finslerheat is imported before the tracer is set")
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached, int(code)


def main(argv: list) -> int:
    args = argv or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                    str(ROOT / "tests")]
    reached, code = reached_lines(args)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - {l for f, l in reached if f == str(path)}):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("\n".join(missed))
    print(f"{len(missed)} executable lines not reached; pytest exit {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
