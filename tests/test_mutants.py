"""The recorded mutants (`tests/mutants.json`) still apply to the code.

`tests/run_mutants.py` applies each mutant and runs its tests; this test
only checks the table, so that a change to a mutated line has to port the
mutant or drop it visibly."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_mutant_names_are_distinct():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_mutant_replaces_one_text_and_names_tests_that_exist(mutant):
    assert set(mutant) == {"name", "file", "old", "new", "tests"}
    assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"] and mutant["tests"]
    for test in mutant["tests"]:
        path, name = test.split("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(), test
