"""Two hypothesis profiles for the suite, and the fixtures of its seam.

`finslerheat`, loaded by default: no per-example deadline (the examples run
numerical solves whose time varies with the machine) and derandomized
draws, so every run checks the same examples.

`deep`, selected with hypothesis's own option, runs every property at DEEP
times its max_examples on fresh random draws, outside tier-1:

    python -m pytest --hypothesis-profile deep tests/test_solutions.py tests/test_norms.py

The option is applied after this file loads the default, so it wins.

`work` and `block` serve `tests/seam.py` to the tests: the counts, CG total
and traced peak of one call, and the values of a `grids.blocks` block.
"""

import pytest
from hypothesis import settings

from seam import Block, observe

DEEP = 20   # the deep profile's factor on each property's max_examples

settings.register_profile("finslerheat", deadline=None, derandomize=True)
settings.register_profile("deep", settings.get_profile("finslerheat"), derandomize=False,
                          max_examples=DEEP * settings.get_profile("finslerheat").max_examples)
settings.load_profile("finslerheat")


def pytest_collection_modifyitems(items):
    """Under the deep profile, a property that sets its own max_examples
    runs DEEP times as many; one that sets none runs the profile's."""
    if settings.get_current_profile_name() != "deep":
        return
    for test in {getattr(item, "obj", None) for item in items}:
        if getattr(test, "_hypothesis_internal_settings_applied", False):
            own = test._hypothesis_internal_use_settings
            test._hypothesis_internal_use_settings = settings(own, max_examples=DEEP * own.max_examples)


@pytest.fixture(scope="session")
def work():
    """`observe`: the counts, CG total and traced peak of one call."""
    return observe


@pytest.fixture(scope="session")
def block():
    """`Block`: the size of a `grids.blocks` block, and a context that sets it."""
    return Block()
