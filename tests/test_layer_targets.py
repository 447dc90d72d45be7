"""Every span the layer tracer of `perfbench` names must exist in the package.

`perfbench/layertrace.py` wraps functions by module and attribute name, and
reports a name it cannot find only at benchmark time.  A refactor that
renames or moves a traced function would silently empty a per-layer
metric, so the names are resolved here.  `install()` is never called:
it would wrap the functions for the rest of the test session.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_layertrace().TARGETS


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_layer_target_resolves(span):
    home, attr, counter, spaces = TARGETS[span]
    owner = importlib.import_module(f"finslerheat.{home}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{span}: finslerheat.{home}.{attr} is missing"
    for name in spaces or ():
        importlib.import_module(f"finslerheat.{name}")
