"""`docs/formats.md` names every key that the CLI's config readers accept.

Each command reads its whole config through `cli._section` before any
work.  The test wraps `_section` to record the keys of every object a
command reads, nested and tagged ones included, stops the command once
its config is read, and looks each key up in the section of
`docs/formats.md` that documents that object: a norm's keys and params in
"Norm spec", a profile's in "Radial profile", a measure's in "Measure
spec", everything else in the command's own section.  A key is documented
when the section names it in backticks or as a key of its JSON example.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from finslerheat import cli
from finslerheat.grids import grid_from_function

DOCS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
MEASURE_KINDS = ("atoms", "density", "radial_density")

EUCLID = {"family": "euclidean", "dimension": 2}
NORMS = [EUCLID, {"family": "p_norm", "dimension": 2, "params": {"p": 3}},
         {"family": "ellipse", "dimension": 2, "params": {"matrix": [[4, 0], [0, 1]]}},
         {"family": "smoothed_polytope", "dimension": 2,
          "params": {"directions": [[1, 0], [0, 1]], "epsilon": 0.05}}]
PROFILES = [{"type": "samples", "radii": [0, 1, 2], "values": [1, 1, 1]},
            {"type": "gaussian", "r_max": 4},
            {"type": "bump", "r_max": 4},
            {"type": "exp_power", "r_max": 4, "coefficient": -1, "power": 2}]
BOX = {"norm": EUCLID, "box": [[-1, 1], [-1, 1]], "resolution": [8, 8]}
CASES = [{"kind": "gauss_kernel", **BOX}, {"kind": "blowup", "params": {"lam": 0.1}, **BOX},
         {"kind": "barenblatt", "params": {"m": 2, "C": 1}, **BOX},
         {"kind": "talenti", "params": {"p": 2, "A": 1, "B": 1 / 3},
          "norm": {"family": "euclidean", "dimension": 3},
          "box": [[-1, 1]] * 3, "resolution": [4] * 3},
         {"kind": "singular_poly", "params": {"m_order": 1}, **BOX}]


def _configs(grid: str):
    """(command, config) pairs that between them hold every object, every
    tag and every tagged object's params."""
    sources = [{"kind": "radial", "profile": PROFILES[1]}, {"kind": "grid", "path": grid},
               {"kind": "atoms", "atoms": [[[0, 0], 1]]}, {"kind": "density", "path": grid},
               {"kind": "radial_density", "profile": PROFILES[1]}]
    yield "verify-norms", {"norms": NORMS, "seed": 1, "samples": 10, "tolerances": {},
                           "dual": {"method": "sphere_maximization"}}
    yield "verify-exact", {"cases": CASES}
    for datum in sources:
        yield "simulate", {"norm": EUCLID, "problem": {
            "radius": 1, "spacing": 0.25, "tau": 0.1, "t_end": 0.1, "datum": datum},
            "inner": {}, "monitors": {}, "checks": {}, "compare": {}}
    for profile in PROFILES:
        yield "radial-solve", {"norm": EUCLID, "profile": profile, "times": [1],
                               "points": [[0, 0]], "crosscheck": {"path": grid}}
    for measure in sources[2:]:
        yield "classify", {"norm": EUCLID, "measure": measure, "lambda_grid": [1]}
    yield "compare", {"a": grid, "b": grid}


def _sections() -> dict:
    """The text under each heading of the docs, by heading title."""
    parts = re.split(r"^#+ (.*)$", DOCS.read_text(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


class _Read(Exception):
    """Raised once a command has read its whole config."""


def _read_keys(monkeypatch, command: str, cfg: dict, out: Path):
    """(doc section, keys) of every object that `command` reads from `cfg`,
    and the (key, tag) pairs that its tagged readers offered and were given."""
    section, kind = cli._section, cli._kind
    stack, read, offered, given = [command], [], set(), set()

    def recording_section(value, what, required, optional=None, build=dict):
        if "family" in required:
            stack.append("Norm spec (JSON)")
        elif "type" in required:
            stack.append("Radial profile (JSON)")
        elif "kind" in required and value.get("kind") in MEASURE_KINDS:
            stack.append("Measure spec (JSON)")
        else:
            stack.append(stack[-1])
        read.append((stack[-1], {*required, *(optional or {})}))
        try:
            result = section(value, what, required, optional, build)
        finally:
            stack.pop()
        if len(stack) == 1:
            raise _Read
        return result

    def recording_kind(table, key, value, what):
        offered.update((key, tag) for tag in table)
        given.add((key, value[key]))
        return kind(table, key, value, what)

    monkeypatch.setattr(cli, "_section", recording_section)
    monkeypatch.setattr(cli, "_kind", recording_kind)
    with pytest.raises(_Read):
        cli._COMMANDS[command](cfg, out, None, False)
    monkeypatch.undo()
    return read, offered, given


def test_every_key_a_reader_accepts_is_in_its_section_of_formats_md(tmp_path, monkeypatch):
    grid = tmp_path / "datum.grid"
    grid_from_function([(-1, 1), (-1, 1)], (8, 8), lambda c: np.zeros(c.shape[:-1])).save(grid)
    sections, read, offered, given = _sections(), [], set(), set()
    for command, cfg in _configs(str(grid)):
        keys, tags, chosen = _read_keys(monkeypatch, command, cfg, tmp_path)
        read += keys
        offered |= tags
        given |= chosen
    # every norm family, case kind, profile type and datum or measure kind ran
    assert offered == given
    assert {tag for key, tag in given if key == "family"} == set(cli._NORM_PARAMS)
    assert {tag for key, tag in given if key == "kind"} >= set(cli._CASES) | set(cli._SOURCES)
    missing = sorted({(where, key) for where, keys in read for key in keys
                      if f"`{key}`" not in sections[where]
                      and f'"{key}":' not in sections[where]})
    assert not missing
