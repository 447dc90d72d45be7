"""The suite's one seam onto the package's work: `observe(call)` returns
the call counts of `COUNTED`, the CG total and the tracemalloc peak of one
call, for tier-1 (the `work` fixture) and `tests/cost_ledger.py`; `Block`
(the `block` fixture) is the one handle on a `grids.blocks` block's values.
A change to a private helper that the counts name touches this file only.
It imports neither pytest nor hypothesis, so that the ledger's processes
hold only what the benchmark's worker holds.  pytest does not collect it.
"""

import cProfile
import csv
import gc
import inspect
import pstats
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import CodeType
from typing import Callable, Optional

import numpy as np

from finslerheat import flow, grids, measures, operators


def _nested(function, name: str) -> CodeType:
    """The code of the function `name` defined in the body of `function`."""
    return next(code for code in function.__code__.co_consts
                if isinstance(code, CodeType) and code.co_name == name)


def _code(function) -> CodeType:
    return inspect.unwrap(function).__code__


# name -> code object, whose (file, first line, name) is its cProfile key:
# the correlations, stencil energies and face sums, the prox's CG solves,
# the box solve's DST-I transforms, the convolutions and numpy's FFT calls
COUNTED = {
    "correlate": operators.correlate.__code__,
    "stencil_energy": operators.stencil_energy.__code__,
    "FaceKernel.form": operators.FaceKernel.form.__code__,
    "cg_solves": _nested(flow._prox_stepper, "cg"),
    "dst1": _nested(flow._dst1, "transform"),
    "fftconvolve": measures.fftconvolve.__code__,
    **{name: _code(getattr(np.fft, name)) for name in ("rfft", "irfft", "fft", "ifft")},
}


def clear_caches() -> None:
    """Empty every `functools` cache of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "finslerheat" or name.startswith("finslerheat."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@dataclass(frozen=True)
class Work:
    """What one call did: `result`, what it returned; `counts`, name ->
    calls; `cg`, its CG total; `peak`, its tracemalloc peak in bytes; and
    `held`, the traced bytes still allocated once it returned, its result
    among them (None where not traced)."""
    result: object
    counts: dict
    cg: Optional[int]
    peak: Optional[int]
    held: Optional[int]


def cg_total(result) -> Optional[int]:
    """The CG iterations a call's own output reports: the sum of the
    `inner_iterations` monitor of a `flow.Trajectory`, or of the
    `monitor_inner_iterations.csv` in an output directory (the result, or
    its last item); None for any other result or a directory without one."""
    last = result[-1] if isinstance(result, tuple) and result else result
    if isinstance(last, flow.Trajectory):
        return int(np.sum(last.monitors["inner_iterations"]))
    if isinstance(last, Path) and (path := last / "monitor_inner_iterations.csv").exists():
        with open(path, newline="") as fh:
            return sum(int(float(row["inner_iterations"])) for row in csv.DictReader(fh))
    return None


def observe(call: Callable[[], object], *, count: bool = True, trace: bool = True,
            cold: bool = True, also: Optional[dict] = None) -> Work:
    """Run `call()` and return its `Work`.

    With `count`, one run under cProfile gives the calls of `COUNTED` and of
    `also` (name -> function) and the CG total of its result.  With `trace`,
    one more run, without the profiler (its tables and garbage-collection
    timing moved the peak), under tracemalloc, gives the peak and what
    stays held.  With `cold`, each run starts from empty package caches, so
    that its work does not depend on what ran before, and a traced run
    starts after a garbage collection and reads what stays held after
    another.  The result is the last run's."""
    result, counts, cg, peak, held = None, {}, None, None, None
    if count:
        if cold:
            clear_caches()
        profile = cProfile.Profile()
        profile.enable()
        try:
            result = call()
        finally:
            profile.disable()
        stats = pstats.Stats(profile).stats
        codes = {**COUNTED, **{name: _code(fn) for name, fn in (also or {}).items()}}
        counts = {name: stats.get((c.co_filename, c.co_firstlineno, c.co_name), (0, 0))[1]
                  for name, c in codes.items()}
        cg = cg_total(result)
    if trace:
        if cold:
            clear_caches()
            gc.collect()
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
            if cold:
                gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return Work(result, counts, cg, peak, held)


class Block:
    """The suite's one handle on the values of a `grids.blocks` block:
    `size`, the values a block holds now, and `block(n)`, a context in
    which every pass cuts blocks of n values, its plans cached afresh."""

    @property
    def size(self) -> int:
        return grids._BLOCK

    @contextmanager
    def __call__(self, values: int):
        saved, grids._BLOCK = grids._BLOCK, values
        clear_caches()
        try:
            yield
        finally:
            grids._BLOCK = saved
            clear_caches()
