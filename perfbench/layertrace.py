"""Layer tracing from outside the package: wrap public functions by name.

`from .norms import duality_map` binds a second name for the function in
`flow`, so a wrapper installed only in `norms` would miss every call made
from `flow`.  `install` therefore replaces every module-level binding of
each target object in every loaded `finslerheat` module (or in the listed
namespaces only) and records where it went, so a missing span shows up as
a missing target instead of a silent zero.

A span's self time is its duration minus the durations of its direct
children.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np
from finslerheat.norms import dual_spec


def _nodes(x) -> int:
    """Points in a batch of shape (..., N)."""
    return int(np.prod(np.shape(x)[:-1]))


def _numeric_dual(spec, cfg) -> bool:
    """Whether dual_norm_eval / grad_dual_norm take the sphere-maximization path."""
    return (dual_spec(spec) is None
            or getattr(cfg, "method", "auto") == "sphere_maximization")


def _count_dual(counts, spec, x, cfg=None):
    counts["norms.dual_norm_eval.nodes"] += _nodes(x)
    if _numeric_dual(spec, cfg):
        counts["norms.dual_numeric.nodes"] += _nodes(x)


def _count_grad_dual(counts, spec, x, cfg=None):
    if _numeric_dual(spec, cfg):
        counts["norms.dual_numeric.nodes"] += _nodes(x)


def _count_energy_gradient(counts, values, *args, **kwargs):
    # computed from array sizes: the field read plus the gradient written
    counts["flow.energy_gradient.bytes_computed"] += 2 * values.nbytes


def _count_radial(counts, profile, dim, rho, *args, **kwargs):
    counts["radial.radial_heat_profile.points"] += int(np.size(rho))


# span name -> (home module, attribute, argument counter, namespaces or None)
TARGETS = {
    "norms.duality_map": ("norms", "duality_map", None, None),
    "norms.coercivity_bounds": ("norms", "coercivity_bounds", None, None),
    "norms.dual_norm_eval": ("norms", "dual_norm_eval", _count_dual, None),
    "norms.grad_dual_norm": ("norms", "grad_dual_norm", _count_grad_dual, None),
    "norms.verify_identities": ("norms", "verify_identities", None, None),
    "operators.finsler_laplacian": ("operators", "finsler_laplacian", None, None),
    "operators.lift_radial": ("operators", "lift_radial", None, None),
    "radial.radial_heat_profile": ("radial", "radial_heat_profile", _count_radial,
                                   None),
    "measures.growth_functional": ("measures", "growth_functional", None, None),
    "solutions.pde_residual": ("solutions", "pde_residual", None, None),
    "flow.solve": ("flow", "solve", None, None),
    "flow.energy_gradient": ("flow", "energy_gradient", _count_energy_gradient,
                             None),
    "flow.energy": ("flow", "energy", None, None),
    "flow.ball_mask": ("flow", "ball_mask", None, None),
    # scipy's FFT convolution as the flow monitors call it; measures keeps
    # its own binding, which the growth functional's span already covers
    "flow.monitor_fft": ("flow", "fftconvolve", None, ("flow",)),
    "grids.save": ("grids", "GridFunction.save", None, None),
}


class Tracer:
    """Per-span call counts and self times, argument counters, span log."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.sites: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self.job = 0
        self._spans: list[tuple] = []
        self._stack: list[list] = []

    def wrap(self, name, fn, counter=None):
        stack, spans = self._stack, self._spans
        calls, self_s = self.calls, self.self_s
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(counts, *args, **kwargs)
            parent = stack[-1][0] if stack else -1
            # [id in start order, time in direct children, start]
            frame = [len(spans) + len(stack), 0.0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((self.job, frame[0], parent, name, frame[2], end))

        return traced

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded package."""
        modules = {n.rpartition(".")[2]: m for n, m in list(sys.modules.items())
                   if m is not None and (n == "finslerheat"
                                         or n.startswith("finslerheat."))}
        for name, (home, attr, counter, spaces) in TARGETS.items():
            owner = modules.get(home)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn, counter)
            sites = []
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                sites.append(f"{home}.{attr}")
            else:
                for mod_name, mod in modules.items():
                    if spaces is not None and mod_name not in spaces:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            sites.append(f"{mod_name}.{key}")
            self.sites[name] = sorted(sites)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("job,id,parent,name,start_s,end_s\n")
            for job, sid, parent, name, start, end in self._spans:
                fh.write(f"{job},{sid},{parent},{name},{start:.9f},{end:.9f}\n")
