"""Dirichlet flow on an anisotropic ball by proximal (implicit Euler) steps.

The evolution is the L^2 gradient flow of the convex energy

    psi(u) = (1/2) int_Omega H(grad u)^2 dx,   Omega = {H0(x) < R},

so one implicit Euler step from u_prev is the proximal map

    argmin_u  ||u - u_prev||_{L^2}^2 / (2 tau) + psi(u)

over fields vanishing outside the mask.  The discrete energy sums
H(face gradient)^2 over all grid faces (each of the N face families sees
the full gradient, hence the 1/(2N) normalization), with the masked field
extended by zero; the face gradient G and its exact adjoint come from
`operators`.  `energy_gradient` is its one gradient, (1/N) G^T A(G u).
The face sum is `operators.FaceKernel.form`, and `operators.apply_operator`
runs it: for quadratic norm families (H^2 = xi^T Q xi) the gradient is K u
with K = (1/N) G^T Q G, translation invariant on the zero-extended grid,
so it is applied as the constant stencil read off the face path (the
face gradient stays the one definition).  psi = (vol/2) <u, grad psi(u)>
by Euler's identity: p-norms read it so, quadratic families by the
difference form of the same cached stencil (`operators.stencil_energy`),
whose error does not grow like eps/h^2.
The prox is built once per solve (`_prox_stepper` holds the boundary band,
the box preconditioner, whose DST-I is scipy's on numpy's real FFT
(`_dst1`), and its own CG, scipy's `cg` step for step, with inner
products in a fixed order, so that no bit depends on the BLAS thread
count, and no full-size scratch) and takes one path per norm family.
The one box solve (`_box_preconditioner`) is Concus and Golub's fictitious-domain
fast-Poisson solver: the DST-I inverse on the bounding box of I/tau +
sum_k c_k S_k, then masked.  The stepper names the stencils S_k (as face
operators) and their weights c_k; the box solve alone forms the divisor
from their symbols (`operators.stencil_symbol`), a block of rows at a time
in each call, and holds neither.  Quadratic families take one
CG solve of the SPD system (I/tau + K) u = u_prev/tau, preconditioned by
the box inverse of I/tau + K (K's stencil weighed by 1) when the datum is
below the stopping tolerance on the band of free nodes within the stencil's
reach of a clamped node, where the box and masked operators differ.
p-norms take damped Newton steps on the exact objective; each iterate's
faces are evaluated once, by one `FaceKernel.form`, which its gradient and,
once accepted, its Newton Hessian (the same form over DA) both read, bit
for bit as separate evaluations.  One object owns them, the solve's
`_NewtonFaces`, built with the stepper and kept in the solve's buffers:
one kernel that the gradients, the Hessians and the energy reads share,
and the H, s, DA, flux and product buffers that each evaluation
overwrites; the faces are consumed once DA is built from them, so one
set serves the whole solve.  For p >= 2
each Newton CG is preconditioned by the box inverse of I/tau + (1/N) G^T
diag(c) G, the unit forms weighed by c_k,
the median over the faces of the Hessian's positive DA_kk; for p < 2, where
DA_kk is unbounded as xi_k -> 0, CG is plain.  Every returned step is a
descent point of the monitored energy.  The explicit scheme advances with
the face-flux operator under the usual parabolic step restriction; its
step (`_explicit_stepper`) is built once per solve too.
The stepper and the monitor reader of a solve share one `buffers` dict,
which dies with the solve, under the one lending rule of
`operators._correlation_buffers`; `energy`, `weighted_monitors`,
`proximal_step` and `explicit_step` build theirs per call: no
module-level cache holds a field.  Every pass that works a cache-sized
block at a time cuts its blocks by `grids.blocks`.

Domain geometry: the datum is a grid function on the ball's layout
(measures are laid on it by `measures.mollify` first).  The ball is masked
inside a bounding box whose sides touch it (the half-width along axis i is
R * H(e_i), the support function of the ball); cut cells and the box edge
are Dirichlet nodes.  `solve` evaluates H0 at the nodes once
(`norms.dual_norm_nodes`, a block of rows at a time) and returns it
as `Trajectory.h0`, the run's one H0: the mask, the monitors and every
comparison of the run read the domain from it.

Each step's monitors come from two producers built once per solve: the
stepper's stats by name (inner_iterations, preconditioned; 0 if absent)
and `_monitor_reader`, the one energy reader (also of `energy` and
`weighted_monitors`): the energy, the mass, the quadratic weight integral
int e^(-2 lam H0^2/(1-4 lam t)) u^2 (nonincreasing while t < 1/(4 lam))
and the windowed-ball weighted L^1 quantity with weight e^(-H0^2 (1+t^ell)).
The reader holds no field of H0^2: each read squares H0 into a lent
weight buffer and scales it in place.  Of the ell window's ball kernel it
holds the row transform only (`measures.fftconvolve` with a mask).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, SpecValidationError, StabilityError, finite, integer, positive
from .grids import GridFunction, blocks, bounded, empty_layout
from .measures import MeasureSpec, _ball_kernel, fftconvolve, kernel_rows, mollify
from .norms import (NormSpec, _p_flux, _p_jacobian, _p_terms, coercivity_bounds,
                    dual_norm_nodes, duality_map, eval_norm)
from .operators import (FaceKernel, _component_axes, _correlation_buffers,
                        _face_flux_divergence, apply_operator, constant_stencil, dst_box,
                        interior_mask, stencil_energy, symbol_blocks, symbol_plan, symbol_rows)


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------

def ball_layout(spec: NormSpec, radius: float, spacing: float) -> GridFunction:
    """Empty grid on the lattice box hugging {H0 <= radius}."""
    positive(radius, "radius")
    positive(spacing, "spacing")
    extents = eval_norm(spec, np.eye(spec.dimension))
    cells = [max(2, int(round(radius * e / spacing))) for e in extents]
    box = tuple((-c * spacing, c * spacing) for c in cells)
    return empty_layout(bounded(box, "the ball's box"), tuple(2 * c for c in cells))


def ball_mask(spec: NormSpec, layout: GridFunction, radius: float) -> np.ndarray:
    """Free nodes of the Dirichlet ball: inside it, off the box edge; others clamp to 0."""
    return _free_nodes(dual_norm_nodes(spec, layout), layout, radius)


def _free_nodes(h0: np.ndarray, layout: GridFunction, radius: float) -> np.ndarray:
    """`ball_mask` from H0 at the nodes of `layout`."""
    return (h0 < radius * (1.0 - 1e-12)) & interior_mask(layout)


@dataclass(frozen=True)
class InnerSolverConfig:
    tolerance: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):     # max_iters kept as an int: 10.0 reads as 10
        object.__setattr__(self, "max_iters", integer(self.max_iters, "max_iters"))
        positive(self.tolerance, "tolerance")
        positive(self.max_iters, "max_iters")


MAX_STEPS = 10**7


@dataclass
class FlowProblem:
    """A Dirichlet flow and its time axis, resolved once: `steps` = t_end / tau
    (at most MAX_STEPS, a bound on the run's length), and `stored`, the steps
    whose slices `solve` keeps (the last, and each store time's); the datum is
    `grids.bounded`, so that the monitors' sums of squares stay finite.  Each
    setting, the explicit step bound and the lambda monitors' horizon included,
    is checked here, so a problem on the datum's empty layout refuses it early."""
    norm: NormSpec
    radius: float
    datum: GridFunction
    tau: float
    t_end: float
    scheme: str = "implicit_proximal"
    store_times: tuple = ()
    inner: InnerSolverConfig = field(default_factory=InnerSolverConfig)
    monitor_lambda: Optional[float] = None
    monitor_ell: Optional[float] = None
    steps: int = field(init=False)
    stored: frozenset = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 1.0):
            raise SpecValidationError(f"radius must be a finite number >= 1, not {self.radius!r}")
        positive(self.tau, "tau")
        positive(self.t_end, "t_end")
        if self.scheme not in ("implicit_proximal", "explicit_euler"):
            raise SpecValidationError(f"unknown scheme {self.scheme!r}")
        lam, _ = monitor_settings(self.monitor_lambda, self.monitor_ell)
        if lam is not None and not _before_horizon(lam, self.tau):
            raise SpecValidationError(f"monitor lambda {lam!r} puts the horizon 1/(4 lambda) "
                                      f"at or before the first step, tau = {self.tau!r}")
        if not isinstance(self.datum, GridFunction):
            raise SpecValidationError("flow data must be grids (see measures.mollify)")
        bounded(self.datum.values, "flow data")
        if self.scheme == "explicit_euler":
            _explicit_bound(self.norm, self.datum.spacing, self.tau)
        steps = self.t_end / self.tau
        if not steps <= MAX_STEPS + 0.5:    # rounds to at most MAX_STEPS; inf fails
            raise SpecValidationError(f"t_end / tau must be at most {MAX_STEPS} steps")
        self.steps = round(steps)
        if abs(self.steps * self.tau - self.t_end) > 1e-9 * self.t_end:
            raise SpecValidationError("t_end must be an integer number of steps")
        stored = {self.steps}
        for s in self.store_times:
            if (k := self.step_of(s)) is None:
                raise SpecValidationError(
                    f"store time {s} lies outside [0, t_end] or between two steps")
            stored.add(k)
        self.stored = frozenset(stored)

    def step_of(self, t: float) -> Optional[int]:
        """The step that time t names: round(t / tau) if t / tau lies within
        1e-6 of it and in [0, steps], else None.  The one rule that reads a
        time: store times, the CLI's compare time and `Trajectory.slice_at`."""
        k = float(t) / self.tau
        return round(k) if abs(k - round(k)) <= 1e-6 and -1e-6 <= k <= self.steps + 1e-6 else None


# ---------------------------------------------------------------------------
# discrete energy and its exact gradient
# ---------------------------------------------------------------------------

def energy(gf: GridFunction, spec: NormSpec, mask: Optional[np.ndarray] = None) -> float:
    """psi(u) = (1/2N) sum over faces of H(face gradient)^2 times the cell volume.

    The field is clamped to zero outside the mask and extended by zero
    beyond the box (the H^1_0 reading; faces crossing the Dirichlet
    boundary carry the anchoring energy).  It is (vol/2) <u, energy_gradient(u)>,
    the objective the prox descends, read by `_monitor_reader`, the one energy reader.
    """
    u = gf.values if mask is None else np.where(mask, gf.values, 0.0)
    return _monitor_reader(spec, None, mask, gf.spacing, None, None)(u, 0.0)["energy"]


def energy_gradient(values: np.ndarray, spec: NormSpec, spacings,
                    out: Optional[np.ndarray] = None,
                    buffers: Optional[dict] = None) -> np.ndarray:
    """Exact L^2 gradient (1/N) G^T A(G u) of the zero-extension energy.

    (Minus) the divergence-form operator the proximal solver descends on;
    it agrees with the face-flux operator to O(h^2) and, G^T being the
    exact adjoint, descent guarantees hold regardless of resolution.
    Quadratic families apply its cached constant stencil, into out and the
    caller's correlation buffers if given; p-norms run the face path, which
    returns its own array (`operators.apply_operator`).  Unmasked: clamp first.
    """
    return apply_operator(_face_energy_gradient, values, spec, spacings, out, buffers)


def _face_energy_gradient(values: np.ndarray, spec: NormSpec, spacings) -> np.ndarray:
    """(1/N) G^T A(G u), the `operators.FaceKernel.form` of the duality map, unmasked."""
    return FaceKernel(values.shape, spacings).form(values, lambda axis, xi: duality_map(spec, xi))


class _NewtonFaces:
    """The face buffers of one p-norm solve and the faces they hold, per face
    family in axis order: the kernel's face gradient xi, H(xi) and s =
    sign(xi) |xi|^(p-1) (`norms._p_terms`), the flux buffer, the product
    buffer that every family's view shares, and the DA entries
    `jacobians[axis]`, (i, j) -> DA_ij for i <= j (`norms._p_jacobian`).
    `scratch`, the one flat buffer of every family's s, at least a
    `operators.dst_box` and two fields long, is lent while s is dead
    (`operators._correlation_buffers`).

    `gradient(u)` is the energy gradient, its faces evaluated once and
    kept; `hessian()` builds DA in place from the faces last evaluated and
    consumes them, since its products overwrite them; the object is then
    x -> (1/N) G^T (DA G x), the Newton Hessian.  Each is `FaceKernel.form`,
    bit for bit as separate evaluations: the flux A formed in the flux
    buffers, and DA xi as explicit products on contiguous components, each
    flux component summed over j in order."""

    def __init__(self, spec: NormSpec, shape, spacings):
        self.spec, self.kernel = spec, FaceKernel(shape, spacings)
        faces, N = self.kernel.faces, self.kernel.ndim
        self.jacobians = [{(i, j): np.empty(G.shape[1:]) for i in range(N)
                           for j in range(i, N)} for G in faces]
        self._flux = [np.empty_like(G) for G in faces]
        product = np.empty(max(G[0].size for G in faces))
        self._product = [product[:G[0].size].reshape(G.shape[1:]) for G in faces]
        self.H = [np.empty(G.shape[1:]) for G in faces]
        ends = np.cumsum([0] + [G.size for G in faces])
        self.scratch = np.empty(max(ends[-1], math.prod(dst_box(shape)), 2 * math.prod(shape)))
        self.s = [self.scratch[a:b].reshape(G.shape) for a, b, G in zip(ends, ends[1:], faces)]

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """`_face_energy_gradient` of a p-norm field, its faces kept."""
        spec, last = self.spec, _component_axes(self.kernel.ndim)[0]

        def flux(axis, xi):
            A = self._flux[axis].transpose(last)
            H, s = _p_terms(spec, xi, (self.H[axis], self.s[axis].transpose(last)), A)
            return _p_flux(spec, H, s, A, self._product[axis])
        return self.kernel.form(values, flux)

    def hessian(self) -> "_NewtonFaces":
        """The Hessian of psi at the field last evaluated, unmasked: DA built
        in place, the flux and product buffers its scratch."""
        last = _component_axes(self.kernel.ndim)[0]
        for G, H, s, DA, F, t in zip(self.kernel.faces, self.H, self.s, self.jacobians,
                                     self._flux, self._product):
            _p_jacobian(self.spec, G.transpose(last), H, s.transpose(last), DA,
                        (F.transpose(last), t))
        return self

    def _apply(self, axis: int, xi: np.ndarray) -> np.ndarray:
        DA, F, product = self.jacobians[axis], self._flux[axis], self._product[axis]
        for i in range(self.kernel.ndim):
            np.multiply(DA[0, i], xi[..., 0], out=F[i])
            for j in range(1, self.kernel.ndim):
                np.multiply(DA[min(i, j), max(i, j)], xi[..., j], out=product)
                F[i] += product
        return F.transpose(_component_axes(self.kernel.ndim)[0])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.kernel.form(x, self._apply)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _l2(values: np.ndarray, vol: float) -> float:
    return float(np.sqrt(np.sum(values * values) * vol))


def _boundary_band(mask: np.ndarray) -> np.ndarray:
    """Free nodes within the stencil's reach, 2 nodes along every axis, of a
    clamped node; the zero extension beyond the box counts as clamped.  The
    5^N box's OR, one axis at a time, over the clamped nodes padded by 2."""
    near = np.pad(~mask, 2, constant_values=True)
    for axis, n in enumerate(mask.shape):
        windows = [near[(slice(None),) * axis + (slice(k, k + n),)] for k in range(5)]
        near = windows[0].copy()
        for window in windows[1:]:
            near |= window
    return mask & near


def _box_preconditioner(mask: np.ndarray, tau: float, spec: NormSpec, spacings,
                        face_ops: list, scratch: np.ndarray):
    """The box solve of one prox, built once on `operators.dst_box`: the DST
    plan and the `operators.symbol_plan` of each stencil of `face_ops`, no
    field.  weigh(c) records c and returns r -> mask B^-1 r, B the box
    operator with eigenvalues the divisor 1/tau + sum_k c_k sigma_k, sigma_k
    the DST-I symbols (`operators.stencil_symbol`), tau r on the box edge,
    SPD on masked fields where the divisor is positive.  Each call
    transforms in the lent `scratch` (`operators._correlation_buffers`)
    and forms the divisor, 1/tau and then each c_k sigma_k in turn,
    and divides by it, a block of rows at a time (`operators.symbol_blocks`)
    in two buffers of one block.
    Quadratic families weigh K's stencil by 1: B^-1 is (I/tau + K)^-1, exact
    for axis-symmetric stencils away from the clamped nodes and the box's far
    side; p >= 2 Newton steps weigh the unit forms by the face medians
    (`_face_medians`)."""
    lengths = dst_box(mask.shape)
    interior = (slice(1, -1),) * mask.ndim
    box, off = tuple(slice(0, n - 2) for n in mask.shape), ~mask
    dst = _dst1(lengths)
    plans = [symbol_plan(op, spec, spacings, lengths) for op in face_ops]
    cuts, weights = symbol_blocks(lengths), []
    divisor, term = (np.empty((max(b.stop - b.start for b in cuts),) + lengths[1:])
                     for _ in range(2))

    def psolve(r: np.ndarray) -> np.ndarray:
        work = scratch[:math.prod(lengths)].reshape(lengths)
        work.fill(0.0)
        work[box] = r[interior]
        dst(work)
        for rows in cuts:
            d, t = divisor[:rows.stop - rows.start], term[:rows.stop - rows.start]
            d.fill(1.0 / tau)
            for ck, plan in zip(weights, plans):
                d += np.multiply(symbol_rows(plan, rows, t), float(ck), out=t)
            work[rows] /= d
        dst(work, inverse=True)
        out = tau * r
        out[interior] = work[box]
        np.copyto(out, 0.0, where=off)
        return out

    def weigh(c):
        weights[:] = c
        return psolve
    return weigh


@lru_cache(maxsize=None)
def _unit_face_form(k: int):
    """The face op x -> (1/N) G^T e_k e_k^T G x: `operators.FaceKernel.form`
    with the flux xi_k e_k.  One op per k, so that `constant_stencil` caches
    its stencil per (spec, spacing)."""
    def form(values: np.ndarray, spec: NormSpec, spacings) -> np.ndarray:
        return FaceKernel(values.shape, spacings).form(
            values, lambda axis, xi: np.where(np.arange(xi.shape[-1]) == k, xi, 0.0))
    return form


def _face_medians(jacobians: list, N: int, scratch: np.ndarray) -> list:
    """c_k, k < N, the median of the Newton Hessian's DA_kk over the faces,
    of every family of `jacobians`, where it is positive: `np.median` bit for
    bit, from one partition, in place, at the middle m = n // 2, whose lower
    part holds the other middle value of an even count as its maximum.  The
    entries are gathered in `scratch` (flat, at least all of them)."""
    medians, size = [], sum(J[0, 0].size for J in jacobians)
    for k in range(N):
        entries = np.concatenate([J[k, k].ravel() for J in jacobians], out=scratch[:size])
        positive = entries[entries > 0.0]
        m = positive.size // 2
        positive.partition(m)
        medians.append(positive[m] if positive.size % 2
                       else (positive[:m].max() + positive[m]) / 2)
    return medians


def _dst1(shape: tuple):
    """x -> the DST-I of x in place, `scipy.fft.dstn(x, type=1)` bit for bit,
    and with inverse=True `idstn(x, type=1)`, on C-contiguous arrays of `shape`.

    Axis by axis in order: along a side of length n the transform is
    -Im rfft(0, x, 0, -x reversed)[1 : n + 1], numpy's real FFT of the odd
    extension, as scipy's pocketfft forms it; the inverse scales by
    1 / prod 2 (n + 1), rounded from long double, once, on the first axis.
    The lines along an axis run in slabs: with x viewed as (rows, n,
    columns), a slab is a `grids.blocks` of rows (of columns (n + 1) values
    each) by one of columns (of n + 1 values each), a run of columns of one
    row or whole rows.  Each slab is copied into a
    contiguous extension, whose two zero columns are written before each
    use, and transformed into a contiguous spectrum; both are views of two
    buffers of one slab, built here and shared by every slab of every axis."""
    axes = []
    for axis, n in enumerate(shape):
        rows, columns = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
        axes.append(((rows, n, columns), [
            ((r, slice(None), c), (r.stop - r.start, c.stop - c.start, n))
            for r in blocks(rows, columns * (n + 1)) for c in blocks(columns, n + 1)]))
    keys = {key for _, slabs in axes for _, key in slabs}
    ext_buffer = np.empty(max(a * b * 2 * (n + 1) for a, b, n in keys))
    spectrum_buffer = np.empty(max(a * b * (n + 2) for a, b, n in keys), dtype=complex)
    views = {}
    for a, b, n in keys:    # extension, spectrum, zero columns, head, tail, imag
        ext = ext_buffer[:a * b * 2 * (n + 1)].reshape(a, b, 2 * (n + 1))
        spectrum = spectrum_buffer[:a * b * (n + 2)].reshape(a, b, n + 2)
        views[a, b, n] = (ext, spectrum, ext[..., ::n + 1], ext[..., 1:n + 1],
                          ext[..., 2 * n + 1:n + 1:-1], spectrum.imag[..., 1:n + 1])
    axes = [(folded, [(index, views[key]) for index, key in slabs]) for folded, slabs in axes]
    scale = -float(1 / np.longdouble(math.prod(2 * (n + 1) for n in shape)))

    def transform(x: np.ndarray, inverse: bool = False) -> None:
        for axis, (folded, slabs) in enumerate(axes):
            x3 = x.reshape(folded)
            for index, (ext, spectrum, zeros, head, tail, imag) in slabs:
                lines = x3[index].transpose(0, 2, 1)
                zeros.fill(0.0)
                head[...] = lines
                np.negative(lines, out=tail)
                np.fft.rfft(ext, axis=-1, out=spectrum)
                if inverse and axis == 0:
                    np.multiply(imag, scale, out=lines)
                else:
                    np.negative(imag, out=lines)
    return transform


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b>, summed in an order that does not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _prox_stepper(spec: NormSpec, spacings, mask: np.ndarray, tau: float,
                  inner: InnerSolverConfig, buffers: Optional[dict] = None):
    """The prox map of one (spec, spacings, mask, tau, inner), built once:
    step(v) minimizes J(u) = ||u - v||^2/(2 tau) + psi(u) over masked
    fields and returns (u, stats), stats by monitor name: inner_iterations,
    the CG iterations, and preconditioned, whether CG was preconditioned.

    Quadratic families: one CG solve of (I/tau + K) u = v/tau from the
    masked v, K u = `energy_gradient`(u) and v/tau, then the residual, in
    the lent correlation buffers of `buffers` (`operators._correlation_buffers`),
    preconditioned by the box inverse of I/tau + K (K's stencil weighed by
    1, built at the first such step) when v/tau is below the stopping
    tolerance in L^2 on the boundary band (`_boundary_band`, built once),
    where the box and masked operators differ.

    p-norms: inexact Newton from the masked v, CG on I/tau + (1/N) G^T
    DA(G u) G with DA, the duality map's Jacobian, from the faces of the
    accepted iterate (the last point the line search evaluated), to the
    relative residual min(0.5, sqrt(||grad J|| / (1 + ||v||))).  For
    p >= 2 each Newton CG is preconditioned by the box inverse of I/tau +
    (1/N) G^T diag(c) G, the unit forms' box solve (built once) weighed by
    c_k, the median of the Hessian's positive DA_kk (`_face_medians`); for
    p < 2, where DA_kk is unbounded as xi_k -> 0, CG is plain.  A step past
    the minimum of J along d is cut to the secant root of J' (Newton
    overshoots where the p < 2 flux is only Hoelder), then backtracked
    (Armijo) on J, up to its rounding, so J(u) <= J(v).

    `cg` stops on the unpreconditioned residual on every path.  Both stop
    at ||grad J||_{L^2} <= tolerance (1 + ||v||_{L^2}); past max_iters CG
    iterations they raise ConvergenceError(best=u, gap).
    """
    positive(tau, "tau")
    spacings, vol, off = tuple(spacings), float(np.prod(spacings)), ~mask
    buffers = {} if buffers is None else buffers

    def cg(hessian, b: np.ndarray, x: np.ndarray, atol: float, maxiter: int, psolve=None):
        """scipy's `cg` of (I/tau + hessian) x = b on masked fields, from x (updated
        in place; b becomes the residual r), every inner product by `_dot`; stops
        at ||r||_{L^2} < atol, r unpreconditioned, tested before each iteration:
        (x, iterations, converged).  No full-size scratch: y/tau joins the matvec
        in blocks of rows, and q, dead once r is updated, holds p alpha."""
        cuts = blocks(len(b), math.prod(b.shape[1:]))
        small = np.empty_like(b[cuts[0]])

        def apply(y: np.ndarray) -> np.ndarray:  # y vanishes off the mask, h is clamped
            h = hessian(y)
            np.copyto(h, 0.0, where=off)
            for rows in cuts:
                h[rows] += np.divide(y[rows], tau, out=small[:len(y[rows])])
            return h
        atol, r = atol / np.sqrt(vol), b
        if x.any():
            r -= apply(x)
        for iters in range(maxiter):
            if math.sqrt(_dot(r, r)) < atol:
                return x, iters, True
            z = r if psolve is None else psolve(r)
            rho = _dot(r, z)
            if iters:
                p *= rho / rho_prev
                p += z
            else:       # a preconditioned z is the box solve's own array
                p = z.copy() if z is r else z
            del z       # not held through the matvec
            q = apply(p)
            alpha, rho_prev = rho / _dot(p, q), rho
            q *= alpha
            r -= q
            x += np.multiply(p, alpha, out=q)
            del q       # not held through the next preconditioner call
        return x, maxiter, False

    def fail(w, gap):
        return ConvergenceError("proximal inner solve did not converge", best=w, gap=gap)

    if spec.family != "p_norm":
        band, box = _boundary_band(mask), []
        taps = constant_stencil(_face_energy_gradient, spec, spacings)[2]

        def quadratic_step(values: np.ndarray):
            scratch, copy = _correlation_buffers(mask.shape, taps, buffers, scratch=True)[3:]
            product = scratch[:mask.size].reshape(mask.shape)   # K y, in the scratch

            def gradient(x: np.ndarray) -> np.ndarray:
                return energy_gradient(x, spec, spacings, product, buffers)

            u = np.where(mask, values, 0.0)
            atol = inner.tolerance * (1.0 + _l2(u, vol))
            rhs = np.divide(u, tau, out=copy[:mask.size].reshape(mask.shape))   # the copy's head
            quiet = _l2(rhs[band], vol) < atol
            if quiet and not box:
                box.append(_box_preconditioner(mask, tau, spec, spacings,
                                               [_face_energy_gradient], scratch)((1.0,)))
            w, iters, converged = cg(gradient, rhs, u, atol,
                                     inner.max_iters, box[0] if quiet else None)
            if not converged:   # the budget is spent: accept w only if its gap is in tolerance
                u = np.where(mask, values, 0.0)     # cg moved u to w
                gap = _l2(np.where(mask, (w - u) / tau + gradient(w), 0.0), vol)
                if not gap <= atol:  # NaN fails
                    raise fail(w, gap)
            return w, {"inner_iterations": iters, "preconditioned": quiet}
        return quadratic_step

    faces = buffers["faces"] = _NewtonFaces(spec, mask.shape, spacings)
    weigh = (_box_preconditioner(mask, tau, spec, spacings,
                                 [_unit_face_form(k) for k in range(mask.ndim)], faces.scratch)
             if spec.p >= 2.0 else None)

    def newton_step(values: np.ndarray):
        u = np.where(mask, values, 0.0)
        scale = 1.0 + _l2(u, vol)

        def grad_and_value(w: np.ndarray):
            """grad J(w) and J(w), the faces of w masked evaluated and kept;
            psi(w) = <w, grad psi(w)>/2 (2-homogeneous).  grad J = (w - u)/tau
            + grad psi, 0 off the mask, and J's sum w grad J - u (w - u)/tau
            are formed in place, in those expressions' order, and the sum in
            grad psi's buffer, dead once grad J is formed."""
            grad = faces.gradient(np.where(mask, w, 0.0))
            g = np.subtract(w, u)
            g /= tau
            g += grad
            np.copyto(g, 0.0, where=off)
            terms, rest = np.multiply(w, g, out=grad), np.subtract(w, u)
            np.multiply(u, rest, out=rest)
            rest /= tau
            terms -= rest
            return g, 0.5 * vol * float(np.sum(terms))

        w, iters = u, 0
        g, Jw = grad_and_value(w)
        while not (gn := _l2(g, vol)) <= inner.tolerance * scale:  # NaN fails
            if iters >= inner.max_iters:
                raise fail(w, gn)
            # the faces are w's: w is the last point grad_and_value evaluated
            hessian = faces.hessian()
            psolve = None if weigh is None else weigh(
                _face_medians(hessian.jacobians, w.ndim, hessian.scratch))
            d, steps, _ = cg(hessian, -g, np.zeros_like(g),
                             min(0.5, np.sqrt(gn / scale)) * gn, inner.max_iters - iters, psolve)
            iters += steps
            slope = float(np.sum(g * d)) * vol
            alpha, trial = 1.0, w + d
            g_new, J_new = grad_and_value(trial)
            if (overshoot := float(np.sum(g_new * d)) * vol) > 0.0:
                alpha = slope / (slope - overshoot)
                trial = w + alpha * d
                g_new, J_new = grad_and_value(trial)
            while J_new > Jw + 1e-4 * alpha * slope + 1e-14 * Jw:
                alpha *= 0.5
                trial = w + alpha * d
                g_new, J_new = grad_and_value(trial)
            w, g, Jw = trial, g_new, J_new
            del d           # not held through the next Hessian's CG
        return w, {"inner_iterations": iters, "preconditioned": weigh is not None}
    return newton_step


def proximal_step(u_prev: GridFunction, spec: NormSpec, mask: np.ndarray,
                  tau: float, inner: Optional[InnerSolverConfig] = None) -> GridFunction:
    """One implicit Euler step: the proximal map of the discrete energy."""
    step = _prox_stepper(spec, u_prev.spacing, mask, tau, inner or InnerSolverConfig())
    return u_prev.with_values(step(u_prev.values)[0])


def _explicit_bound(spec: NormSpec, spacings, tau: float) -> None:
    """The one check of the explicit step bound, tau <= h^2 / (2 N C2), h the
    smallest spacing and C2 `norms.coercivity_bounds`' |A(xi)| <= C2 |xi|;
    `FlowProblem` and `explicit_step` call it; tau must be above 0."""
    _, c2 = coercivity_bounds(spec)
    h = min(spacings)
    limit = h * h / (2.0 * spec.dimension * c2)
    if positive(tau, "tau") > limit * (1.0 + 1e-12):
        raise StabilityError(
            f"explicit step tau = {tau:g} exceeds the stability bound {limit:g}")


def _explicit_stepper(spec: NormSpec, spacings, mask: np.ndarray, tau: float,
                      buffers: Optional[dict] = None):
    """The forward step, built once, at a tau within `_explicit_bound`.
    step(u), u 0 off the mask, returns (u + tau L u, 0 there, {}) like
    `_prox_stepper`, no stats, L the face-flux operator, which is undefined
    on the box edge: the mask leaves it out."""
    spacings, off, buffers = tuple(spacings), ~mask, {} if buffers is None else buffers

    def step(values: np.ndarray) -> tuple:
        lap = apply_operator(_face_flux_divergence, values, spec, spacings, buffers=buffers)
        lap *= tau
        lap += values
        np.copyto(lap, 0.0, where=off)
        return lap, {}
    return step


def explicit_step(u_prev: GridFunction, spec: NormSpec, mask: np.ndarray,
                  tau: float) -> GridFunction:
    """Forward step with the face-flux operator (`_explicit_stepper`) at a
    tau within `_explicit_bound`; clamped outside the mask, which must leave
    out the box edge."""
    if any(np.take(mask, [0, -1], axis=a).any() for a in range(mask.ndim)):
        raise SpecValidationError("the explicit step's mask must leave out the box edge")
    _explicit_bound(spec, u_prev.spacing, tau)
    step = _explicit_stepper(spec, u_prev.spacing, mask, tau)
    return u_prev.with_values(step(np.where(mask, u_prev.values, 0.0))[0])


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def monitor_settings(lam: Optional[float], ell: Optional[float]) -> tuple:
    """(lam, ell), each None or checked: a lambda finite and above 0, an ell in (0, 1/2)."""
    if lam is not None:
        positive(lam, "lambda")
    if ell is not None and not 0.0 < ell < 0.5:
        raise SpecValidationError(f"ell must lie in (0, 1/2), not {ell!r}")
    return lam, ell


def _before_horizon(lam: float, t: float) -> bool:
    """Whether t lies before the lambda monitors' horizon 1/(4 lam), from which they read nan."""
    return 1.0 - 4.0 * lam * t > 1e-12


def _monitor_reader(spec: NormSpec, h0: np.ndarray, mask: Optional[np.ndarray], spacing,
                    lam: Optional[float], ell: Optional[float], buffers: Optional[dict] = None):
    """The monitors of one solve, built once: read(u, t) of a field u that
    vanishes off the mask returns the energy, the mass and the weighted
    monitors, from H0 values h0 at its nodes (None without lam and ell).
    It is the one energy reader: p-norms read psi by Euler's identity, from
    the gradient of the Newton faces that a stepper keeps in `buffers`
    (`_NewtonFaces`) or else `energy_gradient`; quadratic families by the
    stencil's difference form (`operators.stencil_energy`) in `buffers`,
    the reader's own unless given.  Once the energy is read, the weights
    borrow those buffers (`operators._correlation_buffers`); an explicit
    p-norm run has no faces and makes its own.

    With lam: weighted_l2 = int e^(-2 lam H0^2/(1-4 lam t)) u^2 and
    weighted_l1_lambda = int e^(-lam H0^2/(1-4 lam t)) |u|, both NaN from
    the horizon 1/(4 lam) on (1 - 4 lam t <= 1e-12).  With ell:
    weighted_l1_local, the sup over the mask (or every node) of the
    integral of e^(-H0^2 (1+t^ell)) |u| over the unit H0-ball around it
    (`measures.fftconvolve` with the mask, the ball's rows transformed
    once).  Node sums times the cell volume; the supremum is scaled after
    the maximum, which rounds alike.  The reader holds the ball's row
    transform (`measures.kernel_rows`) and no field of H0^2: each read
    squares h0 into a weight buffer and scales it in place, the lambda
    exponent as (H0^2 lam) / (1 - 4 lam t), the ell one as
    H0^2 (-(1 + t^ell)), and e^w |u| as |e^w u|, which round alike.
    """
    monitor_settings(lam, ell)
    vol = float(np.prod(spacing))
    buffers = {} if buffers is None else buffers
    if spec.family == "p_norm":    # in the face buffers of an implicit solve's stepper
        def gradient(u: np.ndarray) -> np.ndarray:
            faces = buffers.get("faces")
            return energy_gradient(u, spec, spacing) if faces is None else faces.gradient(u)
        psi = lambda u: 0.5 * vol * float(np.sum(u * gradient(u)))
        lent = lambda u: ((None, None) if (faces := buffers.get("faces")) is None else
                          faces.scratch[:2 * u.size].reshape((2,) + u.shape))
    else:
        _, scale, taps = constant_stencil(_face_energy_gradient, spec, spacing)
        psi = lambda u: 0.5 * vol * scale * stencil_energy(u, taps, buffers)
        lent = lambda u: tuple(b[:u.size].reshape(u.shape) for b in
                               _correlation_buffers(u.shape, taps, buffers, scratch=True)[3:])
    kernel = None if ell is None else _ball_kernel(spec, 1.0, spacing)
    rows = None if ell is None else kernel_rows(kernel, h0.shape)
    where = True if mask is None else mask

    def weighted(w: np.ndarray, u: np.ndarray, square: bool = False) -> np.ndarray:
        """e^w u^2 with square, else e^w |u|, in w's buffer."""
        np.exp(w, out=w)
        w *= u
        if square:
            w *= u
        else:
            np.abs(w, out=w)
        return w

    def read(u: np.ndarray, t: float) -> dict:
        out = {"energy": psi(u), "mass": float(np.sum(u)) * vol}
        first, second = lent(u)
        if lam is not None and _before_horizon(lam, t):
            w = np.square(h0, out=first)
            w *= lam
            w /= 1.0 - 4.0 * lam * t
            out["weighted_l2"] = float(np.sum(weighted(np.multiply(w, -2.0, out=second), u,
                                                       square=True))) * vol
            out["weighted_l1_lambda"] = float(np.sum(weighted(np.negative(w, out=w), u))) * vol
        elif lam is not None:
            out["weighted_l2"] = out["weighted_l1_lambda"] = np.nan
        if ell is not None:
            w = np.square(h0, out=first)
            w *= -(1.0 + t**ell)
            peak = fftconvolve(weighted(w, u), kernel, rows, where)
            out["weighted_l1_local"] = float(peak * vol)
        return out
    return read


def weighted_monitors(gf: GridFunction, spec: NormSpec, t: float,
                      lam: Optional[float] = None, ell: Optional[float] = None,
                      mask: Optional[np.ndarray] = None) -> dict:
    """Every monitor `solve` reads off one slice at time t, all it records but
    the stepper's stats (`_monitor_reader`), of the field clamped off the mask,
    at a finite t >= 0."""
    if not (finite(t) and t >= 0):
        raise SpecValidationError(f"t must be a finite number >= 0, not {t!r}")
    u = gf.values if mask is None else np.where(mask, gf.values, 0.0)
    return _monitor_reader(spec, dual_norm_nodes(spec, gf), mask, gf.spacing,
                           lam, ell)(u, t)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    problem: FlowProblem
    h0: np.ndarray                   # H0 at the nodes of the datum's layout
    mask: np.ndarray
    times: list                      # stamps of stored slices
    slices: list                     # GridFunction per stamp
    monitor_times: np.ndarray        # every step, t_1 .. t_K
    monitors: dict                   # name -> array aligned with monitor_times

    def slice_at(self, t: float) -> GridFunction:
        """The slice of the step that t names (`FlowProblem.step_of`), stamped k tau."""
        k = self.problem.step_of(t)
        if k is not None and (stamp := k * self.problem.tau) in self.times:
            return self.slices[self.times.index(stamp)]
        raise KeyError(f"no stored slice at t = {t}")


def solve(problem: FlowProblem) -> Trajectory:
    """March the Dirichlet flow from the datum to t_end, recording monitors.

    Keeps the slices of `problem.stored`, stamped k tau.
    """
    spec, tau, lay = problem.norm, problem.tau, problem.datum

    # the domain, once: H0 at the nodes, the mask from it and the initial field
    h0 = dual_norm_nodes(spec, lay)
    mask = _free_nodes(h0, lay, problem.radius)
    u = np.where(mask, lay.values, 0.0)
    # the stepper and the reader run one at a time: their correlations share buffers
    buffers = {}
    read = _monitor_reader(spec, h0, mask, lay.spacing, problem.monitor_lambda,
                           problem.monitor_ell, buffers)

    logs, monitor_times, times, slices = {}, [], [], []

    def record(k: int, u: np.ndarray, stats: dict) -> None:
        t = k * tau
        monitor_times.append(t)
        values = {**read(u, t), "inner_iterations": 0, "preconditioned": 0, **stats}
        for name, value in values.items():
            logs.setdefault(name, []).append(value)
        if k in problem.stored:
            times.append(t)
            slices.append(lay.with_values(u.copy()))

    def trajectory() -> Trajectory:
        return Trajectory(problem, h0, mask, times, slices, np.array(monitor_times),
                          {k: np.array(v, dtype=float) for k, v in logs.items()})

    step = (_prox_stepper(spec, lay.spacing, mask, tau, problem.inner, buffers)
            if problem.scheme == "implicit_proximal"
            else _explicit_stepper(spec, lay.spacing, mask, tau, buffers))
    record(0, u, {})
    for k in range(1, problem.steps + 1):
        try:
            u, stats = step(u)
        except ConvergenceError as exc:
            exc.partial = trajectory()   # the steps before it, for diagnosis
            raise
        record(k, u, stats)
    return trajectory()


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def prox_homogeneity_defect(u: GridFunction, spec: NormSpec, mask: np.ndarray,
                            tau: float, k: float,
                            inner: Optional[InnerSolverConfig] = None) -> float:
    """sup | prox(k u) - k prox(u) |; zero in exact arithmetic."""
    step = _prox_stepper(spec, u.spacing, mask, tau,
                         inner or InnerSolverConfig(tolerance=1e-12))
    a, b = step(k * u.values)[0], step(u.values)[0]
    return float(np.max(np.abs(a - k * b)))


def scaling_check(problem: FlowProblem, k: float,
                  compare_times: Sequence[float]) -> dict:
    """Space-time symmetry: the flow of x -> datum(k x) vs the rescaled flow:
    {"defects": max |u_k(x, t) - u(k x, k^2 t)| per compare time,
    "trajectories": [the base run, the scaled run]}.

    The base problem runs on spacing h to k^2 T; a companion problem with
    datum(k x) runs on radius R/k, spacing h/k, step tau/k^2 to T.  Nodes of
    the companion grid map exactly onto base nodes under x -> k x, so the
    defect is a pure pointwise comparison at shared times.
    """
    if not (math.isfinite(k) and k > 0 and float(k).is_integer()):
        raise SpecValidationError("k must be a positive integer for exact node maps")
    k = float(k)
    base_times = [k * k * t for t in compare_times]
    base = replace(problem, store_times=tuple(base_times),
                   t_end=max(base_times))
    h = max(problem.datum.spacing)
    scaled_lay = ball_layout(problem.norm, problem.radius / k, h / k)
    coords = scaled_lay.coords()
    datum_k = scaled_lay.with_values(
        problem.datum.sample_nearest(k * coords))
    scaled = replace(problem, radius=problem.radius / k, datum=datum_k,
                     tau=problem.tau / (k * k), t_end=max(compare_times),
                     store_times=tuple(compare_times))
    tb = solve(base)
    ts = solve(scaled)
    core = ts.h0 < problem.radius / k - 2 * h / k
    defects = []
    for t in compare_times:
        u_scaled = ts.slice_at(t).values
        mapped = tb.slice_at(k * k * t).sample_nearest(k * coords)
        defects.append(float(np.max(np.abs(u_scaled - mapped)[core])))
    return {"defects": defects, "trajectories": [tb, ts]}


def nested_domain_study(datum: MeasureSpec, radii: Sequence[float], spec: NormSpec,
                        spacing: float, tau: float,
                        compare_times: Sequence[float] = (0.1, 0.15, 0.2),
                        core_radius: float = 1.0,
                        inner: Optional[InnerSolverConfig] = None) -> dict:
    """Exhaustion study: solve on nested balls with smoothly cut data:
    {"differences": the sup difference of each consecutive pair on the core
    window, "trajectories": the solve of each ball, by ascending radius}.

    On each ball of radius m the datum is multiplied by a C^2 cutoff that
    is 1 below H0 = m/2 and 0 above H0 = m; consecutive solutions are
    compared on the fixed core window H0 <= core_radius at the given
    times.  All grids share one lattice so the comparison is pointwise.
    """
    radii = sorted(float(m) for m in radii)
    inner = inner or InnerSolverConfig(tolerance=1e-9)
    solutions = []
    for m in radii:
        lay = ball_layout(spec, m, spacing)
        density = mollify(datum, 2.0 * max(lay.spacing), layout=lay).values
        r = dual_norm_nodes(spec, lay)
        s = np.clip((r - m / 2.0) / (m / 2.0), 0.0, 1.0)
        cutoff = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
        problem = FlowProblem(
            norm=spec, radius=m, datum=lay.with_values(density * cutoff),
            tau=tau, t_end=max(compare_times), store_times=tuple(compare_times),
            inner=inner)
        solutions.append(solve(problem))
    diffs = []
    core_pts = solutions[0].slices[0].coords()
    core = solutions[0].h0 <= core_radius
    for a, b in zip(solutions, solutions[1:]):
        worst = 0.0
        for t in compare_times:
            ua = a.slice_at(t).sample_nearest(core_pts)
            ub = b.slice_at(t).sample_nearest(core_pts)
            worst = max(worst, float(np.max(np.abs(ua - ub)[core])))
        diffs.append(worst)
    return {"differences": diffs, "trajectories": solutions}
