"""Dirichlet flow on an anisotropic ball by proximal (implicit Euler) steps.

The evolution is the L^2 gradient flow of the convex energy

    psi(u) = (1/2) int_Omega H(grad u)^2 dx,   Omega = {H0(x) < R},

so one implicit Euler step from u_prev is the proximal map

    argmin_u  ||u - u_prev||_{L^2}^2 / (2 tau) + psi(u)

over fields vanishing outside the mask.  The discrete energy sums
H(face gradient)^2 over all grid faces (each of the N face families sees
the full gradient, hence the 1/(2N) normalization), with the masked field
extended by zero; the face gradient G and its exact adjoint come from
`operators`.  `energy_gradient` is its one gradient, (1/N) G^T A(G u),
and psi is read through it: psi is 2-homogeneous, so Euler's identity
gives psi(u) = (vol/2) <u, grad psi(u)> exactly, for every family.  The
face sum is `operators.FaceKernel.form`, and `operators.apply_operator`
runs it: for quadratic norm families (H^2 = xi^T Q xi) the gradient is K u
with K = (1/N) G^T Q G, translation invariant on the zero-extended grid,
so it is applied as the constant stencil read off the face path (the
face gradient stays the one definition).
The prox is built once per solve (`_prox_stepper` holds the boundary
band, the CG operator and the box preconditioner) and takes one path per
norm family.  Quadratic norm families (H^2 = xi^T Q xi) take one CG solve
of the SPD system (I/tau + K) u = u_prev/tau, preconditioned by the DST-I
inverse of I/tau + K on the box (Concus and Golub's fictitious-domain
fast-Poisson solver; the symbol is `operators.stencil_symbol` of the
same cached stencil) when the datum is below the stopping tolerance on
the band of free nodes within the stencil's reach of a clamped node,
where the box and the masked operator differ.  p-norms take damped Newton
steps on the exact objective; each iterate's faces are evaluated once,
by one `FaceKernel.form` (`_face_state`), which its gradient and, once
accepted, its Newton Hessian (an `operators.FaceHessian`, the same form
over DA) both read, bit for bit as separate evaluations.  Every returned
step is a descent point of the monitored energy.  The explicit scheme
advances with the face-flux operator under the usual parabolic step
restriction.

Domain geometry: the datum is a grid function on the ball's layout
(measures are laid on it by `measures.mollify` first).  The ball is masked
inside a bounding box whose sides touch it (the half-width along axis i is
R * H(e_i), the support function of the ball); cut cells and the box edge
are Dirichlet nodes.  `solve` evaluates H0 at the nodes once and returns it
as `Trajectory.h0`, the run's one H0: the mask, the monitors and every
comparison of the run read the domain from it.

Monitors recorded every step: the energy, the plain mass, the quadratic
weight integral int e^(-2 lam H0^2/(1-4 lam t)) u^2 (nonincreasing along
the flow while t < 1/(4 lam)), the windowed-ball weighted L^1 quantity
with weight e^(-H0^2 (1+t^ell)), inner-iteration counts and whether the
step's CG was preconditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage
from scipy.fft import dstn, idstn, next_fast_len
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConvergenceError, SpecValidationError, StabilityError
from .grids import GridFunction, empty_layout
from .measures import MeasureSpec, _ball_kernel, fftconvolve, mollify
from .norms import (NormSpec, _p_flux, _p_jacobian, _p_terms, coercivity_bounds,
                    dual_norm_eval, duality_map, eval_norm)
from .operators import (FaceHessian, FaceKernel, apply_operator, finsler_laplacian,
                        interior_mask, stencil_symbol)


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------

def ball_layout(spec: NormSpec, radius: float, spacing: float) -> GridFunction:
    """Empty grid on the lattice box hugging {H0 <= radius}."""
    if not (math.isfinite(radius) and radius > 0 and math.isfinite(spacing) and spacing > 0):
        raise SpecValidationError("ball radius and spacing must be positive and finite")
    extents = eval_norm(spec, np.eye(spec.dimension))
    cells = [max(2, int(round(radius * e / spacing))) for e in extents]
    box = tuple((-c * spacing, c * spacing) for c in cells)
    return empty_layout(box, tuple(2 * c for c in cells))


def ball_mask(spec: NormSpec, layout: GridFunction, radius: float) -> np.ndarray:
    """Free nodes of the Dirichlet ball: inside it, off the box edge; others clamp to 0."""
    return _free_nodes(dual_norm_eval(spec, layout.coords()), layout, radius)


def _free_nodes(h0: np.ndarray, layout: GridFunction, radius: float) -> np.ndarray:
    """`ball_mask` from H0 at the nodes of `layout`."""
    return (h0 < radius * (1.0 - 1e-12)) & interior_mask(layout)


@dataclass(frozen=True)
class InnerSolverConfig:
    tolerance: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0
                and self.max_iters >= 1):
            raise SpecValidationError("inner solver config out of range")


@dataclass
class FlowProblem:
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

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 1.0):
            raise SpecValidationError("domain radius must be finite and >= 1")
        if not all(math.isfinite(t) and t > 0 for t in (self.tau, self.t_end)):
            raise SpecValidationError("tau and t_end must be positive and finite")
        if self.scheme not in ("implicit_proximal", "explicit_euler"):
            raise SpecValidationError(f"unknown scheme {self.scheme!r}")
        if self.monitor_lambda is not None and not (
                math.isfinite(self.monitor_lambda) and self.monitor_lambda > 0):
            raise SpecValidationError("lambda must be finite and positive")
        if self.monitor_ell is not None and not 0.0 < self.monitor_ell < 0.5:
            raise SpecValidationError("ell must lie in (0, 1/2)")
        if not isinstance(self.datum, GridFunction):
            raise SpecValidationError("flow data must be grids (see measures.mollify)")

    def stores(self, t: float) -> Optional[float]:
        """The stamp k tau of the slice that `solve` stores and
        `Trajectory.slice_at(t)` finds, or None if it stores none for t."""
        k = _step_of(self, t)
        return k * self.tau if k in _store_steps(self)[1] else None


# ---------------------------------------------------------------------------
# discrete energy and its exact gradient
# ---------------------------------------------------------------------------

def energy(gf: GridFunction, spec: NormSpec, mask: Optional[np.ndarray] = None) -> float:
    """psi(u) = (1/2N) sum over faces of H(face gradient)^2 times the cell volume.

    The field is clamped to zero outside the mask and extended by zero
    beyond the box (the H^1_0 reading; faces crossing the Dirichlet
    boundary carry the anchoring energy).  Evaluated by Euler's identity
    as (vol/2) <u, energy_gradient(u)>, the objective the prox descends.
    """
    vals = gf.values if mask is None else np.where(mask, gf.values, 0.0)
    grad = energy_gradient(vals, spec, gf.spacing)
    return 0.5 * gf.cell_volume * float(np.sum(vals * grad))


def energy_gradient(values: np.ndarray, spec: NormSpec, spacings) -> np.ndarray:
    """Exact L^2 gradient (1/N) G^T A(G u) of the zero-extension energy.

    (Minus) the divergence-form operator the proximal solver descends on;
    it agrees with the face-flux operator to O(h^2) and, G^T being the
    exact adjoint, descent guarantees hold regardless of resolution.
    Quadratic families apply its cached constant stencil, p-norms the face
    path (`operators.apply_operator`).  Unmasked: clamp the field first.
    """
    return apply_operator(_face_energy_gradient, values, spec, spacings)


def _face_energy_gradient(values: np.ndarray, spec: NormSpec, spacings) -> np.ndarray:
    """(1/N) G^T A(G u), the `operators.FaceKernel.form` of the duality map, unmasked."""
    return FaceKernel(values.shape, spacings).form(values, lambda axis, xi: duality_map(spec, xi))


def _face_state(values: np.ndarray, spec: NormSpec, spacings) -> tuple:
    """`_face_energy_gradient` of a p-norm field and, per face family, its
    (xi, H, s): the face gradient, H(xi) and s = sign(xi) |xi|^(p-1)
    (`norms._p_terms`), from which the flux A and the Newton Hessian's DA
    are built; one kernel, each face evaluated once."""
    state = []

    def flux(axis, xi):
        H, s = _p_terms(spec, xi)
        state.append((xi, H, s))
        return _p_flux(spec, H, s)
    return FaceKernel(values.shape, spacings).form(values, flux), state


def _newton_hessian(w: np.ndarray, spec: NormSpec, spacings, state: list) -> FaceHessian:
    """x -> (1/N) G^T DA(G w) G x, the Hessian of psi at the p-norm field w,
    unmasked, with DA from `state`, the `_face_state` of w (or of w masked:
    only signs of zeros differ), applied as one `operators.FaceHessian`."""
    return FaceHessian(w.shape, spacings, [_p_jacobian(spec, xi, H, s) for xi, H, s in state])


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _l2(values: np.ndarray, vol: float) -> float:
    return float(np.sqrt(np.sum(values * values) * vol))


def _boundary_band(mask: np.ndarray) -> np.ndarray:
    """Free nodes within the stencil's reach, 2 nodes along every axis, of a
    clamped node; the zero extension beyond the box counts as clamped."""
    return mask & ndimage.maximum_filter(~mask, size=5, mode="constant", cval=True)


def _box_preconditioner(spec: NormSpec, spacings: tuple, mask: np.ndarray,
                        tau: float) -> LinearOperator:
    """r -> mask * (I/tau + K)^-1 r with K replaced by the box operator that
    the DST-I diagonalizes: its inverse on the nodes off the box edge, tau r
    on the box edge.  SPD on the masked fields; exact for axis-symmetric
    stencils away from the clamped nodes and the box's far side.  The
    divisor is 1/tau + the DST-I symbol of the stencil
    (`operators.stencil_symbol`), each side n - 2 of the box zero-padded to
    the nearest length whose transform, 2 (n - 1) long unpadded, is fast."""
    shape = mask.shape
    lengths = tuple(next_fast_len(n - 1, real=True) - 1 for n in shape)
    divisor = stencil_symbol(_face_energy_gradient, spec, spacings, lengths) + 1.0 / tau
    interior = (slice(1, -1),) * mask.ndim
    box = tuple(slice(0, n - 2) for n in shape)
    off = ~mask

    def psolve(r: np.ndarray) -> np.ndarray:
        r = r.reshape(shape)
        padded = np.zeros(divisor.shape)
        padded[box] = r[interior]
        coeffs = dstn(padded, type=1, overwrite_x=True)
        coeffs /= divisor
        out = tau * r
        out[interior] = idstn(coeffs, type=1, overwrite_x=True)[box]
        np.copyto(out, 0.0, where=off)
        return out.ravel()

    return LinearOperator((mask.size, mask.size), matvec=psolve, dtype=float)


def _prox_stepper(spec: NormSpec, spacings, mask: np.ndarray, tau: float,
                  inner: InnerSolverConfig):
    """The prox map of one (spec, spacings, mask, tau, inner), built once:
    step(v) minimizes J(u) = ||u - v||^2/(2 tau) + psi(u) over masked
    fields and returns (u, CG iterations, whether CG was preconditioned).

    Quadratic families: one CG solve of (I/tau + K) u = v/tau from the
    masked v, K u = `energy_gradient`(u), preconditioned by the box inverse
    of its stencil (`_box_preconditioner`, built at the first such step)
    when v/tau is below the stopping tolerance in L^2 on the boundary band
    (`_boundary_band`, built once), where the box and masked operators
    differ.  `cg` stops on the unpreconditioned residual on both paths.

    p-norms: inexact Newton from the masked v, CG on I/tau + (1/N) G^T
    DA(G u) G with DA, the duality map's Jacobian, from the face state of
    the accepted iterate (the last point the line search evaluated), to the
    relative residual min(0.5, sqrt(||grad J|| / (1 + ||v||))).  A step past
    the minimum of J along d is cut to the secant root of J' (Newton
    overshoots where the p < 2 flux is only Hoelder), then backtracked
    (Armijo) on J, up to its rounding, so J(u) <= J(v).

    Both stop at ||grad J||_{L^2} <= tolerance (1 + ||v||_{L^2}); past
    max_iters CG iterations they raise ConvergenceError(best=u, gap).
    """
    spacings, vol, off = tuple(spacings), float(np.prod(spacings)), ~mask

    def operator(hessian) -> LinearOperator:
        def matvec(x: np.ndarray) -> np.ndarray:
            # CG iterates vanish off the mask, as the start and right side do
            x = x.reshape(mask.shape)
            h = hessian(x)
            np.copyto(h, 0.0, where=off)
            h += x / tau
            return h.ravel()
        return LinearOperator((mask.size, mask.size), matvec=matvec, dtype=float)

    def solve_cg(A, rhs, x0, atol, maxiter, M=None):
        steps = []
        x, info = cg(A, rhs.ravel(), x0=x0, rtol=0.0, atol=atol / np.sqrt(vol),
                     maxiter=maxiter, M=M, callback=lambda _: steps.append(1))
        return x.reshape(mask.shape), info, len(steps)

    def fail(w, gap):
        return ConvergenceError("proximal inner solve did not converge", best=w, gap=gap)

    if spec.family != "p_norm":
        band, box = _boundary_band(mask), []
        A = operator(lambda x: energy_gradient(x, spec, spacings))

        def quadratic_step(values: np.ndarray):
            u = np.where(mask, values, 0.0)
            rhs, atol = u / tau, inner.tolerance * (1.0 + _l2(u, vol))
            quiet = _l2(rhs[band], vol) < atol
            if quiet and not box:
                box.append(_box_preconditioner(spec, spacings, mask, tau))
            w, info, iters = solve_cg(A, rhs, u.ravel(), atol, inner.max_iters,
                                      box[0] if quiet else None)
            if info:    # the budget is spent: accept w only if its gap is in tolerance
                gap = _l2(np.where(mask, (w - u) / tau + energy_gradient(w, spec, spacings),
                                   0.0), vol)
                if not gap <= atol:  # NaN fails
                    raise fail(w, gap)
            return w, iters, quiet
        return quadratic_step

    def newton_step(values: np.ndarray):
        u = np.where(mask, values, 0.0)
        scale = 1.0 + _l2(u, vol)

        def grad_and_value(w: np.ndarray):
            """grad J(w), J(w) and the `_face_state` of w masked;
            psi(w) = <w, grad psi(w)>/2 (2-homogeneous)."""
            grad, state = _face_state(np.where(mask, w, 0.0), spec, spacings)
            g = np.where(mask, (w - u) / tau + grad, 0.0)
            return g, 0.5 * vol * float(np.sum(w * g - u * (w - u) / tau)), state

        w, iters = u, 0
        g, Jw, state = grad_and_value(w)
        while not (gn := _l2(g, vol)) <= inner.tolerance * scale:  # NaN fails
            if iters >= inner.max_iters:
                raise fail(w, gn)
            # `state` is w's: w is the last point grad_and_value evaluated
            d, _, steps = solve_cg(operator(_newton_hessian(w, spec, spacings, state)), -g,
                                   None, min(0.5, np.sqrt(gn / scale)) * gn,
                                   inner.max_iters - iters)
            iters += steps
            slope = float(np.sum(g * d)) * vol
            alpha, trial = 1.0, w + d
            g_new, J_new, state = grad_and_value(trial)
            if (overshoot := float(np.sum(g_new * d)) * vol) > 0.0:
                alpha = slope / (slope - overshoot)
                trial = w + alpha * d
                g_new, J_new, state = grad_and_value(trial)
            while J_new > Jw + 1e-4 * alpha * slope + 1e-14 * Jw:
                alpha *= 0.5
                trial = w + alpha * d
                g_new, J_new, state = grad_and_value(trial)
            w, g, Jw = trial, g_new, J_new
        return w, iters, False
    return newton_step


def proximal_step(u_prev: GridFunction, spec: NormSpec, mask: np.ndarray,
                  tau: float, inner: Optional[InnerSolverConfig] = None) -> GridFunction:
    """One implicit Euler step: the proximal map of the discrete energy."""
    step = _prox_stepper(spec, u_prev.spacing, mask, tau, inner or InnerSolverConfig())
    return u_prev.with_values(step(u_prev.values)[0])


def explicit_step(u_prev: GridFunction, spec: NormSpec, mask: np.ndarray,
                  tau: float) -> GridFunction:
    """Forward step with the face-flux operator; clamped outside the mask,
    which leaves out the box edge, where the operator is undefined.

    Stable for tau <= h^2 / (2 N C2), h the smallest spacing.
    """
    _, c2 = coercivity_bounds(spec)
    h = min(u_prev.spacing)
    limit = h * h / (2.0 * spec.dimension * c2)
    if tau > limit * (1.0 + 1e-12):
        raise StabilityError(
            f"explicit step tau = {tau:g} exceeds the stability bound {limit:g}")
    masked = np.where(mask, u_prev.values, 0.0)
    lap = finsler_laplacian(u_prev.with_values(masked), spec).values
    new = masked + tau * lap
    return u_prev.with_values(np.where(mask, new, 0.0))


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def _weighted_monitors(u: np.ndarray, r: np.ndarray, vol: float, t: float,
                       lam: Optional[float], ell: Optional[float],
                       kernel: Optional[np.ndarray], centers: Optional[np.ndarray]) -> dict:
    """Weighted monitors of the masked field u, from H0 values r at its nodes.

    With lam: weighted_l2 and weighted_l1_lambda, NaN from the horizon
    1/(4 lam) on (1 - 4 lam t <= 1e-12).  With ell: weighted_l1_local, the
    sup over `centers` of the windowed integral, `kernel` being the
    indicator of the unit H0-ball on the grid.
    """
    out = {}
    if lam is not None and 1.0 - 4.0 * lam * t > 1e-12:
        g = lam * r**2 / (1.0 - 4.0 * lam * t)
        out["weighted_l2"] = float(np.sum(np.exp(-2.0 * g) * u * u)) * vol
        out["weighted_l1_lambda"] = float(np.sum(np.exp(-g) * np.abs(u))) * vol
    elif lam is not None:
        out["weighted_l2"] = out["weighted_l1_lambda"] = np.nan
    if ell is not None:
        weight = np.exp(-(r**2) * (1.0 + t**ell))
        conv = fftconvolve(weight * np.abs(u), kernel) * vol
        out["weighted_l1_local"] = float(np.max(conv if centers is None
                                                else conv[centers]))
    return out


def weighted_monitors(gf: GridFunction, spec: NormSpec, t: float,
                      lam: Optional[float] = None, ell: Optional[float] = None,
                      mask: Optional[np.ndarray] = None) -> dict:
    """The weighted monitors `solve` records, of one slice at time t.

    With lam: weighted_l2 = int e^(-2 lam H0^2/(1-4 lam t)) u^2 and
    weighted_l1_lambda = int e^(-lam H0^2/(1-4 lam t)) |u|, both NaN from
    the horizon 1/(4 lam) on.  With ell: weighted_l1_local, the sup over
    the mask (or every node) of the integral of e^(-H0^2 (1+t^ell)) |u|
    over the unit H0-ball around it (`measures.fftconvolve`).  Node sums
    of the field clamped to zero off the mask.
    """
    if ell is not None and not 0.0 < ell < 0.5:
        raise SpecValidationError("ell must lie in (0, 1/2)")
    u = gf.values if mask is None else np.where(mask, gf.values, 0.0)
    kernel = None if ell is None else _ball_kernel(spec, 1.0, gf.spacing)
    return _weighted_monitors(u, dual_norm_eval(spec, gf.coords()), gf.cell_volume,
                              t, lam, ell, kernel, mask)


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
        k = _step_of(self.problem, t)
        for stamp, gf in zip(self.times, self.slices):
            if round(stamp / self.problem.tau) == k:
                return gf
        raise KeyError(f"no stored slice at t = {t}")


def _step_of(problem: FlowProblem, t: float) -> Optional[int]:
    """The step that time t names: round(t / tau) if t / tau lies within
    1e-6 of it and in [0, n_steps], else None.  Store times, `stores` and
    `Trajectory.slice_at` all read times by this rule."""
    k, n_steps = float(t) / problem.tau, round(problem.t_end / problem.tau)
    return round(k) if abs(k - round(k)) <= 1e-6 and -1e-6 <= k <= n_steps + 1e-6 else None


def _store_steps(problem: FlowProblem) -> tuple[int, set]:
    n_steps = int(round(problem.t_end / problem.tau))
    if abs(n_steps * problem.tau - problem.t_end) > 1e-9 * problem.t_end:
        raise SpecValidationError("t_end must be an integer number of steps")
    store = {n_steps}
    for s in problem.store_times:
        if (k := _step_of(problem, s)) is None:
            raise SpecValidationError(
                f"store time {s} lies outside [0, t_end] or between two steps")
        store.add(k)
    return n_steps, store


def solve(problem: FlowProblem) -> Trajectory:
    """March the Dirichlet flow from the datum to t_end, recording monitors.

    Store times must be step multiples in [0, t_end]; t_end is always stored.
    """
    spec, tau, lay = problem.norm, problem.tau, problem.datum
    n_steps, store = _store_steps(problem)

    # the domain, once: H0 at the nodes, the mask from it and the initial field
    h0 = dual_norm_eval(spec, lay.coords())
    mask = _free_nodes(h0, lay, problem.radius)
    state = lay.with_values(np.where(mask, lay.values, 0.0))
    vol = lay.cell_volume
    lam, ell = problem.monitor_lambda, problem.monitor_ell
    unit_kernel = None if ell is None else _ball_kernel(spec, 1.0, lay.spacing)

    logs, monitor_times, times, slices = {}, [], [], []

    def record(k: int, gf: GridFunction, iters: int, preconditioned: bool) -> None:
        t = k * tau
        monitor_times.append(t)
        u = np.where(mask, gf.values, 0.0)
        values = {"energy": energy(gf, spec, mask), "mass": float(np.sum(u)) * vol,
                  "inner_iterations": iters, "preconditioned": int(preconditioned),
                  **_weighted_monitors(u, h0, vol, t, lam, ell, unit_kernel, mask)}
        for name, value in values.items():
            logs.setdefault(name, []).append(value)
        if k in store:
            times.append(t)
            slices.append(gf.with_values(gf.values.copy()))

    def trajectory() -> Trajectory:
        return Trajectory(problem, h0, mask, times, slices, np.array(monitor_times),
                          {k: np.array(v, dtype=float) for k, v in logs.items()})

    if problem.scheme == "implicit_proximal":
        step = _prox_stepper(spec, lay.spacing, mask, tau, problem.inner)
    record(0, state, 0, False)
    for k in range(1, n_steps + 1):
        if problem.scheme == "implicit_proximal":
            try:
                vals, iters, preconditioned = step(state.values)
            except ConvergenceError as exc:
                exc.partial = trajectory()   # the steps before it, for diagnosis
                raise
            state = state.with_values(vals)
        else:
            state = explicit_step(state, spec, mask, tau)
            iters, preconditioned = 0, False
        record(k, state, iters, preconditioned)
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


@dataclass
class ScalingReport:
    k: float
    compare_times: list
    defects: list        # max |u_k(x, t) - u(k x, k^2 t)| per compare time
    base_trajectory: Optional[Trajectory] = None
    scaled_trajectory: Optional[Trajectory] = None

    @property
    def max_defect(self) -> float:
        return float(np.max(self.defects))


def scaling_check(problem: FlowProblem, k: float,
                  compare_times: Sequence[float]) -> ScalingReport:
    """Space-time symmetry: the flow of x -> datum(k x) vs the rescaled flow.

    The base problem runs on spacing h to k^2 T; a companion problem with
    datum(k x) runs on radius R/k, spacing h/k, step tau/k^2 to T.  Nodes of
    the companion grid map exactly onto base nodes under x -> k x, so the
    defect is a pure pointwise comparison at shared times.
    """
    if k <= 0 or abs(round(k) - k) > 1e-12:
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
    return ScalingReport(k, list(compare_times), defects,
                         base_trajectory=tb, scaled_trajectory=ts)


@dataclass
class NestedDomainReport:
    radii: list
    core_radius: float
    compare_times: list
    differences: list     # consecutive sup differences on the core window
    trajectories: list = field(default_factory=list)

    @property
    def decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.differences, self.differences[1:]))


def nested_domain_study(datum: MeasureSpec, radii: Sequence[float], spec: NormSpec,
                        spacing: float, tau: float,
                        compare_times: Sequence[float] = (0.1, 0.15, 0.2),
                        core_radius: float = 1.0,
                        inner: Optional[InnerSolverConfig] = None) -> NestedDomainReport:
    """Exhaustion study: solve on nested balls with smoothly cut data.

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
        r = dual_norm_eval(spec, lay.coords())
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
    return NestedDomainReport(list(radii), core_radius, list(compare_times), diffs,
                              trajectories=solutions)
