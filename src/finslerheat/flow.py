"""Dirichlet flow on an anisotropic ball by proximal (implicit Euler) steps.

The evolution is the L^2 gradient flow of the convex energy

    psi(u) = (1/2) int_Omega H(grad u)^2 dx,   Omega = {H0(x) < R},

so one implicit Euler step from u_prev is the proximal map

    argmin_u  ||u - u_prev||_{L^2}^2 / (2 tau) + psi(u)

over fields vanishing outside the mask.  The discrete energy sums
H(face gradient)^2 over all grid faces (each of the N face families sees
the full gradient, hence the 1/(2N) normalization), with the masked field
extended by zero; the face gradient G and its exact adjoint come from
`operators`, and the energy gradient is (1/N) G^T A(G u).  For quadratic
norm families (H^2 = xi^T Q xi) that gradient is K u with
K = (1/N) G^T Q G, which on the zero-extended grid is translation
invariant: `energy_stencil` reads its stencil S off `energy_gradient`
applied to a unit impulse (the face taps stay the one definition), caches
it per (spec, spacing), and the energy psi(u) = (vol/2) <u, S * u> and
the CG matvec apply it as one correlation.  The inner solver is Newton
with conjugate gradients, one solve of the SPD system
(I/tau + K) u = u_prev/tau for quadratic norm families and damped steps
on the exact objective for p-norms; every returned step is a descent
point of the monitored energy.  The explicit scheme advances with the
face-flux operator under the usual parabolic step restriction.

Domain geometry: the ball is masked inside a bounding box whose sides
touch it (the half-width along axis i is R * H(e_i), the support function
of the ball); cut cells are Dirichlet nodes.

Monitors recorded every step: the energy, the plain mass, the quadratic
weight integral int e^(-2 lam H0^2/(1-4 lam t)) u^2 (nonincreasing along
the flow while t < 1/(4 lam)), the windowed-ball weighted L^1 quantity
with weight e^(-H0^2 (1+t^ell)), and inner-iteration counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np
from scipy.signal import fftconvolve
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConvergenceError, DomainError, SpecValidationError, StabilityError
from .grids import GridFunction
from .measures import MeasureSpec, _ball_kernel, mollify
from .norms import (NormSpec, coercivity_bounds, dual_norm_eval, duality_jacobian,
                    duality_map, eval_norm)
from .operators import (apply_stencil, apply_taps, face_gradient,
                        face_gradient_adjoint, face_taps, finsler_laplacian,
                        impulse_response, unit_taps)


# ---------------------------------------------------------------------------
# problem setup
# ---------------------------------------------------------------------------

def ball_layout(spec: NormSpec, radius: float, spacing: float) -> GridFunction:
    """Empty grid on the lattice box hugging {H0 <= radius}."""
    extents = [float(eval_norm(spec, np.eye(spec.dimension)[i]))
               for i in range(spec.dimension)]
    cells = [max(2, int(round(radius * e / spacing))) for e in extents]
    box = tuple((-c * spacing, c * spacing) for c in cells)
    return GridFunction(box, tuple(2 * c for c in cells),
                        np.zeros(tuple(2 * c + 1 for c in cells)))


def ball_mask(spec: NormSpec, layout: GridFunction, radius: float) -> np.ndarray:
    """Interior-node mask of the Dirichlet ball; everything else is clamped 0."""
    r = dual_norm_eval(spec, layout.coords())
    return r < radius * (1.0 - 1e-12)


@dataclass(frozen=True)
class InnerSolverConfig:
    tolerance: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        if self.tolerance <= 0 or self.max_iters < 1:
            raise SpecValidationError("inner solver config out of range")


@dataclass
class FlowProblem:
    norm: NormSpec
    radius: float
    datum: Union[GridFunction, MeasureSpec]
    tau: float
    t_end: float
    scheme: str = "implicit_proximal"
    spacing: Optional[float] = None          # required when datum is a measure
    store_times: tuple = ()
    inner: InnerSolverConfig = field(default_factory=InnerSolverConfig)
    monitor_lambda: Optional[float] = None
    monitor_ell: Optional[float] = None
    mollify_width: Optional[float] = None

    def __post_init__(self):
        if self.radius < 1.0:
            raise SpecValidationError("domain radius must be >= 1")
        if self.tau <= 0 or self.t_end <= 0:
            raise SpecValidationError("tau and t_end must be positive")
        if self.scheme not in ("implicit_proximal", "explicit_euler"):
            raise SpecValidationError(f"unknown scheme {self.scheme!r}")
        if self.monitor_ell is not None and not 0.0 < self.monitor_ell < 0.5:
            raise SpecValidationError("ell must lie in (0, 1/2)")
        if isinstance(self.datum, MeasureSpec) and self.spacing is None:
            raise SpecValidationError("measure data need an explicit grid spacing")

    def layout(self) -> GridFunction:
        if isinstance(self.datum, GridFunction):
            return self.datum.with_values(np.zeros_like(self.datum.values))
        return ball_layout(self.norm, self.radius, self.spacing)

    def initial_field(self) -> GridFunction:
        lay = self.layout()
        mask = ball_mask(self.norm, lay, self.radius)
        if isinstance(self.datum, GridFunction):
            vals = self.datum.values
        else:
            width = self.mollify_width or 2.0 * max(lay.spacing)
            vals = mollify(self.datum, width, layout=lay).values
        return lay.with_values(np.where(mask, vals, 0.0))

    def stability_limit(self) -> float:
        _, c2 = coercivity_bounds(self.norm)
        h = min(self.layout().spacing)
        return h * h / (2.0 * self.norm.dimension * c2)


# ---------------------------------------------------------------------------
# discrete energy and its exact gradient
# ---------------------------------------------------------------------------

def energy(gf: GridFunction, spec: NormSpec, mask: Optional[np.ndarray] = None,
           interior_faces_only: bool = False) -> float:
    """(1/2N) sum over faces of H(face gradient)^2 times the cell volume.

    Default: the field is clamped to zero outside the mask and extended by
    zero beyond the box (the H^1_0 reading; faces crossing the Dirichlet
    boundary carry the anchoring energy); quadratic families evaluate it as
    (vol/2) <u, S * u> with the stencil of `energy_stencil`.  With
    interior_faces_only, only faces whose whole stencil lies in the mask
    count, which evaluates the energy of the raw field over the masked
    region (fields that do not vanish at the mask boundary have divergent
    zero-extension energy).
    """
    N = gf.dimension
    h = gf.spacing
    vals = gf.values
    if interior_faces_only:
        inside = np.ones(vals.shape) if mask is None else mask.astype(float)
    elif mask is not None:
        vals = np.where(mask, vals, 0.0)
    if spec.family != "p_norm" and not interior_faces_only:
        Ku = apply_stencil(vals, energy_stencil(spec, h))
        return 0.5 * gf.cell_volume * float(np.sum(vals * Ku))
    total = 0.0
    for axis in range(N):
        G = face_gradient(vals, h, axis)
        dens = duality_map(spec, G) * G
        if interior_faces_only:
            full = np.ones(G.shape[:-1], dtype=bool)
            for _, kernels in face_taps(h, axis):
                unit = unit_taps(kernels)
                full &= apply_taps(inside, unit) == np.prod([sum(k) for k in unit])
            dens = dens[full]
        total += float(np.sum(dens))
    return total * gf.cell_volume / (2.0 * N)


def energy_gradient(values: np.ndarray, spec: NormSpec, spacings,
                    mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact L^2 gradient of the zero-extension discrete energy.

    This is (1/N) G^T A(G u) for the face-gradient map G of `operators`,
    (minus) the divergence-form operator the proximal solver descends on;
    it agrees with the face-flux operator to O(h^2) and, G^T being the
    exact adjoint, descent guarantees hold regardless of resolution.
    """
    N = values.ndim
    vals = values if mask is None else np.where(mask, values, 0.0)
    g = sum(face_gradient_adjoint(duality_map(spec, face_gradient(vals, spacings, axis)),
                                  spacings, axis)
            for axis in range(N)) / N
    return g if mask is None else np.where(mask, g, 0.0)


@lru_cache(maxsize=128)
def energy_stencil(spec: NormSpec, spacing: tuple) -> np.ndarray:
    """Stencil S of K = (1/N) G^T Q G for a quadratic family, read off
    `energy_gradient`: K u = S * u on the zero-extended grid.  Cached per
    (spec, spacing), read-only."""
    return impulse_response(lambda x: energy_gradient(x, spec, spacing), spec)


def stencil_energy_gradient(values: np.ndarray, spec: NormSpec, spacing: tuple,
                            mask: Optional[np.ndarray] = None) -> np.ndarray:
    """`energy_gradient` of a quadratic family by its stencil, for values
    that already vanish off the mask: mask * (S * values)."""
    Ku = apply_stencil(values, energy_stencil(spec, spacing))
    return Ku if mask is None else np.where(mask, Ku, 0.0)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _l2(values: np.ndarray, vol: float) -> float:
    return float(np.sqrt(np.sum(values * values) * vol))


def _prox_minimize(v: GridFunction, spec: NormSpec, mask: np.ndarray, tau: float,
                   inner: InnerSolverConfig):
    """Minimize J(u) = ||u - v||^2/(2 tau) + psi(u) over masked fields.

    Inexact Newton from the masked v: CG on I/tau + (1/N) G^T DA(G u) G,
    DA from `duality_jacobian`.  For quadratic families (DA = Q) one step,
    warm-started at v, solves the prox system (I/tau + K) u = v/tau, with
    K applied as the cached constant stencil of `energy_stencil`, derived
    from the face taps.
    p-norms solve to the relative residual min(0.5, sqrt(||grad J|| /
    (1 + ||v||))), cut a step past the minimum of J along d to the secant
    root of J' (Newton overshoots where the p < 2 flux is only Hoelder) and
    backtrack (Armijo) on J, up to its rounding, so J(u) <= J(v).  Stops at
    ||grad J||_{L^2} <= tolerance (1 + ||v||_{L^2}); over max_iters CG
    iterations raise ConvergenceError.  Returns (u, CG iterations).
    """
    spacings, vol = v.spacing, v.cell_volume
    u = np.where(mask, v.values, 0.0)
    scale = 1.0 + _l2(u, vol)

    def grad_and_value(w: np.ndarray):
        """grad J(w) and J(w); psi(w) = <w, grad psi(w)>/2 (2-homogeneous)."""
        g = np.where(mask, (w - u) / tau + energy_gradient(w, spec, spacings, mask), 0.0)
        return g, 0.5 * vol * float(np.sum(w * g - u * (w - u) / tau))

    def newton_cg(w, rhs, x0, atol, maxiter):
        if spec.family == "p_norm":
            jac = [duality_jacobian(spec, face_gradient(w, spacings, axis))
                   for axis in range(w.ndim)]

            def hessian(x: np.ndarray) -> np.ndarray:
                return np.where(mask, sum(face_gradient_adjoint(
                    np.einsum("...ij,...j->...i", DA, face_gradient(x, spacings, axis)),
                    spacings, axis) for axis, DA in enumerate(jac)) / w.ndim, 0.0)
        else:
            def hessian(x: np.ndarray) -> np.ndarray:
                return stencil_energy_gradient(x, spec, spacings, mask)

        def matvec(x: np.ndarray) -> np.ndarray:
            # CG iterates vanish off the mask, as the start and right side do
            x = x.reshape(w.shape)
            return (x / tau + hessian(x)).ravel()

        steps = []
        x, info = cg(LinearOperator((w.size, w.size), matvec=matvec, dtype=float),
                     rhs.ravel(), x0=x0, rtol=0.0,
                     atol=atol / np.sqrt(vol), maxiter=maxiter,
                     callback=lambda _: steps.append(1))
        return x.reshape(w.shape), info, len(steps)

    w, iters = u, 0
    if spec.family != "p_norm":
        w, info, iters = newton_cg(u, u / tau, u.ravel(), inner.tolerance * scale,
                                   inner.max_iters)
        if not info:
            return w, iters
    g, Jw = grad_and_value(w)
    while not (gn := _l2(g, vol)) <= inner.tolerance * scale:  # NaN fails
        if iters >= inner.max_iters:
            raise ConvergenceError("proximal inner solve did not converge",
                                   best=w, gap=gn)
        d, _, steps = newton_cg(w, -g, None, min(0.5, np.sqrt(gn / scale)) * gn,
                                inner.max_iters - iters)
        iters += steps
        slope = float(np.sum(g * d)) * vol
        alpha, (g_new, J_new) = 1.0, grad_and_value(w + d)
        if (overshoot := float(np.sum(g_new * d)) * vol) > 0.0:
            alpha = slope / (slope - overshoot)
            g_new, J_new = grad_and_value(w + alpha * d)
        while J_new > Jw + 1e-4 * alpha * slope + 1e-14 * Jw:
            alpha *= 0.5
            g_new, J_new = grad_and_value(w + alpha * d)
        w, g, Jw = w + alpha * d, g_new, J_new
    return w, iters


def proximal_step(u_prev: GridFunction, spec: NormSpec, mask: np.ndarray,
                  tau: float, inner: Optional[InnerSolverConfig] = None) -> GridFunction:
    """One implicit Euler step: the proximal map of the discrete energy."""
    inner = inner or InnerSolverConfig()
    vals, _ = _prox_minimize(u_prev, spec, mask, tau, inner)
    return u_prev.with_values(vals)


def explicit_step(u_prev: GridFunction, spec: NormSpec, mask: np.ndarray,
                  tau: float) -> GridFunction:
    """Forward step with the face-flux operator; clamped outside the mask."""
    _, c2 = coercivity_bounds(spec)
    h = min(u_prev.spacing)
    if tau > h * h / (2.0 * spec.dimension * c2) * (1.0 + 1e-12):
        raise StabilityError(
            f"explicit step tau = {tau:g} exceeds the stability bound "
            f"{h * h / (2.0 * spec.dimension * c2):g}")
    masked = np.where(mask, u_prev.values, 0.0)
    lap = finsler_laplacian(u_prev.with_values(masked), spec).values
    new = masked + tau * np.where(np.isfinite(lap), lap, 0.0)
    return u_prev.with_values(np.where(mask, new, 0.0))


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def _weighted_monitors(u: np.ndarray, r: np.ndarray, vol: float, t: float,
                       lam: Optional[float] = None, ell: Optional[float] = None,
                       kernel: Optional[np.ndarray] = None,
                       centers: Optional[np.ndarray] = None) -> dict:
    """Weighted monitors of the masked field u, from H0 values r at its nodes.

    With lam (t before the horizon 1/(4 lam)): weighted_l2 and
    weighted_l1_lambda.  With ell: weighted_l1_local, the sup over
    `centers` of the windowed integral, `kernel` being the indicator of
    the unit H0-ball on the grid.
    """
    out = {}
    if lam is not None:
        g = lam * r**2 / (1.0 - 4.0 * lam * t)
        out["weighted_l2"] = float(np.sum(np.exp(-2.0 * g) * u * u)) * vol
        out["weighted_l1_lambda"] = float(np.sum(np.exp(-g) * np.abs(u))) * vol
    if ell is not None:
        weight = np.exp(-(r**2) * (1.0 + t**ell))
        conv = fftconvolve(weight * np.abs(u), kernel, mode="same") * vol
        out["weighted_l1_local"] = float(np.max(conv if centers is None
                                                else conv[centers]))
    return out


def _monitors_of(slice_gf: GridFunction, spec: NormSpec, t: float,
                 lam: Optional[float], mask: Optional[np.ndarray], **kw) -> dict:
    """_weighted_monitors of a slice, which must lie before the lam horizon."""
    if lam is not None and 1.0 - 4.0 * lam * t <= 0:
        raise DomainError(f"t = {t:g} is beyond the weight horizon {1/(4*lam):g}")
    u = slice_gf.values if mask is None else np.where(mask, slice_gf.values, 0.0)
    return _weighted_monitors(u, dual_norm_eval(spec, slice_gf.coords()),
                              slice_gf.cell_volume, t, lam, centers=mask, **kw)


def monitor_weighted_L2(slice_gf: GridFunction, spec: NormSpec, lam: float,
                        t: float, mask: Optional[np.ndarray] = None) -> float:
    """int e^(-2 lam H0^2/(1-4 lam t)) u^2 over the domain (node sum)."""
    return _monitors_of(slice_gf, spec, t, lam, mask)["weighted_l2"]


def monitor_weighted_L1(slice_gf: GridFunction, spec: NormSpec, t: float,
                        lam: Optional[float] = None, ell: Optional[float] = None,
                        mask: Optional[np.ndarray] = None) -> float:
    """Weighted L^1 quantity: global with the lam-weight, windowed with ell.

    lam form: int e^(-lam H0^2/(1-4 lam t)) |u| dy.
    ell form: sup over grid centers of the integral of e^(-H0^2 (1+t^ell)) |u|
    over the unit H0-ball around the center (FFT convolution).
    """
    if (lam is None) == (ell is None):
        raise SpecValidationError("pass exactly one of lam / ell")
    if lam is not None:
        return _monitors_of(slice_gf, spec, t, lam, mask)["weighted_l1_lambda"]
    if not 0.0 < ell < 0.5:
        raise SpecValidationError("ell must lie in (0, 1/2)")
    kernel = _ball_kernel(spec, 1.0, slice_gf.spacing)
    return _monitors_of(slice_gf, spec, t, None, mask, ell=ell,
                        kernel=kernel)["weighted_l1_local"]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    problem: FlowProblem
    mask: np.ndarray
    times: list                      # stamps of stored slices
    slices: list                     # GridFunction per stamp
    monitor_times: np.ndarray        # every step, t_1 .. t_K
    monitors: dict                   # name -> array aligned with monitor_times

    def slice_at(self, t: float) -> GridFunction:
        for stamp, gf in zip(self.times, self.slices):
            if abs(stamp - t) <= 1e-9 * max(1.0, abs(t)):
                return gf
        raise KeyError(f"no stored slice at t = {t}")


def solve(problem: FlowProblem) -> Trajectory:
    """March the Dirichlet flow from the datum to t_end, recording monitors."""
    lay = problem.layout()
    mask = ball_mask(problem.norm, lay, problem.radius)
    state = problem.initial_field()
    spec = problem.norm
    tau = problem.tau
    n_steps = int(round(problem.t_end / tau))
    if abs(n_steps * tau - problem.t_end) > 1e-9 * problem.t_end:
        raise SpecValidationError("t_end must be an integer number of steps")
    if problem.scheme == "explicit_euler" and tau > problem.stability_limit() * (1 + 1e-12):
        raise StabilityError(
            f"explicit scheme needs tau <= {problem.stability_limit():g}")

    store = sorted(set(float(t) for t in problem.store_times) | {problem.t_end})
    for t in store:
        k = t / tau
        if abs(k - round(k)) > 1e-6:
            raise SpecValidationError(f"store time {t} is not a step multiple")

    names = ["energy", "mass", "inner_iterations"]
    if problem.monitor_lambda is not None:
        names += ["weighted_l2", "weighted_l1_lambda"]
    if problem.monitor_ell is not None:
        names += ["weighted_l1_local"]
    logs = {n: [] for n in names}
    monitor_times = []
    r_grid = dual_norm_eval(spec, lay.coords())
    vol = lay.cell_volume
    unit_kernel = (_ball_kernel(spec, 1.0, lay.spacing)
                   if problem.monitor_ell is not None else None)

    def record(t: float, gf: GridFunction, iters: int) -> None:
        monitor_times.append(t)
        u = np.where(mask, gf.values, 0.0)
        logs["energy"].append(energy(gf, spec, mask))
        logs["mass"].append(float(np.sum(u)) * vol)
        logs["inner_iterations"].append(iters)
        # the lam weights are recorded as NaN from the horizon 1/(4 lam) on
        lam = problem.monitor_lambda
        live = lam is not None and 1.0 - 4.0 * lam * t > 1e-12
        values = _weighted_monitors(u, r_grid, vol, t, lam if live else None,
                                    problem.monitor_ell, unit_kernel, mask)
        if lam is not None and not live:
            values.update(weighted_l2=np.nan, weighted_l1_lambda=np.nan)
        for name, value in values.items():
            logs[name].append(value)

    times, slices = [], []
    record(0.0, state, 0)
    if 0.0 in store:
        times.append(0.0)
        slices.append(state.with_values(state.values.copy()))
    for k in range(1, n_steps + 1):
        t = k * tau
        if problem.scheme == "implicit_proximal":
            try:
                vals, iters = _prox_minimize(state, spec, mask, tau, problem.inner)
            except ConvergenceError as exc:
                # abort with the partial trajectory attached for diagnosis
                exc.partial = Trajectory(
                    problem, mask, times, slices, np.array(monitor_times),
                    {k_: np.array(v, dtype=float) for k_, v in logs.items()})
                raise
            state = state.with_values(vals)
        else:
            state = explicit_step(state, spec, mask, tau)
            iters = 0
        record(t, state, iters)
        if any(abs(t - s) <= 1e-9 * max(1.0, s) for s in store):
            times.append(t)
            slices.append(state.with_values(state.values.copy()))
    return Trajectory(problem, mask, times, slices,
                      np.array(monitor_times),
                      {k: np.array(v, dtype=float) for k, v in logs.items()})


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------

def prox_homogeneity_defect(u: GridFunction, spec: NormSpec, mask: np.ndarray,
                            tau: float, k: float,
                            inner: Optional[InnerSolverConfig] = None) -> float:
    """sup | prox(k u) - k prox(u) |; zero in exact arithmetic."""
    inner = inner or InnerSolverConfig(tolerance=1e-12)
    a = proximal_step(u.with_values(k * u.values), spec, mask, tau, inner)
    b = proximal_step(u, spec, mask, tau, inner)
    return float(np.max(np.abs(a.values - k * b.values)))


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
    if not isinstance(problem.datum, GridFunction):
        raise SpecValidationError("scaling check needs a grid datum")
    if k <= 0 or abs(round(k) - k) > 1e-12:
        raise SpecValidationError("k must be a positive integer for exact node maps")
    k = float(k)
    base_times = [k * k * t for t in compare_times]
    base = replace(problem, store_times=tuple(base_times),
                   t_end=max(base_times))
    lay = problem.layout()
    h = max(lay.spacing)
    scaled_lay = ball_layout(problem.norm, problem.radius / k, h / k)
    coords = scaled_lay.coords()
    datum_k = scaled_lay.with_values(
        problem.datum.sample_nearest(k * coords))
    scaled = replace(problem, radius=problem.radius / k, datum=datum_k,
                     tau=problem.tau / (k * k), t_end=max(compare_times),
                     store_times=tuple(compare_times))
    tb = solve(base)
    ts = solve(scaled)
    defects = []
    for t in compare_times:
        u_scaled = ts.slice_at(t).values
        u_base = tb.slice_at(k * k * t)
        mapped = u_base.sample_nearest(k * coords)
        core = dual_norm_eval(problem.norm, coords) < problem.radius / k - 2 * h / k
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
                        lam: float, spacing: float, tau: float,
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
    layouts = []
    for m in radii:
        lay = ball_layout(spec, m, spacing)
        width = 2.0 * max(lay.spacing)
        density = mollify(datum, width, layout=lay).values
        r = dual_norm_eval(spec, lay.coords())
        s = np.clip((r - m / 2.0) / (m / 2.0), 0.0, 1.0)
        cutoff = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)
        problem = FlowProblem(
            norm=spec, radius=m, datum=lay.with_values(density * cutoff),
            tau=tau, t_end=max(compare_times), store_times=tuple(compare_times),
            inner=inner)
        solutions.append(solve(problem))
        layouts.append(lay)
    diffs = []
    core_lay = layouts[0]
    core_pts = core_lay.coords()
    core = dual_norm_eval(spec, core_pts) <= core_radius
    for a, b in zip(solutions, solutions[1:]):
        worst = 0.0
        for t in compare_times:
            ua = a.slice_at(t).sample_nearest(core_pts)
            ub = b.slice_at(t).sample_nearest(core_pts)
            worst = max(worst, float(np.max(np.abs(ua - ub)[core])))
        diffs.append(worst)
    return NestedDomainReport(list(radii), core_radius, list(compare_times), diffs,
                              trajectories=solutions)
