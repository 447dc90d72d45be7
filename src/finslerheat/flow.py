"""Dirichlet flow on an anisotropic ball by proximal (implicit Euler) steps.

The evolution is the L^2 gradient flow of the convex energy

    psi(u) = (1/2) int_Omega H(grad u)^2 dx,   Omega = {H0(x) < R},

so one implicit Euler step from u_prev is the proximal map

    argmin_u  ||u - u_prev||_{L^2}^2 / (2 tau) + psi(u)

over fields vanishing outside the mask.  The discrete energy sums
H(face gradient)^2 over all grid faces (each of the N face families sees
the full gradient, hence the 1/(2N) normalization), with the masked field
extended by zero; its exact adjoint gradient drives an accelerated
first-order inner solver, so every returned step is a true descent point
of the monitored energy.  The explicit scheme advances with the face-flux
operator under the usual parabolic step restriction.

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
from typing import Optional, Sequence, Union

import numpy as np
from scipy.signal import fftconvolve

from .errors import ConvergenceError, DomainError, SpecValidationError, StabilityError
from .grids import GridFunction
from .measures import MeasureSpec, _ball_kernel, mollify
from .norms import NormSpec, coercivity_bounds, dual_norm_eval, duality_map, eval_norm
from .operators import finsler_laplacian

_PAD = 2


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

def _padded(values: np.ndarray) -> np.ndarray:
    return np.pad(values, _PAD)


def _face_quantities(P: np.ndarray, spacings, spec: NormSpec, axis: int):
    """Face gradient and flux components for the faces normal to `axis`.

    Returns (gradient components, flux components, lo, hi) where lo/hi
    slice the padded array onto the two sides of the face family.
    """
    N = P.ndim
    lo = [slice(None)] * N
    hi = [slice(None)] * N
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    lo, hi = tuple(lo), tuple(hi)
    comps = []
    for k in range(N):
        if k == axis:
            comps.append((P[hi] - P[lo]) / spacings[k])
        else:
            ck = np.zeros_like(P)
            inner = [slice(None)] * N
            inner[k] = slice(1, -1)
            up = [slice(None)] * N
            up[k] = slice(2, None)
            dn = [slice(None)] * N
            dn[k] = slice(None, -2)
            ck[tuple(inner)] = (P[tuple(up)] - P[tuple(dn)]) / (2.0 * spacings[k])
            comps.append(0.5 * (ck[hi] + ck[lo]))
    if spec.family == "p_norm":
        A = duality_map(spec, np.stack(comps, axis=-1))
        flux = [A[..., k] for k in range(N)]
    else:
        Q = spec._quadratic_form()
        flux = [sum(Q[i, j] * comps[j] for j in range(N)) for i in range(N)]
    return comps, flux, lo, hi


def energy(gf: GridFunction, spec: NormSpec, mask: Optional[np.ndarray] = None,
           interior_faces_only: bool = False) -> float:
    """(1/2N) sum over faces of H(face gradient)^2 times the cell volume.

    Default: the field is clamped to zero outside the mask and extended by
    zero beyond the box (the H^1_0 reading; faces crossing the Dirichlet
    boundary carry the anchoring energy).  With interior_faces_only, only
    faces whose whole stencil lies in the mask count, which evaluates the
    energy of the raw field over the masked region (fields that do not
    vanish at the mask boundary have divergent zero-extension energy).
    """
    N = gf.dimension
    h = gf.spacing
    vol = gf.cell_volume
    if not interior_faces_only:
        vals = gf.values if mask is None else np.where(mask, gf.values, 0.0)
        P = _padded(vals)
        total = 0.0
        for axis in range(N):
            comps, flux, _, _ = _face_quantities(P, h, spec, axis)
            total += float(sum(np.sum(a * g) for a, g in zip(flux, comps)))
        return total * vol / (2.0 * N)
    if mask is None:
        mask = np.ones(gf.values.shape, dtype=bool)
    total = 0.0
    P = _padded(gf.values)
    M = np.pad(mask, _PAD)
    for axis in range(N):
        comps, flux, lo, hi = _face_quantities(P, h, spec, axis)
        ok = M[lo] & M[hi]
        for k in range(N):
            if k == axis:
                continue
            for shift in (-1, 1):
                sh = np.roll(M, shift, axis=k)
                ok &= sh[lo] & sh[hi]
        dens = sum(a * g for a, g in zip(flux, comps))
        total += float(np.sum(dens[ok]))
    return total * vol / (2.0 * N)


def energy_gradient(values: np.ndarray, spec: NormSpec, spacings,
                    mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact L^2 gradient of the zero-extension discrete energy.

    This is (minus) the divergence-form operator the proximal solver
    descends on; it agrees with the face-flux operator to O(h^2) and is
    the exact adjoint of the face-gradient map, so descent guarantees are
    exact regardless of resolution.
    """
    N = values.ndim
    vals = values if mask is None else np.where(mask, values, 0.0)
    P = _padded(vals)
    out = np.zeros_like(P)
    for axis in range(N):
        _, flux, lo, hi = _face_quantities(P, spacings, spec, axis)
        w = flux[axis] / (N * spacings[axis])
        out[lo] -= w
        out[hi] += w
        for k in range(N):
            if k == axis:
                continue
            u = flux[k] / (4.0 * N * spacings[k])
            S = np.zeros_like(P)
            S[lo] += u
            S[hi] += u
            up = [slice(None)] * N
            up[k] = slice(2, None)
            dn = [slice(None)] * N
            dn[k] = slice(None, -2)
            inner = [slice(None)] * N
            inner[k] = slice(1, -1)
            out[tuple(up)] += S[tuple(inner)]
            out[tuple(dn)] -= S[tuple(inner)]
    core = tuple(slice(_PAD, -_PAD) for _ in range(N))
    g = out[core]
    if mask is not None:
        g = np.where(mask, g, 0.0)
    return g


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _l2(values: np.ndarray, vol: float) -> float:
    return float(np.sqrt(np.sum(values * values) * vol))


def _prox_minimize(v: np.ndarray, spec: NormSpec, mask: np.ndarray, tau: float,
                   spacings, vol: float, inner: InnerSolverConfig):
    """Accelerated descent on ||u - v||^2/(2 tau) + psi(u) over masked fields.

    The objective is (1/tau)-strongly convex with gradient Lipschitz
    constant at most 1/tau + C2 sum 4/h_i^2.  Quadratic norm families use
    heavy-ball momentum at the optimal parameters (Chebyshev rate); for
    p-norms, where the flux is not globally Lipschitz, a Nesterov scheme
    with a growth safeguard on the Lipschitz estimate is used instead.
    """
    _, c2 = coercivity_bounds(spec)
    L = 1.0 / tau + c2 * sum(4.0 / h**2 for h in spacings)
    mu = 1.0 / tau
    tol = inner.tolerance * (1.0 + _l2(v, vol))

    def grad_J(w: np.ndarray) -> np.ndarray:
        g = (w - v) / tau + energy_gradient(w, spec, spacings, mask)
        return np.where(mask, g, 0.0)

    u = np.where(mask, v, 0.0)
    if spec.family != "p_norm":
        alpha = 4.0 / (np.sqrt(L) + np.sqrt(mu)) ** 2
        beta = ((np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))) ** 2
        u_prev = u
        for it in range(inner.max_iters):
            g = grad_J(u)
            gn = _l2(g, vol)
            if gn <= tol:
                return u, it, gn
            u_new = u - alpha * g + beta * (u - u_prev)
            u_prev, u = u, np.where(mask, u_new, 0.0)
        raise ConvergenceError("proximal inner solve did not converge",
                               best=u, gap=gn)

    y = u.copy()
    history = []
    for it in range(inner.max_iters):
        g = grad_J(y)
        gn = _l2(g, vol)
        if gn <= tol:
            return y, it, gn
        # stalled progress means the Lipschitz estimate is too small; grow
        # it and restart the momentum
        history.append(gn)
        if len(history) > 50 and history[-1] > history[-51]:
            L *= 1.5
            history.clear()
            y = u.copy()
            g = grad_J(y)
        ratio = np.sqrt(mu / L)
        theta = (1.0 - ratio) / (1.0 + ratio)
        u_new = np.where(mask, y - g / L, 0.0)
        y = np.where(mask, u_new + theta * (u_new - u), 0.0)
        u = u_new
    raise ConvergenceError("proximal inner solve did not converge",
                           best=u, gap=gn)


def proximal_step(u_prev: GridFunction, spec: NormSpec, mask: np.ndarray,
                  tau: float, inner: Optional[InnerSolverConfig] = None) -> GridFunction:
    """One implicit Euler step: the proximal map of the discrete energy."""
    inner = inner or InnerSolverConfig()
    vals, _, _ = _prox_minimize(np.where(mask, u_prev.values, 0.0), spec, mask,
                                tau, u_prev.spacing, u_prev.cell_volume, inner)
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

def monitor_weighted_L2(slice_gf: GridFunction, spec: NormSpec, lam: float,
                        t: float, mask: Optional[np.ndarray] = None) -> float:
    """int e^(-2 lam H0^2/(1-4 lam t)) u^2 over the domain (node sum)."""
    s = 1.0 - 4.0 * lam * t
    if s <= 0:
        raise DomainError(f"t = {t:g} is beyond the weight horizon {1/(4*lam):g}")
    r = dual_norm_eval(spec, slice_gf.coords())
    g = lam * r**2 / s
    u = slice_gf.values if mask is None else np.where(mask, slice_gf.values, 0.0)
    return float(np.sum(np.exp(-2.0 * g) * u * u) * slice_gf.cell_volume)


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
    r = dual_norm_eval(spec, slice_gf.coords())
    u = slice_gf.values if mask is None else np.where(mask, slice_gf.values, 0.0)
    vol = slice_gf.cell_volume
    if lam is not None:
        s = 1.0 - 4.0 * lam * t
        if s <= 0:
            raise DomainError(f"t = {t:g} is beyond the weight horizon {1/(4*lam):g}")
        return float(np.sum(np.exp(-lam * r**2 / s) * np.abs(u)) * vol)
    if not 0.0 < ell < 0.5:
        raise SpecValidationError("ell must lie in (0, 1/2)")
    weight = np.exp(-(r**2) * (1.0 + t**ell))
    kernel = _ball_kernel(spec, 1.0, slice_gf.spacing)
    conv = fftconvolve(weight * np.abs(u), kernel, mode="same") * vol
    centers = mask if mask is not None else np.ones_like(conv, dtype=bool)
    return float(np.max(conv[centers]))


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
        lam = problem.monitor_lambda
        if lam is not None:
            s = 1.0 - 4.0 * lam * t
            if s > 1e-12:
                g = lam * r_grid**2 / s
                logs["weighted_l2"].append(float(np.sum(np.exp(-2.0 * g) * u * u)) * vol)
                logs["weighted_l1_lambda"].append(float(np.sum(np.exp(-g) * np.abs(u))) * vol)
            else:
                logs["weighted_l2"].append(np.nan)
                logs["weighted_l1_lambda"].append(np.nan)
        if problem.monitor_ell is not None:
            weight = np.exp(-(r_grid**2) * (1.0 + t**problem.monitor_ell))
            conv = fftconvolve(weight * np.abs(u), unit_kernel, mode="same") * vol
            logs["weighted_l1_local"].append(float(np.max(conv[mask])))

    times, slices = [], []
    record(0.0, state, 0)
    if 0.0 in store:
        times.append(0.0)
        slices.append(state.with_values(state.values.copy()))
    for k in range(1, n_steps + 1):
        t = k * tau
        if problem.scheme == "implicit_proximal":
            try:
                vals, iters, _ = _prox_minimize(
                    np.where(mask, state.values, 0.0), spec, mask, tau,
                    lay.spacing, lay.cell_volume, problem.inner)
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
