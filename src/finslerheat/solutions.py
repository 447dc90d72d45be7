"""Closed-form solution families used as oracles, and a residual evaluator.

Families (all anisotropic through r = H0(x)):

    gauss_kernel      (4 pi t)^(-N/2) exp(-r^2 / 4t)
    blowup(L)         (1 - 4 L t)^(-N/2) exp(L r^2 / (1 - 4 L t)),
                      valid on [0, S_L) with S_L = 1/(4L); the minimum over
                      x sits at the origin and blows up as t -> S_L
    barenblatt(m, C)  t^(-a) (C - k r^2 t^(-2b))_+^(1/(m-1)), the
                      self-similar source solution of d_t v = lap_H(v^m),
                      a = N/(N(m-1)+2), b = a/N, k = a(m-1)/(2mN)
    talenti(p, A, B)  (A + B r^2)^(1-N/2), the Talenti extremal of the
                      p-Laplacian at p = 2; admitted only for p = 2,
                      N >= 3 and N(N-2)AB = 1, where it solves the
                      critical equation -lap_H w = w^((N+2)/(N-2)) (for
                      other p the profile solves no lap_H equation)
    singular_poly(m)  r^(-N+2m), with an extra log r factor when
                      N-2m is one of 0, -2, -4, ...; annihilated by the m-th
                      iterate of the operator away from the origin

The residual evaluator substitutes a family into the discrete equation
(centered time difference minus the discrete operator) on the layouts of
`grids.refinements`, halving dt with h.  It returns a plain dict of the
per-level spacings ("h"), time steps ("dt", NaN for the stationary family,
which takes none) and residuals ("max"); a caller reads their order with
`grids.observed_order` and lays them out as rows.  The residual and
both checks read H0 at the nodes once and form each closed form from it a
`grids.blocks` block of rows at a time, with the bits of whole fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SpecValidationError, finite, integer, positive
from .grids import GridFunction, blocks, refinements
from .norms import NormSpec, dual_norm_eval, dual_norm_nodes
from .operators import _face_flux_divergence, apply_operator, finsler_laplacian, interior_mask

_FAMILIES = ("gauss_kernel", "blowup", "barenblatt", "talenti", "singular_poly")


@dataclass(frozen=True)
class SolutionSpec:
    kind: str
    norm: NormSpec
    lam: Optional[float] = None       # blowup
    m: Optional[float] = None         # barenblatt
    C: Optional[float] = None         # barenblatt
    p: Optional[float] = None         # talenti
    A: Optional[float] = None         # talenti
    B: Optional[float] = None         # talenti
    m_order: Optional[int] = None     # singular_poly

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise SpecValidationError(f"unknown solution family {self.kind!r}")
        if self.kind == "blowup":
            positive(self.lam, "blowup lam")
        if self.kind == "barenblatt":
            if not (finite(self.m) and self.m > 1):
                raise SpecValidationError("barenblatt requires a finite m > 1")
            if not (finite(self.C) and self.C > 0):
                raise SpecValidationError("barenblatt requires a finite C > 0")
        if self.kind == "talenti":
            N = self.norm.dimension
            if self.p != 2.0 or N < 3:
                raise SpecValidationError(
                    "talenti solves -lap_H w = w^((N+2)/(N-2)) only for p = 2, N >= 3")
            if not all(finite(v) and v > 0 for v in (self.A, self.B)):
                raise SpecValidationError("talenti requires finite A > 0 and B > 0")
            if abs(N * (N - 2) * self.A * self.B - 1.0) > 1e-9:
                raise SpecValidationError("talenti requires N(N-2)AB = 1")
        if self.kind == "singular_poly":     # kept as an int: 2.0 reads as 2
            object.__setattr__(self, "m_order", integer(self.m_order, "m_order"))
            positive(self.m_order, "singular_poly m_order")

    @property
    def blowup_time(self) -> float:
        """S = 1/(4 lam); the family exists on [0, S)."""
        if self.kind != "blowup":
            raise DomainError("blowup_time only defined for the blowup family")
        return 1.0 / (4.0 * self.lam)

    @property
    def barenblatt_exponents(self) -> tuple[float, float, float]:
        """(alpha, beta, k) of the self-similar profile."""
        N = self.norm.dimension
        alpha = N / (N * (self.m - 1.0) + 2.0)
        beta = alpha / N
        k = alpha * (self.m - 1.0) / (2.0 * self.m * N)
        return alpha, beta, k

    def barenblatt_support_radius(self, t: float) -> float:
        _, beta, k = self.barenblatt_exponents
        return float(np.sqrt(self.C / k) * t**beta)


def eval_solution(spec: SolutionSpec, x: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Closed-form value at points x (batched (..., N)) and time t."""
    return _closed_form(spec, dual_norm_eval(spec.norm, np.asarray(x, dtype=float)), t)


def _time_domain(spec: SolutionSpec, t: float) -> None:
    """A DomainError unless the family exists at time t, `_closed_form`'s rule."""
    if spec.kind in ("gauss_kernel", "barenblatt") and t <= 0:
        raise DomainError(f"{spec.kind} requires t > 0")
    if spec.kind == "blowup" and (t < 0 or 1.0 - 4.0 * spec.lam * t <= 0):
        raise DomainError(f"blowup family only exists for 0 <= t < {spec.blowup_time}")


def residual_times(spec: SolutionSpec, t: float, dt: float) -> None:
    """The check of `pde_residual`'s times: dt above 0, and its widest stencil,
    t - dt .. t + dt, inside the family's time domain (an interval), or a
    refusal naming t and dt."""
    positive(dt, "dt")
    try:
        for s in (t - dt, t + dt):
            _time_domain(spec, s)
    except DomainError as exc:
        raise DomainError(f"the residual at t = {t!r} reads t - dt to t + dt, "
                          f"dt = {dt!r}: {exc}") from None


def _closed_form(spec: SolutionSpec, r: np.ndarray, t: float) -> np.ndarray:
    """The family's value at time t at points of H0 values r."""
    N = spec.norm.dimension
    _time_domain(spec, t)
    if spec.kind == "gauss_kernel":
        return (4.0 * np.pi * t) ** (-N / 2.0) * np.exp(-(r**2) / (4.0 * t))
    if spec.kind == "blowup":
        s = 1.0 - 4.0 * spec.lam * t
        return s ** (-N / 2.0) * np.exp(spec.lam * r**2 / s)
    if spec.kind == "barenblatt":
        alpha, beta, k = spec.barenblatt_exponents
        bracket = np.maximum(spec.C - k * r**2 * t ** (-2.0 * beta), 0.0)
        return t ** (-alpha) * bracket ** (1.0 / (spec.m - 1.0))
    if spec.kind == "talenti":
        return (spec.A + spec.B * r**2) ** (1.0 - N / 2.0)
    # singular_poly
    if np.any(r == 0.0):
        raise DomainError("singular polyharmonic profile is singular at x = 0")
    exponent = -N + 2 * spec.m_order
    if (N - 2 * spec.m_order) % 2 == 0 and N - 2 * spec.m_order <= 0:
        return r**exponent * np.log(r)
    return r**exponent


def pde_residual(spec: SolutionSpec, layout: GridFunction, t: float, dt: float,
                 levels: int = 2) -> dict:
    """Discrete-equation residual of a closed-form family, under refinement:
    {"h": the spacings, "dt": the time steps, "max": the largest residual
    per level}.

    Time families: r = [u(t+dt) - u(t-dt)]/(2 dt) - lap_h(u(t)) with the
    operator applied to u^m for the porous-medium family, which also
    excludes a band around its free boundary (2h plus the interface
    displacement over the time stencil).  The stationary critical family
    uses r = -lap_h(w) - w^((N+2)/(N-2)) and records NaN time steps.
    Each level holds its H0 and one field: u(t) (u^m, w) a block of rows at
    a time, the operator over it, then the residual over the operator's
    output in a second blocked pass; the halo is never read.
    """
    if spec.kind == "singular_poly":
        raise DomainError("use singular_poly_check for the singular family")
    residual_times(spec, t, dt)
    h0 = max(layout.spacing)
    spacings, dts, maxes = [], [], []
    for lay in refinements(layout, levels):
        h = max(lay.spacing)
        dt_l = dt * (h / h0)    # h / h0 is exactly 2^-level
        if spec.kind == "talenti":
            dt_l = math.nan     # the stationary residual takes no time step
        r, window, spacing = dual_norm_nodes(spec.norm, lay), interior_mask(lay), lay.spacing
        del lay         # H0 once per level; its zero field is not held past it
        field = _at_nodes(spec, r, t)
        if spec.kind == "barenblatt":
            field **= spec.m
        field = apply_operator(_face_flux_divergence, field, spec.norm, spacing, out=field)
        for rows in blocks(len(r), math.prod(r.shape[1:])):     # the residual, over lap_h
            np.subtract(_term(spec, r[rows], t, dt_l), field[rows], out=field[rows])
            if spec.kind == "barenblatt":   # the front's band, from the block's H0
                rf = spec.barenblatt_support_radius(t)
                move = abs(spec.barenblatt_support_radius(t + dt_l)
                           - spec.barenblatt_support_radius(t - dt_l))
                window[rows] &= np.abs(r[rows] - rf) > 2.0 * h + move
        del r           # no level's H0 or field is held through the next
        spacings.append(h)
        dts.append(dt_l)
        maxes.append(float(np.max(np.abs(field, out=field)[window])))
        del field, window
    return {"h": spacings, "dt": dts, "max": maxes}


def _term(spec: SolutionSpec, r: np.ndarray, t: float, dt: float) -> np.ndarray:
    """The closed-form term of the residual at H0 values r, which
    `pde_residual` subtracts lap_h from: [u(t+dt) - u(t-dt)]/(2 dt), or
    -w^((N+2)/(N-2)) for the stationary family (-w^q - lap_h(w) is
    -lap_h(w) - w^q to the bit: negation is exact and rounding symmetric)."""
    if spec.kind == "talenti":
        N = spec.norm.dimension
        w = _closed_form(spec, r, t)
        w **= (N + 2) / (N - 2)
        return np.negative(w, out=w)
    du = _closed_form(spec, r, t + dt)
    du -= _closed_form(spec, r, t - dt)
    du /= 2.0 * dt
    return du


def _at_nodes(spec: SolutionSpec, r: np.ndarray, t: float,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """`_closed_form` at node-shaped H0 values r, a `grids.blocks` block of
    rows at a time, into out (r itself may be out): no temporary of the
    field's size is made besides out."""
    out = np.empty(r.shape) if out is None else out
    for rows in blocks(len(r), math.prod(r.shape[1:])):
        out[rows] = _closed_form(spec, r[rows], t)
    return out


def singular_poly_window(spec: SolutionSpec, layout: GridFunction,
                         annulus: tuple[float, float] = (0.25, 1.0)) -> np.ndarray:
    """The nodes whose residual `singular_poly_check` reads: r = H0(x) in
    the annulus [lo, hi] and at least m_order cells off the box edge, where
    (lap_h)^m v is defined (each application leaves its one-cell halo NaN).
    An annulus that holds none of them is a DomainError naming it."""
    return _annulus_window(spec, dual_norm_nodes(spec.norm, layout), annulus)


def _annulus_window(spec: SolutionSpec, r: np.ndarray, annulus: tuple) -> np.ndarray:
    """`singular_poly_window` from H0 values r at the nodes of the layout."""
    m = spec.m_order
    off_rim = np.zeros(r.shape, dtype=bool)
    off_rim[tuple(slice(m, max(m, n - m)) for n in r.shape)] = True
    window = off_rim & (r >= annulus[0]) & (r <= annulus[1])
    if not window.any():
        raise DomainError(f"the annulus {list(annulus)} holds no node at least {m} "
                          f"cell(s) off the box edge, where (lap_h)^{m} v is defined")
    return window


def singular_poly_check(spec: SolutionSpec, layout: GridFunction,
                        annulus: tuple[float, float] = (0.25, 1.0)) -> float:
    """Max |(lap_h)^m v| on the annulus r in [lo, hi], away from the origin
    and the box edge (`singular_poly_window`).  v is formed over H0 in
    place, a block of rows at a time.

    The Dirac mass at the origin is not estimated; the puncture at x = 0 is
    filled with 0 and its stencil pollution stays inside r < lo for the
    resolutions of interest.  m_order >= 2 iterates the operator (the halo
    grows by one cell per application) and is experimental.
    """
    if spec.kind != "singular_poly":
        raise DomainError("singular_poly_check requires the singular family")
    r = dual_norm_nodes(spec.norm, layout)
    window = _annulus_window(spec, r, annulus)
    puncture = r == 0.0     # the closed form rejects it: sample elsewhere, then fill
    r[puncture] = 1.0
    field = layout.with_values(_at_nodes(spec, r, 0.0, out=r))
    field.values[puncture] = 0.0
    del r
    for _ in range(spec.m_order):
        field = finsler_laplacian(field, spec.norm)
    return float(np.max(np.abs(field.values[window & np.isfinite(field.values)])))


def blowup_min_at_origin(spec: SolutionSpec, layout: GridFunction, t: float) -> bool:
    """Whether the blow-up family's minimum over the nodes of `layout` at
    time t sits at the node of least H0, as its minimum over x sits at the
    origin: H0 once (`norms.dual_norm_nodes`), the closed form from it a
    block of rows at a time."""
    if spec.kind != "blowup":
        raise DomainError("blowup_min_at_origin requires the blowup family")
    h0 = dual_norm_nodes(spec.norm, layout).ravel()
    u = _at_nodes(spec, h0, t)
    least = np.argmin(h0)
    return bool(abs(u.min() - u[least]) < 1e-12
                and h0[np.argmin(u)] - h0[least] < 1e-12)
