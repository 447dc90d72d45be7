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
`grids.refinements`, halving dt with h, and reads the order of the defect
with `grids.observed_order`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SpecValidationError
from .grids import GridFunction, observed_order, refinements
from .norms import NormSpec, dual_norm_eval
from .operators import finsler_laplacian, interior_mask

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
        if self.kind == "blowup" and (self.lam is None or self.lam <= 0):
            raise SpecValidationError("blowup requires lam > 0")
        if self.kind == "barenblatt":
            if self.m is None or self.m <= 1:
                raise SpecValidationError("barenblatt requires m > 1")
            if self.C is None or self.C <= 0:
                raise SpecValidationError("barenblatt requires C > 0")
        if self.kind == "talenti":
            N = self.norm.dimension
            if self.p != 2.0 or N < 3:
                raise SpecValidationError(
                    "talenti solves -lap_H w = w^((N+2)/(N-2)) only for p = 2, N >= 3")
            if self.A is None or self.A <= 0 or self.B is None or self.B <= 0:
                raise SpecValidationError("talenti requires A > 0 and B > 0")
            if abs(N * (N - 2) * self.A * self.B - 1.0) > 1e-9:
                raise SpecValidationError("talenti requires N(N-2)AB = 1")
        if self.kind == "singular_poly" and (self.m_order is None or self.m_order < 1):
            raise SpecValidationError("singular_poly requires m_order >= 1")

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
    x = np.asarray(x, dtype=float)
    r = dual_norm_eval(spec.norm, x)
    N = spec.norm.dimension
    if spec.kind == "gauss_kernel":
        if t <= 0:
            raise DomainError("gauss_kernel requires t > 0")
        return (4.0 * np.pi * t) ** (-N / 2.0) * np.exp(-(r**2) / (4.0 * t))
    if spec.kind == "blowup":
        s = 1.0 - 4.0 * spec.lam * t
        if t < 0 or s <= 0:
            raise DomainError(
                f"blowup family only exists for 0 <= t < {spec.blowup_time}")
        return s ** (-N / 2.0) * np.exp(spec.lam * r**2 / s)
    if spec.kind == "barenblatt":
        if t <= 0:
            raise DomainError("barenblatt requires t > 0")
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


@dataclass
class ResidualReport:
    family: str
    norm_label: str
    spacings: list
    time_steps: list
    max_residuals: list

    @property
    def order(self) -> float:
        return observed_order(self.max_residuals, self.spacings)

    def rows(self):
        """(family, norm, h, dt, max residual, order against the level before)."""
        return [(self.family, self.norm_label, h, dt, mx,
                 np.nan if i == 0 else observed_order(self.max_residuals[i - 1:i + 1],
                                                      self.spacings[i - 1:i + 1]))
                for i, (h, dt, mx) in enumerate(zip(self.spacings, self.time_steps,
                                                    self.max_residuals))]


def pde_residual(spec: SolutionSpec, layout: GridFunction, t: float, dt: float,
                 levels: int = 2) -> ResidualReport:
    """Discrete-equation residual of a closed-form family, under refinement.

    Time families: r = [u(t+dt) - u(t-dt)]/(2 dt) - lap_h(u(t)) with the
    operator applied to u^m for the porous-medium family, which also
    excludes a band around its free boundary (2h plus the interface
    displacement over the time stencil).  The stationary critical family
    uses r = -lap_h(w) - w^((N+2)/(N-2)).
    """
    if spec.kind == "singular_poly":
        raise DomainError("use singular_poly_check for the singular family")
    if not (math.isfinite(dt) and dt > 0):
        raise SpecValidationError("dt must be positive and finite")
    h0 = max(layout.spacing)
    spacings, dts, maxes = [], [], []
    for lay in refinements(layout, levels):
        h = max(lay.spacing)
        dt_l = dt * (h / h0)    # h / h0 is exactly 2^-level
        x = lay.coords()
        window = interior_mask(lay)
        if spec.kind == "talenti":
            w = eval_solution(spec, x)
            N = spec.norm.dimension
            lap = finsler_laplacian(lay.with_values(w), spec.norm).values
            residual = -lap - w ** ((N + 2) / (N - 2))
        else:
            u = eval_solution(spec, x, t)
            du_dt = (eval_solution(spec, x, t + dt_l) - eval_solution(spec, x, t - dt_l)) \
                / (2.0 * dt_l)
            field = u**spec.m if spec.kind == "barenblatt" else u
            residual = du_dt - finsler_laplacian(lay.with_values(field), spec.norm).values
            if spec.kind == "barenblatt":
                r = dual_norm_eval(spec.norm, x)
                rf = spec.barenblatt_support_radius(t)
                move = abs(spec.barenblatt_support_radius(t + dt_l)
                           - spec.barenblatt_support_radius(t - dt_l))
                window &= np.abs(r - rf) > 2.0 * h + move
        spacings.append(h)
        dts.append(dt_l)
        maxes.append(float(np.max(np.abs(residual)[window])))
    return ResidualReport(spec.kind, spec.norm.label(), spacings, dts, maxes)


def singular_poly_check(spec: SolutionSpec, layout: GridFunction,
                        annulus: tuple[float, float] = (0.25, 1.0)) -> float:
    """Max |(lap_h)^m v| on the annulus r in [lo, hi], away from the origin.

    The Dirac mass at the origin is not estimated; the puncture at x = 0 is
    filled with 0 and its stencil pollution stays inside r < lo for the
    resolutions of interest.  m_order >= 2 iterates the operator (the halo
    grows by one cell per application) and is experimental.
    """
    if spec.kind != "singular_poly":
        raise DomainError("singular_poly_check requires the singular family")
    x = layout.coords()
    r = dual_norm_eval(spec.norm, x)
    puncture = r == 0.0     # eval_solution rejects it: sample elsewhere, then fill
    v = eval_solution(spec, np.where(puncture[..., None], 1.0, x))
    field = layout.with_values(np.where(puncture, 0.0, v))
    for _ in range(spec.m_order):
        field = finsler_laplacian(field, spec.norm)
    window = (r >= annulus[0]) & (r <= annulus[1]) & np.isfinite(field.values)
    return float(np.max(np.abs(field.values[window])))
