"""Initial data as measures, the quadratic growth condition, and mollifiers.

The admissibility functional is the windowed Gaussian-weighted mass

    G(mu; L) = sup_x  int_{B_{H0}(x, 1/sqrt(L))} e^(-L H0(y)^2) d|mu|(y),

finite for some L > 0 exactly when the datum launches a solution up to
the horizon S_L = 1/(4 L).  Finiteness cannot be decided from a bounded
window, so the classifier operationalizes it as stabilization of G under
window growth: the first L in the grid whose value changes by at most a
relative threshold between the two largest windows wins.

Density integrals use the node-sum (midpoint) rule; the ball-windowed
supremum over all grid centers is a convolution with the H0-ball
indicator and is evaluated by FFT (`fftconvolve`, scipy.signal's
same-mode FFT convolution repeated step for step on scipy.fft).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .errors import DomainError, SpecValidationError
from .grids import GridFunction, RadialProfile, empty_layout
from .norms import NormSpec, dual_norm_eval, eval_norm


@dataclass(frozen=True)
class MeasureSpec:
    """Initial datum: a density grid, a finite atom list, or a radial density."""

    kind: str                                   # density | atoms | radial_density
    density: Optional[GridFunction] = None
    atoms: Optional[tuple] = None               # ((point tuple, weight), ...)
    profile: Optional[RadialProfile] = None
    norm: Optional[NormSpec] = None             # for radial_density

    def __post_init__(self):
        if self.kind == "density":
            if self.density is None:
                raise SpecValidationError("density measure needs a grid")
        elif self.kind == "atoms":
            if not self.atoms:
                raise SpecValidationError("atom measure needs at least one atom")
            for point, weight in self.atoms:
                if not np.all(np.isfinite(point)) or not np.isfinite(weight):
                    raise SpecValidationError("atom data must be finite")
        elif self.kind == "radial_density":
            if self.profile is None or self.norm is None:
                raise SpecValidationError("radial density needs a profile and a norm")
        else:
            raise SpecValidationError(f"unknown measure kind {self.kind!r}")

    def atom_array(self) -> tuple[np.ndarray, np.ndarray]:
        pts = np.array([p for p, _ in self.atoms], dtype=float)
        wts = np.array([w for _, w in self.atoms], dtype=float)
        return pts, wts


def measure_from_atoms(atoms: Sequence[tuple]) -> MeasureSpec:
    packed = tuple((tuple(map(float, p)), float(w)) for p, w in atoms)
    return MeasureSpec("atoms", atoms=packed)


def measure_from_density(grid: GridFunction) -> MeasureSpec:
    return MeasureSpec("density", density=grid)


def measure_from_radial(profile: RadialProfile, norm: NormSpec) -> MeasureSpec:
    return MeasureSpec("radial_density", profile=profile, norm=norm)


def _lattice_box(spec: NormSpec, radius: float, spacing: float):
    """Box hugging {H0 <= radius} with sides on the spacing lattice."""
    if not (math.isfinite(radius) and radius > 0 and math.isfinite(spacing) and spacing > 0):
        raise SpecValidationError("window and spacing must be positive and finite")
    extents = eval_norm(spec, np.eye(spec.dimension))
    cells = [max(4, int(np.ceil(radius * e / spacing - 1e-9))) for e in extents]
    box = tuple((-c * spacing, c * spacing) for c in cells)
    return box, tuple(2 * c for c in cells)


def fftconvolve(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Linear convolution of two real arrays of equal rank, cropped to the
    centred `field.shape`: `scipy.signal.fftconvolve(field, kernel,
    mode="same")` step for step, so bit for bit.

    Axes where either side has length 1 broadcast instead of transforming;
    the others are zero-padded to scipy's fast real-FFT length.
    """
    s1, s2 = field.shape, kernel.shape
    axes = [a for a in range(field.ndim) if s1[a] != 1 and s2[a] != 1]
    if axes:
        fshape = [next_fast_len(s1[a] + s2[a] - 1, True) for a in axes]
        spectrum = rfftn(field, fshape, axes=axes) * rfftn(kernel, fshape, axes=axes)
        full = irfftn(spectrum, fshape, axes=axes)
    else:
        full = field * kernel
    size = [s1[a] + s2[a] - 1 if a in axes else full.shape[a]
            for a in range(field.ndim)]
    start = [(n - m) // 2 for n, m in zip(size, s1)]
    return full[tuple(slice(b, b + m) for b, m in zip(start, s1))]


def _ball_kernel(spec: NormSpec, radius: float, spacing: Sequence[float]) -> np.ndarray:
    """Indicator of the H0-ball sampled on the grid lattice (symmetric)."""
    extents = eval_norm(spec, np.eye(spec.dimension))
    half = [int(np.floor(radius * e / h)) + 1 for e, h in zip(extents, spacing)]
    axes = [np.arange(-m, m + 1) * h for m, h in zip(half, spacing)]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return (dual_norm_eval(spec, offsets) <= radius).astype(float)


def growth_functional(measure: MeasureSpec, lam: float, spec: NormSpec,
                      window: float = None, spacing: float = 0.25) -> float:
    """sup over centers of the e^(-lam H0^2)-weighted |mu|-mass of H0-balls.

    The balls have radius 1/sqrt(lam).  Densities take their centers over
    all grid nodes of the window, atom measures at the atom locations.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise SpecValidationError("lam must be positive and finite")
    radius = 1.0 / np.sqrt(lam)

    if measure.kind == "atoms":
        pts, wts = measure.atom_array()
        weight = np.abs(wts) * np.exp(-lam * dual_norm_eval(spec, pts) ** 2)
        best = 0.0
        for c in pts:
            inside = dual_norm_eval(spec, pts - c) <= radius
            best = max(best, float(np.sum(weight[inside])))
        return best

    if measure.kind == "radial_density":
        if window is None:
            raise SpecValidationError("radial densities need an explicit window")
        grid = empty_layout(*_lattice_box(spec, window, spacing))
        r = dual_norm_eval(spec, grid.coords())
        # the density is radial in its own norm, the window in spec's
        rho = r if measure.norm == spec else dual_norm_eval(measure.norm, grid.coords())
        if float(np.max(rho[r <= window], initial=0.0)) > measure.profile.r_max:
            raise DomainError("radial density profile shorter than the window")
        values = np.where(r <= window, measure.profile(
            np.clip(rho, 0.0, measure.profile.r_max)), 0.0)
    else:
        grid, values = measure.density, measure.density.values
        window = window or np.inf
        r = dual_norm_eval(spec, grid.coords())
    if window < radius:
        warnings.warn("window smaller than the ball radius; coverage is partial")
    weighted = np.abs(values) * np.exp(-lam * np.minimum(r**2, 1400.0 / lam))
    conv = fftconvolve(weighted, _ball_kernel(spec, radius, grid.spacing))
    return float(np.max(conv[r <= min(window, float(np.max(r)))])) * grid.cell_volume


@dataclass
class ClassifyResult:
    lam_grid: list
    windows: list
    table: dict                  # (lam, window) -> value
    stabilized: dict             # lam -> bool
    lam_star: Optional[float]
    horizon: Optional[float]     # 1 / (4 lam_star)

    @property
    def admissible(self) -> bool:
        return self.lam_star is not None

    def rows(self):
        out = []
        for lam in self.lam_grid:
            for w in self.windows:
                out.append((lam, w, self.table[(lam, w)], self.stabilized[lam]))
        return out


def classify(measure: MeasureSpec, spec: NormSpec, lam_grid: Sequence[float],
             windows: Sequence[float] = (4.0, 6.0, 8.0, 12.0),
             spacing: float = 0.25, stabilization_tol: float = 1e-3) -> ClassifyResult:
    """Smallest lam whose windowed functional stabilizes, and its horizon.

    Deterministic and window-monotone: all windows share one lattice, so
    enlarging the window never decreases a table entry.
    """
    lam_grid = sorted(float(x) for x in lam_grid)
    windows = sorted(float(w) for w in windows)
    if not lam_grid:
        raise SpecValidationError("lambda grid is empty: no lambda to test")
    if not (math.isfinite(stabilization_tol) and stabilization_tol >= 0):
        raise SpecValidationError("stabilization_tol must be finite and >= 0")
    if len(windows) < 2:
        raise SpecValidationError("need at least two windows to test stabilization")
    table, stabilized = {}, {}
    for lam in lam_grid:
        for w in windows:
            table[(lam, w)] = growth_functional(measure, lam, spec,
                                                window=w, spacing=spacing)
        a, b = table[(lam, windows[-2])], table[(lam, windows[-1])]
        if np.isfinite(a) and np.isfinite(b):
            stabilized[lam] = abs(b - a) <= stabilization_tol * max(abs(a), 1e-300)
        else:
            stabilized[lam] = False
    lam_star = next((lam for lam in lam_grid if stabilized[lam]), None)
    horizon = None if lam_star is None else 1.0 / (4.0 * lam_star)
    return ClassifyResult(list(lam_grid), list(windows), table, stabilized,
                          lam_star, horizon)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def _bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def mollify(measure: MeasureSpec, width: float, layout: GridFunction) -> GridFunction:
    """Smooth density on the layout grid; total mass preserved exactly.

    Densities are convolved with a compactly supported bump of the given
    width; atoms are splatted with the same bump, renormalized per atom on
    the lattice.  Mass is preserved to roundoff provided the support plus
    the width stays inside the grid; width must be at least two cells.
    """
    h = layout.spacing
    if width < 2.0 * max(h) * (1.0 - 1e-12):
        raise SpecValidationError("mollifier width must be >= 2 grid cells")

    if measure.kind == "atoms":
        pts, wts = measure.atom_array()
        out = np.zeros(layout.values.shape)
        coords = layout.coords()
        for p, w in zip(pts, wts):
            s = np.linalg.norm(coords - p, axis=-1) / width
            kern = _bump(s)
            total = kern.sum() * layout.cell_volume
            if total <= 0:
                raise DomainError("atom outside the grid (empty mollifier support)")
            out += w * kern / total
        return layout.with_values(out)

    if measure.kind == "radial_density":
        r = dual_norm_eval(measure.norm, layout.coords())
        base = measure.profile(np.clip(r, 0.0, measure.profile.r_max))
        source = layout.with_values(np.where(r <= measure.profile.r_max, base, 0.0))
    else:
        source = measure.density if measure.density.same_layout(layout) \
            else layout.with_values(measure.density.sample_nearest(layout.coords()))

    axes = [np.arange(-int(np.ceil(width / hk)), int(np.ceil(width / hk)) + 1) * hk
            for hk in h]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    kern = _bump(np.linalg.norm(offsets, axis=-1) / width)
    kern /= kern.sum() * layout.cell_volume
    smooth = fftconvolve(source.values, kern) * layout.cell_volume
    return layout.with_values(smooth)
