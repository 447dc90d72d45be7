"""Uniform grids and 1-D radial profiles.

A GridFunction stores node values of a scalar field on a uniform tensor
grid over a box; spacing is derived from the per-axis cell counts.  A
RadialProfile stores samples of a profile on [0, R] with a cubic
interpolant; profiles flagged as even are clamped to zero slope at the
origin so their lifts are smooth across the center.  The interpolant is
scipy's `CubicSpline` rebuilt on `scipy.linalg`, with the same slope
system, coefficients and power-sum evaluation and hence the same bits,
so that `scipy.interpolate` (and with it `scipy.optimize`) stays unloaded.

Every convergence check refines one way: `refinements` gives a layout and
its 2^l-fold refinements over the same box, and `observed_order` reads
log(e_0/e_last) / log(h_0/h_last) off the errors measured on them.
"""

from __future__ import annotations

import io
import math
from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import solve, solve_banded

from .errors import OutOfRangeError, SpecValidationError

_HEADER_INT = np.dtype("<i8")
_HEADER_FLOAT = np.dtype("<f8")


@dataclass
class GridFunction:
    box: tuple                 # ((lo, hi), ...) per axis
    resolution: tuple          # cells per axis; nodes = cells + 1
    values: np.ndarray
    check_finite: InitVar[bool] = True   # derived fields may carry a NaN halo

    def __post_init__(self, check_finite: bool = True):
        self.box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        self.resolution = tuple(int(r) for r in self.resolution)
        self.values = np.asarray(self.values, dtype=float)
        N = len(self.box)
        if N not in (1, 2, 3):
            raise SpecValidationError("grids support dimensions 1..3")
        if len(self.resolution) != N:
            raise SpecValidationError("resolution/box rank mismatch")
        if any(r < 4 for r in self.resolution):
            raise SpecValidationError("resolution must be >= 4 cells per axis")
        if any(hi <= lo for lo, hi in self.box):
            raise SpecValidationError("box sides must have positive length")
        nodes = tuple(r + 1 for r in self.resolution)
        if self.values.shape != nodes:
            raise SpecValidationError(
                f"values shape {self.values.shape} != node shape {nodes}")
        if check_finite and not np.all(np.isfinite(self.values)):
            raise SpecValidationError("grid values must be finite")

    @property
    def dimension(self) -> int:
        return len(self.box)

    @property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / r for (lo, hi), r in zip(self.box, self.resolution))

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, r + 1)
                for (lo, hi), r in zip(self.box, self.resolution)]

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (*nodes, N)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def with_values(self, values: np.ndarray, check_finite: bool = True) -> "GridFunction":
        return GridFunction(self.box, self.resolution, values, check_finite)

    def same_layout(self, other: "GridFunction") -> bool:
        return self.box == other.box and self.resolution == other.resolution

    def sample_nearest(self, points: np.ndarray) -> np.ndarray:
        """Values at points of shape (..., N), nearest node; 0 outside the box.

        Exact for points on this grid's lattice, so it also resamples between
        aligned lattices.
        """
        idx = []
        inside = np.ones(points.shape[:-1], dtype=bool)
        for a, ((lo, hi), cells) in enumerate(zip(self.box, self.resolution)):
            h = (hi - lo) / cells
            j = np.rint((points[..., a] - lo) / h).astype(int)
            inside &= (points[..., a] >= lo - 1e-9) & (points[..., a] <= hi + 1e-9)
            idx.append(np.clip(j, 0, cells))
        return np.where(inside, self.values[tuple(idx)], 0.0)

    # -- binary / CSV round trips (layout documented in docs/formats.md) ----

    def to_bytes(self) -> bytes:
        parts = [
            np.array([self.dimension], dtype=_HEADER_INT).tobytes(),
            np.array([c for side in self.box for c in side],
                     dtype=_HEADER_FLOAT).tobytes(),
            np.array(self.resolution, dtype=_HEADER_INT).tobytes(),
            np.ascontiguousarray(self.values, dtype=_HEADER_FLOAT).tobytes(),
        ]
        return b"".join(parts)

    @staticmethod
    def from_bytes(data: bytes) -> "GridFunction":
        buf = io.BytesIO(data)
        N = int(np.frombuffer(buf.read(8), dtype=_HEADER_INT)[0])
        box = np.frombuffer(buf.read(16 * N), dtype=_HEADER_FLOAT).reshape(N, 2)
        res = np.frombuffer(buf.read(8 * N), dtype=_HEADER_INT)
        nodes = tuple(int(r) + 1 for r in res)
        values = np.frombuffer(buf.read(), dtype=_HEADER_FLOAT).reshape(nodes)
        return GridFunction(tuple(map(tuple, box)), tuple(map(int, res)), values.copy())

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @staticmethod
    def load(path) -> "GridFunction":
        with open(path, "rb") as fh:
            return GridFunction.from_bytes(fh.read())


def empty_layout(box, resolution) -> GridFunction:
    """Grid of zeros with `resolution` cells per axis over `box`."""
    return GridFunction(tuple(box), tuple(resolution),
                        np.zeros(tuple(r + 1 for r in resolution)))


def grid_from_function(box, resolution, fn: Callable[[np.ndarray], np.ndarray]) -> GridFunction:
    """Sample fn (batched over (..., N) coordinates) onto a new grid."""
    gf = empty_layout(box, resolution)
    gf.values = np.asarray(fn(gf.coords()), dtype=float)
    return gf


def refinements(layout: GridFunction, levels: int) -> list[GridFunction]:
    """Empty layouts over the box of `layout` with 2^l times its cells per
    axis, l = 0 .. levels-1."""
    if levels < 1:
        raise SpecValidationError("levels must be >= 1")
    return [empty_layout(layout.box, tuple(r * 2**level for r in layout.resolution))
            for level in range(levels)]


def observed_order(errors, spacings) -> float:
    """log(e_0/e_last) / log(h_0/h_last): the convergence order that the
    first and last of a sequence of errors, measured at spacings h, show."""
    return float(np.log2(errors[0] / errors[-1]) / np.log2(spacings[0] / spacings[-1]))


def _spline_slopes(x: np.ndarray, dx: np.ndarray, slope: np.ndarray,
                   even: bool) -> np.ndarray:
    """Knot slopes of scipy's `CubicSpline(x, y)` with a not-a-knot end at
    x[-1] and, at x[0], a clamped zero slope when `even`, else not-a-knot.

    The rows, the n = 2 and n = 3 special cases and the LAPACK calls are
    scipy's, so the slopes carry its bits.
    """
    n = len(x)
    start = 0.0 if even else None           # clamped slope; None: not-a-knot
    end = None
    if n == 2:                              # the chord, at both ends
        start = slope[0] if start is None else start
        end = slope[0]
    if n == 3 and start is None:            # the parabola through 3 points
        A = np.array([[1.0, 1.0, 0.0],
                      [dx[1], 2 * (dx[0] + dx[1]), dx[0]],
                      [0.0, 1.0, 1.0]])
        b = np.array([[2 * slope[0]],
                      [3 * (dx[0] * slope[1] + dx[1] * slope[0])],
                      [2 * slope[1]]])
        return solve(A, b, overwrite_a=True, overwrite_b=True,
                     check_finite=False)[:, 0]
    A = np.zeros((3, n))                    # banded: upper, diagonal, lower
    b = np.empty(n)
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    if start is None:
        d = x[2] - x[0]
        A[1, 0], A[0, 1] = dx[1], d
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    else:
        A[1, 0], A[0, 1], b[0] = 1, 0, start
    if end is None:
        d = x[-1] - x[-3]
        A[1, -1], A[-1, -2] = dx[-2], d
        b[-1] = (dx[-1]**2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    else:
        A[1, -1], A[-1, -2], b[-1] = 1, 0, end
    return solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True,
                        check_finite=False)


@dataclass
class RadialProfile:
    """Samples of a profile v(r) on [0, R_max] with a cubic interpolant."""

    radii: np.ndarray
    values: np.ndarray
    even: bool = True
    # power-basis coefficients c[k, i] of (r - r_i)^(3-k) on [r_i, r_{i+1}]
    coefficients: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.radii.ndim != 1 or self.radii.shape != self.values.shape:
            raise SpecValidationError("radii and values must be matching 1-D arrays")
        if len(self.radii) < 2:
            raise SpecValidationError("a profile needs at least 2 samples")
        if self.radii[0] != 0.0:
            raise SpecValidationError("profile must start at r = 0")
        dx = np.diff(self.radii)
        if np.any(dx <= 0):
            raise SpecValidationError("radii must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise SpecValidationError("profile values must be finite")
        if self.even:
            # clamped zero slope realizes the even extension; reject data
            # that visibly contradicts it (quadratic fit through the first
            # three samples estimates the one-sided derivative at 0)
            c = np.polyfit(self.radii[:3], self.values[:3], 2)
            scale = 1.0 + float(np.max(np.abs(self.values)))
            if abs(c[1]) > 1e-2 * scale / max(self.r_max, 1e-12) + 1e-9:
                raise SpecValidationError(
                    "profile flagged even but has nonzero slope at r = 0")
        # CubicHermiteSpline's coefficients from the knot slopes s
        slope = np.diff(self.values) / dx
        s = _spline_slopes(self.radii, dx, slope, self.even)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.coefficients = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1],
                                      self.values[:-1]))

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if np.any(r < -1e-12) or np.any(r > self.r_max * (1 + 1e-12)):
            raise OutOfRangeError(
                f"radius outside profile range [0, {self.r_max}]")
        return self._evaluate(np.clip(r, 0.0, self.r_max), 0)

    def derivative(self, r: np.ndarray, order: int = 1) -> np.ndarray:
        r = np.clip(np.asarray(r, dtype=float), 0.0, self.r_max)
        return self._evaluate(r, order)

    def _interval(self, r: np.ndarray) -> np.ndarray:
        """Index i in [0, n-2] of the knot interval radii[i] <= r < radii[i+1]
        (the last one for r >= R_max), as `searchsorted` finds it.  Rows
        whose uniform-spacing guess floor(r (n-1)/R_max) fails that test go
        to `searchsorted`, so the result is the same for any knots."""
        radii, last, x = self.radii, len(self.radii) - 2, np.ravel(r)
        # fmax/fmin send NaN to 0, where the test below fails
        i = np.fmin(np.fmax(x * ((last + 1) / self.r_max), 0.0), last).astype(np.intp)
        off = ~((radii[i] <= x) & (x < radii[i + 1]))
        if off.any():
            i[off] = np.clip(np.searchsorted(radii, x[off], side="right") - 1, 0, last)
        return i.reshape(np.shape(r))

    def _evaluate(self, r: np.ndarray, order: int) -> np.ndarray:
        """The order-th derivative at r in [0, R_max], summed as scipy's PPoly
        sums it (term by term in rising powers of s = r - r_i, each times its
        falling-factorial prefactor), so the values keep its bits."""
        i = self._interval(r)
        s = r - self.radii[i]
        out, power = np.zeros_like(s), 1.0
        for k in range(order, 4):
            out = out + self.coefficients[3 - k, i] * power * math.perm(k, order)
            if k < 3:
                power = power * s
        return out

    @staticmethod
    def from_function(fn: Callable[[np.ndarray], np.ndarray], r_max: float,
                      samples: int = 1025, even: bool = True) -> "RadialProfile":
        r = np.linspace(0.0, float(r_max), int(samples))
        return RadialProfile(r, np.asarray(fn(r), dtype=float), even=even)
