"""Norm calculus: H, its gradient, the dual norm H0, and the duality map.

Conventions used throughout the package:

    H : R^N -> [0, inf)   convex, absolutely 1-homogeneous, H(xi)=0 iff xi=0,
                          C^1 away from the origin, strictly convex unit ball
    H0(x) = sup_{xi != 0} (x . xi) / H(xi)         (the polar / dual norm)
    A(xi) = H(xi) grad H(xi) for xi != 0, A(0) = 0  (the flux / duality map)

The map A satisfies A(xi).xi = H(xi)^2 and H0(A(xi)) = H(xi), and is
continuous at the origin, which is why all grid code evaluates A rather
than grad H.

Every family has its dual in closed form (`dual_spec`): the p-norm dual is
the conjugate q-norm, and every quadratic family H^2 = xi^T Q xi has the
ellipse of Q^-1 as its dual.  `dual_norm_eval` and `grad_dual_norm` are
these closed forms; `dual_norm_nodes`, H0 at every node of a grid, runs
the first on one block of rows of coordinates at a time.  The one numeric
oracle is `sphere_maximization`, the sampled maximization over the unit
sphere of H.  It runs on all points at once, raises one ConvergenceError,
for the point with the worst gap, and returns H0 together with its
gradient, the maximizer (envelope argument): grad H0(x) is the point of
{H = 1} where the supremum is attained.

Built-in families:

    euclidean            H(xi) = |xi|, self-dual
    p_norm(p), 1<p<inf   H(xi) = (sum |xi_i|^p)^(1/p), dual is the q-norm
    ellipse(M)           H(xi) = sqrt(xi^T M xi), M SPD, dual uses M^-1
    smoothed_polytope    H(xi)^2 = sum_i ((d_i . xi)^2 + eps^2 |xi|^2),
                         a strictly convex stand-in for polytope norms;
                         an ellipse with Q = D^T D + k eps^2 I

Non-smooth norms (p = 1, p = inf, raw polytopes) are rejected at
construction: the strict-convexity and C^1 assumptions are load-bearing
for everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (ConvergenceError, DomainError, SpecValidationError, finite, integer,
                     natural, positive)
from .grids import MAX_NODES, GridFunction, blocks, bounded

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 20          # golden-section steps of each line search of the oracle
# the largest norm dimension: grids and the oracles take N <= 3, the closed
# forms any N; the bound keeps every N-long list and N x N form small
MAX_DIMENSION = 16


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Parametric description of a norm; build via the module-level factories."""

    family: str
    dimension: int
    p: Optional[float] = None
    matrix: Optional[tuple] = None          # row tuples, kept hashable
    directions: Optional[tuple] = None
    epsilon: Optional[float] = None

    def __post_init__(self):     # kept as an int: 2.0 reads as 2
        object.__setattr__(self, "dimension", integer(self.dimension, "dimension"))
        positive(self.dimension, "dimension")
        if self.dimension > MAX_DIMENSION:
            raise SpecValidationError(f"dimension must be at most {MAX_DIMENSION}, "
                                      f"not {self.dimension:g}")
        if self.family == "euclidean":
            pass
        elif self.family == "p_norm":
            if not (finite(self.p) and 1.0 < self.p):
                raise SpecValidationError(
                    "p_norm requires 1 < p < inf (endpoints break C^1 smoothness "
                    "and strict convexity of the unit ball)")
        elif self.family == "ellipse":
            M = self._table("matrix")
            if M.shape != (self.dimension, self.dimension):
                raise SpecValidationError("ellipse matrix shape mismatch")
            if not np.all(np.isfinite(M)):
                raise SpecValidationError("ellipse matrix entries must be finite")
            if not np.allclose(M, M.T, atol=1e-12):
                raise SpecValidationError("ellipse matrix must be symmetric")
            if np.linalg.eigvalsh(M)[0] <= 0:
                raise SpecValidationError("ellipse matrix must be positive definite")
        elif self.family == "smoothed_polytope":
            bounded([positive(self.epsilon, "smoothed_polytope epsilon")],
                    "smoothed_polytope epsilon")
            D = self._table("directions")
            if np.linalg.matrix_rank(D) < self.dimension:
                raise SpecValidationError(
                    "smoothed_polytope needs >= N linearly independent directions")
            if not np.allclose(np.linalg.norm(D, axis=1), 1.0, atol=1e-9):
                raise SpecValidationError("directions must be unit vectors")
        else:
            raise SpecValidationError(f"unknown norm family {self.family!r}")

    def _table(self, name: str) -> np.ndarray:
        """The param `name` as rows of N numbers, shape (k, N); anything
        else, absent or ragged rows included, is refused."""
        try:
            rows = np.asarray(getattr(self, name), dtype=float)
        except (TypeError, ValueError):
            rows = None
        if rows is None or rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise SpecValidationError(
                f"{self.family} {name} must be rows of {self.dimension} numbers")
        return rows

    def _quadratic_form(self) -> np.ndarray:
        """The SPD Q with H(xi)^2 = xi^T Q xi; every caller branches on p_norm first."""
        if self.family == "euclidean":
            return np.eye(self.dimension)
        if self.family == "ellipse":
            return self._table("matrix")
        D = self._table("directions")
        return D.T @ D + len(D) * self.epsilon**2 * np.eye(self.dimension)

    def label(self) -> str:
        if self.family == "p_norm":
            return f"p_norm(p={self.p:g},N={self.dimension})"
        if self.family == "ellipse":
            return f"ellipse(N={self.dimension})"
        if self.family == "smoothed_polytope":
            return f"smoothed_polytope(k={len(self.directions)},eps={self.epsilon:g})"
        return f"{self.family}(N={self.dimension})"


def _rows(a) -> tuple:
    return tuple(map(tuple, np.asarray(a, dtype=float)))


def euclidean(dimension: int) -> NormSpec:
    return NormSpec("euclidean", dimension)


def p_norm(p: float, dimension: int) -> NormSpec:
    return NormSpec("p_norm", dimension, p=float(p))


def ellipse(M: np.ndarray) -> NormSpec:
    return NormSpec("ellipse", np.shape(M)[0], matrix=_rows(M))


def smoothed_polytope(directions: np.ndarray, epsilon: float) -> NormSpec:
    return NormSpec("smoothed_polytope", np.shape(directions)[1],
                    directions=_rows(directions), epsilon=float(epsilon))


@dataclass(frozen=True)
class DualEvalConfig:
    """Settings of the sphere-maximization oracle (`sphere_maximization`):
    the directions of its scan and the largest gap it accepts.  Its three
    great-circle rounds of `_GOLDEN_STEPS` steps each are fixed."""

    sphere_samples: int = 2048
    tolerance: float = 1e-9

    def __post_init__(self):
        positive(self.tolerance, "tolerance")
        if not 2 <= integer(self.sphere_samples, "sphere_samples") <= MAX_NODES:
            raise SpecValidationError(f"sphere_samples must lie in [2, {MAX_NODES}], "
                                      f"not {self.sphere_samples}")

    def check_dimension(self, dimension: int) -> None:
        """The one check of the scan's bounds for a norm of `dimension` N,
        which `sphere_maximization` calls: N <= 3, the directions that
        `_direction_set` samples, and a floor of 2N directions."""
        if dimension > 3:
            raise SpecValidationError(f"the sphere scan takes norms of dimension at most 3, "
                                      f"not {dimension}")
        if self.sphere_samples < 2 * dimension:
            raise SpecValidationError(f"sphere_samples must be at least 2N = {2 * dimension} "
                                      f"for a {dimension}-D norm, not {self.sphere_samples}")


# ---------------------------------------------------------------------------
# primal evaluations (all batched over leading axes)
# ---------------------------------------------------------------------------

def _vectors(spec: NormSpec, xi: np.ndarray) -> np.ndarray:
    """xi as a float array of vectors of the spec's dimension, or DomainError."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != spec.dimension:
        raise DomainError(
            f"vector dimension {xi.shape[-1]} != spec dimension {spec.dimension}")
    return xi


def eval_norm(spec: NormSpec, xi: np.ndarray) -> np.ndarray:
    """H(xi); accepts arrays of shape (..., N)."""
    xi = _vectors(spec, xi)
    if spec.family == "p_norm":
        return np.sum(np.abs(xi) ** spec.p, axis=-1) ** (1.0 / spec.p)
    Q = spec._quadratic_form()
    if xi.size <= 2 * spec.dimension:   # one or two vectors: einsum sums N = 2 row by row
        return np.sqrt(np.einsum("...i,ij,...j->...", xi, Q, xi))
    # xi^T Q xi as np.einsum("...i,ij,...j->...") sums it, with its bits:
    # (xi_i Q_ij) xi_j, i-major from +0.0, each term formed in place
    total = np.zeros(xi.shape[:-1])
    for i in range(spec.dimension):
        for j in range(spec.dimension):
            term = xi[..., i] * Q[i, j]
            term *= xi[..., j]
            total += term
    return np.sqrt(total)


def grad_norm(spec: NormSpec, xi: np.ndarray) -> np.ndarray:
    """grad H(xi), closed form per family; undefined (raises) at xi = 0.

    Satisfies the Euler identity xi . grad H(xi) = H(xi) and the sign rule
    grad H(t xi) = sign(t) grad H(xi).
    """
    xi = np.asarray(xi, dtype=float)
    H, s = _p_terms(spec, xi) if spec.family == "p_norm" else (eval_norm(spec, xi), None)
    if np.any(H == 0.0):
        raise DomainError("grad_norm is undefined at xi = 0; use duality_map")
    if s is not None:
        return s / H[..., None] ** (spec.p - 1.0)     # g, as `_p_jacobian` forms it
    return np.einsum("ij,...j->...i", spec._quadratic_form(), xi) / H[..., None]


def duality_map(spec: NormSpec, xi: np.ndarray) -> np.ndarray:
    """A(xi) = H(xi) grad H(xi), extended by A(0) = 0; total and continuous."""
    xi = np.asarray(xi, dtype=float)
    if spec.family == "p_norm":
        return _p_flux(spec, *_p_terms(spec, xi))
    # quadratic families: A is linear, no norm evaluation needed
    return xi @ spec._quadratic_form().T


def duality_jacobian(spec: NormSpec, xi: np.ndarray) -> np.ndarray:
    """DA(xi), the Jacobian of the duality map, shape (..., N, N).

    Quadratic families: Q.  p-norms: (p-1) H^(2-p) diag(|xi_i|^(p-2))
    + (2-p) g g^T with g = grad H(xi), and 0 at xi = 0 (A is not
    differentiable there unless p = 2).  DA is the Hessian of H^2/2, so it
    is symmetric positive semidefinite, and DA(xi) xi = A(xi) (A is
    1-homogeneous).  For p < 2 the diagonal floors |xi_i| at machine
    epsilon times H(xi), which only guards 0^(p-2); a larger floor would
    let Newton steps push rounding-level components up to the floor.
    """
    xi = np.asarray(xi, dtype=float)
    N = spec.dimension
    if spec.family != "p_norm":
        return np.broadcast_to(spec._quadratic_form(), xi.shape + (N,))
    DA = np.empty(xi.shape + (N,))
    for (i, j), entry in _p_jacobian(spec, xi, *_p_terms(spec, xi)).items():
        DA[..., i, j] = DA[..., j, i] = entry
    return DA


def _p_terms(spec: NormSpec, xi: np.ndarray, out: Optional[tuple] = None,
             scratch: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """H(xi) and s = sign(xi) |xi|^(p-1) of a p-norm, xi of shape (..., N):
    the terms that A = s H^(2-p) (`_p_flux`), g = grad H = s / H^(p-1)
    (`grad_norm`) and DA, through g (`_p_jacobian`), are built from.

    Into out = (H, s) if given, else new arrays, s laid out as xi, and the
    sign of xi formed in `scratch` (shaped as xi) if given.  H sums |xi|^p,
    formed in s, as `eval_norm` sums it; every term keeps the operand order
    of `eval_norm` and of sign(xi) * |xi|^(p-1), so the bits are theirs."""
    xi = _vectors(spec, xi)
    H, s = (np.empty(xi.shape[:-1]), np.empty_like(xi)) if out is None else out
    np.abs(xi, out=s)
    s **= spec.p
    np.sum(s, axis=-1, out=H)
    H **= 1.0 / spec.p
    np.abs(xi, out=s)
    s **= spec.p - 1.0
    np.multiply(np.sign(xi, out=scratch), s, out=s)
    return H, s


def _p_flux(spec: NormSpec, H: np.ndarray, s: np.ndarray, out: Optional[np.ndarray] = None,
            scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """A = s H^(2-p), 0 where H = 0, from the `_p_terms` of xi; into `out`
    (shaped as s) if given, with H^(2-p) formed in `scratch` (shaped as H)."""
    A = np.empty_like(s) if out is None else out
    t = np.empty_like(H) if scratch is None else scratch
    with np.errstate(divide="ignore", invalid="ignore"):
        np.copyto(t, H)
        t **= 2.0 - spec.p
        np.multiply(s, t[..., None], out=A)
    np.copyto(A, 0.0, where=~(H[..., None] > 0.0))
    return A


def _p_jacobian(spec: NormSpec, xi: np.ndarray, H: np.ndarray, s: np.ndarray,
                out: Optional[dict] = None, scratch: Optional[tuple] = None) -> dict:
    """DA at xi from its `_p_terms`: (i, j) -> DA_ij, shape xi.shape[:-1],
    for i <= j (DA is symmetric, g_i g_j = g_j g_i exactly),

        DA_ij = (2-p) g_i g_j + [i = j] (p-1) H^(2-p) max(|xi_i|, floor H)^(p-2),

    g = s / H^(p-1), and 0 where H = 0.  Into the arrays of `out` if given,
    with scratch = (g, t), shaped as s and as H; xi, H and s are only read.
    Each term keeps the operand order of that expression, so the bits do
    not depend on the buffers."""
    p, N = spec.p, xi.shape[-1]
    floor = np.finfo(float).eps if p < 2.0 else 0.0
    pairs = [(i, j) for i in range(N) for j in range(i, N)]
    entries = {pair: np.empty(H.shape) for pair in pairs} if out is None else out
    g, t = (np.empty_like(s), np.empty_like(H)) if scratch is None else scratch
    positive = H > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(floor, H, out=t)
        for i in range(N):          # max(|xi_i|, floor H)^(p-2), in DA_ii
            np.maximum(np.abs(xi[..., i], out=entries[i, i]), t, out=entries[i, i])
            entries[i, i] **= p - 2.0
        np.copyto(t, H)
        t **= 2.0 - p
        np.multiply(p - 1.0, t, out=t)
        for i in range(N):          # times (p-1) H^(2-p): the diagonal term
            np.multiply(t, entries[i, i], out=entries[i, i])
        np.copyto(t, H)
        t **= p - 1.0
        np.divide(s, t[..., None], out=g)
        for i, j in pairs:
            DA = t if i == j else entries[i, j]
            np.multiply(g[..., i], g[..., j], out=DA)
            np.multiply(2.0 - p, DA, out=DA)
            if i == j:
                np.add(DA, entries[i, i], out=entries[i, i])
            np.copyto(entries[i, j], 0.0, where=~positive)
    return entries


@lru_cache(maxsize=128)
def coercivity_bounds(spec: NormSpec) -> tuple[float, float]:
    """(C1, C2) with A(xi).xi >= C1 |xi|^2 and |A(xi)| <= C2 |xi|.

    Exact eigenvalue bounds for quadratic families; for p-norms the bounds
    come from a dense deterministic sphere scan with a small safety margin.
    """
    if spec.family == "p_norm":
        dirs = _direction_set(spec.dimension, 8192)
        H = eval_norm(spec, dirs)
        A = duality_map(spec, dirs)
        c1 = float(np.min(H**2))
        c2 = float(np.max(np.linalg.norm(A, axis=-1)))
        return c1 * (1.0 - 1e-3), c2 * (1.0 + 1e-3)
    w = np.linalg.eigvalsh(spec._quadratic_form())
    return float(w[0]), float(w[-1])


# ---------------------------------------------------------------------------
# dual norm
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def dual_spec(spec: NormSpec) -> NormSpec:
    """Closed-form dual spec: the conjugate p-norm, or the ellipse of Q^-1."""
    if spec.family == "p_norm":
        return NormSpec("p_norm", spec.dimension, p=spec.p / (spec.p - 1.0))
    Minv = np.linalg.inv(spec._quadratic_form())
    Minv = 0.5 * (Minv + Minv.T)
    return NormSpec("ellipse", spec.dimension, matrix=tuple(map(tuple, Minv)))


def _direction_set(dimension: int, count: int) -> np.ndarray:
    """Quasi-uniform unit directions; deterministic (no RNG)."""
    if dimension == 1:
        return np.array([[1.0], [-1.0]])
    if dimension == 2:
        theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if dimension == 3:
        # Fibonacci sphere
        k = np.arange(count) + 0.5
        z = 1.0 - 2.0 * k / count
        phi = np.pi * (1.0 + np.sqrt(5.0)) * k
        s = np.sqrt(np.maximum(0.0, 1.0 - z**2))
        return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
    raise DomainError("direction sampling implemented for N <= 3")


def _ratio(spec: NormSpec, X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """x.d / H(d) for each row x of X and its direction d in D; the row-wise
    matmul runs the 1-D `x @ d` kernel, so the values keep the bits of a
    point-by-point evaluation."""
    return (X[:, None, :] @ D[:, :, None])[:, 0, 0] / eval_norm(spec, D)


def _unit(D: np.ndarray) -> np.ndarray:
    return D / np.sqrt(D[:, None, :] @ D[:, :, None])[:, 0]  # bitwise np.linalg.norm(d)


def _golden_max(spec: NormSpec, X: np.ndarray, direction, lo, hi):
    """Golden-section maximization of x.d / H(d) along d = direction(s), one
    bracket [lo, hi] of s per row x of X; returns the best s and value per row.
    """
    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = _ratio(spec, X, direction(c)), _ratio(spec, X, direction(d))
    for _ in range(_GOLDEN_STEPS):
        left = fc >= fd                 # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = (np.where(left, b - _GOLDEN * (b - a), d),
                np.where(left, c, a + _GOLDEN * (b - a)))
        f_new = _ratio(spec, X, direction(np.where(left, c, d)))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    left = fc >= fd
    return np.where(left, c, d), np.where(left, fc, fd)


def _tangents(D: np.ndarray) -> tuple:
    """The N - 1 orthonormal tangents at each unit row of D, for N = 2 or 3."""
    if D.shape[1] == 2:
        return (np.stack([-D[:, 1], D[:, 0]], axis=-1),)
    t1 = _unit(np.cross(D, np.eye(3)[np.argmin(np.abs(D), axis=1)]))
    return t1, np.cross(D, t1)


def sphere_maximization(spec: NormSpec, x: np.ndarray,
                        cfg: Optional[DualEvalConfig] = None) -> tuple:
    """The numeric oracle: (H0(x), grad H0(x)) for x of shape (..., N), as
    the sup of x.xi / H(xi) over the unit sphere and its maximizer on {H=1}.

    Each point is maximized once, and a zero point gives (0, 0): a
    quasi-uniform sphere scan, exact for N = 1, of one `grids.blocks` block
    of points (of one value per direction each) at a time.  For N = 2 and
    3, three rounds follow of one golden-section search per tangent t at
    the best direction d, along cos(s) d + sin(s) t with |s| <= delta, the
    scan's cell size shrunk 20x per round.  Values are lower bounds with the gap delta^2;
    points that miss the tolerance raise one ConvergenceError, for the
    worst gap.  The maximizer satisfies H(grad H0(x)) = 1 by construction.
    """
    cfg = cfg or DualEvalConfig()
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, x.shape[-1])
    N = spec.dimension
    cfg.check_dimension(N)
    dirs = _direction_set(N, cfg.sphere_samples)
    H_dirs = eval_norm(spec, dirs)
    best = np.empty(len(X), dtype=int)
    for rows in blocks(len(X), len(dirs)):
        best[rows] = np.argmax(X[rows] @ dirs.T / H_dirs, axis=1)
    d_best = dirs[best]
    v_best, delta = _ratio(spec, X, d_best), 0.0    # exact for N = 1
    if N > 1:
        delta = (2.0 * np.pi / cfg.sphere_samples if N == 2
                 else 2.2 * np.sqrt(4.0 * np.pi / cfg.sphere_samples))
        for _ in range(3):
            for t in _tangents(d_best):
                circle = lambda s: np.cos(s)[..., None] * d_best + np.sin(s)[..., None] * t
                s, v_best = _golden_max(spec, X, circle, -delta, delta)
                d_best = circle(s)
            delta *= 0.05
    gap = np.full(len(X), delta**2)
    live = np.any(X != 0.0, axis=1)
    failed = live & (gap > np.maximum(cfg.tolerance, 1e-12 * (1.0 + np.abs(v_best))))
    if np.any(failed):
        worst = int(np.argmax(np.where(failed, gap, -np.inf)))
        raise ConvergenceError(f"dual-norm refinement left a gap of {gap[worst]:.3g}",
                               best=float(v_best[worst]), gap=float(gap[worst]))
    return (np.where(live, v_best, 0.0).reshape(x.shape[:-1]),
            np.where(live[:, None], d_best / eval_norm(spec, d_best)[:, None],
                     0.0).reshape(x.shape))


def dual_norm_eval(spec: NormSpec, x: np.ndarray) -> np.ndarray:
    """H0(x) = sup_{xi != 0} x.xi / H(xi) in closed form through `dual_spec`;
    accepts arrays of shape (..., N)."""
    return eval_norm(dual_spec(spec), x)


def dual_norm_nodes(spec: NormSpec, layout: GridFunction) -> np.ndarray:
    """H0 at every node of `layout`, node-shaped: `dual_norm_eval` of the
    coordinates of one `grids.blocks` block of rows at a time, so that no
    full coordinate array is built, with the bits of
    `dual_norm_eval(spec, layout.coords())`.  The one owner of a layout's H0."""
    out = np.empty(layout.values.shape)
    for rows in blocks(len(out), math.prod(out.shape[1:])):
        out[rows] = dual_norm_eval(spec, layout.coords(rows))
    return out


def grad_dual_norm(spec: NormSpec, x: np.ndarray) -> np.ndarray:
    """grad H0(x) in closed form through `dual_spec`; undefined (raises) at
    every zero point of x, shape (..., N)."""
    x = np.asarray(x, dtype=float)
    if np.any(np.all(x == 0.0, axis=-1)):
        raise DomainError("grad of the dual norm is undefined at x = 0")
    return grad_norm(dual_spec(spec), x)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def verify_identities(spec: NormSpec, sample_count: int,
                      oracle: Optional[DualEvalConfig] = None,
                      seed: int = 0) -> dict:
    """Sample-based check of the duality identities; violations are data.

    H0 and grad H0 come from the closed forms, or, given `oracle`, from one
    `sphere_maximization` of each point set.

    Returns identity name -> largest violation over the samples, in this
    order:

        duality_inequality          (|x.xi| - H0(x) H(xi))_+
        grad_on_dual_sphere         |H0(grad H(xi)) - 1|
        dual_grad_on_primal_sphere  |H(grad H0(x)) - 1|
        inversion_primal            |H(xi) grad H0(grad H(xi)) - xi|_inf
        inversion_dual              |H0(x) grad H(grad H0(x)) - x|_inf
        homogeneity                 |H(a xi) - |a| H(xi)| / (1 + H(xi))
        map_quadratic               |A(xi).xi - H(xi)^2|
    """
    sample_count = integer(sample_count, "sample_count")     # 20.0 reads as 20
    seed = natural(seed, "seed")
    if not 1 <= sample_count <= MAX_NODES:
        raise SpecValidationError(f"verify_identities takes 1 to {MAX_NODES} samples, "
                                  f"not {sample_count}")
    rng = np.random.default_rng(seed)
    N = spec.dimension
    xi = rng.standard_normal((sample_count, N))
    x = rng.standard_normal((sample_count, N))
    alpha = rng.uniform(-3.0, 3.0, sample_count)
    # keep samples away from the origin where gradients are undefined
    xi[np.linalg.norm(xi, axis=1) < 1e-3] += 1.0
    x[np.linalg.norm(x, axis=1) < 1e-3] += 1.0

    H, gH = eval_norm(spec, xi), grad_norm(spec, xi)
    if oracle is None:
        dual = lambda X: (dual_norm_eval(spec, X), grad_dual_norm(spec, X))
    else:
        dual = lambda X: sphere_maximization(spec, X, oracle)
    (H0, gH0), (H0_gH, gH0_gH) = dual(x), dual(gH)
    A = duality_map(spec, xi)

    violations = {
        "duality_inequality": np.maximum(
            np.abs(np.einsum("ki,ki->k", x, xi)) - H0 * H, 0.0),
        "grad_on_dual_sphere": np.abs(H0_gH - 1.0),
        "dual_grad_on_primal_sphere": np.abs(eval_norm(spec, gH0) - 1.0),
        "inversion_primal": np.abs(H[:, None] * gH0_gH - xi),
        "inversion_dual": np.abs(H0[:, None] * grad_norm(spec, gH0) - x),
        "homogeneity": np.abs(eval_norm(spec, alpha[:, None] * xi)
                              - np.abs(alpha) * H) / (1.0 + H),
        "map_quadratic": np.abs(np.einsum("ki,ki->k", A, xi) - H**2),
    }
    return {name: float(np.max(v)) for name, v in violations.items()}
