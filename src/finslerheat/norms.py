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
these closed forms.  The one numeric oracle is `sphere_maximization`, the
sampled maximization over the unit sphere of H.  It runs on all points at
once, raises one ConvergenceError, for the point with the worst gap, and
returns H0 together with its gradient, the maximizer (envelope argument):
grad H0(x) is the point of {H = 1} where the supremum is attained.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, SpecValidationError

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SCAN_ENTRIES = 1 << 18     # row-direction pairs per block of the sphere scan


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

    def __post_init__(self):
        if self.dimension < 1:
            raise SpecValidationError("dimension must be a positive integer")
        if self.family == "euclidean":
            pass
        elif self.family == "p_norm":
            if self.p is None or not np.isfinite(self.p) or not 1.0 < self.p:
                raise SpecValidationError(
                    "p_norm requires 1 < p < inf (endpoints break C^1 smoothness "
                    "and strict convexity of the unit ball)")
        elif self.family == "ellipse":
            M = self._matrix()
            if M.shape != (self.dimension, self.dimension):
                raise SpecValidationError("ellipse matrix shape mismatch")
            if not np.allclose(M, M.T, atol=1e-12):
                raise SpecValidationError("ellipse matrix must be symmetric")
            if np.linalg.eigvalsh(M)[0] <= 0:
                raise SpecValidationError("ellipse matrix must be positive definite")
        elif self.family == "smoothed_polytope":
            if self.epsilon is None or self.epsilon <= 0:
                raise SpecValidationError("smoothed_polytope requires epsilon > 0")
            D = self._directions()
            if D.shape[1] != self.dimension:
                raise SpecValidationError("direction dimension mismatch")
            if np.linalg.matrix_rank(D) < self.dimension:
                raise SpecValidationError(
                    "smoothed_polytope needs >= N linearly independent directions")
            if not np.allclose(np.linalg.norm(D, axis=1), 1.0, atol=1e-9):
                raise SpecValidationError("directions must be unit vectors")
        else:
            raise SpecValidationError(f"unknown norm family {self.family!r}")

    def _matrix(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    def _directions(self) -> np.ndarray:
        return np.asarray(self.directions, dtype=float)

    def _quadratic_form(self) -> np.ndarray:
        """The SPD matrix Q with H(xi)^2 = xi^T Q xi, for quadratic families."""
        if self.family == "euclidean":
            return np.eye(self.dimension)
        if self.family == "ellipse":
            return self._matrix()
        if self.family == "smoothed_polytope":
            D = self._directions()
            Q = D.T @ D + len(D) * self.epsilon**2 * np.eye(self.dimension)
            return Q
        raise DomainError(f"{self.family} is not a quadratic-form norm")

    def label(self) -> str:
        if self.family == "p_norm":
            return f"p_norm(p={self.p:g},N={self.dimension})"
        if self.family == "ellipse":
            return f"ellipse(N={self.dimension})"
        if self.family == "smoothed_polytope":
            return f"smoothed_polytope(k={len(self.directions)},eps={self.epsilon:g})"
        return f"{self.family}(N={self.dimension})"

    @staticmethod
    def from_dict(obj: dict) -> "NormSpec":
        try:
            family = obj["family"]
            dim = int(obj["dimension"])
            params = obj.get("params", {})
        except (KeyError, TypeError) as exc:
            raise SpecValidationError(f"malformed norm spec: {exc}") from exc
        if family == "euclidean":
            return euclidean(dim)
        if family == "p_norm":
            return p_norm(float(params["p"]), dim)
        if family == "ellipse":
            return ellipse(np.asarray(params["matrix"], dtype=float))
        if family == "smoothed_polytope":
            return smoothed_polytope(
                np.asarray(params["directions"], dtype=float), float(params["epsilon"]))
        raise SpecValidationError(f"unknown norm family {family!r}")


def euclidean(dimension: int) -> NormSpec:
    return NormSpec("euclidean", dimension)


def p_norm(p: float, dimension: int) -> NormSpec:
    return NormSpec("p_norm", dimension, p=float(p))


def ellipse(M: np.ndarray) -> NormSpec:
    M = np.asarray(M, dtype=float)
    return NormSpec("ellipse", M.shape[0], matrix=tuple(map(tuple, M)))


def smoothed_polytope(directions: np.ndarray, epsilon: float) -> NormSpec:
    D = np.asarray(directions, dtype=float)
    return NormSpec(
        "smoothed_polytope", D.shape[1],
        directions=tuple(map(tuple, D)), epsilon=float(epsilon))


@dataclass(frozen=True)
class DualEvalConfig:
    """Settings of the sphere-maximization oracle (`sphere_maximization`)."""

    sphere_samples: int = 2048
    refinement_iters: int = 20
    tolerance: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise SpecValidationError("tolerance must be finite and positive")
        if self.sphere_samples < 2:
            raise SpecValidationError("sphere_samples too small")
        # 80 golden-section rounds leave 2e-17 of a bracket; more cannot narrow it
        if not (isinstance(self.refinement_iters, (int, np.integer))
                and 0 <= self.refinement_iters <= 100):
            raise SpecValidationError("refinement_iters must be an integer in [0, 100]")


# ---------------------------------------------------------------------------
# primal evaluations (all batched over leading axes)
# ---------------------------------------------------------------------------

def eval_norm(spec: NormSpec, xi: np.ndarray) -> np.ndarray:
    """H(xi); accepts arrays of shape (..., N)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != spec.dimension:
        raise DomainError(
            f"vector dimension {xi.shape[-1]} != spec dimension {spec.dimension}")
    if spec.family == "p_norm":
        return np.sum(np.abs(xi) ** spec.p, axis=-1) ** (1.0 / spec.p)
    Q = spec._quadratic_form()
    return np.sqrt(np.einsum("...i,ij,...j->...", xi, Q, xi))


def grad_norm(spec: NormSpec, xi: np.ndarray) -> np.ndarray:
    """grad H(xi), closed form per family; undefined (raises) at xi = 0.

    Satisfies the Euler identity xi . grad H(xi) = H(xi) and the sign rule
    grad H(t xi) = sign(t) grad H(xi).
    """
    xi = np.asarray(xi, dtype=float)
    H = eval_norm(spec, xi)
    if np.any(H == 0.0):
        raise DomainError("grad_norm is undefined at xi = 0; use duality_map")
    if spec.family == "p_norm":
        p = spec.p
        return np.sign(xi) * np.abs(xi) ** (p - 1.0) / H[..., None] ** (p - 1.0)
    Q = spec._quadratic_form()
    return np.einsum("ij,...j->...i", Q, xi) / H[..., None]


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


def _p_terms(spec: NormSpec, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H(xi) and s = sign(xi) |xi|^(p-1) of a p-norm, xi of shape (..., N):
    the terms that A = s H^(2-p) (`_p_flux`) and DA, through
    g = grad H = s / H^(p-1) (`_p_jacobian`), are built from."""
    return eval_norm(spec, xi), np.sign(xi) * np.abs(xi) ** (spec.p - 1.0)


def _p_flux(spec: NormSpec, H: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A = s H^(2-p), 0 where H = 0, from the `_p_terms` of xi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        A = s * H[..., None] ** (2.0 - spec.p)
    return np.where(H[..., None] > 0.0, A, 0.0)


def _p_jacobian(spec: NormSpec, xi: np.ndarray, H: np.ndarray, s: np.ndarray) -> dict:
    """DA at xi from its `_p_terms`: (i, j) -> DA_ij, shape xi.shape[:-1],
    for i <= j (DA is symmetric, g_i g_j = g_j g_i exactly)."""
    p, N = spec.p, xi.shape[-1]
    floor = np.finfo(float).eps if p < 2.0 else 0.0
    Hc = H[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = s / Hc ** (p - 1.0)
        diagonal = ((p - 1.0) * Hc ** (2.0 - p)
                    * np.maximum(np.abs(xi), floor * Hc) ** (p - 2.0))
        entries = {}
        for i in range(N):
            for j in range(i, N):
                DA = (2.0 - p) * (g[..., i] * g[..., j])
                if i == j:
                    DA += diagonal[..., i]
                entries[i, j] = np.where(H > 0.0, DA, 0.0)
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


def _circle(theta: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _unit(D: np.ndarray) -> np.ndarray:
    return D / np.sqrt(D[:, None, :] @ D[:, :, None])[:, 0]  # bitwise np.linalg.norm(d)


def _golden_max(spec: NormSpec, X: np.ndarray, direction, lo, hi, iters: int):
    """Golden-section maximization of x.d / H(d) along d = direction(s), one
    bracket [lo, hi] of s per row x of X; returns the best s and value per row.
    """
    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = _ratio(spec, X, direction(c)), _ratio(spec, X, direction(d))
    for _ in range(iters):
        left = fc >= fd                 # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = (np.where(left, b - _GOLDEN * (b - a), d),
                np.where(left, c, a + _GOLDEN * (b - a)))
        f_new = _ratio(spec, X, direction(np.where(left, c, d)))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    left = fc >= fd
    return np.where(left, c, d), np.where(left, fc, fd)


def _tangent_basis(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal tangents at each row of D, unit vectors in R^3."""
    t1 = _unit(np.cross(D, np.eye(3)[np.argmin(np.abs(D), axis=1)]))
    return t1, np.cross(D, t1)


def sphere_maximization(spec: NormSpec, x: np.ndarray,
                        cfg: Optional[DualEvalConfig] = None) -> tuple:
    """The numeric oracle: (H0(x), grad H0(x)) for x of shape (..., N), as
    the sup of x.xi / H(xi) over the unit sphere and its maximizer on {H=1}.

    Each point is maximized once, and a zero point gives (0, 0): a
    quasi-uniform sphere scan in blocks of at most `_SCAN_ENTRIES`
    point-direction pairs, then golden-section refinement in each point's
    best cell.  Values are lower bounds, tight to about (final cell size)^2;
    points that miss the tolerance raise one ConvergenceError, for the
    worst gap.  The maximizer satisfies H(grad H0(x)) = 1 by construction.
    """
    cfg = cfg or DualEvalConfig()
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, x.shape[-1])
    N = spec.dimension
    if cfg.sphere_samples < 2 * N:
        raise SpecValidationError("sphere_samples must be >= 2N")
    dirs = _direction_set(N, cfg.sphere_samples)
    H_dirs = eval_norm(spec, dirs)
    best = np.empty(len(X), dtype=int)
    rows = max(1, _SCAN_ENTRIES // len(dirs))
    for i in range(0, len(X), rows):
        best[i:i + rows] = np.argmax(X[i:i + rows] @ dirs.T / H_dirs, axis=1)
    d_best, iters = dirs[best], cfg.refinement_iters
    v_best, gap = _ratio(spec, X, d_best), np.zeros(len(X))   # exact for N = 1

    if N == 2:
        delta = 2.0 * np.pi / cfg.sphere_samples
        theta0 = np.arctan2(d_best[:, 1], d_best[:, 0])
        theta, v_best = _golden_max(spec, X, _circle, theta0 - delta,
                                    theta0 + delta, iters)
        step = delta * _GOLDEN**iters
        gap = np.abs(v_best - np.maximum(_ratio(spec, X, _circle(theta - step)),
                                         _ratio(spec, X, _circle(theta + step))))
        d_best = _circle(theta)
    elif N == 3:
        delta = 2.2 * np.sqrt(4.0 * np.pi / cfg.sphere_samples)
        for _ in range(3):   # alternating tangent-coordinate refinement
            for t in _tangent_basis(d_best):
                line = lambda s: _unit(d_best + np.reshape(s, (-1, 1)) * t)
                s, v_best = _golden_max(spec, X, line, -delta, delta, iters)
                d_best = _unit(d_best + s[:, None] * t)
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
    if sample_count < 1:
        raise SpecValidationError("sample_count >= 1 required")
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
