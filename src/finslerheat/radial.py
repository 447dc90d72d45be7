"""Radial representation of the anisotropic heat semigroup.

For data of the form phi(x) = q(H0(x)) the solution is a 1-D integral
against the sphere factor

    I(z) = integral over S^(N-1) of e^(z theta_1) d theta
         = omega_(N-2) * int_{-1}^{1} e^(z s) (1 - s^2)^((N-3)/2) ds,

(omega_0 = 2, omega_1 = 2 pi), namely

    u(x,t) = (4 pi t)^(-N/2) e^(-rho^2/4t)
             int_0^inf I(rho r / 2t) e^(-r^2/4t) q(r) r^(N-1) dr,
    rho = H0(x).

In two dimensions I(z) = 2 pi I0(z) where I0 is the modified Bessel
function of the first kind.  The exponential factors are combined as
e^(-(rho-r)^2/4t) * [e^(-z) I(z)], which keeps every intermediate bounded
for small t; in N = 2 the scaled factor e^(-z) I0(z) is Cephes' i0e
(`i0e`, scipy.special.i0e's algorithm and bits, on numpy), which agrees
with mpmath to about 2e-16 relative from z = 0 to 1e6.  The power series `bessel_I0` is kept as an
independent oracle.  N = 1 is handled by the two-point "sphere"
2 cosh(z) as a documented extension.

Endpoint weights: the N = 2 integrand carries (1 - s^2)^(-1/2), which
160 Chebyshev-Gauss nodes absorb exactly; N >= 3 uses 160 Gauss-Legendre
nodes (weight 1 in N = 3).

The r-integral runs over Gauss-Legendre panels of unit length.  The node
count per panel starts at the smallest power of two n >= 16 with
pi/(2n) <= 2 sqrt(t): the widest gap between Gauss-Legendre nodes on a
unit panel, about pi/(2n), is then at most the width 2 sqrt(t) of
e^(-(rho-r)^2/4t).  It doubles until two successive sums agree; a t so
small that the start already reaches the 4096-node ceiling raises
ConvergenceError rather than return a sum that missed the peak.  The
kernel is built only for the (rho-block, panel) pairs that can change a
row.  Every term of panel k is at most C_N e^(-d_k^2/4t) |a_j| in a block
of sorted rho at distance d_k, with C_N = sup e^(-z) I(z) (2, 2 pi, 4 pi
for N = 1, 2, 3).  A block is accepted only if the bounds of the panels it
skipped sum to at most eps_mach * min_i sum_j |K_ij a_j| over the columns
it kept, so each row differs from the sum over every panel by less than
the rounding that sum already carries; a block that fails evaluates the
skipped panels as well.  The 512-row block sets how finely that
certificate is decided, not a cache size: each block's kernel is formed
in place, in two buffers of its kept entries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, positive
from .grids import MAX_NODES, RadialProfile, blocks

_OVERFLOW_Z = 700.0
_SPHERE_NODES = 160
_MIN_NODES = 16
_MAX_NODES = 4096
_QUAD_TOL = 1e-9
_BLOCK = 512            # rows per skip certificate of `_representation_sum`
# sup over z >= 0 of the scaled sphere factor e^(-z) I(z)
_SPHERE_SUP = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _surface_measure(dim: int) -> float:
    """Total measure of S^dim (omega_0 = 2, omega_1 = 2 pi, ...)."""
    from math import gamma
    n = dim + 1
    return 2.0 * np.pi ** (n / 2.0) / gamma(n / 2.0)


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre rule on [-1, 1], computed once per node count
    (the sphere rule and the powers of two up to 4096) and kept read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def sphere_integral_I(z: float, dimension: int) -> float:
    """I(z) = int_{S^(N-1)} e^(z theta_1) d theta for z >= 0, N = dimension."""
    if z < 0:
        raise DomainError("sphere integral defined for z >= 0")
    if z > _OVERFLOW_Z:
        raise DomainError(
            f"z = {z:g} overflows the unscaled sphere integral; "
            "use the exponential-scaled evaluation")
    N = positive(dimension, "dimension")
    if N == 1:
        return 2.0 * np.cosh(z)     # counting measure on S^0; extension
    if N == 2:
        # omega_0 = 2 (two-point sphere); chebgauss already carries the weight
        s, w = np.polynomial.chebyshev.chebgauss(_SPHERE_NODES)
        return 2.0 * float(np.sum(w * np.exp(z * s)))
    s, w = _gauss_legendre(_SPHERE_NODES)
    power = (N - 3) / 2.0
    weight = (1.0 - s**2) ** power if power != 0.0 else 1.0
    return _surface_measure(N - 2) * float(np.sum(w * weight * np.exp(z * s)))


def bessel_I0(z: float, terms: int = 60) -> float:
    """Power series sum_{n} (z/2)^(2n) / (n!)^2 via term recurrence."""
    positive(terms, "terms")
    z = float(z)
    q = (z / 2.0) ** 2
    term, total = 1.0, 1.0
    for n in range(1, terms):
        term *= q / (n * n)
        total += term
    return total


# Cephes i0.c: Chebyshev coefficients of e^(-x) I0(x) in x/2 - 2 on [0, 8] (A)
# and of e^(-x) sqrt(x) I0(x) in 32/x - 2 on (8, inf) (B)
_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1)


def _chbevl(x: np.ndarray, coefficients: tuple) -> np.ndarray:
    """Cephes' chbevl at each x: the Clenshaw sum b0 = x b1 - b2 + c over
    the coefficients, then (b0 - b2) / 2, in place on three buffers."""
    b0, b1, b2 = np.full_like(x, coefficients[0]), np.zeros_like(x), np.empty_like(x)
    for c in coefficients[1:]:
        b0, b1, b2 = b2, b0, b1
        np.multiply(x, b1, out=b0)
        b0 -= b2
        b0 += c
    b0 -= b2
    b0 *= 0.5
    return b0


def _i0e_series(x: np.ndarray, small: bool) -> np.ndarray:
    """`i0e` at x >= 0, all at most 8 (small) or all above it or NaN."""
    if small:
        return _chbevl(x / 2.0 - 2.0, _I0E_A)
    return _chbevl(32.0 / x - 2.0, _I0E_B) / np.sqrt(x)


def i0e(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """e^(-|z|) I0(z), Cephes' i0e: chbevl(z/2 - 2, A) for |z| <= 8, else
    chbevl(32/|z| - 2, B) / sqrt(|z|); `scipy.special.i0e` bit for bit.
    In `grids.blocks` of values, so that the sums stay in cache; a block
    that holds both sides of 8 splits.  Into `out` (C-contiguous, shaped as
    z) if given, z's own buffer included: |z| is formed there and each block of it is
    read before its values are written."""
    z = np.asarray(z, dtype=float)
    x = np.abs(z, out=np.empty(z.shape) if out is None else out)
    flat = x.reshape(-1)
    for block in blocks(x.size, 1):
        part = flat[block]
        small = part <= 8.0
        if small.all() or not small.any():
            part[...] = _i0e_series(part, bool(small[0]))
        else:
            part[small] = _i0e_series(part[small], True)
            part[~small] = _i0e_series(part[~small], False)
    return x


def _scaled_sphere_integral(z: np.ndarray, dim: int,
                            out: Optional[np.ndarray] = None) -> np.ndarray:
    """e^(-z) I(z), stable for any z >= 0, dim 1, 2 or 3: `radial_heat_profile`
    refuses others.  Into `out` (shaped as z, not z's own buffer) if given."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z) if out is None else out
    if dim == 1:
        np.multiply(-2.0, z, out=out)
        np.exp(out, out=out)
        return np.add(1.0, out, out=out)
    if dim == 2:
        return np.multiply(2.0 * np.pi, i0e(z, out), out=out)
    # dim == 3: 4 pi sinh(z) e^(-z) / z = 2 pi (1 - e^(-2z)) / z above 1e-12,
    # 4 pi (1 - z) at and below it
    large = z > 1e-12
    np.clip(z, 1e-300, None, out=out)
    out *= -2.0
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.multiply(2.0 * np.pi, out, out=out)
    np.divide(out, z, out=out, where=large)
    np.subtract(1.0, z, out=out, where=~large)
    return np.multiply(4.0 * np.pi, out, out=out, where=~large)


# ---------------------------------------------------------------------------
# representation-formula solver
# ---------------------------------------------------------------------------

def _tail_bound(profile: RadialProfile, dim: int, rho: float, t: float) -> float:
    """Upper bound for the truncated r > R_max part of the integral.

    Assumes the unknown continuation of the data beyond R_max stays below
    the profile's magnitude over its last few Gaussian widths.
    """
    R = profile.r_max
    if R <= rho:
        return np.inf
    edge = max(R - max(4.0 * np.sqrt(t), 0.5), 0.0)
    window = profile.radii >= edge
    sup_phi = float(np.max(np.abs(profile.values[window])))
    # integrand <= pref * omega e^{-(r-rho)^2/4t} r^{N-1}; extract half the
    # exponent at r = R and integrate the remainder coarsely
    pref = (4.0 * np.pi * t) ** (-dim / 2.0) * _surface_measure(dim - 1) * sup_phi
    r = np.linspace(R, R + 40.0 * np.sqrt(t), 129)
    rest = np.trapezoid(np.exp(-((r - rho) ** 2) / (8.0 * t)) * r ** (dim - 1), r)
    return pref * np.exp(-((R - rho) ** 2) / (8.0 * t)) * rest


def _kernel(rho: np.ndarray, r: np.ndarray, t: float, dim: int) -> np.ndarray:
    """K_ij = e^(-(rho_i - r_j)^2/4t) e^(-z) I(z), z = rho_i r_j / 2t, formed
    in place in two buffers of K's size, term by term as that expression."""
    rows = rho[:, None]
    K, sphere = np.empty((len(rho), len(r))), np.empty((len(rho), len(r)))
    np.multiply(rows, r, out=K)
    K /= 2.0 * t
    _scaled_sphere_integral(K, dim, sphere)
    np.subtract(rows, r, out=K)
    np.square(K, out=K)
    np.negative(K, out=K)
    K /= 4.0 * t
    np.exp(K, out=K)
    K *= sphere
    return K


def _representation_sum(profile: RadialProfile, dim: int, rho: np.ndarray,
                        t: float, nodes: int) -> np.ndarray:
    """(4 pi t)^(-N/2) sum_j K(rho, r_j) a_j, K = e^(-(rho-r_j)^2/4t) e^(-z) I(z),
    on `nodes` Gauss-Legendre nodes per unit panel of [0, R_max], with
    a_j = w_j q(r_j) r_j^(N-1).

    Rows go in blocks of _BLOCK sorted values of rho.  The block sets how
    finely the skip certificate is decided, panel by panel for the rows of
    one block; it is not a cache block (each block's kernel, `_kernel`,
    takes _BLOCK rows by the kept columns, in place).  Panel k, at distance
    d_k from the block, adds at most U_k = C_N e^(-d_k^2/4t) sum_(j in k) |a_j|
    to any row.  The panels of least U_k whose bounds sum to at most eps
    times the smaller end row's sum_j |K_ij a_j| are skipped.  The block is
    accepted if those bounds sum to at most eps * min_i sum_j |K_ij a_j| over
    the kept columns; otherwise the skipped panels are added.
    """
    R = profile.r_max
    panels = max(1, int(np.ceil(R)))
    edges = np.linspace(0.0, R, panels + 1)
    x, w = _gauss_legendre(nodes)
    r = ((edges[1:] + edges[:-1])[:, None] / 2.0
         + (edges[1:] - edges[:-1])[:, None] / 2.0 * x[None, :]).ravel()
    wr = ((edges[1:] - edges[:-1])[:, None] / 2.0 * w[None, :]).ravel()
    a = wr * profile(r) * r ** (dim - 1)
    mass = _SPHERE_SUP[dim] * np.abs(a).reshape(panels, nodes).sum(axis=1)
    columns = np.arange(panels * nodes).reshape(panels, nodes)

    kernel = lambda block, cols: _kernel(block, r[cols], t, dim)
    eps = np.finfo(float).eps
    order = np.argsort(rho, kind="stable")
    out = np.empty_like(rho)
    for start in range(0, rho.size, _BLOCK):
        rows = order[start:start + _BLOCK]
        block = rho[rows]
        gap = np.maximum(0.0, np.maximum(edges[:-1] - block[-1], block[0] - edges[1:]))
        bound = np.exp(-gap**2 / (4.0 * t)) * mass
        ranked = np.argsort(bound, kind="stable")
        dropped = np.cumsum(bound[ranked])
        guess = float(np.min(kernel(block[[0, -1]], columns.ravel()) @ np.abs(a)))
        n_drop = int(np.searchsorted(dropped, eps * guess, side="right"))
        kept = columns[np.sort(ranked[n_drop:])].ravel()
        kern = kernel(block, kept)
        out[rows] = kern @ a[kept]
        short = n_drop and dropped[n_drop - 1] > eps * float(np.min(kern @ np.abs(a[kept])))
        del kern        # not held beside the skipped panels' kernel
        if short:
            rest = columns[np.sort(ranked[:n_drop])].ravel()
            out[rows] += kernel(block, rest) @ a[rest]
    return (4.0 * np.pi * t) ** (-dim / 2.0) * out


def radial_heat_profile(profile: RadialProfile, dim: int, rho: np.ndarray,
                        t: float) -> np.ndarray:
    """u(rho, t) of the radial representation formula, vectorized over rho.

    Composite Gauss-Legendre panels of unit length cover [0, R_max]; the
    per-panel node count starts at the smallest power of two n >= 16 with
    pi/(2n) <= 2 sqrt(t), so the node gaps resolve the kernel's width, and
    doubles, up to 4096 nodes and `grids.MAX_NODES` over all panels, until
    successive values agree to 1e-9 relative to 1 + max |u|.
    ConvergenceError if they never do, or if t is so small that the start
    already reaches 4096 nodes.  DomainError if dim is not 1, 2 or 3, if any
    rho is not finite, or if the start already lays out more than MAX_NODES
    nodes (a long profile at a small t), checked before any is allocated.
    All exponentials are combined into e^(-(rho-r)^2/4t) times the scaled
    sphere factor, so small t cannot overflow.
    """
    if dim not in _SPHERE_SUP:
        raise DomainError(f"the radial representation formula is implemented for "
                          f"dimension 1, 2 or 3, not {dim}")
    positive(t, "t")
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all(np.isfinite(rho)):  # a NaN would sort into a block and zero all of it
        raise DomainError("representation formula requires finite rho")
    tails = _tail_bound(profile, dim, float(np.max(rho)), t)

    nodes = _MIN_NODES
    while nodes < _MAX_NODES and np.pi / (2.0 * nodes) > 2.0 * np.sqrt(t):
        nodes *= 2
    if nodes >= _MAX_NODES:
        raise ConvergenceError(
            f"t = {t:g} is below what {_MAX_NODES} radial quadrature nodes "
            "per unit panel resolve")
    panels = max(1, int(np.ceil(profile.r_max)))   # _representation_sum's unit panels
    if panels * nodes > MAX_NODES:
        raise DomainError(f"{panels} panels of {nodes} nodes at t = {t:g} pass "
                          f"the bound of {MAX_NODES} quadrature nodes")
    prev, gap = _representation_sum(profile, dim, rho, t, nodes), np.inf
    while 2 * nodes <= min(_MAX_NODES, MAX_NODES // panels):
        nodes *= 2
        cur = _representation_sum(profile, dim, rho, t, nodes)
        gap, prev = float(np.max(np.abs(cur - prev))), cur
        if gap <= _QUAD_TOL * (1.0 + float(np.max(np.abs(cur)))):
            break
    else:
        raise ConvergenceError("radial quadrature did not settle", best=prev, gap=gap)
    scale = 1.0 + float(np.max(np.abs(prev)))
    if tails > 1e-10 * scale:
        raise DomainError(
            f"profile range too short: truncated tail bound {tails:.3e} "
            f"is not negligible at t = {t}")
    return prev
