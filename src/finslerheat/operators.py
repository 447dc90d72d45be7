"""Discrete divergence-form operator div A(grad u) and the radial reduction.

The operator is discretized conservatively on faces: along each axis the
normal derivative is the direct difference across the face, the tangential
components are averages of the two neighboring nodal central differences,
the flux component through the face is the matching component of the
duality map A evaluated at that face gradient, and the divergence is the
difference of face fluxes.  The face gradient is declared once, as
separable tap lists on the zero-extended grid (`face_taps`), and applied
forward or as its exact adjoint by one slicing helper (`apply_taps`); the
discrete energy of `flow`, its gradient and this operator all use it.
For quadratic families (H^2 = xi^T Q xi: euclidean, ellipse, smoothed
polytope) the operator is linear with constant coefficients, so on the
interior it is a fixed stencil L: `impulse_response` reads L off the
face-flux path applied to a unit impulse, it is cached per (spec,
spacing), and `finsler_laplacian` applies it as one correlation.  p-norms
keep the face flux.
Output is second-order accurate where the field is C^3 with nonvanishing
gradient; the one-cell boundary halo, the only nodes whose faces read
the zero extension, is marked NaN rather than extrapolated.

For a field of the form v(x) = q(H0(x)) with q smooth and flat at 0, the
continuum operator collapses to the ordinary radial expression
q''(r) + (N-1) q'(r) / r evaluated at r = H0(x), with the value N q''(0)
at the center; the checks in this module measure how fast the discrete
operator converges to that reduction and whether it acts linearly on such
fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .errors import DomainError, OutOfRangeError, SpecValidationError
from .grids import GridFunction, RadialProfile, grid_from_function
from .norms import NormSpec, dual_norm_eval, duality_map


def gradient(gf: GridFunction) -> np.ndarray:
    """Nodal gradient, shape (*nodes, N): central interior, one-sided edges."""
    grads = np.gradient(gf.values, *gf.spacing, edge_order=2) \
        if gf.dimension > 1 else [np.gradient(gf.values, gf.spacing[0], edge_order=2)]
    return np.stack(grads, axis=-1)


def face_taps(spacing, axis: int) -> list:
    """Per component k of the gradient on the faces normal to `axis`: a
    scale and one 1-D kernel per grid axis (see `apply_taps`).

    Faces sit at n+1 positions along `axis` (face j between nodes j-1 and
    j) and at n+2 along the others (position j at node j-1, so that the
    tangential differences of the nodes just outside the grid count).  The
    taps are whole numbers, so nodal differences are formed exactly
    before the one scaling, as in (u_j - u_{j-1}) / h.
    """
    taps = []
    for k, hk in enumerate(spacing):
        kernels = []
        for m in range(len(spacing)):
            if m == axis:
                kernels.append((1.0, -1.0) if k == axis else (1.0, 1.0))
            elif m == k:
                kernels.append((1.0, 0.0, -1.0))
            else:
                kernels.append((0.0, 1.0, 0.0))
        taps.append((1.0 / hk if k == axis else 0.25 / hk, kernels))
    return taps


def unit_taps(kernels: list) -> list:
    """Every tap weighted 1: applied to a mask, counts stencil nodes in it."""
    return [tuple(float(w != 0.0) for w in kernel) for kernel in kernels]


def apply_taps(x: np.ndarray, kernels: list, transpose: bool = False) -> np.ndarray:
    """Apply a separable stencil, one 1-D kernel per axis, or its adjoint.

    Forward, each axis grows by len(kernel) - 1 and out[j] = sum_o w_o x[j - o]
    with x extended by zero; the adjoint shrinks it back,
    out[i] = sum_o w_o x[i + o].  Differencing kernels (taps summing to 0)
    go first, so that they act on the values before any sum rounds them.
    """
    for axis in sorted(range(len(kernels)), key=lambda m: sum(kernels[m]) != 0.0):
        kernel = kernels[axis]
        grow = len(kernel) - 1
        n = x.shape[axis] - grow if transpose else x.shape[axis]
        taps = [((slice(None),) * axis + (slice(o, o + n),), w)
                for o, w in enumerate(kernel) if w != 0.0]
        (first, w0), rest = taps[0], taps[1:]
        if transpose:
            y = w0 * x[first]
            for window, w in rest:
                y += w * x[window]
        else:
            shape = list(x.shape)
            shape[axis] += grow
            y = np.zeros(shape)
            np.multiply(x, w0, out=y[first])
            for window, w in rest:
                y[window] += w * x
        x = y
    return x


def face_gradient(values: np.ndarray, spacing, axis: int) -> np.ndarray:
    """Gradient at the faces normal to `axis`, shape (*faces, N), stored
    component by component so that each one is contiguous."""
    taps = face_taps(spacing, axis)
    G = np.stack([apply_taps(values, kernels) for _, kernels in taps])
    for component, (scale, _) in zip(G, taps):
        component *= scale
    return np.moveaxis(G, 0, -1)


def face_gradient_adjoint(flux: np.ndarray, spacing, axis: int) -> np.ndarray:
    """Exact adjoint of `face_gradient`: face vectors back to nodes."""
    return sum(scale * apply_taps(flux[..., k], kernels, transpose=True)
               for k, (scale, kernels) in enumerate(face_taps(spacing, axis)))


def impulse_response(apply, spec: NormSpec) -> np.ndarray:
    """Correlation weights S, read-only, of an operator of a quadratic
    family that is linear, translation invariant and of reach <= 2 nodes
    per axis, so that apply(x) = S * x (see `apply_stencil`) away from the
    edges of the grid apply acts on.

    apply runs once, on an unmasked 11^N grid holding a unit impulse at its
    centre; S is the central 5^N block of the response, reflected.
    """
    if spec.family == "p_norm":
        raise DomainError(f"{spec.label()} has no constant stencil")
    N = spec.dimension
    impulse = np.zeros((11,) * N)
    impulse[(5,) * N] = 1.0
    S = np.ascontiguousarray(np.flip(apply(impulse)[(slice(3, 8),) * N]))
    S.flags.writeable = False
    return S


def apply_stencil(x: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """out[i] = sum_o stencil[o] x[i + o], x extended by zero.

    ndimage drops weights of magnitude <= machine epsilon, so the stencil
    is divided by the largest power of two not above its largest tap and
    the result multiplied back, both exactly.
    """
    scale = 2.0 ** np.floor(np.log2(np.max(np.abs(stencil))))
    out = ndimage.correlate(x, stencil / scale, mode="constant")
    out *= scale
    return out


def _face_flux_divergence(values: np.ndarray, spacing, spec: NormSpec) -> np.ndarray:
    """Difference of the normal fluxes on faces between nodes; on the halo
    only partial sums."""
    out = np.zeros_like(values)
    between_nodes = (slice(1, -1),) * values.ndim
    for axis in range(values.ndim):
        G = face_gradient(values, spacing, axis)[between_nodes]
        flux = duality_map(spec, G)[..., axis]
        out[(slice(None),) * axis + (slice(1, -1),)] += np.diff(flux, axis=axis) / spacing[axis]
    return out


@lru_cache(maxsize=128)
def laplacian_stencil(spec: NormSpec, spacing: tuple) -> np.ndarray:
    """Interior stencil of `finsler_laplacian` for a quadratic family, read
    off the face-flux path; cached per (spec, spacing), read-only."""
    return impulse_response(lambda x: _face_flux_divergence(x, spacing, spec), spec)


def finsler_laplacian(gf: GridFunction, spec: NormSpec) -> GridFunction:
    """div A(grad u) by face-flux differencing; NaN on the one-cell halo.

    Quadratic families apply the same operator as `laplacian_stencil`.
    """
    if spec.dimension != gf.dimension:
        raise SpecValidationError("norm/grid dimension mismatch")
    if spec.family == "p_norm":
        out = _face_flux_divergence(gf.values, gf.spacing, spec)
    else:
        out = apply_stencil(gf.values, laplacian_stencil(spec, gf.spacing))
    out[~interior_mask(gf)] = np.nan
    return gf.with_values(out, check_finite=False)


def interior_mask(gf: GridFunction) -> np.ndarray:
    """Nodes where finsler_laplacian output is defined (halo excluded)."""
    mask = np.ones(gf.values.shape, dtype=bool)
    for axis in range(gf.dimension):
        edge = [slice(None)] * gf.dimension
        edge[axis] = [0, -1]
        mask[tuple(edge)] = False
    return mask


# ---------------------------------------------------------------------------
# radial reduction
# ---------------------------------------------------------------------------

def radial_laplacian(rp: RadialProfile, dimension: int) -> RadialProfile:
    """r -> q''(r) + (N-1) q'(r)/r, with the limit N q''(0) at the center."""
    if len(rp) < 8:
        raise SpecValidationError("profile too coarse for radial derivatives")
    r = rp.radii
    out = np.empty_like(r)
    d1 = rp.derivative(r, 1)
    d2 = rp.derivative(r, 2)
    out[1:] = d2[1:] + (dimension - 1) * d1[1:] / r[1:]
    out[0] = dimension * d2[0]
    return RadialProfile(r, out, even=rp.even)


def radial_operator_values(rp: RadialProfile, dimension: int, r: np.ndarray) -> np.ndarray:
    """Radial operator of the profile evaluated at arbitrary radii > 0."""
    r = np.asarray(r, dtype=float)
    d1 = rp.derivative(r, 1)
    d2 = rp.derivative(r, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = d2 + (dimension - 1) * d1 / r
    return np.where(r > 0, vals, dimension * rp.derivative(0.0, 2))


def lift_radial(rp: RadialProfile, spec: NormSpec, layout: GridFunction) -> GridFunction:
    """v(x) = q(H0(x)) interpolated from the profile onto the grid."""
    r = dual_norm_eval(spec, layout.coords())
    if float(np.max(r)) > rp.r_max * (1 + 1e-12):
        raise OutOfRangeError(
            f"grid reaches H0 = {float(np.max(r)):.6g} beyond the profile range "
            f"[0, {rp.r_max:.6g}]")
    return layout.with_values(rp(r))


def empty_layout(box, resolution) -> GridFunction:
    return GridFunction(tuple(box), tuple(resolution),
                        np.zeros(tuple(r + 1 for r in resolution)))


@dataclass
class ReductionReport:
    spacings: list
    max_errors: list
    mean_errors: list
    r_cut: float

    @property
    def order_max(self) -> float:
        return float(np.log2(self.max_errors[0] / self.max_errors[-1])
                     / np.log2(self.spacings[0] / self.spacings[-1]))

    @property
    def order_mean(self) -> float:
        return float(np.log2(self.mean_errors[0] / self.mean_errors[-1])
                     / np.log2(self.spacings[0] / self.spacings[-1]))


def _reduction_errors(rp: RadialProfile, spec: NormSpec, layout: GridFunction,
                      r_cut: float):
    lifted = lift_radial(rp, spec, layout)
    lap = finsler_laplacian(lifted, spec).values
    r = dual_norm_eval(spec, layout.coords())
    oracle = radial_operator_values(rp, layout.dimension, r)
    window = interior_mask(layout) & (r >= r_cut)
    err = np.abs(lap - oracle)[window]
    return float(np.max(err)), float(np.mean(err))


def check_radial_reduction(rp: RadialProfile, spec: NormSpec,
                           layout: GridFunction, levels: int = 2,
                           r_cut: float | None = None) -> ReductionReport:
    """Discrete operator vs the radial reduction, across grid refinements.

    Errors are measured on interior nodes with H0(x) >= r_cut; the cut
    defaults to twice the coarsest spacing and is held fixed across levels
    so the order estimate compares errors over one region.
    """
    h0 = max(layout.spacing)
    if r_cut is None:
        r_cut = 2.0 * h0
    spacings, maxes, means = [], [], []
    box, res = layout.box, layout.resolution
    for level in range(levels):
        factor = 2**level
        lay = empty_layout(box, tuple(r * factor for r in res))
        e_max, e_mean = _reduction_errors(rp, spec, lay, r_cut)
        spacings.append(max(lay.spacing))
        maxes.append(e_max)
        means.append(e_mean)
    return ReductionReport(spacings, maxes, means, r_cut)


@dataclass
class LinearityReport:
    spacings: list
    radial_defects: list
    control_defects: list

    @property
    def order(self) -> float:
        return float(np.log2(self.radial_defects[0] / self.radial_defects[-1])
                     / np.log2(self.spacings[0] / self.spacings[-1]))


def check_linearity(rp1: RadialProfile, rp2: RadialProfile,
                    alpha: float, beta: float, spec: NormSpec,
                    layout: GridFunction, levels: int = 2,
                    r_cut: float | None = None) -> LinearityReport:
    """Linearity defect of the operator on radial lifts vs a non-radial pair.

    The radial defect max |L(a v + b w) - a L v - b L w| must vanish under
    refinement (the operator acts linearly on these fields); the control
    defect, computed for the fixed non-radial pair (x_1^2, x_2^2), must not
    when the norm is not quadratic.  Both are measured on the same
    H0 >= r_cut interior window as the reduction check.
    """
    h0 = max(layout.spacing)
    if r_cut is None:
        r_cut = 2.0 * h0
    box, res = layout.box, layout.resolution
    spacings, radial, control = [], [], []
    for level in range(levels):
        factor = 2**level
        lay = empty_layout(box, tuple(r * factor for r in res))
        r = dual_norm_eval(spec, lay.coords())
        window = interior_mask(lay) & (r >= r_cut)

        v = lift_radial(rp1, spec, lay)
        w = lift_radial(rp2, spec, lay)
        combo = lay.with_values(alpha * v.values + beta * w.values)
        defect = finsler_laplacian(combo, spec).values \
            - alpha * finsler_laplacian(v, spec).values \
            - beta * finsler_laplacian(w, spec).values
        radial.append(float(np.max(np.abs(defect)[window])))

        cv = grid_from_function(box, lay.resolution, lambda c: c[..., 0] ** 2)
        cw = grid_from_function(box, lay.resolution, lambda c: c[..., 1] ** 2)
        ccombo = lay.with_values(alpha * cv.values + beta * cw.values)
        cdefect = finsler_laplacian(ccombo, spec).values \
            - alpha * finsler_laplacian(cv, spec).values \
            - beta * finsler_laplacian(cw, spec).values
        control.append(float(np.max(np.abs(cdefect)[window])))
        spacings.append(max(lay.spacing))
    return LinearityReport(spacings, radial, control)
