"""Discrete divergence-form operator div A(grad u) and the radial reduction.

The operator is discretized conservatively on faces: along each axis the
normal derivative is the direct difference across the face, the tangential
components are averages of the two neighboring nodal central differences,
the flux component through the face is the matching component of the
duality map A evaluated at that face gradient, and the divergence is the
difference of face fluxes.  The face gradient G (`face_gradient`) is
written once, as plain differences of the zero-extended field: the normal
component is u_j - u_{j-1} scaled by 1/h, a tangential one the sum of the
two nodal central differences scaled by 1/(4h); `face_gradient_adjoint`
is its exact adjoint, the same differences taken the other way.  The
discrete energy of `flow`, its gradient and this operator all use them.
`face_form` is the one face sum (1/N) sum_axis G^T F(G u): `flow` passes
the duality map (energy gradient) or its Jacobian (Newton Hessian).
`apply_operator` runs a face operator (this one or the energy gradient)
for p-norms; for quadratic families (H^2 = xi^T Q xi: euclidean, ellipse,
smoothed polytope) it is linear with constant coefficients, and it
applies as one correlation the stencil that `constant_stencil` reads off
the face path at a unit impulse and caches per (operator, spec, spacing).
Output is second-order accurate where the field is C^3 with nonvanishing
gradient; the one-cell boundary halo, the only nodes whose faces read
the zero extension, is marked NaN rather than extrapolated.

For a field of the form v(x) = q(H0(x)) with q smooth and flat at 0, the
continuum operator collapses to the ordinary radial expression
q''(r) + (N-1) q'(r) / r evaluated at r = H0(x), with the value N q''(0)
at the center (`radial_operator_values`); the checks in this module
measure how fast the discrete operator converges to that reduction and
whether it acts linearly on such fields.  Both run on the layouts of
`grids.refinements`, measure on the interior nodes with H0(x) >= 2h,
h the coarsest spacing, held fixed across levels, and read their order
with `grids.observed_order`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .errors import OutOfRangeError, SpecValidationError
from .grids import GridFunction, RadialProfile, observed_order, refinements
from .norms import NormSpec, dual_norm_eval, duality_map


def _index(ndim: int, cuts: dict, rest: slice = slice(1, -1)) -> tuple:
    """Index tuple: cuts[m] along the axes m that cuts names, rest elsewhere."""
    return tuple(cuts.get(m, rest) for m in range(ndim))


def face_gradient(values: np.ndarray, spacing, axis: int) -> np.ndarray:
    """Gradient at the faces normal to `axis`, shape (*faces, N), stored
    component by component so that each one is contiguous.

    Faces sit at n+1 positions along `axis` (face j between nodes j-1 and
    j) and at n+2 along the others (position j at node j-1, so that the
    tangential differences of the nodes just outside the grid count); the
    field is extended by zero.  Nodal differences are formed exactly before
    the one scaling, as in (u_j - u_{j-1}) / h.
    """
    N = values.ndim
    P = np.pad(values, 2)
    G = np.empty((N,) + tuple(n + 2 - (m == axis) for m, n in enumerate(values.shape)))
    whole = slice(None)
    for k, h in enumerate(spacing):
        if k == axis:
            np.subtract(P[_index(N, {k: slice(2, -1)})], P[_index(N, {k: slice(1, -2)})],
                        out=G[k])
            G[k] *= 1.0 / h
        else:
            C = P[_index(N, {k: slice(2, None)})] - P[_index(N, {k: slice(None, -2)})]
            np.add(C[_index(N, {axis: slice(1, None)}, whole)],
                   C[_index(N, {axis: slice(None, -1)}, whole)], out=G[k])
            G[k] *= 0.25 / h
    return np.moveaxis(G, 0, -1)


def face_gradient_adjoint(flux: np.ndarray, spacing, axis: int) -> np.ndarray:
    """Exact adjoint of `face_gradient`: face vectors back to nodes."""
    N = flux.ndim - 1
    whole = slice(None)

    def term(k: int, h: float) -> np.ndarray:
        F = flux[..., k]
        if k == axis:
            return (1.0 / h) * (F[_index(N, {k: slice(None, -1)})]
                                - F[_index(N, {k: slice(1, None)})])
        D = (F[_index(N, {axis: whole, k: slice(None, -2)})]
             - F[_index(N, {axis: whole, k: slice(2, None)})])
        return (0.25 / h) * (D[_index(N, {axis: slice(None, -1)}, whole)]
                             + D[_index(N, {axis: slice(1, None)}, whole)])

    return sum(term(k, h) for k, h in enumerate(spacing))


def face_form(values: np.ndarray, spacing, flux) -> np.ndarray:
    """(1/N) sum over axes of G^T flux(axis, G u), G the face gradient
    normal to axis; unmasked, the field extended by zero."""
    N = values.ndim
    return sum(face_gradient_adjoint(flux(axis, face_gradient(values, spacing, axis)),
                                     spacing, axis) for axis in range(N)) / N


@lru_cache(maxsize=128)
def constant_stencil(face_op, spec: NormSpec, spacing: tuple) -> tuple:
    """(S, scale) with face_op(x, spec, spacing) = scale * (S * x) away from
    the edges of the grid, for an operator of a quadratic family that is
    linear, translation invariant and of reach <= 2 nodes per axis.

    face_op runs once, on an unmasked 11^N grid holding a unit impulse at
    its centre; S, read-only, is the central 5^N block of the response,
    reflected and divided by scale, the largest power of two not above its
    largest tap: ndimage drops weights of magnitude <= machine epsilon.
    """
    N = spec.dimension
    impulse = np.zeros((11,) * N)
    impulse[(5,) * N] = 1.0
    S = np.flip(face_op(impulse, spec, spacing)[(slice(3, 8),) * N])
    scale = 2.0 ** np.floor(np.log2(np.max(np.abs(S))))
    S = S / scale
    S.flags.writeable = False
    return S, scale


def apply_operator(face_op, values: np.ndarray, spec: NormSpec, spacing) -> np.ndarray:
    """face_op(values, spec, spacing): p-norms run it, quadratic families
    apply its constant stencil as one correlation, values extended by zero."""
    if spec.family == "p_norm":
        return face_op(values, spec, spacing)
    S, scale = constant_stencil(face_op, spec, tuple(spacing))
    out = ndimage.correlate(values, S, mode="constant")
    out *= scale
    return out


def _face_flux_divergence(values: np.ndarray, spec: NormSpec, spacing) -> np.ndarray:
    """Difference of the normal fluxes on faces between nodes; on the halo
    only partial sums."""
    out = np.zeros_like(values)
    between_nodes = (slice(1, -1),) * values.ndim
    for axis in range(values.ndim):
        G = face_gradient(values, spacing, axis)[between_nodes]
        flux = duality_map(spec, G)[..., axis]
        out[(slice(None),) * axis + (slice(1, -1),)] += np.diff(flux, axis=axis) / spacing[axis]
    return out


def finsler_laplacian(gf: GridFunction, spec: NormSpec) -> GridFunction:
    """div A(grad u) by face-flux differencing; NaN on the one-cell halo."""
    if spec.dimension != gf.dimension:
        raise SpecValidationError("norm/grid dimension mismatch")
    out = apply_operator(_face_flux_divergence, gf.values, spec, gf.spacing)
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

def radial_operator_values(rp: RadialProfile, dimension: int, r: np.ndarray) -> np.ndarray:
    """q''(r) + (N-1) q'(r)/r at arbitrary radii, N q''(0) where r = 0."""
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


@dataclass
class ReductionReport:
    spacings: list
    max_errors: list
    mean_errors: list
    r_cut: float

    @property
    def order_max(self) -> float:
        return observed_order(self.max_errors, self.spacings)

    @property
    def order_mean(self) -> float:
        return observed_order(self.mean_errors, self.spacings)


def check_radial_reduction(rp: RadialProfile, spec: NormSpec,
                           layout: GridFunction, levels: int = 2) -> ReductionReport:
    """Discrete operator vs the radial reduction, across grid refinements.

    Errors are measured on interior nodes with H0(x) >= r_cut, twice the
    coarsest spacing, so the order estimate compares errors over one region.
    """
    r_cut = 2.0 * max(layout.spacing)
    spacings, maxes, means = [], [], []
    for lay in refinements(layout, levels):
        r = dual_norm_eval(spec, lay.coords())
        lap = finsler_laplacian(lift_radial(rp, spec, lay), spec).values
        oracle = radial_operator_values(rp, lay.dimension, r)
        err = np.abs(lap - oracle)[interior_mask(lay) & (r >= r_cut)]
        spacings.append(max(lay.spacing))
        maxes.append(float(np.max(err)))
        means.append(float(np.mean(err)))
    return ReductionReport(spacings, maxes, means, r_cut)


@dataclass
class LinearityReport:
    spacings: list
    radial_defects: list
    control_defects: list

    @property
    def order(self) -> float:
        return observed_order(self.radial_defects, self.spacings)


def check_linearity(rp1: RadialProfile, rp2: RadialProfile,
                    alpha: float, beta: float, spec: NormSpec,
                    layout: GridFunction, levels: int = 2) -> LinearityReport:
    """Linearity defect of the operator on radial lifts vs a non-radial pair.

    The radial defect max |L(a v + b w) - a L v - b L w| must vanish under
    refinement (the operator acts linearly on these fields); the control
    defect, computed for the fixed non-radial pair (x_1^2, x_2^2), must not
    when the norm is not quadratic.  Both are measured on the same
    H0 >= 2h interior window as the reduction check.
    """
    r_cut = 2.0 * max(layout.spacing)
    spacings, radial, control = [], [], []
    for lay in refinements(layout, levels):
        coords = lay.coords()
        r = dual_norm_eval(spec, coords)
        window = interior_mask(lay) & (r >= r_cut)

        def defect(v: GridFunction, w: GridFunction) -> float:
            combo = lay.with_values(alpha * v.values + beta * w.values)
            d = finsler_laplacian(combo, spec).values \
                - alpha * finsler_laplacian(v, spec).values \
                - beta * finsler_laplacian(w, spec).values
            return float(np.max(np.abs(d)[window]))

        radial.append(defect(lift_radial(rp1, spec, lay), lift_radial(rp2, spec, lay)))
        control.append(defect(lay.with_values(coords[..., 0] ** 2),
                              lay.with_values(coords[..., 1] ** 2)))
        spacings.append(max(lay.spacing))
    return LinearityReport(spacings, radial, control)
