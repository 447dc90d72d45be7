"""Discrete divergence-form operator div A(grad u) and the radial reduction.

The operator is discretized conservatively on faces: along each axis the
normal derivative is the direct difference across the face, the tangential
components are averages of the two neighboring nodal central differences,
the flux component through the face is the matching component of the
duality map A evaluated at that face gradient, and the divergence is the
difference of face fluxes.  The face gradient G is written once
(`FaceKernel`), as plain differences of the zero-extended field: the
normal component is u_j - u_{j-1} scaled by 1/h, a tangential one the sum
of the two nodal central differences scaled by 1/(4h); its adjoint takes
the same differences the other way.  The field is padded once per
evaluation and each axis's central difference serves every face family.
The discrete energy of `flow`, its gradient and this operator all use
them.  `FaceKernel.form` is the one face sum (1/N) sum_axis G^T F(G u):
`flow` runs it with the duality map (energy gradient) and the p-norm
flux (face state), and `FaceHessian` with the products of a fixed
Jacobian DA per face (the p-norm Newton Hessian).
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


_WHOLE = slice(None)


@lru_cache(maxsize=None)
def _cuts(ndim: int, axis: int) -> tuple:
    """Per component k of the faces normal to `axis`: the pair of index
    tuples that G differences (k == axis, the padded field) or sums (the
    central difference along k), and the pairs that G^T differences (the
    flux component) and, for k != axis, then sums (that difference)."""
    grad, adj = [], []
    for k in range(ndim):
        if k == axis:
            grad.append((_index(ndim, {k: slice(2, -1)}), _index(ndim, {k: slice(1, -2)})))
            adj.append((_index(ndim, {k: slice(None, -1)}), _index(ndim, {k: slice(1, None)})))
        else:
            grad.append((_index(ndim, {axis: slice(1, None)}, _WHOLE),
                         _index(ndim, {axis: slice(None, -1)}, _WHOLE)))
            adj.append((_index(ndim, {axis: _WHOLE, k: slice(None, -2)}),
                        _index(ndim, {axis: _WHOLE, k: slice(2, None)}),
                        _index(ndim, {axis: slice(None, -1)}, _WHOLE),
                        _index(ndim, {axis: slice(1, None)}, _WHOLE)))
    central = (_index(ndim, {axis: slice(2, None)}), _index(ndim, {axis: slice(None, -2)}))
    return grad, adj, central


class FaceKernel:
    """The face gradient G and its adjoint on fields of one shape and spacing.

    Faces normal to `axis` sit at n+1 positions along it (face j between
    nodes j-1 and j) and at n+2 along the others (position j at node j-1,
    so that the tangential differences of the nodes just outside the grid
    count); the field is extended by zero.  The normal component of G u is
    (u_j - u_{j-1}) / h, a tangential one the sum of the two neighbouring
    nodal central differences u_{j+1} - u_{j-1} along k scaled by 1/(4h):
    nodal differences are formed exactly before the one scaling.  A field
    is copied once into a zero-rimmed buffer the kernel keeps, and each
    axis's central difference is formed once and serves the tangential
    components of every face family.  Face arrays are stored component by
    component, shape (N, *faces), so that each component is contiguous.
    The arrays `gradients` returns, and the face vectors `form` passes to
    its flux, are the kernel's buffers: its next call overwrites them.
    """

    def __init__(self, shape, spacing):
        self.shape, self.spacing = tuple(shape), tuple(spacing)
        N = self.ndim = len(self.shape)
        self._padded = np.zeros(tuple(n + 4 for n in self.shape))
        self._central = [np.empty(tuple(n + 2 for n in self.shape)) for _ in range(N)]
        self._faces = [np.empty((N,) + tuple(n + 2 - (m == axis) for m, n in enumerate(self.shape)))
                       for axis in range(N)]
        self._differences = [np.empty(tuple(n + (m == axis) for m, n in enumerate(self.shape)))
                             for axis in range(N)]
        self._total, self._term = np.empty(self.shape), np.empty(self.shape)

    def gradients(self, values: np.ndarray) -> list:
        """G u on the faces normal to each axis, each of shape (N, *faces)."""
        N, P = self.ndim, self._padded
        P[(slice(2, -2),) * N] = values
        for k in range(N):
            hi, lo = _cuts(N, k)[2]
            np.subtract(P[hi], P[lo], out=self._central[k])
        for axis, G in enumerate(self._faces):
            for k, (h, (a, b)) in enumerate(zip(self.spacing, _cuts(N, axis)[0])):
                if k == axis:
                    np.subtract(P[a], P[b], out=G[k])
                    G[k] *= 1.0 / h
                else:
                    np.add(self._central[k][a], self._central[k][b], out=G[k])
                    G[k] *= 0.25 / h
        return self._faces

    def form(self, values: np.ndarray, flux) -> np.ndarray:
        """(1/N) sum over axes of G^T flux(axis, xi), xi = G u on the faces
        normal to axis; flux takes and returns face vectors (*faces, N).
        Each G^T term sums its components' terms in axis order before it
        is added to the sum, accumulated from zero."""
        N, total, term = self.ndim, self._total, self._term
        fluxes = [np.moveaxis(flux(axis, np.moveaxis(G, 0, -1)), -1, 0)
                  for axis, G in enumerate(self.gradients(values))]
        acc = np.zeros(self.shape)
        for axis, (F, D) in enumerate(zip(fluxes, self._differences)):
            for k, (h, cut) in enumerate(zip(self.spacing, _cuts(N, axis)[1])):
                dest = term if k else total
                if k == axis:
                    np.subtract(F[k][cut[0]], F[k][cut[1]], out=dest)
                    dest *= 1.0 / h
                else:
                    np.subtract(F[k][cut[0]], F[k][cut[1]], out=D)
                    np.add(D[cut[2]], D[cut[3]], out=dest)
                    dest *= 0.25 / h
                if k:
                    total += term
            acc += total
        acc /= N
        return acc


class FaceHessian:
    """x -> (1/N) sum over axes of G^T (DA G x), DA fixed symmetric per face:
    `jacobians[axis]` maps (i, j), i <= j, to DA_ij on the faces normal to
    axis (`norms._p_jacobian`).

    `FaceKernel.form` with the flux DA xi, formed as explicit products on
    contiguous components into buffers of its own, each flux component
    summed over j in order, so that its values are those of the same form
    over the product DA xi bit for bit.
    """

    def __init__(self, shape, spacing, jacobians: list):
        self.kernel = FaceKernel(shape, spacing)
        self.jacobians = jacobians
        self._flux = [np.empty_like(G) for G in self.kernel._faces]
        self._product = [np.empty_like(G[0]) for G in self.kernel._faces]

    def _apply(self, axis: int, xi: np.ndarray) -> np.ndarray:
        DA, F, product = self.jacobians[axis], self._flux[axis], self._product[axis]
        for i in range(self.kernel.ndim):
            np.multiply(DA[0, i], xi[..., 0], out=F[i])
            for j in range(1, self.kernel.ndim):
                np.multiply(DA[min(i, j), max(i, j)], xi[..., j], out=product)
                F[i] += product
        return np.moveaxis(F, 0, -1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.kernel.form(x, self._apply)


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


def stencil_symbol(face_op, spec: NormSpec, spacing: tuple, lengths: tuple) -> np.ndarray:
    """sigma(theta) = scale * sum_k S_k prod_m cos(k_m theta_m), (S, scale)
    the `constant_stencil` of face_op, at the DST-I frequencies
    theta_m = pi j / (n_m + 1), j = 1 .. n_m, of a box of `lengths` n_m.

    The type-1 sine transform diagonalizes correlation with the stencil's
    part that is even along every axis, the field extended oddly beyond the
    box, and sigma is its eigenvalue; it is the mean of the operator's
    Fourier symbol over the sign flips of theta, so sigma >= 0 where the
    operator is positive semidefinite.  Summed from one cosine table per
    axis, one `tensordot` per axis.
    """
    S, scale = constant_stencil(face_op, spec, tuple(spacing))
    reach = S.shape[0] // 2
    sigma = S
    for n in lengths:
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
        sigma = np.tensordot(sigma, np.cos(np.outer(np.arange(-reach, reach + 1), theta)),
                             axes=([0], [0]))
    return scale * sigma


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
    for axis, G in enumerate(FaceKernel(values.shape, spacing).gradients(values)):
        flux = duality_map(spec, np.moveaxis(G, 0, -1)[between_nodes])[..., axis]
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
