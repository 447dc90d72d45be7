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
`flow` runs it with the duality map (energy gradient), and its p-norm
Newton faces with the flux A and with the products of a fixed Jacobian DA
per face (the Newton Hessian).
`apply_operator` runs a face operator (this one or the energy gradient)
for p-norms; for quadratic families (H^2 = xi^T Q xi: euclidean, ellipse,
smoothed polytope) it is linear with constant coefficients, and it
applies as one correlation (`correlate`) the stencil that `constant_stencil`
reads off the face path at a unit impulse and caches with its taps per
(operator, spec, spacing); `flow`'s energy reads the same taps (`stencil_energy`).
The correlation's buffers belong to whoever applies the stencil, lent
under the one rule of `_correlation_buffers`; only the plan of taps,
shifts and `grids.blocks`, which holds no field, is cached.  `correlate`
rims a block of rows at a time; only the energy reads a zero-rimmed copy
of the whole field.  The box solve forms `stencil_symbol` a block of rows
at a time (`symbol_rows`).
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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import OutOfRangeError, SpecValidationError
from .grids import GridFunction, RadialProfile, blocks, observed_order, refinements
from .measures import next_fast_len
from .norms import NormSpec, dual_norm_nodes, duality_map


def _index(ndim: int, cuts: dict, rest: slice = slice(1, -1)) -> tuple:
    """Index tuple: cuts[m] along the axes m that cuts names, rest elsewhere."""
    return tuple(cuts.get(m, rest) for m in range(ndim))


_WHOLE = slice(None)


@lru_cache(maxsize=None)
def _component_axes(ndim: int) -> tuple:
    """The axis orders that move the component axis of a face array, shape
    (N, *faces), last and back first: its views as (*faces, N) and back."""
    return (*range(1, ndim + 1), 0), (ndim, *range(ndim))


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
    its flux, are the kernel's buffers, `faces`: its next call overwrites them.
    The adjoint's differences and terms are views of the central
    differences, and its per-axis total a view of the padded copy's
    interior: both are dead once the face gradients are formed.
    """

    def __init__(self, shape, spacing):
        self.shape, self.spacing = tuple(shape), tuple(spacing)
        N = self.ndim = len(self.shape)
        self._padded = np.zeros(tuple(n + 4 for n in self.shape))
        self._central = [np.empty(tuple(n + 2 for n in self.shape)) for _ in range(N)]
        self.faces = [np.empty((N,) + tuple(n + 2 - (m == axis) for m, n in enumerate(self.shape)))
                      for axis in range(N)]
        view = lambda buffer, shape: buffer.reshape(-1)[:math.prod(shape)].reshape(shape)
        self._differences = [view(self._central[0], tuple(n + (m == axis) for m, n
                                                          in enumerate(self.shape)))
                             for axis in range(N)]
        self._total = self._padded[(slice(2, -2),) * N]
        self._term = view(self._central[-1], self.shape)

    def gradients(self, values: np.ndarray) -> list:
        """G u on the faces normal to each axis, each of shape (N, *faces)."""
        N, P = self.ndim, self._padded
        P[(slice(2, -2),) * N] = values
        for k in range(N):
            hi, lo = _cuts(N, k)[2]
            np.subtract(P[hi], P[lo], out=self._central[k])
        for axis, G in enumerate(self.faces):
            for k, (h, (a, b)) in enumerate(zip(self.spacing, _cuts(N, axis)[0])):
                if k == axis:
                    np.subtract(P[a], P[b], out=G[k])
                    G[k] *= 1.0 / h
                else:
                    np.add(self._central[k][a], self._central[k][b], out=G[k])
                    G[k] *= 0.25 / h
        return self.faces

    def form(self, values: np.ndarray, flux) -> np.ndarray:
        """(1/N) sum over axes of G^T flux(axis, xi), xi = G u on the faces
        normal to axis; flux takes and returns face vectors (*faces, N).
        Each G^T term sums its components' terms in axis order before it
        is added to the sum, accumulated from zero."""
        N, total, term = self.ndim, self._total, self._term
        last, first = _component_axes(N)
        fluxes = [flux(axis, G.transpose(last)).transpose(first)
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


@lru_cache(maxsize=128)
def constant_stencil(face_op, spec: NormSpec, spacing: tuple) -> tuple:
    """(S, scale, taps) with face_op(x, spec, spacing) = scale * (S * x) away
    from the edges of the grid, taps the `correlation_taps` of S, for an
    operator of a quadratic family that is linear, translation invariant
    and of reach <= 2 nodes per axis: the one cache of the stencil, and the
    one refusal of a spec whose dimension is not the grid's, len(spacing).

    face_op runs once, on an unmasked 11^N grid holding a unit impulse at
    its centre; S, read-only, is the central 5^N block of the response,
    reflected and divided by scale, the largest power of two not above its
    largest tap: the taps leave out weights of magnitude <= machine epsilon.
    """
    N = spec.dimension
    if len(spacing) != N:
        raise SpecValidationError("norm/grid dimension mismatch")
    impulse = np.zeros((11,) * N)
    impulse[(5,) * N] = 1.0
    S = np.flip(face_op(impulse, spec, spacing)[(slice(3, 8),) * N])
    scale = 2.0 ** np.floor(np.log2(np.max(np.abs(S))))
    S = S / scale
    S.flags.writeable = False
    return S, scale, correlation_taps(S)


def correlation_taps(S: np.ndarray) -> tuple:
    """(reach, taps) of an odd stencil S, 2 reach + 1 wide along every axis:
    taps are the (shift, weight) pairs of its weights of magnitude above
    machine epsilon, in C order, shift the weight's index less the centre's.
    `scipy.ndimage.correlate` drops the same weights."""
    reach, eps = S.shape[0] // 2, np.finfo(float).eps
    return reach, tuple((tuple(i - reach for i in k), float(w))
                        for k, w in np.ndenumerate(S) if abs(w) > eps)


@lru_cache(maxsize=8)
def _correlation_plan(shape: tuple, taps: tuple) -> tuple:
    """The plan of `correlate` and `stencil_energy` for fields of `shape`,
    which holds no field: the zero-rimmed copy's shape, its nodes' index,
    the flat shift and weight of each tap, the flat copy's margin of zeros
    on each side (the largest shift), and the `grids.blocks` of whole
    padded rows (along axis 0) that `correlate` sums: rows i:j and their
    flat span lo:hi in its window, after reach + 1 rows before them (a
    shift reaches less than a row past `reach` rows)."""
    reach, terms = taps
    padded = tuple(n + 2 * reach for n in shape)
    inner = (slice(reach, -reach or None),) * len(shape)
    strides = [math.prod(padded[m + 1:]) for m in range(len(shape))]
    shifted = tuple((sum(k * s for k, s in zip(shift, strides)), w) for shift, w in terms)
    lo = (reach + 1) * strides[0]
    spans = tuple((b.start, b.stop, lo, lo + (b.stop - b.start) * strides[0])
                  for b in blocks(shape[0], strides[0]))
    return padded, inner, shifted, reach * sum(strides), spans


def dst_box(shape: tuple) -> tuple:
    """The box of the prox's box solve (`flow._box_preconditioner`) for fields
    of `shape`: each side n - 2 off the box edge, zero-padded to the nearest
    length whose DST-I, 2 (n - 1) long unpadded, is fast.  A side can be
    longer than the zero-rimmed copy's, 399 against 391 at n = 387."""
    return tuple(next_fast_len(n - 1) - 1 for n in shape)


def _correlation_buffers(shape: tuple, taps: tuple, buffers: Optional[dict], scratch=False):
    """The buffers of `correlate` and `stencil_energy` for fields of `shape`:
    `correlate`'s flat window (a block's padded rows and reach + 1 rows on
    each side; its rims are never written), one block's sums and products
    and, from the first call with `scratch`, the energy's flat scratch, which
    holds the copy or the `dst_box`, whichever is larger, and its zero-rimmed
    flat copy with margins.
    They are their owner's: `buffers`, a dict that the owner keeps, holds one
    set per shape and reach, lent to every user while no two run at once (a
    solve's stepper and monitor reader never do), or made per call.  Between
    two energies the scratch is lent to the prox CG's product K y, its box
    solve's DST-I (once the product is dead) and the monitor reader's
    weights, and the copy's head, a field long, to the CG's right side and
    the lambda read's second weight; each user is done with it before it
    returns, and the head's users zero it again: the energy reads its zeros."""
    padded, _, _, margin, spans = _correlation_plan(shape, taps)
    buffers = {} if buffers is None else buffers
    if (key := (shape, taps[0])) not in buffers:
        block = (spans[0][1],) + padded[1:]
        buffers[key] = [np.zeros(spans[0][2] + spans[0][3]), np.empty(block),
                        np.empty(math.prod(block))]
    if scratch and len(buffers[key]) == 3:
        buffers[key] += [np.empty(max(math.prod(padded), math.prod(dst_box(shape)))),
                         np.zeros(math.prod(padded) + 2 * margin)]
    return buffers[key]


def correlate(values: np.ndarray, taps: tuple, out: Optional[np.ndarray] = None,
              buffers: Optional[dict] = None) -> np.ndarray:
    """sum over taps of weight * values[i + shift], values extended by zero:
    `scipy.ndimage.correlate(values, S, mode="constant")` bit for bit, taps
    the `correlation_taps` of S, into out if given, which may be values.
    Each node sums the products in tap order from +0.0.  The sums run over
    blocks of whole padded rows, so that the products stay in cache: each
    block's rows and reach + 1 rows on each side sit in a zero-rimmed window,
    so that each tap is one shift of the flat window, and its nodes go
    straight into out (rim positions of the block are summed too, from the
    rim and wrapped rows, and dropped).  The window rolls: the rows that the
    next block shares with it move down, and only rows past them are read
    from values, which a block of out overwrites only once they are read.
    In the owner's `buffers` (`_correlation_buffers`)."""
    out = np.empty(values.shape) if out is None else out
    if not taps[1]:
        out.fill(0.0)
        return out
    padded, inner, shifted, _, spans = _correlation_plan(values.shape, taps)
    window, block, product = _correlation_buffers(values.shape, taps, buffers)[:3]
    rows, cut = window.reshape((-1,) + padded[1:]), (_WHOLE,) + inner[1:]
    keep, sums, (d0, w0), rest = len(rows) - len(block), block.ravel(), shifted[0], shifted[1:]
    for i, j, lo, hi in spans:
        start = keep if i else 0    # window row r holds row i - keep / 2 + r of values
        for r in range(start):
            rows[r] = rows[r + len(block)]
        first, stop = i - keep // 2 + start, j + keep // 2     # zero beyond values
        a, b = max(first, 0), max(min(stop, len(values)), first)
        rows[start:start + a - first][cut] = 0.0
        rows[start + a - first:start + b - first][cut] = values[a:b]
        rows[start + b - first:start + stop - first][cut] = 0.0
        dest, spare = sums[:hi - lo], product[:hi - lo]
        np.multiply(window[lo + d0:hi + d0], w0, out=dest)
        for d, w in rest:
            np.multiply(window[lo + d:hi + d], w, out=spare)
            dest += spare
        dest += 0.0     # ndimage sums from +0.0: a sum of -0.0 terms reads +0.0
        out[i:j] = block[:j - i][cut]
    return out


def stencil_energy(values: np.ndarray, taps: tuple, buffers: Optional[dict] = None) -> float:
    """-sum over the taps (k, S_k) of positive flat shift d of S_k sum_i
    (u_(i+k) - u_i)^2, u extended by zero: <u, S * u> for a symmetric S that
    sums to 0, with no large taps cancelling.  Each lag, in tap order,
    differences the zero-rimmed flat copy, shifted by d, into the flat
    scratch, both the owner's (`_correlation_buffers`).  It writes the
    copy's nodes only: whoever borrows the copy's head zeroes it again."""
    padded, inner, shifted, margin, _ = _correlation_plan(values.shape, taps)
    work, flat = _correlation_buffers(values.shape, taps, buffers, scratch=True)[3:]
    flat, total = flat[margin:flat.size - margin], 0.0
    flat.reshape(padded)[inner] = values
    for d, w in shifted:
        if d > 0:
            x = np.subtract(flat[d:], flat[:-d], out=work[:flat.size - d])
            total += w * float(np.einsum("i,i->", x, x))
    return -total


def stencil_symbol(face_op, spec: NormSpec, spacing: tuple, lengths: tuple) -> np.ndarray:
    """sigma(theta) = scale * sum_k S_k prod_m cos(k_m theta_m), (S, scale)
    the `constant_stencil` of face_op, at the DST-I frequencies
    theta_m = pi j / (n_m + 1), j = 1 .. n_m, of a box of `lengths` n_m.

    The type-1 sine transform diagonalizes correlation with the stencil's
    part that is even along every axis, the field extended oddly beyond the
    box, and sigma is its eigenvalue; it is the mean of the operator's
    Fourier symbol over the sign flips of theta, so sigma >= 0 where the
    operator is positive semidefinite.  Summed from one cosine table per
    axis, one `tensordot` per axis (`symbol_plan`), and scaled in place, so
    that it holds one symbol, not a scaled copy besides.
    """
    sigma, tables, scale = symbol_plan(face_op, spec, spacing, lengths)
    for table in tables:
        sigma = np.tensordot(sigma, table, axes=([0], [0]))
    sigma *= scale
    return sigma


def symbol_plan(face_op, spec: NormSpec, spacing: tuple, lengths: tuple) -> tuple:
    """(first, tables, scale) of `stencil_symbol`, which hold no field: the
    stencil contracted with axis 0's cosine table, the other axes' tables
    and the stencil's scale."""
    S, scale, _ = constant_stencil(face_op, spec, tuple(spacing))
    reach = S.shape[0] // 2
    tables = [np.cos(np.outer(np.arange(-reach, reach + 1), np.pi * np.arange(1, n + 1) / (n + 1)))
              for n in lengths]
    return np.tensordot(S, tables[0], axes=([0], [0])), tables[1:], scale


def symbol_blocks(lengths: tuple) -> list:
    """The `grids.blocks` of a box's rows, none of one row (a box with
    another side of 1 is one block): numpy multiplies one row, or by one
    column, by BLAS's gemv, which can round otherwise than the gemm of
    `stencil_symbol`; a gemm of its rows keeps its bits."""
    n, starts = lengths[0], [0]
    cuts = blocks(n, math.prod(lengths[1:])) if min(lengths[1:], default=2) > 1 else []
    for rows in cuts[1:]:
        if rows.start - starts[-1] > 1 and n - rows.start > 1:
            starts.append(rows.start)
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def symbol_rows(plan: tuple, rows: slice, out: np.ndarray) -> np.ndarray:
    """The rows of `stencil_symbol` of a block of `symbol_blocks`, bit for
    bit, into out, from its `symbol_plan`."""
    sigma, tables, scale = plan
    sigma = sigma[..., rows]
    for table in tables:
        sigma = np.tensordot(sigma, table, axes=([0], [0]))
    return np.multiply(sigma, scale, out=out)


def apply_operator(face_op, values: np.ndarray, spec: NormSpec, spacing,
                   out: Optional[np.ndarray] = None, buffers: Optional[dict] = None) -> np.ndarray:
    """face_op(values, spec, spacing): p-norms run it and return its own
    array; quadratic families apply its constant stencil as one correlation,
    values extended by zero, into out and in the caller's `buffers` if given."""
    if spec.family == "p_norm":
        return face_op(values, spec, spacing)
    _, scale, taps = constant_stencil(face_op, spec, tuple(spacing))
    out = correlate(values, taps, out, buffers)
    out *= scale
    return out


def _face_flux_divergence(values: np.ndarray, spec: NormSpec, spacing) -> np.ndarray:
    """Difference of the normal fluxes on faces between nodes; on the halo
    only partial sums."""
    out = np.zeros_like(values)
    between_nodes = (slice(1, -1),) * values.ndim
    last = _component_axes(values.ndim)[0]
    for axis, G in enumerate(FaceKernel(values.shape, spacing).gradients(values)):
        flux = duality_map(spec, G.transpose(last)[between_nodes])[..., axis]
        out[(slice(None),) * axis + (slice(1, -1),)] += np.diff(flux, axis=axis) / spacing[axis]
    return out


def finsler_laplacian(gf: GridFunction, spec: NormSpec) -> GridFunction:
    """div A(grad u) by face-flux differencing; NaN on the one-cell halo."""
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
    """v(x) = q(H0(x)) interpolated from the profile onto the grid: H0 at the
    nodes (`norms.dual_norm_nodes`), then the profile in its place, one
    `grids.blocks` block of rows at a time, so that the lift holds one field."""
    v = dual_norm_nodes(spec, layout)
    if float(np.max(v)) > rp.r_max * (1 + 1e-12):
        raise OutOfRangeError(
            f"grid reaches H0 = {float(np.max(v)):.6g} beyond the profile range "
            f"[0, {rp.r_max:.6g}]")
    for rows in blocks(len(v), math.prod(v.shape[1:])):
        v[rows] = rp(v[rows])
    return layout.with_values(v)


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
        r = dual_norm_nodes(spec, lay)
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
        r = dual_norm_nodes(spec, lay)
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
