"""Initial data as measures, the quadratic growth condition, and mollifiers.

The admissibility functional is the windowed Gaussian-weighted mass

    G(mu; L) = sup_x  int_{B_{H0}(x, 1/sqrt(L))} e^(-L H0(y)^2) d|mu|(y),

finite for some L > 0 exactly when the datum launches a solution up to
the horizon S_L = 1/(4 L).  Finiteness cannot be decided from a bounded
window, so the classifier operationalizes it as stabilization of G under
window growth: the first L in the grid whose value changes by at most a
relative threshold between the two largest distinct windows wins.  The
result holds the values by (L, window), filled L outer and window inner,
and the verdict per L; the caller lays out its rows.

Density integrals use the node-sum (midpoint) rule; the ball-windowed
supremum over all grid centers is a convolution with the H0-ball
indicator and is evaluated by FFT (`fftconvolve`, scipy.signal's
same-mode FFT convolution repeated step for step on numpy's FFT, with
`rfftn` and `irfftn` taking scipy.fft's axis order and scaling, so that
scipy stays unloaded; bit for bit where every side is at least 2, as every
caller's is 3 or more).  There is one convolution path with two inverses.
The kernel enters as its row transform (`kernel_rows`, its real FFT along
the last axis), whose columns are transformed into the product a block at
a time (`grids.blocks`, as every blocked pass), so that its full spectrum
is never formed; the transforms run in place in one complex array of the
padded spectrum's shape.  The convolution itself
(`mollify`) takes the full inverse, one real array of the padded shape; a
supremum over a mask (`growth_functional`, `flow`'s ell monitor) takes the
inverse real FFT of the cropped rows only, a block at a time, and
allocates no other array of the field's size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, SpecValidationError, positive
from .grids import MAX_NODES, GridFunction, RadialProfile, blocks, bounded, empty_layout
from .norms import NormSpec, dual_norm_eval, dual_norm_nodes, eval_norm


@dataclass(frozen=True)
class MeasureSpec:
    """Initial datum: a density grid, a finite atom list, or a radial density.
    Density values, atom masses and atom points are `grids.bounded`, so only
    a density's cell volume can make its total |mass| infinite."""

    kind: str                                   # density | atoms | radial_density
    density: Optional[GridFunction] = None
    atoms: Optional[tuple] = None               # ((point tuple, weight), ...)
    profile: Optional[RadialProfile] = None
    norm: Optional[NormSpec] = None             # for radial_density

    def __post_init__(self):
        if self.kind == "density":
            if self.density is None:
                raise SpecValidationError("density measure needs a grid")
            bounded(self.density.values, "density values")
            with np.errstate(over="ignore"):
                total = float(np.sum(np.abs(self.density.values))) * self.density.cell_volume
            if not math.isfinite(total):
                raise SpecValidationError(f"density masses must have a finite total, not {total}")
        elif self.kind == "atoms":
            if not self.atoms:
                raise SpecValidationError("atom measure needs at least one atom")
            bounded([x for point, _ in self.atoms for x in point], "atom points")
            bounded([w for _, w in self.atoms], "atom masses")
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
    positive(radius, "window")
    positive(spacing, "spacing")
    extents = eval_norm(spec, np.eye(spec.dimension))
    cells = [max(4, int(np.ceil(radius * e / spacing - 1e-9))) for e in extents]
    box = tuple((-c * spacing, c * spacing) for c in cells)
    return box, tuple(2 * c for c in cells)


def next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, n >= 1: `scipy.fft.next_fast_len(n, real=True)`."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def rfftn(x: np.ndarray, shape) -> np.ndarray:
    """`scipy.fft.rfftn(x, shape)`, over every axis at a length of at least
    x's side, bit for bit where every side of x is at least 2: numpy's real
    FFT along the last axis, then its complex FFT along the others in order
    (`np.fft.rfftn` goes in reverse order, which moves bits in 3-D).

    One zeroed spectrum is allocated (`_spectrum_zeros`): the real FFT fills
    its leading block and each complex FFT runs in place."""
    out = _spectrum_zeros(list(shape[:-1]) + [shape[-1] // 2 + 1])
    np.fft.rfft(x, shape[-1], axis=-1, out=out[tuple(slice(0, m) for m in x.shape[:-1])])
    for axis, n in enumerate(shape[:-1]):
        np.fft.fft(out, n, axis=axis, out=out)
    return out


def _spectrum_zeros(dims: list) -> np.ndarray:
    """Complex zeros of shape `dims`, laid out with the last axis, the real
    FFT's, outermost and the others in C order: a block of its columns
    (indices along the last axis) is contiguous, so that `_times_kernel`
    multiplies it by a block of the same layout without numpy's buffering."""
    return np.moveaxis(np.zeros([dims[-1]] + dims[:-1], dtype=complex), 0, -1)


def irfftn(X: np.ndarray, shape) -> np.ndarray:
    """`scipy.fft.irfftn(X, shape)` over every axis, bit for bit where every
    length is at least 2: numpy's unscaled inverse FFTs along every axis but
    the last, in order and in place in X, which holds their lengths already
    (`_inverse_columns`), then its unscaled inverse real FFT along the last
    and one scaling (`_inverse_rows`)."""
    return _inverse_rows(_inverse_columns(X, shape), shape)


def _inverse_columns(X: np.ndarray, shape) -> np.ndarray:
    """The complex passes of `irfftn`: numpy's unscaled inverse FFTs along
    every axis but the last, in order, in place in X."""
    for axis, n in enumerate(shape[:-1]):
        np.fft.ifft(X, n, axis=axis, norm="forward", out=X)
    return X


def _inverse_rows(X: np.ndarray, shape) -> np.ndarray:
    """The last pass of `irfftn`: numpy's unscaled inverse real FFT along the
    last axis, then one scaling by 1 / prod(shape), rounded from long double
    as scipy's is.  Each row is transformed and scaled on its own, so a
    block of rows keeps the bits it has in the whole."""
    out = np.fft.irfft(X, shape[-1], axis=-1, norm="forward")
    out *= float(1 / np.longdouble(math.prod(shape)))
    return out


def fftconvolve(field: np.ndarray, kernel: np.ndarray, rows=None, where=None):
    """Linear convolution of two real arrays of equal rank, cropped to the
    centred `field.shape`, every axis zero-padded to scipy's fast real-FFT
    length and transformed: `scipy.signal.fftconvolve(field, kernel,
    mode="same")` step for step, so bit for bit where every side is at
    least 2 (scipy broadcasts an axis of length 1, which agrees to
    rounding).  With `where`, a boolean array that broadcasts to the
    field's shape, only the maximum over it: `np.max(result[where])`, NaN if
    it holds one, and an empty `where` raises as `np.max` does.

    `rows`, the `kernel_rows` of the kernel for fields of this shape, spares
    transforming the kernel's rows again; the kernel's full spectrum is
    never held (`_times_kernel`).  A call allocates one complex array of the
    padded spectrum's shape, which the field's transform, the product and
    the inverse's complex passes share.  The result is a view of one real
    array of the padded shape; the maximum takes the inverse real FFT of the
    cropped rows only, a block along axis 0 at a time (`_cropped_max`).
    """
    s1, s2 = field.shape, kernel.shape
    fshape = _padded(s1, s2)
    crop = tuple(slice((m - 1) // 2, (m - 1) // 2 + n) for n, m in zip(s1, s2))
    if rows is None:
        rows = kernel_rows(kernel, s1)
    product = rfftn(field, fshape)
    _times_kernel(product, rows, fshape)
    if where is None:
        return irfftn(product, fshape)[crop]
    return _cropped_max(_inverse_columns(product, fshape), fshape, crop,
                        np.broadcast_to(where, s1))


def kernel_rows(kernel: np.ndarray, shape: tuple) -> np.ndarray:
    """The kernel's row transform that `fftconvolve` of fields of `shape`
    reads, its real FFT along the last axis at that axis's padded length,
    as `rfftn` forms it."""
    return np.fft.rfft(kernel, _padded(shape, kernel.shape)[-1], axis=-1)


def _times_kernel(product: np.ndarray, rows: np.ndarray, fshape) -> None:
    """product *= `rfftn(kernel, fshape)`, the kernel's spectrum: its `rows`
    where they are all of it (one axis), else formed a block of columns
    (indices along the last axis) at a time, each block, zero-padded, taking
    `rfftn`'s complex FFTs along the other axes in order.  numpy's FFT
    transforms one line at a time, so each block holds the bits of the full
    spectrum, and a block's product runs over at least 3 values where every
    side is at least 2, as numpy multiplies a longer run (a lone complex
    value is multiplied by other code, which can round otherwise)."""
    if len(fshape) == 1:
        product *= rows
        return
    lead = tuple(slice(0, m) for m in rows.shape[:-1])
    cuts = blocks(rows.shape[-1], math.prod(fshape[:-1]))
    buffer = _spectrum_zeros(list(fshape[:-1]) + [cuts[0].stop])
    for c in cuts:
        block = buffer[..., :c.stop - c.start]
        block.fill(0.0)
        block[lead] = rows[..., c]
        for axis, n in enumerate(fshape[:-1]):
            np.fft.fft(block, n, axis=axis, out=block)
        product[..., c] *= block


def _cropped_max(X: np.ndarray, fshape, crop: tuple, where: np.ndarray):
    """np.max(_inverse_rows(X)[crop][where]), X past `irfftn`'s complex
    passes: the inverse real FFT of the rows that the crop keeps, a block
    along axis 0 at a time (one block where axis 0 is the rows' own axis),
    each block reduced to its maximum, and the maximum of those."""
    lines = X[crop[:-1]]
    row = math.prod(where.shape[1:-1]) * fshape[-1]     # a padded row's values
    peaks = []
    for block in blocks(len(where), row) if X.ndim > 1 else [slice(None)]:
        values = _inverse_rows(lines[block], fshape)[..., crop[-1]][where[block]]
        if values.size:
            peaks.append(np.max(values))
    return np.max(peaks)


def _padded(s1: tuple, s2: tuple) -> list:
    """The fast real-FFT length that `fftconvolve` zero-pads each axis to."""
    return [next_fast_len(n + m - 1) for n, m in zip(s1, s2)]


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
    radius = 1.0 / np.sqrt(positive(lam, "lam"))

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
        r = dual_norm_nodes(spec, grid)
        # the density is radial in its own norm, the window in spec's
        rho = r if measure.norm == spec else dual_norm_nodes(measure.norm, grid)
        if float(np.max(rho[r <= window], initial=0.0)) > measure.profile.r_max:
            raise DomainError("radial density profile shorter than the window")
        values = np.where(r <= window, measure.profile(
            np.clip(rho, 0.0, measure.profile.r_max)), 0.0)
    else:
        grid, values = measure.density, measure.density.values
        window = np.inf if window is None else positive(window, "window")
        r = dual_norm_nodes(spec, grid)
    if window < radius:
        warnings.warn("window smaller than the ball radius; coverage is partial")
    weighted = np.abs(values) * np.exp(-lam * np.minimum(r**2, 1400.0 / lam))
    peak = fftconvolve(weighted, _ball_kernel(spec, radius, grid.spacing),
                       where=r <= min(window, float(np.max(r))))
    return float(peak) * grid.cell_volume


def classify(measure: MeasureSpec, spec: NormSpec, lam_grid: Sequence[float],
             windows: Sequence[float] = (4.0, 6.0, 8.0, 12.0),
             spacing: float = 0.25, stabilization_tol: float = 1e-3) -> dict:
    """Smallest lam whose windowed functional stabilizes, and its horizon:
    {"table": (lam, window) -> value, "stabilized": lam -> bool,
    "lam_star": the first stabilized lam or None, "horizon": 1/(4 lam_star)
    or None}.  The datum is admissible when lam_star is not None.

    Deterministic and window-monotone: all windows share one lattice, so
    enlarging the window never decreases a table entry.
    The lambdas and the windows are taken as sets; fewer than two distinct
    windows are refused.  The table is filled in ascending order, lambda
    outer and window inner.
    """
    lam_grid = sorted({float(x) for x in lam_grid})
    windows = sorted({float(positive(w, "window")) for w in windows})
    if not lam_grid:
        raise SpecValidationError("lambda grid is empty: no lambda to test")
    if not (math.isfinite(stabilization_tol) and stabilization_tol >= 0):
        raise SpecValidationError("stabilization_tol must be finite and >= 0")
    if len(windows) < 2:
        raise SpecValidationError("need at least two distinct windows to test stabilization")
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
    return {"table": table, "stabilized": stabilized, "lam_star": lam_star,
            "horizon": horizon}


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
    the width stays inside the grid; width must be at least two cells, and
    an atom's mass over its bump's lattice sum `grids.bounded`.  A density's
    kernel is refused, before it is allocated, past MAX_NODES nodes.
    """
    h = layout.spacing
    if positive(width, "mollifier width") < 2.0 * max(h) * (1.0 - 1e-12):
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
            bounded(w / total, "a mollified atom's peak, its mass over its bump's lattice sum,")
            out += w * kern / total
        return layout.with_values(out)

    if measure.kind == "radial_density":
        r = dual_norm_nodes(measure.norm, layout)
        base = measure.profile(np.clip(r, 0.0, measure.profile.r_max))
        source = layout.with_values(np.where(r <= measure.profile.r_max, base, 0.0))
    else:
        source = measure.density if measure.density.same_layout(layout) \
            else layout.with_values(measure.density.sample_nearest(layout.coords()))

    half = [int(np.ceil(width / hk)) for hk in h]
    if math.prod(2 * m + 1 for m in half) > MAX_NODES:
        raise SpecValidationError(f"a mollifier of width {width!r} has more than {MAX_NODES} nodes")
    axes = [np.arange(-m, m + 1) * hk for m, hk in zip(half, h)]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    kern = _bump(np.linalg.norm(offsets, axis=-1) / width)
    kern /= kern.sum() * layout.cell_volume
    smooth = fftconvolve(source.values, kern) * layout.cell_volume
    return layout.with_values(smooth)
