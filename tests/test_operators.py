import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerheat import norms, operators
from finslerheat.errors import OutOfRangeError, SpecValidationError
from finslerheat.grids import RadialProfile, blocks, empty_layout, grid_from_function
from finslerheat.norms import duality_map
from finslerheat.operators import (FaceKernel, check_linearity, check_radial_reduction,
                                   finsler_laplacian, interior_mask,
                                   lift_radial, radial_operator_values)

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))

def _energy_form(values, spec, spacing):
    """(1/N) G^T A(G u): `FaceKernel.form` of the duality map, the face
    path whose stencil the energy gradient applies."""
    return FaceKernel(values.shape, spacing).form(values, lambda axis, xi: duality_map(spec, xi))


GAUSS = RadialProfile.from_function(lambda r: np.exp(-r**2), 6.0, 4097)
QUAD = RadialProfile.from_function(lambda r: 0.5 * r**2, 6.0, 4097)


@settings(max_examples=40)
@given(data=st.data())
def test_face_kernel_form_is_the_adjoint_sum_and_stencil_counts(data):
    N = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(3, 9)) for _ in range(N))
    spacing = tuple(data.draw(st.floats(0.01, 10.0)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(shape)
    kernel = FaceKernel(shape, spacing)
    Gu = [np.moveaxis(G, 0, -1).copy() for G in kernel.gradients(u)]
    F = [rng.standard_normal(G.shape) for G in Gu]
    # sum_a <G_a u, F_a> = N <u, form(u, a, xi -> F_a)>, and per axis with
    # the flux zero on the other face families
    for axes in [range(N)] + [[axis] for axis in range(N)]:
        lhs = sum(float(np.sum(Gu[a] * F[a])) for a in axes)
        form = kernel.form(u, lambda a, xi: F[a] if a in axes else np.zeros_like(xi))
        rhs = N * float(np.sum(u * form))
        scale = np.sqrt(sum(np.sum(Gu[a] ** 2) for a in axes)
                        * sum(np.sum(F[a] ** 2) for a in axes))
        assert abs(lhs - rhs) <= 1e-12 * scale
    # on faces whose stencil lies in the grid, G is exact on quadratics:
    # face j along the face family's axis sits at (j - 1/2) h, position j
    # along the others at node j - 1
    B = rng.standard_normal((N, N))
    B = B + B.T
    c = rng.standard_normal(N)
    x = np.moveaxis(np.indices(shape), 0, -1) * np.array(spacing)
    quad = kernel.gradients(np.einsum("...i,ij,...j->...", x, B, x) + x @ c)
    # stencil node counts, from the responses to the unit impulses of a grid
    # of at most 5 nodes per axis: the difference across the face reads 2
    # nodes, an averaged tangential central difference 4, and none more
    small = tuple(min(n, 5) for n in shape)
    small_kernel, counts = FaceKernel(small, spacing), [0] * N
    for impulse in np.eye(np.prod(small)).reshape((-1,) + small):
        for axis, G in enumerate(small_kernel.gradients(impulse)):
            counts[axis] = counts[axis] + (np.moveaxis(G, 0, -1) != 0.0)
    for axis in range(N):
        away = tuple(slice(1, -1) if m == axis else slice(2, -2) for m in range(N))
        j = np.moveaxis(np.indices(Gu[axis].shape[:-1]), 0, -1)
        centers = (j - np.where(np.arange(N) == axis, 0.5, 1.0)) * np.array(spacing)
        exact = 2.0 * centers @ B + c
        np.testing.assert_allclose(np.moveaxis(quad[axis], 0, -1)[away], exact[away],
                                   atol=1e-9 * (1.0 + np.max(np.abs(exact))))
        full = np.where(np.arange(N) == axis, 2, 4)
        assert np.all(counts[axis][away] == full) and np.all(counts[axis] <= full)


def test_laplacian_euclidean_quadratic():
    gf = grid_from_function([(-1, 1), (-1, 1)], (32, 32),
                            lambda c: 0.5 * np.sum(c**2, axis=-1))
    lap = finsler_laplacian(gf, EUCLID).values
    np.testing.assert_allclose(lap[1:-1, 1:-1], 2.0, atol=1e-10)


def test_laplacian_matches_five_point_stencil():
    rng = np.random.default_rng(0)
    gf = grid_from_function([(-1, 1), (-1, 1)], (24, 24),
                            lambda c: np.sin(c[..., 0]) * np.cos(2 * c[..., 1]))
    lap = finsler_laplacian(gf, EUCLID).values
    u = gf.values
    h = gf.spacing
    ref = ((u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h[0] ** 2
           + (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h[1] ** 2)
    np.testing.assert_allclose(lap[1:-1, 1:-1], ref, atol=1e-12)


def test_laplacian_annihilates_affine_every_family():
    gf = grid_from_function([(-1, 1), (-1, 1)], (16, 16),
                            lambda c: 1.0 + 2 * c[..., 0] - 3 * c[..., 1])
    for spec in (EUCLID, ELLIPSE, norms.p_norm(4, 2), norms.p_norm(1.5, 2),
                 norms.smoothed_polytope(np.eye(2), 0.05)):
        lap = finsler_laplacian(gf, spec).values
        assert np.nanmax(np.abs(lap[1:-1, 1:-1])) <= 1e-10


def test_laplacian_ellipse_radial_quadratic():
    # lift of r^2/2 through the ellipse dual: operator value 2 everywhere
    lay = empty_layout([(-2, 2), (-1, 1)], (64, 32))
    lifted = lift_radial(QUAD, ELLIPSE, lay)
    lap = finsler_laplacian(lifted, ELLIPSE).values
    np.testing.assert_allclose(lap[1:-1, 1:-1], 2.0, atol=1e-8)


def test_laplacian_halo_is_invalid():
    gf = grid_from_function([(-1, 1), (-1, 1)], (8, 8),
                            lambda c: np.sum(c**2, axis=-1))
    lap = finsler_laplacian(gf, EUCLID).values
    assert np.all(np.isnan(lap[0, :])) and np.all(np.isnan(lap[:, -1]))
    assert np.all(np.isfinite(lap[1:-1, 1:-1]))


def test_laplacian_3d_quadratic():
    eu3 = norms.euclidean(3)
    gf = grid_from_function([(-1, 1)] * 3, (12, 12, 12),
                            lambda c: 0.5 * np.sum(c**2, axis=-1))
    lap = finsler_laplacian(gf, eu3).values
    np.testing.assert_allclose(lap[1:-1, 1:-1, 1:-1], 3.0, atol=1e-10)


def test_scaling_consistency():
    # lap of u(kx) equals k^2 (lap u)(kx) up to O(h^2)
    base = empty_layout([(-2, 2), (-2, 2)], (128, 128))
    spec = ELLIPSE
    for k in (0.5, 2.0):
        scaled = empty_layout([(-2 / k, 2 / k), (-2 / k, 2 / k)], (128, 128))
        u = lift_radial(GAUSS, spec, base)
        uk = scaled.with_values(lift_radial(GAUSS, spec, base).values)
        lap_k = finsler_laplacian(uk, spec).values
        lap = finsler_laplacian(u, spec).values
        np.testing.assert_allclose(lap_k[1:-1, 1:-1],
                                   (k**2) * lap[1:-1, 1:-1], atol=3e-3 * k**2)


def test_radial_laplacian_quadratic():
    prof = RadialProfile.from_function(lambda r: 0.5 * r**2, 3.0, 257)
    out = radial_operator_values(prof, 3, prof.radii)
    np.testing.assert_allclose(out, 3.0, atol=1e-9)


def test_radial_laplacian_gaussian_oracle():
    # (d_rr + (N-1)/r d_r) e^{-r^2} = (4r^2 - 2N) e^{-r^2}
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 8193)
    assert float(radial_operator_values(prof, 2, 1.0)) == pytest.approx(0.0, abs=1e-6)
    assert float(radial_operator_values(prof, 2, 0.0)) == pytest.approx(-4.0, abs=1e-5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_laplacian_center_limit(dim):
    prof = RadialProfile.from_function(lambda r: r**2, 3.0, 257)
    center = radial_operator_values(prof, dim, 0.0)
    assert float(center) == pytest.approx(2.0 * dim, abs=1e-9)


def test_lift_constant():
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 6.0, 65)
    lay = empty_layout([(-1, 1), (-1, 1)], (8, 8))
    np.testing.assert_allclose(lift_radial(prof, EUCLID, lay).values, 1.0)


def test_lift_euclidean_identity_profile():
    prof = RadialProfile(np.linspace(0, 6, 4097),
                         np.linspace(0, 6, 4097), even=False)
    lay = empty_layout([(-2, 2), (-2, 2)], (32, 32))
    lifted = lift_radial(prof, EUCLID, lay)
    np.testing.assert_allclose(lifted.values,
                               np.linalg.norm(lay.coords(), axis=-1), atol=1e-8)


def test_lift_ellipse_dual_value():
    prof = RadialProfile.from_function(lambda r: r**2, 6.0, 1025)
    lay = empty_layout([(-2, 2), (-2, 2)], (4, 4))
    lifted = lift_radial(prof, ELLIPSE, lay)
    # node (1, 0): H0 = 1/2, so the lift carries 0.25 there
    assert lifted.values[3, 2] == pytest.approx(0.25, abs=1e-10)


def test_lift_out_of_range():
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 1.0, 65)
    lay = empty_layout([(-2, 2), (-2, 2)], (8, 8))
    with pytest.raises(OutOfRangeError):
        lift_radial(prof, EUCLID, lay)


def test_lift_out_of_range_names_the_largest_h0_of_the_layout(block):
    """At 40 values a block the 57 x 17 layout takes 29 blocks of rows: the
    first already reaches past the profile (H0 >= 2), but the refusal names
    the largest H0 of the whole layout, sqrt(26) at (5, +-1)."""
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 1.0, 65)
    lay = empty_layout([(-2, 5), (-1, 1)], (56, 16))
    with block(40), pytest.raises(OutOfRangeError) as refusal:
        lift_radial(prof, EUCLID, lay)
    assert str(refusal.value) == "grid reaches H0 = 5.09902 beyond the profile range [0, 1]"


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_h0_and_the_lift_keep_their_bits_a_block_of_rows_at_a_time(data, block):
    """`norms.dual_norm_nodes` and `lift_radial` evaluate H0 and the profile
    one `grids.blocks` block of rows at a time; at 40 values a block every
    layout here takes several, and both keep the bits of the evaluation over
    the whole coordinate array, N = 1-3, for quadratic and p-norms."""
    N = data.draw(st.integers(1, 3))
    resolution = tuple(data.draw(st.integers((40, 8, 4)[N - 1] if axis == 0 else 4,
                                             (200, 40, 12)[N - 1])) for axis in range(N))
    box = tuple((lo, lo + data.draw(st.floats(0.5, 4.0)))
                for lo in [data.draw(st.floats(-3.0, 1.0)) for _ in range(N)])
    spec = data.draw(st.sampled_from([
        norms.euclidean(N), norms.p_norm(3.0, N),
        norms.ellipse(np.diag(np.arange(1.0, N + 1)) + 0.3 * (np.ones((N, N)) - np.eye(N)))]))
    lay = empty_layout(box, resolution)
    h0 = norms.dual_norm_eval(spec, lay.coords())
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), float(np.max(h0)) + 0.5, 1025)
    with block(40):
        cuts = blocks(len(h0), h0[0].size)
        got, lifted = norms.dual_norm_nodes(spec, lay), lift_radial(prof, spec, lay)
    assert len(cuts) > 1
    assert got.tobytes() == h0.tobytes()
    assert lifted.values.tobytes() == prof(h0).tobytes()


def test_a_warm_lift_allocates_under_one_and_a_half_fields(work):
    """A warm lift of exp(-r^2) onto the 513 x 257 ellipse grid of the
    benchmark's flows holds one field, H0 at the nodes, which becomes the lift
    in place, a block of rows at a time: it allocates under 1.5 fields (1.44
    with numpy 2.4; the whole-layout lift took seven)."""
    lay = empty_layout([(-12.0, 12.0), (-6.0, 6.0)], (512, 256))
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 16.0, 2049)
    first = lift_radial(prof, ELLIPSE, lay)
    again = work(lambda: lift_radial(prof, ELLIPSE, lay), count=False, cold=False)
    assert lay.values.shape == (513, 257)
    assert again.result.values.tobytes() == first.values.tobytes()
    assert again.peak < 1.5 * lay.values.nbytes


def test_radial_reduction_euclidean_second_order():
    lay = empty_layout([(-2, 2), (-2, 2)], (64, 64))
    rep = check_radial_reduction(GAUSS, EUCLID, lay, levels=2)
    assert rep.max_errors[1] < rep.max_errors[0]
    assert 1.6 <= rep.order_max <= 2.4


def test_radial_reduction_ellipse_second_order():
    lay = empty_layout([(-2, 2), (-2, 2)], (64, 64))
    rep = check_radial_reduction(GAUSS, ELLIPSE, lay, levels=2)
    assert 1.6 <= rep.order_max <= 2.4


def test_linearity_degenerate_combination_is_exact():
    lay = empty_layout([(-2, 2), (-2, 2)], (32, 32))
    rep = check_linearity(GAUSS, QUAD, 1.0, 0.0, ELLIPSE, lay, levels=1)
    assert rep.radial_defects[0] == 0.0


def test_linearity_ellipse_radial_pair():
    lay = empty_layout([(-2, 2), (-2, 2)], (64, 64))
    rep = check_linearity(GAUSS, QUAD, 2.0, -3.0, ELLIPSE, lay, levels=2)
    # quadratic norms make the discrete operator genuinely linear
    assert max(rep.radial_defects) <= 1e-9
    assert max(rep.control_defects) <= 1e-9


def test_linearity_p4_control_pair_stays_nonlinear():
    lay = empty_layout([(-2, 2), (-2, 2)], (64, 64))
    rep = check_linearity(GAUSS, QUAD, 2.0, -3.0, norms.p_norm(4, 2), lay, levels=2)
    assert all(d >= 0.1 for d in rep.control_defects)
    assert rep.radial_defects[-1] <= 10 * rep.radial_defects[0] + 1e-6


def test_interior_mask_shape():
    lay = empty_layout([(-1, 1), (-1, 1)], (8, 8))
    m = interior_mask(lay)
    assert m.sum() == 7 * 7
    assert not m[0, 0] and m[1, 1]


def test_dual_norm_grid_matches_pointwise():
    lay = empty_layout([(-1, 1), (-1, 1)], (8, 8))
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    x = lay.coords()[5, 7]
    assert r[5, 7] == pytest.approx(float(norms.dual_norm_eval(ELLIPSE, x)))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80)
@given(data=st.data())
def test_correlate_is_ndimage_correlate_bit_for_bit(data):
    """`correlate` against scipy.ndimage.correlate(mode="constant") at
    N = 1, 2 and 3, with taps of 0, of machine epsilon and below (both
    dropped) and above it, and fields that hold signed zeros."""
    from scipy import ndimage
    N = data.draw(st.integers(1, 3))
    width = data.draw(st.sampled_from([1, 3, 5]))
    shape = tuple(data.draw(st.integers(1, 70 if N == 1 else 12)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    S = rng.standard_normal((width,) * N)
    pick = rng.integers(0, 5, S.shape)
    S[pick == 0] = 0.0
    S[pick == 1] = np.finfo(float).eps * rng.choice([-1.0, 1.0, 0.5, 1.5], S.shape)[pick == 1]
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.3] = rng.choice([0.0, -0.0])
    assert _same_bits(operators.correlate(values, operators.correlation_taps(S)),
                      ndimage.correlate(values, S, mode="constant"))


def test_correlate_keeps_the_bits_of_ndimage_on_both_ellipse_stencils():
    """The energy gradient's 17 taps and the face-flux divergence's 5, on a
    field larger than one block of the flat sums."""
    from scipy import ndimage
    u = np.random.default_rng(7).standard_normal((257, 129))
    for face_op, count in ((_energy_form, 17), (operators._face_flux_divergence, 5)):
        S, _, taps = operators.constant_stencil(face_op, ELLIPSE, (6 / 64, 6 / 64))
        assert len(taps[1]) == count
        assert _same_bits(operators.correlate(u, taps), ndimage.correlate(u, S, mode="constant"))


@pytest.mark.parametrize("values", [1, 40])
def test_correlate_keeps_the_bits_of_ndimage_in_blocks_of_one_row_or_a_few(block, values):
    """Blocks of whole padded rows, here of 1 value a block (one row per
    block, longer than a block's values) and 40 (a few rows in 1-D and 2-D,
    one in 3-D where a padded hyperplane holds 72 values, and two at shape
    (6, 1, 1), whose padded hyperplanes hold 25: the nearest count rounds
    40 / 25 up), each written straight into out, keep ndimage's bits at
    N = 1, 2 and 3, the first and last blocks shifted into the copy's margin."""
    from scipy import ndimage
    rng = np.random.default_rng(values)
    with block(values):
        for shape in ((23,), (9, 7), (6, 5, 4), (6, 1, 1)):
            S = rng.standard_normal((5,) * len(shape))
            u = rng.standard_normal(shape)
            assert _same_bits(operators.correlate(u, operators.correlation_taps(S)),
                              ndimage.correlate(u, S, mode="constant"))


def test_the_3d_correlation_plan_blocks_two_padded_hyperplanes():
    """The energy gradient's stencil of the ellipse diag(4, 1, 1) has 37
    taps; on its 129 x 65 x 65 grid at R = 6, h = 0.1875 a padded
    hyperplane holds 69 x 69 = 4,761 values, so a block holds the nearest
    whole number of them to _BLOCK, 2: 65 blocks, the last of one
    hyperplane (blocks of whole hyperplanes within _BLOCK took 129)."""
    spec = norms.ellipse(np.diag([4.0, 1.0, 1.0]))
    _, _, taps = operators.constant_stencil(_energy_form, spec, (0.1875,) * 3)
    spans = operators._correlation_plan((129, 65, 65), taps)[-1]
    assert len(taps[1]) == 37 and len(spans) == 65
    assert [(i, j) for i, j, _, _ in spans[-2:]] == [(126, 128), (128, 129)]


@pytest.mark.parametrize("rows", [1, 2])
def test_correlate_in_place_keeps_the_bits_of_ndimage_in_blocks_shorter_than_its_reach(
        block, rows):
    """`correlate` into its own input, as `solutions.pde_residual` calls it,
    keeps ndimage's bits in 2-D and 3-D at blocks of one and two padded rows,
    fewer than reach + 1 = 3: each block's rows go to out while later
    windows still read them, which the rolling window holds already."""
    from scipy import ndimage
    rng = np.random.default_rng(rows)
    for shape in ((9, 7), (6, 5, 4)):
        S = rng.standard_normal((5,) * len(shape))
        u = rng.standard_normal(shape)
        want = ndimage.correlate(u, S, mode="constant")
        with block(rows * int(np.prod([n + 4 for n in shape[1:]]))):
            assert operators._correlation_plan(shape, operators.correlation_taps(S))[-1][0][1] \
                == rows
            got = operators.correlate(u, operators.correlation_taps(S), u)
        assert got is u and _same_bits(got, want)


def test_correlate_into_its_out_allocates_no_field(work, block):
    """A warm `correlate` of the energy gradient's 17 taps on the 513 x 257
    ellipse grid, into a given out and in handed buffers, allocates under an
    eighth of a field: each block of whole padded rows goes straight into
    out (a full flat sums buffer and its copy took a field).  The buffers
    hold its window, flat, of one block's 31 padded rows of 261 values and
    3 rows on each side, and one block's sums and products (8,091 values,
    at most `block.size`); `correlate` asks for neither the energy's
    zero-rimmed copy nor the flat scratch."""
    u = np.random.default_rng(3).standard_normal((513, 257))
    _, _, taps = operators.constant_stencil(_energy_form, ELLIPSE, (6 / 128, 6 / 128))
    out, buffers = np.empty_like(u), {}
    operators.correlate(u, taps, out, buffers)
    first = out.copy()
    peak = work(lambda: operators.correlate(u, taps, out, buffers), count=False, cold=False).peak
    assert _same_bits(out, first)
    (window, *sums), = buffers.values()
    assert window.shape == ((31 + 2 * 3) * 261,) and len(sums) == 2
    assert all(b.size == 31 * 261 <= block.size for b in sums)
    assert peak < u.nbytes / 8


@settings(max_examples=40)
@given(data=st.data())
def test_stencil_energy_is_the_lag_sum_on_a_padded_copy(data):
    """`stencil_energy` on the correlation's plan keeps the bits of the lag
    sum over a fresh zero-padded copy, lag by lag in C order, and equals
    <u, S * u> for a symmetric S that sums to 0; the plan's copy is
    shared with `correlate`, which it leaves right."""
    N = data.draw(st.integers(1, 3))
    width = data.draw(st.sampled_from([3, 5]))
    shape = tuple(data.draw(st.integers(1, 40 if N == 1 else 9)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    S = rng.standard_normal((width,) * N)
    S = S + np.flip(S)
    S[(width // 2,) * N] -= np.sum(S)
    taps = operators.correlation_taps(S)
    u = rng.standard_normal(shape)
    reach = width // 2
    padded = np.pad(u, reach)
    flat, total = padded.ravel(), 0.0
    for shift, w in taps[1]:
        d = sum(k * s // padded.itemsize for k, s in zip(shift, padded.strides))
        if d > 0:
            x = flat[d:] - flat[:-d]
            total += w * float(np.einsum("i,i->", x, x))
    energy = operators.stencil_energy(u, taps)
    assert _same_bits(np.float64(energy), np.float64(-total))
    quadratic = float(np.sum(u * operators.correlate(u, taps)))
    assert abs(energy - quadratic) <= 1e-12 * np.sum(np.abs(S)) * np.sum(u * u)
    assert operators.stencil_energy(u, taps) == energy
