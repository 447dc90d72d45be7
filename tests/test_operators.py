import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerheat import norms, operators
from finslerheat.errors import OutOfRangeError, SpecValidationError
from finslerheat.grids import RadialProfile, empty_layout, grid_from_function
from finslerheat.operators import (FaceKernel, check_linearity, check_radial_reduction,
                                   finsler_laplacian, interior_mask,
                                   lift_radial, radial_operator_values)

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))

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
