import json
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finslerheat import cli, flow, norms, solutions
from finslerheat.errors import ConvergenceError, DomainError, SpecValidationError
from finslerheat.grids import blocks, empty_layout

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))
P4 = norms.p_norm(4, 2)
SQUARE = norms.smoothed_polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.05)

NUMERIC_CFG = norms.DualEvalConfig(sphere_samples=4096)
NUMERIC_3D_CFG = norms.DualEvalConfig(sphere_samples=8192, tolerance=1e-6)


def central_difference_gradient(fn, xi: np.ndarray, h: Optional[float] = None) -> np.ndarray:
    """Fallback gradient of a scalar function of one vector, per coordinate.

    Step choice balances truncation against roundoff for O(1) functions.
    """
    xi = np.asarray(xi, dtype=float)
    if h is None:
        h = max(1e-6, 1e-6 * float(np.linalg.norm(xi)))
    g = np.empty_like(xi)
    for i in range(xi.size):
        e = np.zeros_like(xi)
        e[i] = h
        g[i] = (fn(xi + e) - fn(xi - e)) / (2.0 * h)
    return g


def test_euclidean_length():
    assert norms.eval_norm(EUCLID, np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_p2_matches_euclidean():
    p2 = norms.p_norm(2, 2)
    rng = np.random.default_rng(7)
    xi = rng.standard_normal((100, 2))
    np.testing.assert_allclose(norms.eval_norm(p2, xi), norms.eval_norm(EUCLID, xi),
                               atol=1e-12)


def test_ellipse_axis_value():
    assert norms.eval_norm(ELLIPSE, np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_grad_euclidean():
    np.testing.assert_allclose(norms.grad_norm(EUCLID, np.array([3.0, 4.0])),
                               [0.6, 0.8], atol=1e-14)


def test_grad_euler_identity_p4():
    xi = np.array([1.0, 1.0])
    g = norms.grad_norm(P4, xi)
    assert xi @ g == pytest.approx(norms.eval_norm(P4, xi), abs=1e-12)


def test_grad_ellipse_matches_central_differences():
    xi = np.array([1.0, 1.0])
    closed = norms.grad_norm(ELLIPSE, xi)
    fd = central_difference_gradient(
        lambda v: float(norms.eval_norm(ELLIPSE, v)), xi, h=1e-5)
    np.testing.assert_allclose(closed, fd, atol=1e-8)


def test_grad_sign_rule():
    rng = np.random.default_rng(3)
    for spec in (EUCLID, ELLIPSE, P4, norms.p_norm(1.5, 2)):
        xi = rng.standard_normal(2) + 0.1
        np.testing.assert_allclose(norms.grad_norm(spec, -2.5 * xi),
                                   -norms.grad_norm(spec, xi), atol=1e-12)


def test_grad_at_zero_raises():
    with pytest.raises(DomainError):
        norms.grad_norm(EUCLID, np.zeros(2))


@settings(max_examples=30)
@given(p=st.one_of(st.sampled_from([1.2, 1.5, 2.0, 3.0, 7.5]), st.floats(1.01, 12.0)),
       dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_p_norm_gradient_is_s_over_h_to_the_p_minus_1_bit_for_bit(p, dim, seed):
    """grad_norm of a p-norm, s / H^(p-1) from its `_p_terms`, is the
    written-out sign(xi) |xi|^(p-1) / H^(p-1) bit for bit, on vectors whose
    components span e^-9 to e^9 in magnitude, some zero."""
    spec = norms.p_norm(p, dim)
    rng = np.random.default_rng(seed)
    xi = rng.choice([-1.0, 1.0], (1000, dim)) * np.exp(rng.uniform(-9.0, 9.0, (1000, dim)))
    xi[rng.random((1000, dim)) < 0.1] = 0.0
    xi[~xi.any(axis=1), 0] = 1.0
    H = norms.eval_norm(spec, xi)[..., None]
    expected = np.sign(xi) * np.abs(xi) ** (p - 1.0) / H ** (p - 1.0)
    assert np.array_equal(norms.grad_norm(spec, xi).view(np.int64), expected.view(np.int64))


@settings(max_examples=60)
@given(data=st.data())
def test_quadratic_norm_is_einsum_bit_for_bit(data):
    """H of a quadratic family is the square root of
    np.einsum("...i,ij,...j->...", xi, Q, xi), bit for bit and of its type (a
    numpy scalar for one vector), N = 1-3, for random SPD Q with off-diagonal
    entries, one vector, 1-D and 2-D stacks and a block of rows of a layout's
    coordinates: the explicit products sum in einsum's order."""
    N = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    M = rng.standard_normal((N, N))
    M = M @ M.T + 0.1 * np.eye(N)
    spec = norms.ellipse(0.5 * (M + M.T))
    Q = spec._quadratic_form()
    kind = data.draw(st.sampled_from(["vector", "1-D", "2-D", "rows"]))
    if kind == "rows":
        cells = [data.draw(st.integers(4, 12)) for _ in range(N)]
        coords = empty_layout([(-1.0, 2.0)] * N, cells).coords()
        start = data.draw(st.integers(0, len(coords) - 1))
        xi = coords[start:start + data.draw(st.integers(1, 4))]
    else:
        shape = {"vector": (), "1-D": (data.draw(st.integers(1, 40)),),
                 "2-D": (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))}[kind]
        xi = rng.standard_normal(shape + (N,)) * 10.0 ** data.draw(st.integers(-3, 3))
    want = np.sqrt(np.einsum("...i,ij,...j->...", xi, Q, xi))
    got = norms.eval_norm(spec, xi)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_dual_self_euclidean():
    assert norms.dual_norm_eval(EUCLID, np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_dual_p4_against_brute_force():
    # sup over one million angles is the independent oracle
    x = np.array([1.0, 1.0])
    theta = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    brute = np.max(dirs @ x / norms.eval_norm(P4, dirs))
    closed = norms.dual_norm_eval(P4, x)
    assert closed == pytest.approx(2.0 ** 0.75, abs=1e-12)
    assert closed == pytest.approx(brute, abs=1e-6)
    numeric, _ = norms.sphere_maximization(P4, x, NUMERIC_CFG)
    assert numeric == pytest.approx(closed, abs=1e-6)


def test_dual_ellipse_closed_and_numeric():
    x = np.array([1.0, 0.0])
    assert norms.dual_norm_eval(ELLIPSE, x) == pytest.approx(0.5)
    assert norms.sphere_maximization(ELLIPSE, x, NUMERIC_CFG)[0] == pytest.approx(
        0.5, abs=1e-6)


def test_grad_dual_euclidean():
    np.testing.assert_allclose(norms.grad_dual_norm(EUCLID, np.array([0.0, 1.0])),
                               [0.0, 1.0], atol=1e-14)


def test_dual_gradient_on_unit_sphere():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 2))
    g = norms.grad_dual_norm(ELLIPSE, x)
    np.testing.assert_allclose(norms.eval_norm(ELLIPSE, g), 1.0, atol=1e-6)


def test_dual_euler_identity_p3():
    p3 = norms.p_norm(3, 2)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((50, 2))
    g = norms.grad_dual_norm(p3, x)
    np.testing.assert_allclose(np.einsum("ki,ki->k", x, g),
                               norms.dual_norm_eval(p3, x), atol=1e-6)


def test_duality_map_zero_everywhere():
    for spec in (EUCLID, ELLIPSE, P4, SQUARE):
        np.testing.assert_array_equal(norms.duality_map(spec, np.zeros(2)),
                                      np.zeros(2))


def test_duality_map_identity_for_euclidean():
    xi = np.array([3.0, 4.0])
    np.testing.assert_allclose(norms.duality_map(EUCLID, xi), xi, atol=1e-12)


def test_duality_map_dual_norm_identity():
    xi = np.array([1.0, 2.0])
    A = norms.duality_map(P4, xi)
    assert norms.dual_norm_eval(P4, A) == pytest.approx(
        norms.eval_norm(P4, xi), abs=1e-8)


def test_duality_map_quadratic_identity():
    rng = np.random.default_rng(5)
    for spec in (EUCLID, ELLIPSE, P4, norms.p_norm(1.5, 2), SQUARE):
        xi = rng.standard_normal((200, 2))
        A = norms.duality_map(spec, xi)
        H = norms.eval_norm(spec, xi)
        np.testing.assert_allclose(np.einsum("ki,ki->k", A, xi), H**2,
                                   atol=1e-12 * np.max(1 + H**2))


def test_duality_map_continuity_near_zero():
    for spec in (P4, norms.p_norm(1.5, 2)):
        small = 1e-9 * np.array([1.0, -2.0])
        assert np.linalg.norm(norms.duality_map(spec, small)) < 1e-8


@settings(max_examples=30)
@given(p=st.floats(1.1, 6.0), dim=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_duality_jacobian_of_p_norms(p, dim, seed):
    spec = norms.p_norm(p, dim)
    rng = np.random.default_rng(seed)
    # away from the coordinate hyperplanes DA is the derivative of A (second
    # order central differences) and satisfies Euler's identity DA xi = A
    xi = rng.choice([-1.0, 1.0], (16, dim)) * rng.uniform(0.3, 2.0, (16, dim))
    DA = norms.duality_jacobian(spec, xi)
    step = 1e-5
    fd = np.stack([(norms.duality_map(spec, xi + step * e)
                    - norms.duality_map(spec, xi - step * e)) / (2 * step)
                   for e in np.eye(dim)], axis=-1)
    np.testing.assert_allclose(DA, fd, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(np.einsum("kij,kj->ki", DA, xi),
                               norms.duality_map(spec, xi), rtol=1e-12, atol=1e-12)
    # everywhere, axes and the origin included, DA is the Hessian of H^2/2:
    # symmetric and positive semidefinite
    anywhere = rng.standard_normal((64, dim)) * rng.integers(0, 2, (64, dim))
    anywhere[:8] *= 1e-12
    DA = norms.duality_jacobian(spec, anywhere)
    assert np.all(np.isfinite(DA))
    np.testing.assert_array_equal(DA, np.swapaxes(DA, -1, -2))
    worst = np.max(np.abs(DA), axis=(-1, -2))
    assert np.all(np.linalg.eigvalsh(DA)[:, 0] >= -1e-12 * worst)


@pytest.mark.parametrize("spec", [EUCLID, ELLIPSE, SQUARE, norms.euclidean(1),
                                  norms.ellipse([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2],
                                                 [0.1, 0.2, 1.5]])])
def test_duality_jacobian_of_quadratic_families_is_q(spec):
    xi = np.random.default_rng(53).standard_normal((5, 4, spec.dimension))
    xi[0, 0] = 0.0
    DA = norms.duality_jacobian(spec, xi)
    assert DA.shape == xi.shape + (spec.dimension,)
    np.testing.assert_array_equal(DA, np.broadcast_to(spec._quadratic_form(),
                                                      DA.shape))


def test_coercivity_bounds_hold_on_samples():
    rng = np.random.default_rng(17)
    for spec in (EUCLID, ELLIPSE, norms.p_norm(3, 2), SQUARE):
        c1, c2 = norms.coercivity_bounds(spec)
        xi = rng.standard_normal((500, 2))
        A = norms.duality_map(spec, xi)
        n2 = np.einsum("ki,ki->k", xi, xi)
        assert np.all(np.einsum("ki,ki->k", A, xi) >= c1 * n2 - 1e-12)
        assert np.all(np.linalg.norm(A, axis=1) <= c2 * np.sqrt(n2) + 1e-12)


def test_the_p_norm_coercivity_scan_refuses_more_than_three_dimensions():
    # its sphere scan samples directions for N <= 3; the oracle's own scan is
    # refused earlier, by `DualEvalConfig.check_dimension`
    with pytest.raises(DomainError, match="N <= 3"):
        norms.coercivity_bounds(norms.p_norm(3.0, 4))


def test_verify_identities_euclidean_exact():
    rep = norms.verify_identities(EUCLID, 1000, seed=0)
    for value in rep.values():
        assert value <= 1e-12


def test_verify_identities_ellipse_closed_form():
    rep = norms.verify_identities(ELLIPSE, 1000, seed=1)
    for value in rep.values():
        assert value <= 1e-8


def test_verify_identities_p15_grad_on_dual_sphere():
    rep = norms.verify_identities(norms.p_norm(1.5, 2), 1000, seed=2)
    assert rep["grad_on_dual_sphere"] <= 1e-8


def test_duality_equality_attained_at_dual_gradient():
    # |x.xi| = H0(x) H(xi) when xi is the dual-norm gradient
    rng = np.random.default_rng(23)
    for spec in (ELLIPSE, norms.p_norm(3, 2)):
        x = rng.standard_normal((50, 2))
        xi = norms.grad_dual_norm(spec, x)
        lhs = np.abs(np.einsum("ki,ki->k", x, xi))
        rhs = norms.dual_norm_eval(spec, x) * norms.eval_norm(spec, xi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_biduality_recovers_primal():
    # numeric sup of xi.x / H0(x) over directions recovers H(xi)
    rng = np.random.default_rng(29)
    for spec in (ELLIPSE, norms.p_norm(3, 2)):
        dual = norms.dual_spec(spec)
        xi = rng.standard_normal((100, 2))
        H = norms.eval_norm(spec, xi)
        H_bidual, _ = norms.sphere_maximization(dual, xi, NUMERIC_CFG)
        np.testing.assert_allclose(H_bidual, H, rtol=1e-6)


@settings(max_examples=12)
@given(angles=st.lists(st.floats(0.0, np.pi), min_size=2, max_size=4),
       eps=st.floats(0.01, 0.5), seed=st.integers(0, 2**32 - 1))
def test_smoothed_polytope_numeric_dual_matches_quadratic_form(angles, eps, seed):
    # the smoothing is a quadratic norm (Q = D^T D + k eps^2 I); its default
    # closed-form dual, the ellipse of Q^-1, must agree with the sphere
    # maximizer, which knows nothing about Q
    D = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    assume(np.linalg.matrix_rank(D) == 2)
    spec = norms.smoothed_polytope(D, eps)
    direct = norms.NormSpec("smoothed_polytope", 2, directions=spec.directions,
                            epsilon=eps)
    assert norms.dual_spec(direct) is not None
    x = np.random.default_rng(seed).standard_normal((8, 2))
    numeric = np.array([norms.sphere_maximization(spec, row, NUMERIC_CFG)[0]
                        for row in x])
    np.testing.assert_allclose(norms.dual_norm_eval(direct, x), numeric, rtol=1e-9)


@pytest.mark.parametrize("spec", [EUCLID, ELLIPSE, P4, SQUARE,
                                  norms.ellipse(np.diag([4.0, 1.0, 2.25]))])
def test_default_dual_never_maximizes(spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("default dual evaluation reached the maximizer")
    monkeypatch.setattr(norms, "sphere_maximization", refuse)
    x = np.random.default_rng(43).standard_normal((4, 3, spec.dimension))
    norms.dual_norm_eval(spec, x)
    norms.grad_dual_norm(spec, x)
    norms.grad_dual_norm(spec, x[0, 0])
    norms.verify_identities(spec, 5)


def test_homogeneity_property():
    rng = np.random.default_rng(37)
    for spec in (EUCLID, ELLIPSE, P4, SQUARE, norms.p_norm(1.5, 2)):
        xi = rng.standard_normal((200, 2))
        a = rng.uniform(-3, 3, 200)
        H = norms.eval_norm(spec, xi)
        Ha = norms.eval_norm(spec, a[:, None] * xi)
        assert np.max(np.abs(Ha - np.abs(a) * H) / (1 + H)) <= 1e-12


def test_three_dimensional_numeric_dual():
    spec = norms.ellipse(np.diag([4.0, 1.0, 2.25]))
    rng = np.random.default_rng(41)
    for _ in range(5):
        x = rng.standard_normal(3)
        numeric, _ = norms.sphere_maximization(spec, x, NUMERIC_3D_CFG)
        closed = norms.dual_norm_eval(spec, x)
        assert numeric == pytest.approx(closed, rel=1e-5)


@settings(max_examples=15)
@given(dim=st.sampled_from([1, 2, 3]), p=st.one_of(st.none(), st.floats(1.1, 6.0)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_oracle_matches_closed_form_and_single_rows(dim, p, seed, block):
    # p=None draws an ellipse: any SPD matrix for N <= 2, a diagonal one with
    # axis ratios up to 2 for N = 3, where the alternating tangent search
    # reaches 1e-5 only on mildly skewed level sets
    rng = np.random.default_rng(seed)
    if p is not None:
        spec = norms.p_norm(p, dim)
    elif dim == 3:
        spec = norms.ellipse(np.diag(rng.uniform(1.0, 4.0, 3)))
    else:
        A = rng.standard_normal((dim, dim))
        spec = norms.ellipse(A @ A.T + 0.3 * np.eye(dim))
    cfg, rtol = (NUMERIC_3D_CFG, 1e-5) if dim == 3 else (NUMERIC_CFG, 1e-12)
    edge = blocks(2 * block.size, len(norms._direction_set(dim, cfg.sphere_samples)))[0].stop
    x = rng.standard_normal((edge + 3, dim)) * np.exp(rng.uniform(-3, 3, (edge + 3, 1)))
    zero = rng.integers(0, len(x), 2)
    x[zero] = 0.0
    live = np.any(x != 0.0, axis=1)
    H0, xi = norms.sphere_maximization(spec, x, cfg)
    if dim == 1:   # no sampling error: H0(x) = |x| / H(1)
        np.testing.assert_array_equal(
            H0[live], np.abs(x[live, 0]) / norms.eval_norm(spec, np.ones(1)))
        rtol = 1e-15
    np.testing.assert_allclose(H0[live], norms.dual_norm_eval(spec, x[live]), rtol=rtol)
    np.testing.assert_array_equal(H0[~live], 0.0)
    np.testing.assert_array_equal(xi[~live], 0.0)
    # rows on both sides of the first block edge, the zero rows and a sample
    rows = np.unique(np.r_[0, edge - 1, edge, len(x) - 1, zero,
                           rng.integers(0, len(x), 16)])
    single = np.array([norms.sphere_maximization(spec, x[i], cfg)[0] for i in rows])
    np.testing.assert_allclose(single, H0[rows], rtol=1e-15, atol=0.0)
    # the closed-form gradient is undefined at a zero point, alone or in a batch
    for zeros in (np.zeros(dim), x):
        with pytest.raises(DomainError, match="grad of the dual norm is undefined"):
            norms.grad_dual_norm(spec, zeros)


def _blocks_of_2_18_entries(n: int, size: int) -> list:
    """The sphere scan's blocks before `grids.blocks` cut them: 2^18
    point-direction pairs each."""
    rows = max(1, (1 << 18) // size)
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), p=st.one_of(st.none(), st.floats(1.2, 5.0)),
       samples=st.integers(16, 4096), extra=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_sphere_scan_keeps_the_bits_of_the_2_18_entry_scan(dim, p, samples, extra,
                                                                   seed, block):
    """`sphere_maximization` scans a `grids.blocks` block of points at a
    time; its (H0, grad H0) keep the bits of the scan in blocks of 2^18
    point-direction pairs, on at least two blocks and with zero points."""
    rng = np.random.default_rng(seed)
    spec = norms.p_norm(p, dim) if p is not None else norms.ellipse(
        np.diag(rng.uniform(1.0, 4.0, dim)))
    cfg = norms.DualEvalConfig(sphere_samples=samples, tolerance=1e-2)
    rows = blocks(2 * block.size, samples)[0].stop
    x = rng.standard_normal((2 * rows + extra + 1, dim))
    x[rng.integers(0, len(x), 2)] = 0.0
    got = norms.sphere_maximization(spec, x, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norms, "blocks", _blocks_of_2_18_entries)
        want = norms.sphere_maximization(spec, x, cfg)
    assert len(blocks(len(x), samples)) >= 2
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_a_warm_sphere_scan_peaks_under_six_blocks(work, block):
    """The oracle of the benchmark's verify-norms-numeric job (the ellipse
    diag(4, 1), 2048 directions) on 300 points peaks under six blocks of
    `block.size` values (3.91 with numpy 2.4): the scan's products and
    ratios take one `grids.blocks` block of points at a time.  Blocks of
    2^18 point-direction pairs took 65.8."""
    x = np.random.default_rng(2).standard_normal((300, 2))
    first = norms.sphere_maximization(ELLIPSE, x)
    again = work(lambda: norms.sphere_maximization(ELLIPSE, x), count=False, cold=False)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again.result))
    assert again.peak < 6 * block.size * 8


@pytest.mark.parametrize("spec, samples", [
    (P4, 4), (norms.ellipse(np.diag([4.0, 1.0, 2.25])), 64)])
def test_numeric_dual_raises_once_for_the_worst_gap(spec, samples):
    # the gap is set by the sample count alone, so a coarse scan cannot
    # reach the default tolerance
    cfg = norms.DualEvalConfig(sphere_samples=samples)
    x = np.random.default_rng(59).standard_normal((40, spec.dimension))
    x[0] = 0.0     # a zero row is exact and never the one reported
    H0, xi = norms.sphere_maximization(spec, x[0], cfg)
    assert H0 == 0.0 and not np.any(xi)
    single = []
    for row in x[1:]:
        with pytest.raises(ConvergenceError) as err:
            norms.sphere_maximization(spec, row, cfg)
        single.append((err.value.gap, err.value.best))
    worst = int(np.argmax([gap for gap, _ in single]))
    with pytest.raises(ConvergenceError) as err:
        norms.sphere_maximization(spec, x, cfg)
    assert (err.value.gap, err.value.best) == single[worst]


@pytest.mark.parametrize("spec, cfg", [(P4, NUMERIC_CFG), (SQUARE, NUMERIC_CFG),
                                       (norms.ellipse(np.diag([4.0, 1.0, 2.25])),
                                        NUMERIC_3D_CFG)])
def test_numeric_identity_suite_maximizes_each_point_set_once(monkeypatch, spec, cfg):
    # the sample points x and the gradients grad H(xi): H0 and grad H0 of
    # each come from one maximization
    rows, maximize = [], norms.sphere_maximization

    def counting(spec, x, cfg):
        rows.append(len(x))
        return maximize(spec, x, cfg)
    monkeypatch.setattr(norms, "sphere_maximization", counting)
    norms.verify_identities(spec, 50, cfg, seed=3)
    assert rows == [50, 50]


@pytest.mark.parametrize("bad", [1.0, float("inf"), 0.5])
def test_p_norm_endpoints_rejected(bad):
    with pytest.raises(SpecValidationError):
        norms.p_norm(bad, 2)


def test_invalid_ellipse_rejected():
    with pytest.raises(SpecValidationError):
        norms.ellipse(np.array([[1.0, 2.0], [2.0, 1.0]]))   # indefinite
    with pytest.raises(SpecValidationError):
        norms.ellipse(np.array([[1.0, 0.5], [0.0, 1.0]]))   # not symmetric


def test_polytope_needs_spanning_directions():
    with pytest.raises(SpecValidationError):
        norms.smoothed_polytope(np.array([[1.0, 0.0]]), 0.05)
    with pytest.raises(SpecValidationError):
        norms.smoothed_polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.0)


@pytest.mark.parametrize("params", [
    {"family": "smoothed_polytope", "epsilon": 0.1},
    {"family": "smoothed_polytope", "epsilon": 0.1, "directions": ((1.0, 0.0), (0.0,))},
    {"family": "ellipse", "matrix": ((4.0, 0.0), (0.0,))},
], ids=["polytope-without-directions", "polytope-ragged-directions", "ellipse-ragged-matrix"])
def test_malformed_rows_are_spec_errors(params):
    # these raised IndexError and numpy's inhomogeneous-shape ValueError
    with pytest.raises(SpecValidationError, match="must be rows of 2 numbers"):
        norms.NormSpec(dimension=2, **params)


@pytest.mark.parametrize("build, name", [
    (lambda: norms.smoothed_polytope(np.eye(2), float("nan")), "epsilon"),
    (lambda: norms.smoothed_polytope(np.eye(2), float("inf")), "epsilon"),
    (lambda: norms.ellipse(np.array([[4.0, 0.0], [0.0, float("inf")]])), "matrix"),
    (lambda: solutions.SolutionSpec("blowup", EUCLID, lam=float("nan")), "lam"),
    (lambda: solutions.SolutionSpec("barenblatt", EUCLID, m=float("nan"), C=1.0), "m > 1"),
    (lambda: solutions.SolutionSpec("barenblatt", EUCLID, m=2.0, C=float("inf")), "C > 0"),
    (lambda: solutions.SolutionSpec("talenti", norms.euclidean(3), p=2.0, A=float("nan"),
                                    B=1 / 3), "A > 0"),
    (lambda: norms.DualEvalConfig(sphere_samples=2.5), "sphere_samples"),
    (lambda: norms.DualEvalConfig(sphere_samples=float("nan")), "sphere_samples"),
    (lambda: flow.InnerSolverConfig(max_iters=2.5), "max_iters"),
    (lambda: solutions.SolutionSpec("singular_poly", EUCLID, m_order=1.5), "m_order"),
    (lambda: solutions.SolutionSpec("singular_poly", EUCLID, m_order=float("inf")), "m_order"),
    (lambda: solutions.SolutionSpec("singular_poly", EUCLID, m_order=float("nan")), "m_order"),
    (lambda: norms.NormSpec("euclidean", 2.5), "dimension"),
    (lambda: norms.NormSpec("euclidean", True), "dimension"),
    (lambda: norms.NormSpec("euclidean", float("nan")), "dimension"),
    (lambda: norms.NormSpec("euclidean", "2"), "dimension"),
    (lambda: norms.NormSpec("p_norm", 2, {"p": 3}), "1 < p"),
    (lambda: norms.NormSpec("octagon", 2), "octagon"),
    (lambda: norms.DualEvalConfig(tolerance=0), "tolerance"),
], ids=["polytope-epsilon-nan", "polytope-epsilon-inf", "ellipse-entry-inf", "blowup-lam-nan",
        "barenblatt-m-nan", "barenblatt-c-inf", "talenti-a-nan", "sphere-samples-2.5",
        "sphere-samples-nan", "max-iters-2.5", "m-order-1.5", "m-order-inf", "m-order-nan",
        "dimension-2.5", "dimension-true", "dimension-nan", "dimension-string", "p-dict",
        "family-unknown", "dual-tolerance-0"])
def test_specs_refuse_non_finite_and_non_integral_values_by_name(build, name):
    # each was accepted: the norm evaluated to inf or NaN, the solution
    # families to NaN, and the counts ran as floats (m_order 1.5 and inf
    # failed in singular_poly_check on a slice index); a dimension of 2.5,
    # True or NaN built a norm, and "2" or a p that is no number raised a
    # bare TypeError.  The CLI's readers refuse them before any spec is
    # built.  The last two rows, an unknown family and a zero oracle
    # tolerance, were refused already
    with pytest.raises(SpecValidationError, match=name):
        build()


def test_sample_counts_are_bounded_before_any_allocation(monkeypatch):
    # verify_identities and the oracle's scan allocate arrays of the sample
    # count times N: each count is refused past MAX_NODES, here 64
    monkeypatch.setattr(norms, "MAX_NODES", 64)
    assert set(norms.verify_identities(EUCLID, 64)) >= {"duality_inequality"}
    assert norms.DualEvalConfig(sphere_samples=64).sphere_samples == 64
    with pytest.raises(SpecValidationError, match="samples"):
        norms.verify_identities(EUCLID, 65)
    with pytest.raises(SpecValidationError, match="sphere_samples"):
        norms.DualEvalConfig(sphere_samples=65)


def test_an_integral_float_sample_count_reads_as_an_int():
    # 20.0 samples are 20 (the float failed in the sampler with "'float'
    # object cannot be interpreted as an integer")
    assert norms.verify_identities(EUCLID, 20.0) == norms.verify_identities(EUCLID, 20)


def test_dimension_mismatch_raises():
    with pytest.raises(DomainError):
        norms.eval_norm(EUCLID, np.array([1.0, 2.0, 3.0]))


def test_json_round_trip():
    literals = [
        (EUCLID, '{"family": "euclidean", "params": {}, "dimension": 2}'),
        (ELLIPSE, '{"family": "ellipse", "params": {"matrix": [[4, 0], [0, 1]]},'
                  ' "dimension": 2}'),
        (P4, '{"family": "p_norm", "params": {"p": 4}, "dimension": 2}'),
        (SQUARE, '{"family": "smoothed_polytope", "dimension": 2, "params":'
                 ' {"directions": [[1, 0], [0, 1]], "epsilon": 0.05}}'),
    ]
    xi = np.random.default_rng(43).standard_normal((20, 2))
    for spec, text in literals:
        again = cli._norm(json.loads(text), "norm")
        assert again == spec and hash(again) == hash(spec)
        np.testing.assert_array_equal(norms.eval_norm(again, xi),
                                      norms.eval_norm(spec, xi))


def test_midpoint_convexity_property():
    rng = np.random.default_rng(47)
    for spec in (EUCLID, ELLIPSE, P4, SQUARE, norms.p_norm(1.5, 2)):
        xi = rng.standard_normal((300, 2))
        eta = rng.standard_normal((300, 2))
        mid = norms.eval_norm(spec, 0.5 * (xi + eta))
        avg = 0.5 * (norms.eval_norm(spec, xi) + norms.eval_norm(spec, eta))
        assert np.all(mid <= avg + 1e-12)
