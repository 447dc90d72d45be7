from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finslerheat import norms
from finslerheat.errors import ConvergenceError, DomainError, SpecValidationError

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))
P4 = norms.p_norm(4, 2)
SQUARE = norms.smoothed_polytope(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.05)

NUMERIC_CFG = norms.DualEvalConfig(method="sphere_maximization",
                                   sphere_samples=4096, refinement_iters=48)
NUMERIC_3D_CFG = norms.DualEvalConfig(method="sphere_maximization",
                                      sphere_samples=8192, refinement_iters=40,
                                      tolerance=1e-6)


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
    numeric = norms.dual_norm_eval(P4, x, NUMERIC_CFG)
    assert numeric == pytest.approx(closed, abs=1e-6)


def test_dual_ellipse_closed_and_numeric():
    x = np.array([1.0, 0.0])
    assert norms.dual_norm_eval(ELLIPSE, x) == pytest.approx(0.5)
    assert norms.dual_norm_eval(ELLIPSE, x, NUMERIC_CFG) == pytest.approx(0.5, abs=1e-6)


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
        H_bidual = norms.dual_norm_eval(dual, xi, NUMERIC_CFG)
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
    numeric = np.array([norms.dual_norm_eval(spec, row, NUMERIC_CFG) for row in x])
    np.testing.assert_allclose(norms.dual_norm_eval(direct, x), numeric, rtol=1e-9)


@pytest.mark.parametrize("spec", [EUCLID, ELLIPSE, P4, SQUARE,
                                  norms.ellipse(np.diag([4.0, 1.0, 2.25]))])
def test_default_dual_never_maximizes(spec, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("default dual evaluation reached the maximizer")
    monkeypatch.setattr(norms, "_dual_maximize", refuse)
    x = np.random.default_rng(43).standard_normal((4, 3, spec.dimension))
    for cfg in (None, norms.DualEvalConfig("auto")):
        norms.dual_norm_eval(spec, x, cfg)
        norms.grad_dual_norm(spec, x, cfg)
        norms.grad_dual_norm(spec, x[0, 0], cfg)


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
        numeric = norms.dual_norm_eval(spec, x, NUMERIC_3D_CFG)
        closed = norms.dual_norm_eval(spec, x)
        assert numeric == pytest.approx(closed, rel=1e-5)


@settings(max_examples=15)
@given(dim=st.sampled_from([1, 2, 3]), p=st.one_of(st.none(), st.floats(1.1, 6.0)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_oracle_matches_closed_form_and_single_rows(dim, p, seed):
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
    block = norms._SCAN_ENTRIES // len(norms._direction_set(dim, cfg.sphere_samples))
    x = rng.standard_normal((block + 3, dim)) * np.exp(rng.uniform(-3, 3, (block + 3, 1)))
    zero = rng.integers(0, len(x), 2)
    x[zero] = 0.0
    live = np.any(x != 0.0, axis=1)
    H0 = norms.dual_norm_eval(spec, x, cfg)
    xi = norms.grad_dual_norm(spec, x, cfg)
    if dim == 1:   # no sampling error: H0(x) = |x| / H(1)
        np.testing.assert_array_equal(
            H0[live], np.abs(x[live, 0]) / norms.eval_norm(spec, np.ones(1)))
        rtol = 1e-15
    np.testing.assert_allclose(H0[live], norms.dual_norm_eval(spec, x[live]), rtol=rtol)
    np.testing.assert_array_equal(H0[~live], 0.0)
    np.testing.assert_array_equal(xi[~live], 0.0)
    # rows on both sides of the first block edge, the zero rows and a sample
    rows = np.unique(np.r_[0, block - 1, block, len(x) - 1, zero,
                           rng.integers(0, len(x), 16)])
    single = np.array([norms.dual_norm_eval(spec, x[i], cfg) for i in rows])
    np.testing.assert_allclose(single, H0[rows], rtol=1e-15, atol=0.0)
    with pytest.raises(DomainError):
        norms.grad_dual_norm(spec, np.zeros(dim), cfg)


@pytest.mark.parametrize("spec, samples", [
    (P4, 2048), (norms.ellipse(np.diag([4.0, 1.0, 2.25])), 64)])
def test_numeric_dual_raises_once_for_the_worst_gap(spec, samples):
    # one golden-section iteration cannot reach the default tolerance; the
    # N = 3 gap is set by the sample count alone, so it takes a coarse scan
    cfg = norms.DualEvalConfig(method="sphere_maximization", sphere_samples=samples,
                               refinement_iters=1)
    x = np.random.default_rng(59).standard_normal((40, spec.dimension))
    x[0] = 0.0     # a zero row is exact and never the one reported
    assert norms.dual_norm_eval(spec, x[0], cfg) == 0.0
    single = []
    for row in x[1:]:
        with pytest.raises(ConvergenceError) as err:
            norms.dual_norm_eval(spec, row, cfg)
        single.append((err.value.gap, err.value.best))
    worst = int(np.argmax([gap for gap, _ in single]))
    for fn in (norms.dual_norm_eval, norms.grad_dual_norm):
        with pytest.raises(ConvergenceError) as err:
            fn(spec, x, cfg)
        assert (err.value.gap, err.value.best) == single[worst]


@pytest.mark.parametrize("spec, cfg", [(P4, NUMERIC_CFG), (SQUARE, NUMERIC_CFG),
                                       (norms.ellipse(np.diag([4.0, 1.0, 2.25])),
                                        NUMERIC_3D_CFG)])
def test_numeric_identity_suite_maximizes_each_point_set_once(monkeypatch, spec, cfg):
    # the sample points x and the gradients grad H(xi): H0 and grad H0 of
    # each come from one maximization
    rows, maximize = [], norms._dual_maximize

    def counting(spec, X, cfg):
        rows.append(len(X))
        return maximize(spec, X, cfg)
    monkeypatch.setattr(norms, "_dual_maximize", counting)
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


def test_dimension_mismatch_raises():
    with pytest.raises(DomainError):
        norms.eval_norm(EUCLID, np.array([1.0, 2.0, 3.0]))


def test_json_round_trip():
    for spec in (EUCLID, ELLIPSE, P4, SQUARE):
        again = norms.NormSpec.from_dict(spec.to_dict())
        rng = np.random.default_rng(43)
        xi = rng.standard_normal((20, 2))
        np.testing.assert_allclose(norms.eval_norm(again, xi),
                                   norms.eval_norm(spec, xi), atol=1e-15)


def test_midpoint_convexity_property():
    rng = np.random.default_rng(47)
    for spec in (EUCLID, ELLIPSE, P4, SQUARE, norms.p_norm(1.5, 2)):
        xi = rng.standard_normal((300, 2))
        eta = rng.standard_normal((300, 2))
        mid = norms.eval_norm(spec, 0.5 * (xi + eta))
        avg = 0.5 * (norms.eval_norm(spec, xi) + norms.eval_norm(spec, eta))
        assert np.all(mid <= avg + 1e-12)
