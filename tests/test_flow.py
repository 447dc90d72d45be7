from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.sparse.linalg import LinearOperator, cg

from finslerheat import flow, norms, operators
from finslerheat.errors import ConvergenceError, SpecValidationError, StabilityError
from finslerheat.flow import (FlowProblem, InnerSolverConfig, ball_layout,
                              ball_mask, energy, energy_gradient,
                              explicit_step, nested_domain_study,
                              prox_homogeneity_defect, proximal_step,
                              scaling_check, solve, weighted_monitors)
from finslerheat.grids import GridFunction, RadialProfile, empty_layout, observed_order
from finslerheat.measures import measure_from_atoms, measure_from_radial
from finslerheat.norms import duality_map
from finslerheat.operators import (FaceKernel, apply_operator, constant_stencil,
                                   finsler_laplacian, interior_mask, lift_radial)

EUCLID = norms.euclidean(2)
ELLIPSE = norms.ellipse(np.diag([4.0, 1.0]))


def _ball_problem(spec, radius, spacing, profile_fn, r_max=16.0, **kw):
    lay = ball_layout(spec, radius, spacing)
    prof = RadialProfile.from_function(profile_fn, r_max, 2049)
    datum = lift_radial(prof, spec, lay)
    return FlowProblem(norm=spec, radius=radius, datum=datum, **kw), prof


def test_ball_layout_hugs_the_ball():
    lay = ball_layout(ELLIPSE, 6.0, 6 / 128)
    assert lay.box == ((-12.0, 12.0), (-6.0, 6.0))
    assert lay.resolution == (512, 256)


def test_energy_of_zero_field():
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    assert energy(lay, EUCLID) == 0.0


def test_energy_second_order_on_the_disk():
    # lift of max(1 - r^2, 0)^2 on the unit disk: (1/2) int |grad u|^2 dx
    # = 2 pi / 3; the default reading converges at second order
    errs, spacings = [], [1 / 32, 1 / 64, 1 / 128]
    for h in spacings:
        lay = ball_layout(EUCLID, 1.0, h)
        mask = ball_mask(EUCLID, lay, 1.0)
        r2 = np.sum(lay.coords() ** 2, axis=-1)
        E = energy(lay.with_values(np.maximum(1.0 - r2, 0.0) ** 2), EUCLID, mask)
        errs.append(abs(E - 2.0 * np.pi / 3.0))
    orders = [observed_order(errs[i:i + 2], spacings[i:i + 2]) for i in range(2)]
    assert min(orders) >= 1.8, (errs, orders)


def test_energy_reads_only_masked_nodes():
    # the field is clamped to zero off the mask first, so values there
    # cannot change the reading, bit for bit
    rng = np.random.default_rng(2)
    for spec in (ELLIPSE, norms.p_norm(3, 2), norms.ellipse(np.diag([4.0, 1.0, 2.25]))):
        lay = ball_layout(spec, 1.0, 1 / 8)
        mask = ball_mask(spec, lay, 1.0)
        u = rng.standard_normal(lay.values.shape)
        off = np.where(mask, 0.0, rng.standard_normal(u.shape))
        E = energy(lay.with_values(u), spec, mask)
        assert E > 0.0
        assert energy(lay.with_values(u + off), spec, mask) == E


def test_energy_scales_quadratically():
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 3.0, 513)
    lay = ball_layout(EUCLID, 1.0, 1 / 32)
    mask = ball_mask(EUCLID, lay, 1.0)
    u = lift_radial(prof, EUCLID, lay)
    E1 = energy(u, EUCLID, mask)
    E3 = energy(u.with_values(3.0 * u.values), EUCLID, mask)
    assert E3 == pytest.approx(9.0 * E1, rel=1e-13)


@pytest.mark.parametrize("spec", [EUCLID, ELLIPSE, norms.p_norm(3, 2),
                                  norms.p_norm(1.5, 2)])
def test_energy_gradient_is_exact_adjoint(spec):
    rng = np.random.default_rng(5)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    u = np.where(mask, rng.standard_normal(lay.values.shape), 0.0)
    d = np.where(mask, rng.standard_normal(u.shape), 0.0)
    g = np.where(mask, energy_gradient(u, spec, lay.spacing), 0.0)
    eps = 1e-6
    fd = (energy(lay.with_values(u + eps * d), spec, mask)
          - energy(lay.with_values(u - eps * d), spec, mask)) / (2 * eps)
    assert np.sum(g * d) * lay.cell_volume == pytest.approx(fd, rel=1e-7)


@settings(max_examples=40)
@given(p=st.floats(1.5, 4.0), N=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_newton_hessian_is_the_symmetric_derivative_of_the_gradient(p, N, seed):
    # a positive ramp plus noise keeps every face-gradient component away
    # from 0, where the p < 2 duality map is not differentiable, or at 0
    # for all perturbations (faces whose nodes are all outside the grid)
    spec = norms.p_norm(p, N)
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(2, 7, N))
    spacing = tuple(rng.uniform(0.1, 2.0, N))
    w = 1.0 + np.tensordot(rng.uniform(1.0, 2.0, N), np.indices(shape), 1) \
        + rng.uniform(-0.1, 0.1, shape)
    x, y = rng.standard_normal((2,) + shape)
    hessian = flow._newton_hessian(w, spec, spacing, flow._face_state(w, spec, spacing)[1])
    Hx, Hy = hessian(x), hessian(y)
    assert abs(np.sum(x * Hy) - np.sum(Hx * y)) \
        <= 1e-12 * np.sqrt(np.sum(x * x) * np.sum(Hy * Hy))
    # second order: the same constant bounds the error at eps and eps / 10
    for eps in (1e-3, 1e-4):
        fd = (energy_gradient(w + eps * x, spec, spacing)
              - energy_gradient(w - eps * x, spec, spacing)) / (2 * eps)
        assert np.max(np.abs(fd - Hx)) <= 10 * eps**2 * np.max(np.abs(Hx))


# The reference the fused Newton Hessian must reproduce bit for bit: the
# face sum (1/N) sum_axis G^T (DA G x) over the np.pad face gradient, with
# DA from one closed-form expression and applied by einsum, as the solver
# computed it before the face state and the fused kernel.

def _reference_face_gradient(values, spacing, axis):
    N = values.ndim
    idx = lambda cuts, rest=slice(1, -1): tuple(cuts.get(m, rest) for m in range(N))
    P = np.pad(values, 2)
    G = np.empty((N,) + tuple(n + 2 - (m == axis) for m, n in enumerate(values.shape)))
    for k, h in enumerate(spacing):
        if k == axis:
            np.subtract(P[idx({k: slice(2, -1)})], P[idx({k: slice(1, -2)})], out=G[k])
            G[k] *= 1.0 / h
        else:
            C = P[idx({k: slice(2, None)})] - P[idx({k: slice(None, -2)})]
            np.add(C[idx({axis: slice(1, None)}, slice(None))],
                   C[idx({axis: slice(None, -1)}, slice(None))], out=G[k])
            G[k] *= 0.25 / h
    return np.moveaxis(G, 0, -1)


def _reference_face_form(values, spacing, flux):
    N = values.ndim
    idx = lambda cuts, rest=slice(1, -1): tuple(cuts.get(m, rest) for m in range(N))
    whole = slice(None)

    def adjoint(F, axis):
        def term(k, h):
            if k == axis:
                return (1.0 / h) * (F[..., k][idx({k: slice(None, -1)})]
                                    - F[..., k][idx({k: slice(1, None)})])
            D = (F[..., k][idx({axis: whole, k: slice(None, -2)})]
                 - F[..., k][idx({axis: whole, k: slice(2, None)})])
            return (0.25 / h) * (D[idx({axis: slice(None, -1)}, whole)]
                                 + D[idx({axis: slice(1, None)}, whole)])
        return sum(term(k, h) for k, h in enumerate(spacing))

    return sum(adjoint(flux(axis, _reference_face_gradient(values, spacing, axis)), axis)
               for axis in range(N)) / N


def _reference_duality_map(p, xi):
    H = np.sum(np.abs(xi) ** p, axis=-1) ** (1.0 / p)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.sign(xi) * np.abs(xi) ** (p - 1.0) * H[..., None] ** (2.0 - p)
    return np.where(H[..., None] > 0.0, A, 0.0)


def _reference_duality_jacobian(p, xi):
    N = xi.shape[-1]
    H = (np.sum(np.abs(xi) ** p, axis=-1) ** (1.0 / p))[..., None]
    floor = np.finfo(float).eps if p < 2.0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.sign(xi) * np.abs(xi) ** (p - 1.0) / H ** (p - 1.0)
        DA = (2.0 - p) * (g[..., :, None] * g[..., None, :])
        DA[..., range(N), range(N)] += ((p - 1.0) * H ** (2.0 - p)
                                        * np.maximum(np.abs(xi), floor * H) ** (p - 2.0))
    return np.where(H[..., None] > 0.0, DA, 0.0)


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=80, deadline=None)
@given(p=st.floats(1.2, 4.0), N=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(p=1.5, N=2, seed=0)
@example(p=3.0, N=3, seed=0)
def test_face_state_and_fused_hessian_match_the_reference_bit_for_bit(p, N, seed):
    rng = np.random.default_rng(seed)
    spec = norms.p_norm(p, N)
    shape = tuple(int(n) for n in rng.integers(2, 9, N))
    spacing = tuple(rng.uniform(0.01, 10.0, N))
    mask = rng.random(shape) < 0.7
    # masked fields with plateaus: faces with H = 0 and components = 0
    w = np.where(mask, np.round(rng.standard_normal(shape), 1), 0.0)
    x = np.where(mask, rng.standard_normal(shape), 0.0)
    gradient, state = flow._face_state(w, spec, spacing)
    for axis, (xi, H, s) in enumerate(state):
        ref_xi = _reference_face_gradient(w, spacing, axis)
        assert _same_bits(xi, ref_xi)
        A = norms._p_flux(spec, H, s)
        assert _same_bits(A, duality_map(spec, xi))
        assert _same_bits(A, _reference_duality_map(p, ref_xi))
        ref_DA = _reference_duality_jacobian(p, ref_xi)
        assert _same_bits(norms.duality_jacobian(spec, xi), ref_DA)
        for (i, j), DA in norms._p_jacobian(spec, xi, H, s).items():
            assert _same_bits(DA, ref_DA[..., i, j]) and _same_bits(DA, ref_DA[..., j, i])
    assert _same_bits(gradient, _reference_face_form(w, spacing, lambda axis, xi:
                                                     _reference_duality_map(p, xi)))
    assert _same_bits(gradient, energy_gradient(w, spec, spacing))
    jac = [_reference_duality_jacobian(p, _reference_face_gradient(w, spacing, axis))
           for axis in range(N)]
    reference = _reference_face_form(x, spacing, lambda axis, xi: np.einsum(
        "...ij,...j->...i", jac[axis], xi))
    hessian = flow._newton_hessian(w, spec, spacing, state)
    assert _same_bits(hessian(x), reference)
    assert _same_bits(hessian(x), reference)   # its buffers hold nothing over


def _counting(calls, key, fn):
    """fn, adding 1 to calls[key] on each call."""
    def wrapped(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_newton_hessians_read_the_face_state_of_the_accepted_iterate(monkeypatch):
    """Every Newton Hessian of a p = 1.5 prox whose line search backtracks
    equals one built from scratch at its iterate, and its build evaluates
    no face gradient and no norm of its own."""
    spec = norms.p_norm(1.5, 2)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    v = lay.with_values(np.exp(-2.0 * norms.dual_norm_eval(spec, lay.coords()) ** 2))
    calls = {"face": 0, "norm": 0}
    monkeypatch.setattr(FaceKernel, "gradients",
                        _counting(calls, "face", FaceKernel.gradients))
    monkeypatch.setattr(norms, "eval_norm", _counting(calls, "norm", norms.eval_norm))
    evaluations, builds = [0], []
    face_state, newton_hessian = flow._face_state, flow._newton_hessian

    def evaluate(*args, **kwargs):
        evaluations[-1] += 1
        return face_state(*args, **kwargs)

    def build(w, spec, spacings, state):
        before = dict(calls)
        hessian = newton_hessian(w, spec, spacings, state)
        builds.append((w.copy(), hessian, calls == before, evaluations[-1]))
        evaluations.append(0)
        return hessian

    monkeypatch.setattr(flow, "_face_state", evaluate)
    monkeypatch.setattr(flow, "_newton_hessian", build)
    flow._prox_stepper(spec, lay.spacing, mask, 1e-2, InnerSolverConfig(tolerance=1e-8))(v.values)
    monkeypatch.undo()

    # evaluations before each build: the start, then every trial point of
    # the previous line search; more than one means it cut or halved
    assert len(builds) > 2 and max(n for *_, n in builds) >= 2
    rng = np.random.default_rng(0)
    for w, hessian, no_own_calls, _ in builds:
        assert no_own_calls
        masked = np.where(mask, w, 0.0)
        fresh = flow._newton_hessian(masked, spec, lay.spacing,
                                     flow._face_state(masked, spec, lay.spacing)[1])
        for _ in range(2):
            x = np.where(mask, rng.standard_normal(w.shape), 0.0)
            assert _same_bits(hessian(x), fresh(x))


def test_each_p_norm_gradient_evaluation_builds_one_face_kernel(monkeypatch):
    """A p-norm prox builds one FaceKernel per gradient evaluation (its
    `_face_state`) and one per Newton Hessian, and no other; the energy
    gradient builds one."""
    spec = norms.p_norm(3, 2)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    v = lay.with_values(np.exp(-2.0 * norms.dual_norm_eval(spec, lay.coords()) ** 2))
    calls = {"kernel": 0, "evaluation": 0, "build": 0}
    monkeypatch.setattr(FaceKernel, "__init__", _counting(calls, "kernel", FaceKernel.__init__))
    monkeypatch.setattr(flow, "_face_state", _counting(calls, "evaluation", flow._face_state))
    monkeypatch.setattr(flow, "_newton_hessian", _counting(calls, "build", flow._newton_hessian))
    flow._prox_stepper(spec, lay.spacing, mask, 1e-2, InnerSolverConfig(tolerance=1e-8))(v.values)
    assert calls["evaluation"] > 2 and calls["build"] > 1
    assert calls["kernel"] == calls["evaluation"] + calls["build"]
    calls["kernel"] = 0
    energy_gradient(v.values, spec, lay.spacing)
    assert calls["kernel"] == 1


def _quadratic_spec(data, N):
    """euclidean, a diagonal ellipse, an off-diagonal SPD ellipse or a
    smoothed polytope in dimension N."""
    kind = data.draw(st.sampled_from(["euclidean", "diagonal", "spd", "polytope"]))
    if kind == "euclidean":
        return norms.euclidean(N)
    if kind == "diagonal":
        return norms.ellipse(np.diag([data.draw(st.floats(0.1, 10.0)) for _ in range(N)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "spd":
        B = rng.standard_normal((N, N))
        return norms.ellipse(B.T @ B + 0.1 * np.eye(N))
    D = rng.standard_normal((N + data.draw(st.integers(0, 2)), N))
    return norms.smoothed_polytope(D / np.linalg.norm(D, axis=1, keepdims=True),
                                   data.draw(st.floats(0.01, 0.5)))


def _face_sum_energy(values, spec, spacing):
    """(1/2N) vol sum over faces of A(G u) . G u, straight from the face map."""
    N = values.ndim
    total = 0.0
    for G in FaceKernel(values.shape, spacing).gradients(values):
        xi = np.moveaxis(G, 0, -1)
        total += float(np.sum(duality_map(spec, xi) * xi))
    return total * float(np.prod(spacing)) / (2.0 * N)


@settings(max_examples=60)
@given(data=st.data())
def test_constant_stencils_match_the_face_path(data):
    N = data.draw(st.integers(1, 3))
    spec = _quadratic_spec(data, N)
    shape = tuple(data.draw(st.integers(3, 9)) for _ in range(N))
    spacing = tuple(data.draw(st.floats(0.01, 10.0)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(shape)         # not zero on the box edge
    mask = rng.random(shape) < 0.7
    um = np.where(mask, u, 0.0)
    # the energy matvec, unmasked and masked (input already masked)
    for x, m in ((u, None), (um, mask)):
        face = flow._face_energy_gradient(x, spec, spacing)
        stencil = energy_gradient(x, spec, spacing)
        if m is not None:
            face, stencil = np.where(m, face, 0.0), np.where(m, stencil, 0.0)
        assert np.max(np.abs(stencil - face)) <= 1e-13 * np.max(np.abs(face))
    # the interior Laplacian, read on arrays (grids need >= 5 nodes per axis)
    inner = (slice(1, -1),) * N
    face_lap = operators._face_flux_divergence(u, spec, spacing)[inner]
    stencil_lap = apply_operator(operators._face_flux_divergence, u, spec, spacing)[inner]
    assert np.max(np.abs(stencil_lap - face_lap)) <= 1e-13 * np.max(np.abs(face_lap))
    if min(shape) < 5:
        return
    box = tuple((0.0, (n - 1) * h) for n, h in zip(shape, spacing))
    gf = GridFunction(box, tuple(n - 1 for n in shape), u)
    # the energy, read through its gradient, against the face sum; p-norms
    # read it through the face path
    for s in (spec, norms.p_norm(data.draw(st.floats(1.5, 4.0)), N)):
        for m, x in ((None, u), (mask, um)):
            face = _face_sum_energy(x, s, gf.spacing)
            assert abs(energy(gf, s, m) - face) <= 1e-13 * face
    lap = finsler_laplacian(gf, spec).values
    face_lap = operators._face_flux_divergence(u, spec, gf.spacing)
    halo = ~interior_mask(gf)
    np.testing.assert_array_equal(np.isnan(lap), halo)
    assert np.max(np.abs(lap - face_lap)[~halo]) \
        <= 1e-13 * np.max(np.abs(face_lap[~halo]))


def test_stencil_cache_is_read_only_and_keyed_on_spacing(monkeypatch):
    face_ops = (flow._face_energy_gradient, operators._face_flux_divergence)
    for face_op in face_ops:
        S, _ = constant_stencil(face_op, ELLIPSE, (0.1, 0.1))
        with pytest.raises(ValueError):
            S[(2, 2)] = 0.0
        T, _ = constant_stencil(face_op, ELLIPSE, (0.1, 0.2))
        assert not np.array_equal(S, T)
        assert constant_stencil(face_op, ELLIPSE, (0.1, 0.1))[0] is S
    # one cache, keyed on the operator too
    assert not np.array_equal(constant_stencil(face_ops[0], ELLIPSE, (0.1, 0.1))[0],
                              constant_stencil(face_ops[1], ELLIPSE, (0.1, 0.1))[0])
    u = np.random.default_rng(0).standard_normal((9, 9))
    # taps below machine epsilon (here ~1e-17 at h = 1e8) must still count
    inner = (slice(1, -1),) * 2
    for h in ((0.1, 0.2), (1e8, 3e8)):
        face = flow._face_energy_gradient(u, ELLIPSE, h)
        assert np.max(np.abs(energy_gradient(u, ELLIPSE, h) - face)) \
            <= 1e-13 * np.max(np.abs(face))
        face = operators._face_flux_divergence(u, ELLIPSE, h)[inner]
        lap = apply_operator(operators._face_flux_divergence, u, ELLIPSE, h)[inner]
        assert np.max(np.abs(lap - face)) <= 1e-13 * np.max(np.abs(face))

    # p-norms keep the face path everywhere
    def refuse(*args, **kwargs):
        raise AssertionError("a p-norm reached the stencil path")
    monkeypatch.setattr(operators.ndimage, "correlate", refuse)
    pn = norms.p_norm(3, 2)
    lay = ball_layout(pn, 1.0, 1 / 8)
    mask = ball_mask(pn, lay, 1.0)
    r = norms.dual_norm_eval(pn, lay.coords())
    v = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    energy(v, pn, mask)
    proximal_step(v, pn, mask, 1e-2, InnerSolverConfig(tolerance=1e-8))
    explicit_step(v, pn, mask, 1e-4)
    finsler_laplacian(v, pn)
    with pytest.raises(AssertionError, match="stencil path"):
        finsler_laplacian(v, ELLIPSE)


def test_prox_fixed_point_at_zero():
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    mask = ball_mask(EUCLID, lay, 1.0)
    out = proximal_step(lay, EUCLID, mask, 1e-2)
    np.testing.assert_array_equal(out.values, 0.0)


def test_prox_matches_independent_linear_solver():
    # euclidean energy is quadratic: the prox solves (I + tau K) u = v; K is
    # probed column by column from the face path (not the stencil the prox
    # applies) on the masked nodes and the system is solved densely
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    v = np.where(mask, np.exp(-3 * r**2), 0.0)
    tau = 1e-2
    prox = proximal_step(lay.with_values(v), EUCLID, mask, tau,
                         InnerSolverConfig(tolerance=1e-12))
    idx = np.flatnonzero(mask)
    K = np.empty((idx.size, idx.size))
    for col, node in enumerate(idx):
        e = np.zeros(v.size)
        e[node] = 1.0
        K[:, col] = flow._face_energy_gradient(e.reshape(v.shape), EUCLID,
                                               lay.spacing).ravel()[idx]
    sol = np.linalg.solve(np.eye(idx.size) + tau * K, v.ravel()[idx])
    full = np.zeros(v.size)
    full[idx] = sol
    np.testing.assert_allclose(prox.values, full.reshape(v.shape), atol=1e-10)


def test_prox_descends_the_objective():
    lay = ball_layout(ELLIPSE, 1.0, 1 / 12)
    mask = ball_mask(ELLIPSE, lay, 1.0)
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    v = np.where(mask, np.exp(-2 * r**2), 0.0)
    gf = lay.with_values(v)
    out = proximal_step(gf, ELLIPSE, mask, 5e-3)
    assert energy(out, ELLIPSE, mask) < energy(gf, ELLIPSE, mask)


def test_prox_homogeneity():
    lay = ball_layout(ELLIPSE, 1.0, 1 / 16)
    mask = ball_mask(ELLIPSE, lay, 1.0)
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    u = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    assert prox_homogeneity_defect(u, ELLIPSE, mask, 1e-3, 3.0) <= 1e-8


def test_prox_p_norm_backoff_path():
    # non-quadratic norm exercises the damped Newton loop
    spec = norms.p_norm(1.5, 2)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    r = norms.dual_norm_eval(spec, lay.coords())
    gf = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    out = proximal_step(gf, spec, mask, 1e-3, InnerSolverConfig(tolerance=1e-8))
    assert energy(out, spec, mask) <= energy(gf, spec, mask)


@pytest.mark.parametrize("p, tau", [(1.5, 1e-3), (3.0, 1e-2)])
def test_prox_p_norm_meets_its_stopping_test(p, tau):
    # h = 1/32 from exp(-2 H0^2): the gradient of J is recomputed here from
    # the returned field, and the step must descend J
    spec = norms.p_norm(p, 2)
    lay = ball_layout(spec, 1.0, 1 / 32)
    mask = ball_mask(spec, lay, 1.0)
    r = norms.dual_norm_eval(spec, lay.coords())
    v = np.where(mask, np.exp(-2 * r**2), 0.0)
    inner = InnerSolverConfig(tolerance=1e-8)
    u = proximal_step(lay.with_values(v), spec, mask, tau, inner).values

    def l2(f):
        return np.sqrt(np.sum(f * f) * lay.cell_volume)

    def J(w):
        return l2(w - v) ** 2 / (2 * tau) + energy(lay.with_values(w), spec, mask)

    grad = np.where(mask, (u - v) / tau
                    + energy_gradient(np.where(mask, u, 0.0), spec, lay.spacing), 0.0)
    assert l2(grad) <= inner.tolerance * (1 + l2(v))
    assert J(u) <= J(v)


def _plain_prox(v, spec, mask, tau, inner, spacing, vol):
    """The unpreconditioned CG solve of (I/tau + K) u = v/tau from u = v, as
    the prox ran it for every quadratic step before the box preconditioner:
    (u, info, CG iterations)."""
    u = np.where(mask, v, 0.0)
    scale = 1.0 + np.sqrt(np.sum(u * u) * vol)

    def matvec(x):
        x = x.reshape(u.shape)
        h = energy_gradient(x, spec, spacing)
        np.copyto(h, 0.0, where=~mask)
        h += x / tau
        return h.ravel()

    steps = []
    x, info = cg(LinearOperator((u.size, u.size), matvec=matvec, dtype=float),
                 (u / tau).ravel(), x0=u.ravel(), rtol=0.0,
                 atol=inner.tolerance * scale / np.sqrt(vol), maxiter=inner.max_iters,
                 callback=lambda _: steps.append(1))
    return x.reshape(u.shape), info, len(steps)


def _prox_residual(u, v, spec, mask, tau, spacing, vol):
    """||(I/tau + K) u - v/tau||_{L^2} on the free nodes, K u recomputed with
    `energy_gradient`, and the stopping tolerance's 1 + ||v||_{L^2}."""
    v, u = np.where(mask, v, 0.0), np.where(mask, u, 0.0)
    r = np.where(mask, (u - v) / tau + energy_gradient(u, spec, spacing), 0.0)
    return np.sqrt(np.sum(r * r) * vol), 1.0 + np.sqrt(np.sum(v * v) * vol)


@pytest.mark.parametrize("tau, steps", [(1e-2, 3), (1e-3, 4)])
def test_box_preconditioner_takes_one_cg_iteration_on_a_quiet_ellipse(tau, steps):
    # the diag(4,1) ball of R = 6 at h = 6/64 from exp(-H0^2): the datum is
    # below 1e-14 on the boundary band, so every step is preconditioned and
    # takes exactly one CG iteration (unpreconditioned: 12/13/13 at
    # tau = 1e-2 and 4 per step at 1e-3); a step must report at least one
    problem, _ = _ball_problem(ELLIPSE, 6.0, 6 / 64, lambda r: np.exp(-r**2), tau=tau,
                               t_end=tau * steps, inner=InnerSolverConfig(tolerance=1e-7))
    mon = solve(problem).monitors
    assert mon["inner_iterations"].tolist() == [0] + [1] * steps
    assert mon["preconditioned"].tolist() == [0] + [1] * steps


def test_plain_prox_path_keeps_its_cg_counts():
    # the euclidean ball of R = 2 at h = 1/32 from exp(-H0^2) reaches the
    # boundary band (exp(-4)), so no step is preconditioned and the counts
    # are those of the unpreconditioned CG
    problem, _ = _ball_problem(EUCLID, 2.0, 1 / 32, lambda r: np.exp(-r**2), r_max=8.0,
                               tau=4e-4, t_end=11 * 4e-4,
                               inner=InnerSolverConfig(tolerance=1e-7))
    mon = solve(problem).monitors
    assert mon["inner_iterations"].tolist() == [0, 13, 12, 12, 12, 11, 11, 11, 11, 10, 10, 10]
    assert mon["preconditioned"].tolist() == [0] * 12


def test_preconditioned_prox_meets_the_unpreconditioned_stopping_test():
    # scipy's cg stops on the unpreconditioned residual: the residual of the
    # returned field, recomputed here, is within tolerance (1 + ||v||)
    spec, tau, inner = ELLIPSE, 1e-2, InnerSolverConfig(tolerance=1e-9)
    lay = ball_layout(spec, 6.0, 6 / 64)
    mask = ball_mask(spec, lay, 6.0)
    v = np.exp(-norms.dual_norm_eval(spec, lay.coords()) ** 2)
    u, iters, preconditioned = flow._prox_stepper(spec, lay.spacing, mask, tau, inner)(v)
    assert preconditioned and iters >= 1
    gap, scale = _prox_residual(u, v, spec, mask, tau, lay.spacing, lay.cell_volume)
    assert gap <= inner.tolerance * scale


def test_a_solve_builds_the_band_and_the_box_preconditioner_once(monkeypatch):
    # three quiet diag(4,1) steps share one stepper: one boundary band and
    # one box preconditioner for the solve, not one per step
    calls = {"band": 0, "box": 0}
    monkeypatch.setattr(flow, "_boundary_band", _counting(calls, "band", flow._boundary_band))
    monkeypatch.setattr(flow, "_box_preconditioner",
                        _counting(calls, "box", flow._box_preconditioner))
    problem, _ = _ball_problem(ELLIPSE, 6.0, 6 / 64, lambda r: np.exp(-r**2), tau=1e-2,
                               t_end=3e-2, inner=InnerSolverConfig(tolerance=1e-7))
    assert solve(problem).monitors["preconditioned"].tolist() == [0, 1, 1, 1]
    assert calls == {"band": 1, "box": 1}


ROTATED = norms.ellipse(np.array([[2.0, 1.2], [1.2, 1.0]]))


@pytest.mark.parametrize("spec, radius, preconditioned", [
    (ELLIPSE, 2.0, False), (ROTATED, 2.0, False), (ROTATED, 6.0, True)])
def test_a_quadratic_solve_out_of_budget_raises_its_own_gap(spec, radius, preconditioned):
    # one CG iteration cannot reach tolerance 1e-12 at h = 1/8 from
    # exp(-2 H0^2): the quadratic path raises with its last iterate and that
    # iterate's residual, on the plain and on the preconditioned path
    lay = ball_layout(spec, radius, 1 / 8)
    mask = ball_mask(spec, lay, radius)
    v = np.exp(-2.0 * norms.dual_norm_eval(spec, lay.coords()) ** 2)
    tau, inner = 1e-2, InnerSolverConfig(tolerance=1e-12, max_iters=1)
    step = flow._prox_stepper(spec, lay.spacing, mask, tau, inner)
    with pytest.raises(ConvergenceError) as err:
        step(v)
    gap, scale = _prox_residual(err.value.best, v, spec, mask, tau, lay.spacing,
                                lay.cell_volume)
    assert err.value.gap == gap > inner.tolerance * scale
    # within budget, the same datum reports the path the failing step took
    within = flow._prox_stepper(spec, lay.spacing, mask, tau, replace(inner, max_iters=10000))
    assert within(v)[2] is preconditioned


def _box_problem(data, N):
    """A quadratic spec, per-axis spacings and the ball mask of the largest
    H0-ball centred in a box of 2 c_i cells per axis."""
    spec = _quadratic_spec(data, N)
    cells = [data.draw(st.integers(4, (24, 10, 5)[N - 1])) for _ in range(N)]
    spacing = [data.draw(st.floats(0.05, 2.0)) for _ in range(N)]
    lay = empty_layout([(-c * h, c * h) for c, h in zip(cells, spacing)],
                       [2 * c for c in cells])
    extents = norms.eval_norm(spec, np.eye(N))
    radius = min(c * h / e for c, h, e in zip(cells, lay.spacing, extents))
    h0 = norms.dual_norm_eval(spec, lay.coords())
    return spec, lay, flow._free_nodes(h0, lay, radius)


@settings(max_examples=60)
@given(data=st.data())
def test_box_preconditioner_paths(data):
    N = data.draw(st.integers(1, 3))
    spec, lay, mask = _box_problem(data, N)
    spacing, vol = lay.spacing, lay.cell_volume
    tau = data.draw(st.floats(1e-4, 1.0)) * min(spacing) ** 2 * 10
    inner = InnerSolverConfig(tolerance=data.draw(st.sampled_from([1e-6, 1e-8, 1e-10])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    band = flow._boundary_band(mask)
    # the band: free nodes with a clamped node (or one beyond the box) in
    # the 5^N block around them
    clamped = np.pad(~mask, 2, constant_values=True)
    near = np.lib.stride_tricks.sliding_window_view(clamped, (5,) * N)
    np.testing.assert_array_equal(band, mask & near.any(axis=tuple(range(N, 2 * N))))
    # 1/tau + sigma > 0: sigma is a mean of the nonnegative symbol of K,
    # also for a rotated ellipse, whose stencil is not axis-symmetric
    lengths = tuple(next_fast_len(n - 1, real=True) - 1 for n in mask.shape)
    sigma = operators.stencil_symbol(flow._face_energy_gradient, spec, spacing, lengths)
    S, scale = constant_stencil(flow._face_energy_gradient, spec, tuple(spacing))
    assert np.all(1.0 / tau + sigma > 0.0)
    assert np.all(sigma >= -1e-12 * scale * np.sum(np.abs(S)))

    # a datum that vanishes on the band takes the preconditioned path and
    # lands within the stopping tolerance of the plain solve: both residuals
    # are below tol (1 + ||v||), and I/tau + K >= I/tau
    step = flow._prox_stepper(spec, spacing, mask, tau, inner)
    quiet = np.where(mask & ~band, rng.standard_normal(mask.shape), 0.0)
    u, iters, preconditioned = step(quiet)
    assert preconditioned
    plain, info, _ = _plain_prox(quiet, spec, mask, tau, inner, spacing, vol)
    assert info == 0
    gap, scale = _prox_residual(u, quiet, spec, mask, tau, spacing, vol)
    assert gap <= inner.tolerance * scale
    assert np.sqrt(np.sum((u - plain) ** 2) * vol) <= 2 * tau * inner.tolerance * scale

    # a datum that reaches the band takes the plain path, bit for bit
    loud = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    if np.sqrt(np.sum(loud[band] ** 2) * vol) / tau \
            < inner.tolerance * (1.0 + np.sqrt(np.sum(loud * loud) * vol)):
        return
    u, iters, preconditioned = step(loud)
    plain, info, steps = _plain_prox(loud, spec, mask, tau, inner, spacing, vol)
    assert not preconditioned and info == 0
    assert _same_bits(u, plain) and iters == steps


@settings(max_examples=30)
@given(data=st.data())
def test_box_preconditioner_inverts_axis_symmetric_stencils(data):
    # for euclidean and diagonal ellipses the DST-I diagonalizes K exactly on
    # fields that vanish on the box edge and the two nodes next to it (three
    # on the far side, where a side is padded to a fast length): the
    # preconditioner undoes I/tau + K there
    N = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(6, (40, 20, 10)[N - 1])) for _ in range(N))
    spacing = tuple(data.draw(st.floats(0.05, 2.0)) for _ in range(N))
    spec = norms.ellipse(np.diag([data.draw(st.floats(0.1, 10.0)) for _ in range(N)])) \
        if data.draw(st.booleans()) else norms.euclidean(N)
    tau = data.draw(st.floats(1e-3, 10.0)) * min(spacing) ** 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros(shape, dtype=bool)
    mask[(slice(1, -1),) * N] = True
    x = np.zeros(shape)
    x[(slice(2, -3),) * N] = rng.standard_normal(tuple(n - 5 for n in shape))
    y = np.where(mask, x / tau + energy_gradient(x, spec, spacing), 0.0)
    back = flow._box_preconditioner(spec, spacing, mask, tau).matvec(y.ravel())
    assert np.max(np.abs(back.reshape(shape) - x)) <= 1e-12 * np.max(np.abs(x))
    # a mask that frees the box edge keeps the preconditioner positive
    # definite on the fields it admits, those on the edge alone too
    edge = np.where(mask, 0.0, rng.standard_normal(shape)).ravel()
    free = np.ones(shape, dtype=bool)
    assert edge @ flow._box_preconditioner(spec, spacing, free, tau).matvec(edge) > 0.0


@settings(max_examples=8)
@given(p=st.floats(1.5, 4.0), cells=st.sampled_from([8, 12]))
@example(p=1.5, cells=12)
def test_prox_homogeneity_p_norms(p, cells):
    # inner tolerance 1e-7: at p = 1.5, h = 1/12 a 1-ulp change of the field
    # moves ||grad psi|| by 2e-8 and the solve settles near 5e-8, so a
    # tighter stopping test would pass or fail by rounding
    spec = norms.p_norm(p, 2)
    lay = ball_layout(spec, 1.0, 1 / cells)
    mask = ball_mask(spec, lay, 1.0)
    r = norms.dual_norm_eval(spec, lay.coords())
    u = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    assert prox_homogeneity_defect(u, spec, mask, 1e-3, 3.0,
                                   InnerSolverConfig(tolerance=1e-7)) <= 1e-8


def test_explicit_zero_fixed_point():
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    mask = ball_mask(EUCLID, lay, 1.0)
    out = explicit_step(lay, EUCLID, mask, 1e-4)
    np.testing.assert_array_equal(out.values, 0.0)


def test_explicit_matches_ftcs():
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    v = np.where(mask, np.exp(-3 * r**2), 0.0)
    h = lay.spacing[0]
    tau = h * h / 8
    lap = np.zeros_like(v)
    lap[1:-1, 1:-1] = ((v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1])
                       + (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2])) / h**2
    ftcs = np.where(mask, v + tau * lap, 0.0)
    out = explicit_step(lay.with_values(v), EUCLID, mask, tau)
    np.testing.assert_allclose(out.values, ftcs, atol=1e-12)


def test_explicit_richardson_consistency():
    # for the linear euclidean operator, one step minus two half steps is
    # exactly -(tau^2/4) L^2 u
    from finslerheat.operators import finsler_laplacian
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    gf = lay.with_values(np.where(mask, np.exp(-3 * r**2), 0.0))
    tau = lay.spacing[0] ** 2 / 8
    one = explicit_step(gf, EUCLID, mask, tau)
    half = explicit_step(explicit_step(gf, EUCLID, mask, tau / 2),
                         EUCLID, mask, tau / 2)
    lap = finsler_laplacian(gf, EUCLID).values
    lap = np.where(mask & np.isfinite(lap), lap, 0.0)
    lap2 = finsler_laplacian(gf.with_values(lap), EUCLID).values
    lap2 = np.where(mask & np.isfinite(lap2), lap2, 0.0)
    np.testing.assert_allclose(one.values - half.values, -(tau**2 / 4) * lap2,
                               atol=1e-14)


@pytest.mark.parametrize("spec, spacing, gap", [
    (norms.smoothed_polytope(np.eye(2), 0.05), 1 / 16, 2e-2), (EUCLID, 0.3, 0.1)])
def test_box_edge_nodes_are_dirichlet_nodes(spec, spacing, gap):
    # rounding the half-width R H(e_i) / h down puts 12 box-edge nodes inside
    # the ball; the face-flux operator is undefined there, so unless they are
    # clamped the explicit scheme keeps their datum values (the two schemes
    # end 1.2e-2 and 5e-2 apart when they are clamped, 9e-2 and 0.14 if not)
    lay = ball_layout(spec, 1.0, spacing)
    edge = ~interior_mask(lay)
    assert np.sum(norms.dual_norm_eval(spec, lay.coords())[edge] < 1.0) == 12
    assert not ball_mask(spec, lay, 1.0)[edge].any()
    tau = spacing**2 / (4 * norms.coercivity_bounds(spec)[1])  # the explicit limit
    finals = []
    for scheme in ("explicit_euler", "implicit_proximal"):
        problem, _ = _ball_problem(spec, 1.0, spacing, lambda r: np.exp(-2 * r**2),
                                   r_max=8.0, tau=tau, t_end=20 * tau, scheme=scheme)
        finals.append(solve(problem).slices[-1].values)
    assert not finals[0][edge].any()
    assert float(np.max(np.abs(finals[0] - finals[1]))) <= gap


def test_explicit_stability_guard():
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    with pytest.raises(StabilityError):
        explicit_step(lay, EUCLID, mask, 1.0)


def test_solve_zero_datum():
    problem, _ = _ball_problem(EUCLID, 1.0, 1 / 8, lambda r: 0.0 * r,
                               tau=1e-3, t_end=5e-3)
    traj = solve(problem)
    np.testing.assert_array_equal(traj.slices[-1].values, 0.0)
    np.testing.assert_array_equal(traj.monitors["energy"], 0.0)
    np.testing.assert_array_equal(traj.monitors["mass"], 0.0)


def test_solve_dissipates_and_conserves_mass():
    problem, _ = _ball_problem(
        EUCLID, 3.0, 3 / 48, lambda r: np.maximum(1 - (2 * r) ** 2, 0.0) ** 3,
        tau=1e-3, t_end=2e-2, inner=InnerSolverConfig(tolerance=1e-9))
    traj = solve(problem)
    en = traj.monitors["energy"]
    assert np.all(np.diff(en) <= 1e-9)
    mass = traj.monitors["mass"]
    assert abs(mass[-1] - mass[0]) <= 1e-6
    assert float(np.min(traj.slices[-1].values)) >= -1e-8


def test_implicit_and_explicit_schemes_agree():
    # the schemes share the PDE but differ in time stepping (O(tau)) and in
    # operator realization (O(h^2)); the gap must track tau + h^2
    gaps = []
    for spacing in (1 / 24, 1 / 48):
        kw = dict(tau=spacing**2 / 8, t_end=64 * (1 / 48) ** 2 / 8)
        imp, _ = _ball_problem(EUCLID, 2.0, spacing, lambda r: np.exp(-4 * r**2),
                               scheme="implicit_proximal",
                               inner=InnerSolverConfig(tolerance=1e-10), **kw)
        exp, _ = _ball_problem(EUCLID, 2.0, spacing, lambda r: np.exp(-4 * r**2),
                               scheme="explicit_euler", **kw)
        a = solve(imp).slices[-1].values
        b = solve(exp).slices[-1].values
        gap = float(np.max(np.abs(a - b)))
        gaps.append(gap)
        assert gap <= 2.0 * (kw["tau"] + spacing**2)
    assert gaps[1] <= gaps[0] / 2.5


def test_monitor_weighted_l2_at_zero_matches_datum_integral():
    lam = 0.5
    lay = ball_layout(ELLIPSE, 2.0, 1 / 16)
    mask = ball_mask(ELLIPSE, lay, 2.0)
    r = norms.dual_norm_eval(ELLIPSE, lay.coords())
    phi = np.where(mask, np.exp(-r**2), 0.0)
    gf = lay.with_values(phi)
    direct = float(np.sum(np.exp(-2 * lam * r**2) * phi**2)) * lay.cell_volume
    got = weighted_monitors(gf, ELLIPSE, 0.0, lam=lam, mask=mask)["weighted_l2"]
    assert got == pytest.approx(direct)


def test_monitor_weighted_l1_forms():
    lam = 0.5
    lay = ball_layout(EUCLID, 2.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 2.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    phi = np.where(mask, np.exp(-r**2), 0.0)
    gf = lay.with_values(phi)
    direct = float(np.sum(np.exp(-lam * r**2) * np.abs(phi))) * lay.cell_volume
    got = weighted_monitors(gf, EUCLID, 0.0, lam=lam, mask=mask)
    assert got["weighted_l1_lambda"] == pytest.approx(direct)
    local = weighted_monitors(gf, EUCLID, 0.1, ell=0.25, mask=mask)
    assert 0.0 < local["weighted_l1_local"] <= direct + 1e-12


def test_weighted_monitors_match_the_trajectory_bit_for_bit():
    # solve records through the same path, with NaN lam weights from the
    # horizon 1/(4 lam) = 0.05 on
    lam, ell = 5.0, 0.25
    problem, _ = _ball_problem(ELLIPSE, 2.0, 1 / 8, lambda r: np.exp(-r**2),
                               tau=1e-2, t_end=6e-2,
                               store_times=(0.0, 2e-2, 4e-2, 5e-2),
                               monitor_lambda=lam, monitor_ell=ell,
                               inner=InnerSolverConfig(tolerance=1e-9))
    traj = solve(problem)
    assert traj.times == [0.0, 0.02, 0.04, 0.05, 0.06]
    names = ["weighted_l2", "weighted_l1_lambda", "weighted_l1_local"]
    for t, gf in zip(traj.times, traj.slices):
        got = weighted_monitors(gf, ELLIPSE, t, lam=lam, ell=ell, mask=traj.mask)
        assert sorted(got) == sorted(names)
        step = int(np.flatnonzero(traj.monitor_times == t)[0])
        for name in names:
            np.testing.assert_array_equal(got[name], traj.monitors[name][step])
        beyond = t >= 1 / (4 * lam) - 1e-12
        assert np.isnan(got["weighted_l2"]) == beyond
        assert np.isnan(got["weighted_l1_lambda"]) == beyond
        assert np.isfinite(got["weighted_l1_local"])


@pytest.mark.parametrize("spec", [ELLIPSE, norms.p_norm(3, 2)])
def test_trajectory_carries_the_domain_of_the_run(spec):
    # also the partial trajectory of a run stopped by its inner solver
    problem, _ = _ball_problem(spec, 2.0, 1 / 8, lambda r: np.exp(-r**2),
                               tau=1e-2, t_end=2e-2)
    with pytest.raises(ConvergenceError) as failed:
        solve(replace(problem, inner=InnerSolverConfig(max_iters=1)))
    h0 = norms.dual_norm_eval(spec, problem.datum.coords())
    mask = ball_mask(spec, problem.datum, 2.0)
    for traj in (solve(problem), failed.value.partial):
        np.testing.assert_array_equal(traj.h0, h0)
        np.testing.assert_array_equal(traj.mask, mask)


def test_explicit_run_scans_the_p_norm_sphere_once(monkeypatch):
    # the step bound reads coercivity_bounds, cached per NormSpec
    spec = norms.p_norm(3, 2)
    problem, _ = _ball_problem(spec, 1.0, 1 / 8, lambda r: np.exp(-r**2),
                               tau=1e-3, t_end=3e-3, scheme="explicit_euler")
    scans, scan = [], norms._direction_set
    monkeypatch.setattr(norms, "_direction_set",
                        lambda *args: scans.append(args) or scan(*args))
    norms.coercivity_bounds.cache_clear()
    solve(problem)
    assert len(scans) == 1


def test_solve_rejects_store_times_outside_the_run():
    for bad in ((5e-3,), (-1e-3,), (5e-3, -1e-3)):
        problem, _ = _ball_problem(EUCLID, 1.0, 1 / 8, lambda r: np.exp(-r**2),
                                   tau=1e-3, t_end=2e-3, store_times=bad)
        with pytest.raises(SpecValidationError, match="outside"):
            solve(problem)


def test_solve_explicit_above_the_step_bound_raises():
    problem, _ = _ball_problem(EUCLID, 1.0, 1 / 16, lambda r: np.exp(-r**2),
                               tau=1e-2, t_end=2e-2, scheme="explicit_euler")
    with pytest.raises(StabilityError):
        solve(problem)


def test_weighted_l2_monotone_along_trajectory():
    problem, _ = _ball_problem(ELLIPSE, 3.0, 3 / 32, lambda r: np.exp(-r**2),
                               tau=2e-3, t_end=4e-2, monitor_lambda=0.5,
                               inner=InnerSolverConfig(tolerance=1e-8))
    traj = solve(problem)
    w = traj.monitors["weighted_l2"]
    assert np.all(w[1:] <= w[0] + 1e-6)


def test_scaling_check_identity_when_k_cancels():
    problem, _ = _ball_problem(EUCLID, 2.0, 1 / 16, lambda r: np.exp(-r**2),
                               tau=1e-3, t_end=4e-3,
                               inner=InnerSolverConfig(tolerance=1e-9))
    rep = scaling_check(problem, 1, compare_times=[4e-3])
    assert rep.max_defect <= 1e-12


def test_nested_domain_zero_datum():
    zero = measure_from_atoms([((0.0, 0.0), 0.0)])
    rep = nested_domain_study(zero, [2.0, 3.0], EUCLID, spacing=0.25,
                              tau=5e-3, compare_times=(0.05, 0.1),
                              core_radius=0.5)
    assert rep.differences == [0.0]


def test_flow_problem_validation():
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 65)
    valid = dict(norm=EUCLID, radius=1.0, datum=lay, tau=1e-3, t_end=1e-2)
    FlowProblem(**valid, monitor_ell=0.25)
    for bad in ({"radius": 0.5}, {"scheme": "magic"},
                {"datum": measure_from_radial(prof, EUCLID)},  # flows take grids
                {"tau": 0.0}, {"tau": -1e-3}, {"t_end": 0.0}, {"t_end": -1e-2},
                {"monitor_ell": 0.0}, {"monitor_ell": 0.5}, {"monitor_ell": -0.25}):
        with pytest.raises(SpecValidationError):
            FlowProblem(**{**valid, **bad})
    InnerSolverConfig(tolerance=1e-8, max_iters=1)
    for bad in ({"tolerance": 0.0}, {"tolerance": -1e-8}, {"max_iters": 0}):
        with pytest.raises(SpecValidationError):
            InnerSolverConfig(**bad)
    weighted_monitors(lay, EUCLID, 0.0, ell=0.25)
    for ell in (0.0, 0.5, 0.75):
        with pytest.raises(SpecValidationError):
            weighted_monitors(lay, EUCLID, 0.0, ell=ell)
    with pytest.raises(SpecValidationError, match="integer number of steps"):
        solve(FlowProblem(**{**valid, "t_end": 1.05e-2}))


def test_local_weighted_l1_stays_bounded_along_trajectory():
    # the localized weighted quantity stays below an O(1) multiple of its
    # initial value along the flow; the empirical ratio is recorded
    problem, _ = _ball_problem(EUCLID, 3.0, 3 / 32,
                               lambda r: np.maximum(1 - (2 * r) ** 2, 0.0) ** 3,
                               tau=2e-3, t_end=4e-2, monitor_ell=0.25,
                               inner=InnerSolverConfig(tolerance=1e-8))
    traj = solve(problem)
    series = traj.monitors["weighted_l1_local"]
    ratio = float(np.max(series) / series[0])
    assert np.isfinite(ratio) and ratio <= 1.5


def test_nested_domain_growing_datum():
    prof = RadialProfile.from_function(lambda r: np.exp(0.2 * r**2), 16.0, 2049)
    grow = measure_from_radial(prof, EUCLID)
    rep = nested_domain_study(grow, [4.0, 6.0, 8.0], EUCLID, spacing=1 / 8,
                              tau=2e-3, compare_times=(0.1, 0.15, 0.2),
                              inner=InnerSolverConfig(tolerance=1e-9))
    assert rep.decreasing


def test_one_dimensional_flow_matches_closed_form():
    eu1 = norms.euclidean(1)
    problem, _ = _ball_problem(eu1, 6.0, 6 / 128, lambda r: np.exp(-r**2),
                               r_max=10.0, tau=1e-3, t_end=0.1,
                               store_times=(0.1,),
                               inner=InnerSolverConfig(tolerance=1e-8))
    traj = solve(problem)
    x = traj.slices[-1].axes()[0]
    exact = (1 + 0.4) ** -0.5 * np.exp(-(x**2) / 1.4)
    win = np.abs(x) <= 2.0
    assert float(np.max(np.abs(traj.slices[-1].values[win] - exact[win]))) <= 5e-3


def test_three_dimensional_flow_dissipates():
    el3 = norms.ellipse(np.diag([4.0, 1.0, 2.25]))
    lay = ball_layout(el3, 1.0, 1 / 6)
    prof = RadialProfile.from_function(lambda r: np.exp(-2 * r**2), 4.0, 513)
    datum = lift_radial(prof, el3, lay)
    problem = FlowProblem(norm=el3, radius=1.0, datum=datum, tau=1e-3,
                          t_end=5e-3, inner=InnerSolverConfig(tolerance=1e-8),
                          monitor_lambda=1.0)
    traj = solve(problem)
    assert np.all(np.diff(traj.monitors["energy"]) <= 1e-9)
    w = traj.monitors["weighted_l2"]
    assert np.all(w[1:] <= w[0] + 1e-6)
