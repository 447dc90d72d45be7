import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.sparse.linalg import LinearOperator, cg

from finslerheat import flow, measures, norms, operators
from finslerheat.errors import ConvergenceError, SpecValidationError, StabilityError
from finslerheat.flow import (FlowProblem, InnerSolverConfig, ball_layout,
                              ball_mask, energy, energy_gradient,
                              explicit_step, nested_domain_study,
                              prox_homogeneity_defect, proximal_step,
                              scaling_check, solve, weighted_monitors)
from finslerheat.grids import MAX_VALUE, GridFunction, RadialProfile, empty_layout, observed_order
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


@settings(max_examples=24)
@given(spec=st.sampled_from([EUCLID, ELLIPSE, norms.p_norm(3, 2), norms.p_norm(1.5, 2)]),
       scheme=st.sampled_from(["implicit_proximal", "explicit_euler"]),
       exponent=st.floats(0.0, 100.0), sign=st.sampled_from([1.0, -1.0]))
def test_one_step_of_a_datum_up_to_max_value_has_finite_monitors(spec, scheme, exponent, sign):
    """Flow data are bounded by MAX_VALUE so that a step's monitors stay
    finite: one step on the unit ball (h = 1/8, lambda = 0.5, ell = 0.25)
    from exp(-H0^2) scaled up to the bound records finite monitors and a
    finite slice (at 1e200 the L^2 norm overflowed)."""
    tau = 1e-2 if scheme == "implicit_proximal" else 1e-4
    problem, _ = _ball_problem(spec, 1.0, 0.125, lambda r: np.exp(-r**2), r_max=4.0, tau=tau,
                               t_end=tau, scheme=scheme, monitor_lambda=0.5, monitor_ell=0.25)
    scale = min(sign * 10.0**exponent, MAX_VALUE)
    traj = solve(replace(problem, datum=problem.datum.with_values(problem.datum.values * scale)))
    assert all(np.all(np.isfinite(series)) for series in traj.monitors.values())
    assert np.all(np.isfinite(traj.slices[-1].values))


def test_solve_takes_h0_a_block_of_rows_at_a_time(monkeypatch, block):
    """`solve` reads H0 at the nodes from `norms.dual_norm_nodes`: at 40 values
    a block, no coordinate array it builds holds more than two of the 33 x 17
    layout's rows (the full array took two fields), and its H0, mask and
    slices keep their bits."""
    problem, _ = _ball_problem(ELLIPSE, 1.0, 0.125, lambda r: np.exp(-r**2), r_max=4.0,
                               tau=1e-2, t_end=2e-2, store_times=(2e-2,), monitor_lambda=0.5,
                               monitor_ell=0.25)
    want = solve(problem)
    coords, rows = GridFunction.coords, []

    def counted(self, *args):
        out = coords(self, *args)
        rows.append(len(out))
        return out
    monkeypatch.setattr(GridFunction, "coords", counted)
    with block(40):
        got = solve(problem)
    assert problem.datum.values.shape == (33, 17) and rows and max(rows) == 2
    assert got.h0.tobytes() == want.h0.tobytes()
    assert got.mask.tobytes() == want.mask.tobytes()
    assert got.slices[-1].values.tobytes() == want.slices[-1].values.tobytes()


def _face_gradient(values, spec, spacing):
    """(1/N) G^T A(G u), unmasked: `FaceKernel.form` of the duality map, the
    face path whose stencil the energy gradient applies."""
    return FaceKernel(values.shape, spacing).form(values, lambda axis, xi: duality_map(spec, xi))


def _face_divergence(values, spec, spacing):
    """The face-flux divergence whose stencil `finsler_laplacian` applies: the
    normal component of A(G u) on the faces between nodes, differenced
    along each axis; partial sums on the halo."""
    out, between_nodes = np.zeros_like(values), (slice(1, -1),) * values.ndim
    for axis, G in enumerate(FaceKernel(values.shape, spacing).gradients(values)):
        flux = duality_map(spec, np.moveaxis(G, 0, -1)[between_nodes])[..., axis]
        out[(slice(None),) * axis + (slice(1, -1),)] += np.diff(flux, axis=axis) / spacing[axis]
    return out


def _ellipse_ball(spacing):
    """The datum exp(-H0^2) on the R = 6 ball of the ellipse diag(4, 1), and its mask."""
    lay = ball_layout(ELLIPSE, 6.0, spacing)
    mask = ball_mask(ELLIPSE, lay, 6.0)
    h0 = norms.dual_norm_eval(ELLIPSE, lay.coords())
    return lay.with_values(np.where(mask, np.exp(-h0**2), 0.0)), mask


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
    hessian = _newton_hessian(w, spec, spacing)
    Hx, Hy = hessian(x), hessian(y)
    assert abs(np.sum(x * Hy) - np.sum(Hx * y)) \
        <= 1e-12 * np.sqrt(np.sum(x * x) * np.sum(Hy * Hy))
    # second order: the same constant bounds the error at eps and eps / 10
    for eps in (1e-3, 1e-4):
        fd = (energy_gradient(w + eps * x, spec, spacing)
              - energy_gradient(w - eps * x, spec, spacing)) / (2 * eps)
        assert np.max(np.abs(fd - Hx)) <= 10 * eps**2 * np.max(np.abs(Hx))


def _newton_hessian(w, spec, spacing):
    """The Newton Hessian of psi at w, in Newton faces of its own."""
    faces = flow._NewtonFaces(spec, w.shape, spacing)
    faces.gradient(w)
    return faces.hessian()


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
    faces = flow._NewtonFaces(spec, shape, spacing)
    gradient = faces.gradient(w)
    for axis, (G, H, s) in enumerate(zip(faces.kernel.faces, faces.H, faces.s)):
        xi, s = np.moveaxis(G, 0, -1), np.moveaxis(s, 0, -1)
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
    hessian = faces.hessian()
    assert _same_bits(hessian(x), reference)
    assert _same_bits(hessian(x), reference)   # its buffers hold nothing over


def test_newton_hessians_read_the_face_state_of_the_accepted_iterate(monkeypatch, work):
    """Every Newton Hessian of a p = 1.5 prox whose line search backtracks
    equals one built from scratch at its iterate, the stepper's w (read off
    its frame: the build takes no field), and its build evaluates no face
    gradient and no norm of its own.  The Hessians of a solve share its
    Newton faces, so each is applied as it is built."""
    spec = norms.p_norm(1.5, 2)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    v = lay.with_values(np.exp(-2.0 * norms.dual_norm_eval(spec, lay.coords()) ** 2))
    own = {"face": FaceKernel.gradients, "norm": norms.eval_norm}
    evaluations, builds, rng = [0], [], np.random.default_rng(0)
    gradient, newton_hessian = flow._NewtonFaces.gradient, flow._NewtonFaces.hessian

    def evaluate(faces, values):
        evaluations[-1] += 1
        return gradient(faces, values)

    def build(faces):
        w = inspect.currentframe().f_back.f_locals["w"]
        built = work(lambda: newton_hessian(faces), trace=False, cold=False, also=own)
        hessian, no_own_calls = built.result, built.counts["face"] == built.counts["norm"] == 0
        xs = [np.where(mask, rng.standard_normal(w.shape), 0.0) for _ in range(2)]
        builds.append((w.copy(), [(x, hessian(x).copy()) for x in xs], no_own_calls,
                       evaluations[-1]))
        evaluations.append(0)
        return hessian

    monkeypatch.setattr(flow._NewtonFaces, "gradient", evaluate)
    monkeypatch.setattr(flow._NewtonFaces, "hessian", build)
    proximal_step(v, spec, mask, 1e-2, InnerSolverConfig(tolerance=1e-8))
    monkeypatch.undo()

    # evaluations before each build: the start, then every trial point of
    # the previous line search; more than one means it cut or halved
    assert len(builds) > 2 and max(n for *_, n in builds) >= 2
    for w, applied, no_own_calls, _ in builds:
        assert no_own_calls
        fresh = _newton_hessian(np.where(mask, w, 0.0), spec, lay.spacing)
        for x, Hx in applied:
            assert _same_bits(Hx, fresh(x))


def test_each_p_norm_gradient_evaluation_builds_one_face_kernel(work):
    """A p-norm prox builds one FaceKernel per solve, which every face sum of
    the solve shares (its gradient evaluations and Newton Hessians, through
    its Newton faces; they built one each), and no other, over several Newton
    steps (one CG solve each); at p >= 2 a prox on a cold stencil cache
    builds one more per axis (the unit forms of its preconditioner), on a
    warm one none; the energy gradient builds one."""
    spec = norms.p_norm(3, 2)
    lay = ball_layout(spec, 1.0, 1 / 8)
    mask = ball_mask(spec, lay, 1.0)
    v = lay.with_values(np.exp(-2.0 * norms.dual_norm_eval(spec, lay.coords()) ** 2))
    kernels = {"kernel": FaceKernel.__init__}
    for cold in (True, False):
        prox = work(lambda: proximal_step(v, spec, mask, 1e-2, InnerSolverConfig(tolerance=1e-8)),
                    trace=False, cold=cold, also=kernels).counts
        assert prox["FaceKernel.form"] > 2 and prox["cg_solves"] > 1
        assert prox["kernel"] == 1 + cold * spec.dimension
    assert work(lambda: energy_gradient(v.values, spec, lay.spacing), trace=False, cold=False,
                also=kernels).counts["kernel"] == 1


def test_a_warm_p3_newton_step_peaks_at_a_bounded_number_of_fields(work):
    """One warm p = 3 prox step on the 129 x 129 unit ball (h = 1/64, the
    grid of the benchmark's p3-h1/64 job) peaks under 12 fields (9.49 with
    numpy 2.4): its face states, Newton Hessians and the energy reads share
    the solve's face buffers, built with the stepper, and a state is dropped
    once its DA is built.  A face kernel, state and Hessian per evaluation
    took 44.7 fields.  The warm step keeps the cold step's bits."""
    spec = norms.p_norm(3.0, 2)
    lay = ball_layout(spec, 1.0, 1 / 64)
    mask = ball_mask(spec, lay, 1.0)
    v = np.exp(-2.0 * norms.dual_norm_nodes(spec, lay) ** 2)
    step = flow._prox_stepper(spec, lay.spacing, mask, 1e-2, InnerSolverConfig(tolerance=1e-8))
    first, stats = step(v)
    again = work(lambda: step(v)[0], count=False, cold=False)
    assert v.shape == (129, 129) and stats["preconditioned"] and _same_bits(again.result, first)
    assert again.peak < 12 * v.nbytes


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


def _long_double_face_energy(values, spec, spacing):
    """(1/2N) vol sum over faces of xi^T Q xi, the face gradients xi of the
    zero-extended field formed in long double, Q the family's form."""
    N = values.ndim
    Q = duality_map(spec, np.eye(N)).astype(np.longdouble)
    u = np.pad(values.astype(np.longdouble), 2)     # the rim wraps under roll
    h = np.array(spacing, dtype=np.longdouble)
    total = np.longdouble(0.0)
    for axis in range(N):
        xi = []
        for k in range(N):
            if k == axis:      # (u_j - u_{j-1}) / h across the face
                xi.append((u - np.roll(u, 1, axis)) / h[k])
            else:              # the two nodal central differences, / (4 h)
                central = np.roll(u, -1, k) - np.roll(u, 1, k)
                xi.append((central + np.roll(central, 1, axis)) / (4 * h[k]))
        total += sum(Q[i, j] * np.sum(xi[i] * xi[j]) for i in range(N) for j in range(N))
    return total * np.prod(h) / (2 * N)


@settings(max_examples=60)
@given(data=st.data())
def test_quadratic_energy_matches_a_long_double_face_sum(data):
    # random fields, nonzero on the box edge, read masked and unmasked
    N = data.draw(st.integers(1, 3))
    spec = _quadratic_spec(data, N)
    shape = tuple(data.draw(st.integers(5, 9)) for _ in range(N))
    spacing = tuple(data.draw(st.floats(0.01, 10.0)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(shape)
    mask = rng.random(shape) < 0.7
    gf = GridFunction(tuple((0.0, (n - 1) * h) for n, h in zip(shape, spacing)),
                      tuple(n - 1 for n in shape), u)
    for m in (None, mask):
        exact = _long_double_face_energy(u if m is None else np.where(m, u, 0.0),
                                         spec, gf.spacing)
        assert abs(energy(gf, spec, m) - exact) <= 1e-14 * exact


def test_quadratic_energy_read_allocates_no_field(work):
    # a warm read of the monitor reader that `solve` uses, on the 513 x 257
    # ellipse grid, differences the correlation's zero-rimmed copy in the
    # reader's own work buffer, so it allocates no field; `energy` reads the same
    gf, _ = _ellipse_ball(6 / 128)
    read = flow._monitor_reader(ELLIPSE, None, None, gf.spacing, None, None)
    first = read(gf.values, 0.0)
    again = work(lambda: read(gf.values, 0.0), count=False, cold=False)
    assert again.result == first
    assert energy(gf, ELLIPSE) == first["energy"]
    assert again.peak < gf.values.nbytes / 10


def test_the_monitor_reader_holds_no_field_but_its_kernel_spectrum(work):
    """The reader that `solve` builds for lambda 0.5 and ell 0.25, on the
    513 x 257 ellipse grid, holds of its ball kernel's spectrum only the row
    transform (87 x 161, 0.21 field; the full spectrum took 1.47) and the
    correlation buffers it was handed, and no field of H0^2 (it held one).
    A warm read peaks under two fields (1.63 with numpy 2.4): its weights
    sit in the handed buffers' idle scratch and copy, squared from H0 and
    scaled in place, beside the convolution's spectrum and a block of the
    kernel's; the maximum over the mask reads the inverse of the cropped
    rows a block at a time (2.63 with a weight buffer of the read's own,
    3.93 with the padded result besides, or 4.9 with the lambda weights
    held besides)."""
    gf, mask = _ellipse_ball(6 / 128)
    h0 = norms.dual_norm_eval(ELLIPSE, gf.coords())
    rows = measures.kernel_rows(measures._ball_kernel(ELLIPSE, 1.0, gf.spacing), h0.shape)
    field, buffers = gf.values.nbytes, {}

    def read_once(buffers):
        read = flow._monitor_reader(ELLIPSE, h0, mask, gf.spacing, 0.5, 0.25, buffers)
        return read, read(gf.values, 1e-3)
    read_once({})
    built = work(lambda: read_once(buffers), count=False, cold=False)
    read, first = built.result
    again = work(lambda: read(gf.values, 1e-3), count=False, cold=False)
    assert again.result == first
    handed = sum(a.nbytes for plan in buffers.values() for a in plan)
    assert rows.shape == (87, 161) and built.held - handed < rows.nbytes + field / 8
    assert again.peak < 2 * field


def test_a_warm_lambda_read_allocates_no_field(work):
    """A warm read of the lambda monitors alone on the 513 x 257 ellipse
    grid forms both weights in the reader's correlation buffers, the first
    in the idle scratch and the second in the head of the zero-rimmed copy:
    it allocates under an eighth of a field (two fields with weights of
    its own)."""
    gf, mask = _ellipse_ball(6 / 128)
    h0 = norms.dual_norm_eval(ELLIPSE, gf.coords())
    read = flow._monitor_reader(ELLIPSE, h0, mask, gf.spacing, 0.5, None)
    first = read(gf.values, 1e-3)
    again = work(lambda: read(gf.values, 1e-3), count=False, cold=False)
    assert again.result == first and np.isfinite(first["weighted_l2"])
    assert again.peak < gf.values.nbytes / 8


def test_an_energy_read_after_a_borrower_of_the_copy_keeps_the_bits_of_fresh_buffers():
    """The lambda read's second weight and the quadratic prox CG's right
    side borrow the head of the correlation buffers' zero-rimmed copy,
    which `stencil_energy` reads around the field, and zero it again: in
    the buffers that `solve` shares between its stepper and reader, the
    zero field's energy read after either reads 0, and a read after a read
    and a read after a prox step keep the bits of reads on fresh buffers."""
    gf, mask = _ellipse_ball(6 / 32)
    h0, buffers, zero = norms.dual_norm_eval(ELLIPSE, gf.coords()), {}, np.zeros(mask.shape)
    read = flow._monitor_reader(ELLIPSE, h0, mask, gf.spacing, 0.5, 0.25, buffers)
    step = flow._prox_stepper(ELLIPSE, gf.spacing, mask, 1e-2,
                              InnerSolverConfig(tolerance=1e-7), buffers)
    fresh = lambda u, t: flow._monitor_reader(ELLIPSE, h0, mask, gf.spacing, 0.5, 0.25)(u, t)
    first = read(gf.values, 0.0)
    assert read(zero, 0.0)["energy"] == 0.0
    assert read(gf.values, 0.0) == first == fresh(gf.values, 0.0)
    u, stats = step(gf.values)
    assert stats["preconditioned"] and read(zero, 1e-2)["energy"] == 0.0
    assert read(u, 1e-2) == fresh(u, 1e-2)


@pytest.mark.parametrize("matrix", [[[4.0, 0.0], [0.0, 1.0]], [[2.0, 1.2], [1.2, 1.0]]])
def test_quadratic_energy_is_exact_to_rounding_on_fine_grids(matrix):
    # a smooth field at h = 6/256: the stencil reading (vol/2) <u, K u> sums
    # 1/h^2 taps that cancel and misses by 2e-13 to 3e-13 here
    spec = norms.ellipse(np.array(matrix))
    lay = ball_layout(spec, 2.0, 6 / 256)
    mask = ball_mask(spec, lay, 2.0)
    gf = lay.with_values(np.exp(-norms.dual_norm_eval(spec, lay.coords()) ** 2))
    for m in (None, mask):
        exact = _long_double_face_energy(gf.values if m is None else np.where(m, gf.values, 0.0),
                                         spec, lay.spacing)
        assert abs(energy(gf, spec, m) - exact) <= 1e-14 * exact


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
        face = _face_gradient(x, spec, spacing)
        stencil = energy_gradient(x, spec, spacing)
        if m is not None:
            face, stencil = np.where(m, face, 0.0), np.where(m, stencil, 0.0)
        assert np.max(np.abs(stencil - face)) <= 1e-13 * np.max(np.abs(face))
    # the interior Laplacian, read on arrays (grids need >= 5 nodes per axis)
    inner = (slice(1, -1),) * N
    face_lap = _face_divergence(u, spec, spacing)[inner]
    stencil_lap = apply_operator(_face_divergence, u, spec, spacing)[inner]
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
    face_lap = _face_divergence(u, spec, gf.spacing)
    halo = ~interior_mask(gf)
    np.testing.assert_array_equal(np.isnan(lap), halo)
    assert np.max(np.abs(lap - face_lap)[~halo]) \
        <= 1e-13 * np.max(np.abs(face_lap[~halo]))


def test_stencil_cache_is_read_only_and_keyed_on_spacing(work):
    face_ops = (_face_gradient, _face_divergence)
    for face_op in face_ops:
        S, _, _ = constant_stencil(face_op, ELLIPSE, (0.1, 0.1))
        with pytest.raises(ValueError):
            S[(2, 2)] = 0.0
        T, _, _ = constant_stencil(face_op, ELLIPSE, (0.1, 0.2))
        assert not np.array_equal(S, T)
        assert constant_stencil(face_op, ELLIPSE, (0.1, 0.1))[0] is S
    # one cache, keyed on the operator too
    assert not np.array_equal(constant_stencil(face_ops[0], ELLIPSE, (0.1, 0.1))[0],
                              constant_stencil(face_ops[1], ELLIPSE, (0.1, 0.1))[0])
    u = np.random.default_rng(0).standard_normal((9, 9))
    # taps below machine epsilon (here ~1e-17 at h = 1e8) must still count
    inner = (slice(1, -1),) * 2
    for h in ((0.1, 0.2), (1e8, 3e8)):
        face = _face_gradient(u, ELLIPSE, h)
        assert np.max(np.abs(energy_gradient(u, ELLIPSE, h) - face)) \
            <= 1e-13 * np.max(np.abs(face))
        face = _face_divergence(u, ELLIPSE, h)[inner]
        lap = apply_operator(_face_divergence, u, ELLIPSE, h)[inner]
        assert np.max(np.abs(lap - face)) <= 1e-13 * np.max(np.abs(face))

    # p-norms keep the face path everywhere: no correlation, no stencil energy
    pn = norms.p_norm(3, 2)
    lay = ball_layout(pn, 1.0, 1 / 8)
    mask = ball_mask(pn, lay, 1.0)
    r = norms.dual_norm_eval(pn, lay.coords())
    v = lay.with_values(np.where(mask, np.exp(-2 * r**2), 0.0))
    for call in (lambda: energy(v, pn, mask),
                 lambda: proximal_step(v, pn, mask, 1e-2, InnerSolverConfig(tolerance=1e-8)),
                 lambda: explicit_step(v, pn, mask, 1e-4), lambda: finsler_laplacian(v, pn)):
        counts = work(call, trace=False, cold=False).counts
        assert counts["correlate"] == counts["stencil_energy"] == 0
    assert work(lambda: finsler_laplacian(v, ELLIPSE), trace=False,
                cold=False).counts["correlate"] == 1


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
        K[:, col] = _face_gradient(e.reshape(v.shape), EUCLID, lay.spacing).ravel()[idx]
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
    """The unpreconditioned CG solve of (I/tau + K) u = v/tau from u = v by
    scipy's `cg`, the reference for the stepper's own CG: (u, info, CG
    iterations)."""
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


def test_newton_prox_backtracks_and_keeps_its_cg_counts():
    # at p = 1.2 one Newton step of the first prox overshoots even after its
    # secant cut and is halved once (Armijo); without the halving the two
    # steps take 99 and 81 CG iterations
    problem, _ = _ball_problem(norms.p_norm(1.2, 2), 1.0, 1 / 8, lambda r: np.exp(-2 * r**2),
                               r_max=8.0, tau=1e-3, t_end=2e-3,
                               inner=InnerSolverConfig(tolerance=1e-8, max_iters=3000))
    mon = solve(problem).monitors
    assert mon["inner_iterations"].tolist() == [0, 85, 84]
    assert np.all(np.diff(mon["energy"]) <= 0.0)


def test_newton_prox_preconditions_p3_and_keeps_its_cg_counts():
    # p = 3 on the unit ball from a ridge exp(-8 x^2 - y^2/2), whose DA_yy is
    # small (c_y about 0.4): each Newton CG is preconditioned by the box
    # solve of the face-median stencil (plain: 48, 46, 49; with c = 1:
    # 29, 27, 28), and the energy falls
    spec = norms.p_norm(3, 2)
    lay = ball_layout(spec, 1.0, 1 / 16)
    x = lay.coords()
    problem = FlowProblem(norm=spec, radius=1.0,
                          datum=lay.with_values(np.exp(-8 * x[..., 0]**2 - 0.5 * x[..., 1]**2)),
                          tau=1e-2, t_end=3e-2, inner=InnerSolverConfig(tolerance=1e-8))
    mon = solve(problem).monitors
    assert mon["inner_iterations"].tolist() == [0, 23, 29, 24]
    assert mon["preconditioned"].tolist() == [0, 1, 1, 1]
    assert np.all(np.diff(mon["energy"]) <= 0.0)


def test_face_median_is_np_median_bit_for_bit():
    """`_face_medians` reads c_k as `np.median` of the positive
    DA_kk over two face families, on odd and even counts, with ties, zeros
    and negative entries (which it leaves out)."""
    rng = np.random.default_rng(11)
    for n in [*range(1, 50), 34000, 34001]:
        for draw in range(3 if n < 50 else 2):
            values = (rng.integers(-2, 6, n).astype(float) if draw == 1
                      else rng.standard_normal(n) * np.exp(rng.standard_normal(n)))
            positive = values[values > 0.0]
            if not positive.size:
                continue
            families = [{(0, 0): values[:n // 3]}, {(0, 0): values[n // 3:]}]
            medians = np.array(flow._face_medians(families, 1, np.empty(n)))
            assert _same_bits(medians, np.array([np.median(positive)])), (n, draw)


@pytest.mark.parametrize("p, preconditioned", [(1.5, False), (2.0, True), (3.0, True)])
def test_newton_steps_report_whether_they_were_preconditioned(p, preconditioned):
    spec = norms.p_norm(p, 2)
    lay = ball_layout(spec, 1.0, 1 / 8)
    v = np.exp(-2.0 * norms.dual_norm_eval(spec, lay.coords()) ** 2)
    step = solve(FlowProblem(norm=spec, radius=1.0, datum=lay.with_values(v), tau=1e-2,
                             t_end=1e-2, inner=InnerSolverConfig(tolerance=1e-8)))
    assert step.monitors["preconditioned"].tolist() == [0, preconditioned]


def test_preconditioned_newton_cg_grows_slowly_under_refinement(work):
    # one prox at p = 3, tau = 1e-2 from exp(-2 H0^2): CG iterations per
    # Newton step (one CG solve each) grow by at most 1.5x per halving of h,
    # on average from h = 1/16 to 1/64 (2.6, 2.9, 4.9 here; plain CG 4.1,
    # 7.2, 12.5)
    spec, per_step = norms.p_norm(3, 2), []
    for cells in (16, 32, 64):
        lay = ball_layout(spec, 1.0, 1 / cells)
        v = lay.with_values(np.exp(-2.0 * norms.dual_norm_eval(spec, lay.coords()) ** 2))
        problem = FlowProblem(norm=spec, radius=1.0, datum=v, tau=1e-2, t_end=1e-2,
                              inner=InnerSolverConfig(tolerance=1e-8))
        step = work(lambda: solve(problem), trace=False, cold=False)
        per_step.append(step.cg / step.counts["cg_solves"])
    assert (per_step[-1] / per_step[0]) ** 0.5 <= 1.5, per_step


def test_preconditioned_prox_meets_the_unpreconditioned_stopping_test():
    # the CG stops on the unpreconditioned residual: the residual of the
    # returned field, recomputed here, is within tolerance (1 + ||v||)
    spec, tau, inner = ELLIPSE, 1e-2, InnerSolverConfig(tolerance=1e-9)
    lay = ball_layout(spec, 6.0, 6 / 64)
    mask = ball_mask(spec, lay, 6.0)
    v = np.exp(-norms.dual_norm_eval(spec, lay.coords()) ** 2)
    step = solve(FlowProblem(norm=spec, radius=6.0, datum=lay.with_values(v), tau=tau,
                             t_end=tau, inner=inner))
    assert step.monitors["preconditioned"][-1] and step.monitors["inner_iterations"][-1] >= 1
    u = step.slices[-1].values
    gap, scale = _prox_residual(u, v, spec, mask, tau, lay.spacing, lay.cell_volume)
    assert gap <= inner.tolerance * scale


def test_a_solve_builds_the_band_and_the_box_preconditioner_once(work):
    # three quiet diag(4,1) steps share one stepper: one boundary band and
    # one box preconditioner, whose build forms the symbol tables of K's
    # stencil, for the solve, not one per step
    problem, _ = _ball_problem(ELLIPSE, 6.0, 6 / 64, lambda r: np.exp(-r**2), tau=1e-2,
                               t_end=3e-2, inner=InnerSolverConfig(tolerance=1e-7))
    run = work(lambda: solve(problem), trace=False,
               also={"band": flow._boundary_band, "symbol": operators.symbol_plan})
    assert run.result.monitors["preconditioned"].tolist() == [0, 1, 1, 1]
    assert (run.counts["band"], run.counts["symbol"]) == (1, 1)


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
    problem = FlowProblem(norm=spec, radius=radius, datum=lay.with_values(v), tau=tau,
                          t_end=tau, inner=inner)
    with pytest.raises(ConvergenceError) as err:
        solve(problem)
    gap, scale = _prox_residual(err.value.best, v, spec, mask, tau, lay.spacing,
                                lay.cell_volume)
    assert err.value.gap == gap > inner.tolerance * scale
    # within budget, the same datum reports the path the failing step took
    within = solve(replace(problem, inner=replace(inner, max_iters=10000)))
    assert within.monitors["preconditioned"].tolist() == [0, preconditioned]


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
    return spec, lay, ball_mask(spec, lay, radius)


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
    sigma = operators.stencil_symbol(_face_gradient, spec, spacing, lengths)
    S, scale, _ = constant_stencil(_face_gradient, spec, tuple(spacing))
    assert np.all(1.0 / tau + sigma > 0.0)
    assert np.all(sigma >= -1e-12 * scale * np.sum(np.abs(S)))

    # a datum that vanishes on the band takes the preconditioned path and
    # lands within the stopping tolerance of the plain solve: both residuals
    # are below tol (1 + ||v||), and I/tau + K >= I/tau
    step = flow._prox_stepper(spec, spacing, mask, tau, inner)
    quiet = np.where(mask & ~band, rng.standard_normal(mask.shape), 0.0)
    u, stats = step(quiet)
    assert stats["preconditioned"]
    plain, info, _ = _plain_prox(quiet, spec, mask, tau, inner, spacing, vol)
    assert info == 0
    gap, scale = _prox_residual(u, quiet, spec, mask, tau, spacing, vol)
    assert gap <= inner.tolerance * scale
    assert np.sqrt(np.sum((u - plain) ** 2) * vol) <= 2 * tau * inner.tolerance * scale

    # a datum that reaches the band takes the plain path: scipy's cg bit for
    # bit once the stepper's inner products are scipy's BLAS dot
    loud = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    if np.sqrt(np.sum(loud[band] ** 2) * vol) / tau \
            < inner.tolerance * (1.0 + np.sqrt(np.sum(loud * loud) * vol)):
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "_dot", lambda a, b: float(np.dot(a.ravel(), b.ravel())))
        u, stats = step(loud)
    plain, info, steps = _plain_prox(loud, spec, mask, tau, inner, spacing, vol)
    assert not stats["preconditioned"] and info == 0
    assert _same_bits(u, plain) and stats["inner_iterations"] == steps


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
    back = _quadratic_box(spec, spacing, mask, tau)(y)
    assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))
    # a mask that frees the box edge keeps the preconditioner positive
    # definite on the fields it admits, those on the edge alone too
    edge = np.where(mask, 0.0, rng.standard_normal(shape))
    free = np.ones(shape, dtype=bool)
    assert np.sum(edge * _quadratic_box(spec, spacing, free, tau)(edge)) > 0.0


@settings(max_examples=40)
@given(data=st.data())
def test_the_box_solve_keeps_the_bits_of_the_whole_symbols_divisor(data, block):
    """The box solve holds no divisor: each call forms 1/tau + sum_k c_k
    sigma_k a block of rows at a time, 1/tau first and then each c_k sigma_k
    in turn.  Against a reference that divides the same transform by the
    divisor of whole `operators.stencil_symbol`s, formed in that order, it
    keeps every bit, N = 1-3, for K's stencil weighed by 1 and for the unit
    forms under several weighings of one builder, at blocks of one row
    (merged into two), a few rows and the whole box."""
    N = data.draw(st.integers(1, 3))
    spec, lay, mask = _box_problem(data, N)
    spacing, lengths = lay.spacing, operators.dst_box(mask.shape)
    tau = data.draw(st.floats(1e-3, 1.0)) * min(spacing) ** 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    quadratic = data.draw(st.booleans())
    ops = [_face_gradient] if quadratic else [flow._unit_face_form(k) for k in range(N)]
    sigmas = [operators.stencil_symbol(op, spec, spacing, lengths) for op in ops]
    interior, box = (slice(1, -1),) * N, tuple(slice(0, n - 2) for n in mask.shape)
    with block(data.draw(st.sampled_from([1, 40, 10**6]))):
        weigh = flow._box_preconditioner(mask, tau, spec, spacing, ops, _box_scratch(mask))
        for _ in range(1 if quadratic else 3):
            c = [1.0] if quadratic else [data.draw(st.floats(0.01, 100.0)) for _ in range(N)]
            got = weigh(c)(r)
            divisor = np.full(lengths, 1.0 / tau)
            for ck, sigma in zip(c, sigmas):
                divisor += sigma * ck
            work = np.zeros(lengths)
            work[box] = r[interior]
            transform = flow._dst1(lengths)
            transform(work)
            work /= divisor
            transform(work, inverse=True)
            want = tau * r
            want[interior] = work[box]
            assert _same_bits(got, np.where(mask, want, 0.0))


def _quadratic_box(spec, spacing, mask, tau):
    """The quadratic path's box preconditioner: K's stencil weighed by 1,
    the divisor 1/tau + the symbol of K's stencil."""
    return flow._box_preconditioner(mask, tau, spec, spacing, [_face_gradient],
                                    _box_scratch(mask))((1.0,))


def _box_scratch(mask):
    """A flat scratch that holds the `operators.dst_box` of the mask's shape."""
    return np.empty(math.prod(operators.dst_box(mask.shape)))


@settings(max_examples=30)
@given(data=st.data())
def test_unit_form_symbols_sum_to_the_diagonal_ellipse_symbol(data):
    # the face form with DA = diag(c) is the energy gradient of the ellipse
    # diag(c): its DST-I symbol is sum_k c_k sigma_k, sigma_k that of the
    # unit form along k, which the p-norm Newton preconditioner sums
    N = data.draw(st.integers(1, 3))
    c = [data.draw(st.floats(0.1, 10.0)) for _ in range(N)]
    spacing = tuple(data.draw(st.floats(0.05, 2.0)) for _ in range(N))
    lengths = tuple(data.draw(st.integers(1, (40, 20, 10)[N - 1])) for _ in range(N))
    spec = norms.ellipse(np.diag(c))
    whole = operators.stencil_symbol(_face_gradient, spec, spacing, lengths)
    parts = sum(ck * operators.stencil_symbol(flow._unit_face_form(k), spec, spacing, lengths)
                for k, ck in enumerate(c))
    assert np.max(np.abs(parts - whole)) <= 1e-13 * np.max(np.abs(whole))


@settings(max_examples=30)
@given(N=st.integers(1, 3), k=st.integers(0, 2),
       spacing=st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3))
@example(N=2, k=1, spacing=[0.3, 1.3, 2.3])
def test_unit_form_stencil_is_the_reference_face_form_with_a_unit_jacobian(N, k, spacing):
    """The stencil of the unit form along k, `FaceKernel.form` with the flux
    xi_k e_k, is the one read off the reference face form with DA = e_k e_k^T
    (applied by einsum): S by value, since a zero may carry either sign, and
    its scale and taps bit for bit."""
    k, spacing = k % N, tuple(spacing[:N])
    spec, unit = norms.euclidean(N), np.diag(np.arange(N) == k).astype(float)

    def reference(values, spec, spacing):
        return _reference_face_form(values, spacing, lambda axis, xi: np.einsum(
            "ij,...j->...i", unit, xi))
    S, scale, taps = constant_stencil(flow._unit_face_form(k), spec, spacing)
    ref_S, ref_scale, ref_taps = constant_stencil.__wrapped__(reference, spec, spacing)
    assert np.array_equal(S, ref_S) and _same_bits(np.float64(scale), np.float64(ref_scale))
    assert repr(taps) == repr(ref_taps)


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


@pytest.mark.parametrize("axis, side", [(0, 0), (0, -1), (1, 0), (1, -1)])
def test_explicit_step_refuses_a_mask_on_the_box_edge(axis, side):
    # the face-flux operator is undefined on the box edge: a mask that frees
    # one node there is refused instead of stepping it with a partial sum
    lay = ball_layout(EUCLID, 1.0, 1 / 16)
    mask = ball_mask(EUCLID, lay, 1.0)
    r = norms.dual_norm_eval(EUCLID, lay.coords())
    gf = lay.with_values(np.exp(-3 * r**2))
    np.moveaxis(mask, axis, 0)[side, 3] = True
    with pytest.raises(SpecValidationError, match="box edge"):
        explicit_step(gf, EUCLID, mask, 1e-4)


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


def test_monitor_weights_round_as_their_closed_forms():
    """Each weighted monitor keeps the bits of its formula written out:
    e^(-2 g) u^2 and e^(-g) |u| with g = lam H0^2 / (1 - 4 lam t), and the
    ball window of e^(-H0^2 (1 + t^ell)) |u|, on a field of both signs."""
    lam, ell = 0.5, 0.25
    lay = ball_layout(ELLIPSE, 2.0, 1 / 8)
    mask = ball_mask(ELLIPSE, lay, 2.0)
    h0 = norms.dual_norm_eval(ELLIPSE, lay.coords())
    u = np.where(mask, np.exp(-h0**2) * np.cos(3.0 * lay.coords()[..., 0]), 0.0)
    kernel, vol = measures._ball_kernel(ELLIPSE, 1.0, lay.spacing), lay.cell_volume
    for t in (0.0, 0.01, 0.3):
        got = weighted_monitors(lay.with_values(u), ELLIPSE, t, lam, ell, mask)
        g = lam * h0**2 / (1.0 - 4.0 * lam * t)
        assert got["weighted_l2"] == float(np.sum(np.exp(-2.0 * g) * u * u)) * vol
        assert got["weighted_l1_lambda"] == float(np.sum(np.exp(-g) * np.abs(u))) * vol
        window = measures.fftconvolve(np.exp(-(h0**2) * (1.0 + t**ell)) * np.abs(u), kernel)
        assert got["weighted_l1_local"] == float(np.max((window * vol)[mask]))


def test_weighted_monitors_match_the_trajectory_bit_for_bit():
    # solve records through the same path, for either scheme, with NaN lam
    # weights from the horizon 1/(4 lam) = 0.05 on: every recorded name but
    # the stepper's stats
    lam, ell = 5.0, 0.25
    names = ["energy", "mass", "weighted_l2", "weighted_l1_lambda", "weighted_l1_local"]
    for scheme, tau in (("implicit_proximal", 1e-2), ("explicit_euler", 5e-4)):
        problem, _ = _ball_problem(ELLIPSE, 2.0, 1 / 8, lambda r: np.exp(-r**2),
                                   tau=tau, t_end=6e-2, scheme=scheme,
                                   store_times=(0.0, 2e-2, 4e-2, 5e-2),
                                   monitor_lambda=lam, monitor_ell=ell,
                                   inner=InnerSolverConfig(tolerance=1e-9))
        traj = solve(problem)
        assert sorted(traj.monitors) == sorted(names + ["inner_iterations", "preconditioned"])
        # the stamps k tau; for tau = 1e-2 they equal 0.0, 0.02, .. exactly
        assert traj.times == [round(t / tau) * tau for t in (0.0, 2e-2, 4e-2, 5e-2, 6e-2)]
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


def test_the_local_monitor_transforms_its_ball_kernel_once(work):
    # a solve of K steps transforms the ball kernel's rows once and the
    # weighted field K + 1 times, once per read, and each reading is that of
    # `weighted_monitors`, which transforms the kernel anew, bit for bit
    ell = 0.25
    problem, _ = _ball_problem(ELLIPSE, 2.0, 1 / 8, lambda r: np.exp(-r**2), tau=1e-2,
                               t_end=3e-2, store_times=(0.0, 1e-2, 2e-2), monitor_ell=ell)
    run = work(lambda: solve(problem), trace=False,
               also={"rfftn": measures.rfftn, "kernel_rows": measures.kernel_rows})
    assert (run.counts["rfftn"], run.counts["kernel_rows"]) == (problem.steps + 1, 1)
    traj = run.result
    for step, (t, gf) in enumerate(zip(traj.times, traj.slices)):
        again = weighted_monitors(gf, ELLIPSE, t, ell=ell, mask=traj.mask)["weighted_l1_local"]
        assert again == traj.monitors["weighted_l1_local"][step]


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


def test_explicit_run_scans_the_p_norm_sphere_once(work):
    # the step bound reads coercivity_bounds, cached per NormSpec: from a
    # cold cache, one scan of the sphere for the whole run, the problem's
    # check of the bound included
    spec = norms.p_norm(3, 2)
    scans = work(lambda: solve(_ball_problem(spec, 1.0, 1 / 8, lambda r: np.exp(-r**2),
                                             tau=1e-3, t_end=3e-3, scheme="explicit_euler")[0]),
                 trace=False, also={"scan": norms.coercivity_bounds})
    assert scans.counts["scan"] == 1


def test_solve_rejects_store_times_outside_the_run():
    for bad in ((5e-3,), (-1e-3,), (5e-3, -1e-3)):
        with pytest.raises(SpecValidationError, match="outside"):
            problem, _ = _ball_problem(EUCLID, 1.0, 1 / 8, lambda r: np.exp(-r**2),
                                       tau=1e-3, t_end=2e-3, store_times=bad)
            solve(problem)


def test_solve_explicit_above_the_step_bound_raises():
    # the problem refuses the step when it is built, before any solve
    with pytest.raises(StabilityError):
        problem, _ = _ball_problem(EUCLID, 1.0, 1 / 16, lambda r: np.exp(-r**2),
                                   tau=1e-2, t_end=2e-2, scheme="explicit_euler")
        solve(problem)


@pytest.mark.parametrize("spec", [ELLIPSE, norms.ellipse(np.array([[2.0, 1.2], [1.2, 1.0]])),
                                  norms.p_norm(3, 2)])
def test_solve_records_states_that_vanish_off_the_mask(spec):
    # solve reads its monitors off the state unclamped, so every step must
    # leave it exactly 0 off the mask; the explicit run is explicit_step
    # chained, bit for bit
    tau = 1e-4
    stamps = tuple(k * tau for k in range(5))
    explicit = None
    for scheme in ("implicit_proximal", "explicit_euler"):
        problem, _ = _ball_problem(spec, 1.0, 1 / 8, lambda r: np.exp(-2 * r**2), r_max=8.0,
                                   tau=tau, t_end=stamps[-1], store_times=stamps,
                                   scheme=scheme, inner=InnerSolverConfig(tolerance=1e-9))
        traj = solve(problem)
        assert len(traj.slices) == len(stamps)
        for gf in traj.slices:
            assert np.all(gf.values[~traj.mask] == 0.0)
        explicit = traj
    gf = explicit.slices[0]
    for stored in explicit.slices[1:]:
        gf = explicit_step(gf, spec, explicit.mask, tau)
        np.testing.assert_array_equal(gf.values, stored.values)


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


def test_weighted_monitors_refuse_the_lambdas_that_flow_problem_refuses():
    # lam = -1 read a weight that grows, weighted_l2 12.17 against mass 3.27,
    # and NaN read NaN monitors
    lay = lift_radial(RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 65),
                      EUCLID, ball_layout(EUCLID, 1.0, 1 / 8))
    weighted_monitors(lay, EUCLID, 0.0, lam=0.5)
    for lam in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(SpecValidationError, match="lambda"):
            weighted_monitors(lay, EUCLID, 0.0, lam=lam)
        with pytest.raises(SpecValidationError, match="lambda"):
            FlowProblem(norm=EUCLID, radius=1.0, datum=lay, tau=1e-3, t_end=1e-2,
                        monitor_lambda=lam)


def test_a_lambda_whose_horizon_falls_by_the_first_step_is_refused_by_name():
    # lambda = 30 at tau = 0.01 puts the horizon 1/(4 lambda) before the
    # first step: the run exited 0 with its lambda monitors nan after t = 0.
    # A one-shot read past the horizon keeps reading nan
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    FlowProblem(norm=EUCLID, radius=1.0, datum=lay, tau=1e-2, t_end=2e-2, monitor_lambda=24.0)
    with pytest.raises(SpecValidationError, match=r"lambda 30 .* tau = 0\.01"):
        FlowProblem(norm=EUCLID, radius=1.0, datum=lay, tau=1e-2, t_end=2e-2, monitor_lambda=30)
    assert np.isnan(weighted_monitors(lay, EUCLID, 1e-2, lam=30.0)["weighted_l2"])


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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60)
@given(data=st.data())
def test_boundary_band_is_the_maximum_filter_of_the_clamped_nodes(data):
    from scipy import ndimage
    N = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 40 if N == 1 else 12)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    mask = rng.random(shape) < data.draw(st.floats(0.0, 1.0))
    expected = mask & ndimage.maximum_filter(~mask, size=5, mode="constant", cval=True)
    assert np.array_equal(flow._boundary_band(mask), expected)


@settings(max_examples=60)
@given(data=st.data())
def test_dst1_pair_is_scipys_bit_for_bit(data):
    """`_dst1` against scipy.fft's dstn and idstn of type 1 in 1-3 D, at
    lengths that are mostly not powers of two, twice on one set of buffers."""
    from scipy.fft import dstn, idstn
    N = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 70 if N == 1 else 14)) for _ in range(N))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    transform = flow._dst1(shape)
    for _ in range(2):
        x = rng.standard_normal(shape)
        forward, inverse = x.copy(), x.copy()
        transform(forward)
        transform(inverse, inverse=True)
        assert _same_bits(forward, dstn(x, type=1))
        assert _same_bits(inverse, idstn(x, type=1))


def test_dst1_inverse_scale_is_rounded_from_long_double():
    """At n = 2730 the inverse scale 1 / 5462 rounds differently from long
    double than from double; scipy's idstn takes the long double one."""
    from scipy.fft import idstn
    x = np.random.default_rng(3).standard_normal(2730)
    y = x.copy()
    flow._dst1((2730,))(y, inverse=True)
    assert _same_bits(y, idstn(x, type=1))


@pytest.mark.parametrize("shape", [(7,), (40,), (9000,), (511, 255), (9, 5), (31, 17, 13),
                                   (5, 64, 3), (127, 63, 63)])
def test_dst1_slabs_keep_scipys_bits(shape):
    """`_dst1` against scipy.fft's dstn and idstn of type 1 on shapes whose
    lines fill several slabs, the last one partial: 511 x 255 runs axis 0
    in 15 runs of 16 columns and one of 15, and axis 1 in 15 slabs of 32
    rows and one of 31; 127 x 63 x 63 runs axis 0 in 62 runs of 64
    columns and one of 1."""
    from scipy.fft import dstn, idstn
    rng = np.random.default_rng(sum(shape))
    transform = flow._dst1(shape)
    for _ in range(2):
        x = rng.standard_normal(shape)
        forward, inverse = x.copy(), x.copy()
        transform(forward)
        transform(inverse, inverse=True)
        assert _same_bits(forward, dstn(x, type=1))
        assert _same_bits(inverse, idstn(x, type=1))


def test_dst1_pair_allocates_well_under_one_field(work):
    """Building the 511 x 255 box's DST-I and running a forward and an
    inverse transform allocate under half of one field, when warm: the
    slabs' extension and spectrum take 16 lines of 511 or 32 of 255, 0.27
    field, and numpy's strided ufuncs 128 KiB of buffers, 0.13 (a full-size
    extension and spectrum took four fields)."""
    x = np.random.default_rng(5).standard_normal((511, 255))

    def pair():
        transform = flow._dst1(x.shape)
        transform(x)
        transform(x, inverse=True)
    pair()
    assert work(pair, count=False, cold=False).peak < x.nbytes / 2


def test_box_symbol_allocates_one_symbol(work):
    """The DST-I symbol of K's stencil on the 511 x 255 box, the box of the
    513 x 257 ellipse grid, peaks at its one result and the cosine tables:
    its sum is scaled in place (a scaled copy took two symbols)."""
    spec, spacing, lengths = ELLIPSE, (6 / 128, 6 / 128), (511, 255)
    operators.stencil_symbol(_face_gradient, spec, spacing, lengths)
    sigma = work(lambda: operators.stencil_symbol(_face_gradient, spec, spacing, lengths),
                 count=False, cold=False)
    assert sigma.result.shape == lengths and sigma.peak < 1.25 * sigma.result.nbytes


def test_a_warm_box_weigh_allocates_no_field(work):
    """Weighing the p >= 2 Newton path's box solve again, as each Newton
    step does, and solving with it on the box of the 513 x 257 grid forms
    1/tau + sum_k c_k sigma_k a block of rows at a time in two block
    buffers: the weigh and the solve allocate under an eighth of a field
    beside the solve's result (1.00 fields in all with numpy 2.4; each
    c_k sigma_k, or a whole symbol, took one more)."""
    gf, mask = _ellipse_ball(6 / 128)
    weigh = flow._box_preconditioner(mask, 1e-2, norms.p_norm(3, 2), gf.spacing,
                                     [flow._unit_face_form(k) for k in range(2)],
                                     _box_scratch(mask))
    weigh((0.5, 2.0))(gf.values)
    peak = work(lambda: weigh((0.75, 3.0))(gf.values), count=False, cold=False).peak
    assert peak < gf.values.nbytes * (1 + 1 / 8)


def _solve_peak(problem, work) -> float:
    """The tracemalloc peak of a solve from cleared caches, in fields."""
    solve(problem)      # imports what the solve imports
    return work(lambda: solve(problem), count=False).peak / problem.datum.values.nbytes


@pytest.mark.parametrize("spec, radius, scheme, tau, fields", [
    (ELLIPSE, 6.0, "implicit_proximal", 1e-2, 10.0),
    (ELLIPSE, 6.0, "explicit_euler", 1e-4, 8.0),
    (norms.p_norm(3.0, 2), 1.0, "explicit_euler", 5e-5, 23.5)],
    ids=["implicit", "explicit", "explicit-p3"])
def test_a_solve_peaks_at_a_bounded_number_of_fields(spec, radius, scheme, tau, fields, work):
    """Three steps of a solve on its ball at h = radius / 64 with both
    monitors, from cleared caches, allocate at most `fields` field sizes at
    their peak.  The ellipse diag(4, 1) on 257 x 129 nodes (9.57 and 7.67
    with numpy 2.4; 10.71 and 8.39 with `correlate` rimming the whole field
    in the energy's copy, a box divisor held and the CG's right side and
    the lambda read's second weight fields of their own): the stepper and
    the monitor reader share one set of correlation buffers, whose copy's
    head the CG's right side and the lambda read's second weight borrow
    and whose scratch the reader's weights do, the DST-I runs in slabs,
    the reader holds no field of H0^2, the CG keeps no dead copy, no
    full-size temporary and no product of its own, its box solve runs in
    the buffers' flat scratch and forms its divisor a block of rows at a
    time, and the ell monitor holds the ball kernel's row transform only
    and reads the inverse of the cropped rows a block at a time (12.95 and 10.6 with
    the kernel's full spectrum held, the padded inverse, a DST buffer per
    call and a weighed symbol; 14.7 with a full flat sums buffer, a CG
    temporary, a product per step and a held DST buffer besides).  The
    explicit p = 3 flow on 129 x 129 nodes, tau under its step bound of
    6.1e-5 (21.20): no stepper makes Newton faces, so the reader takes the
    energy from `energy_gradient` and builds none (54.8 when it built them)."""
    problem, _ = _ball_problem(spec, radius, radius / 64, lambda r: np.exp(-r**2), tau=tau,
                               t_end=3 * tau, scheme=scheme, monitor_lambda=0.5,
                               monitor_ell=0.25, inner=InnerSolverConfig(tolerance=1e-7))
    assert _solve_peak(problem, work) <= fields


def test_a_3d_solve_peaks_at_a_bounded_number_of_fields(work):
    """Three implicit steps on the ellipse diag(4, 1, 1) ball of radius 6 at
    h = 0.375, 65 x 33 x 33 nodes, with both monitors, peak at most 9.5
    fields (8.79 with numpy 2.4; 10.14 with `correlate` rimming the whole
    field in the energy's copy, a box divisor held and the CG's right side
    and the lambda read's second weight fields of their own; 13.37 with the
    ball kernel's full spectrum held, the padded inverse, a DST buffer per
    call and a weighed symbol)."""
    spec = norms.ellipse(np.diag([4.0, 1.0, 1.0]))
    problem, _ = _ball_problem(spec, 6.0, 0.375, lambda r: np.exp(-r**2), tau=1e-2,
                               t_end=3e-2, monitor_lambda=0.5, monitor_ell=0.25,
                               inner=InnerSolverConfig(tolerance=1e-7))
    assert problem.datum.values.shape == (65, 33, 33)
    assert _solve_peak(problem, work) <= 9.5


def test_a_warm_quadratic_prox_step_peaks_at_a_bounded_number_of_fields(work):
    """One warm preconditioned step of the quadratic prox on the 513 x 257
    ellipse grid (tau 1e-3), with its correlation buffers handed, peaks
    under 2.5 fields (2.07 with numpy 2.4: the clamped datum, CG's direction
    and the box solve's result; 3.07 with a right side of its own, 4.05
    with a DST buffer per box solve besides, 5.0 with a full-size CG
    temporary besides, or with a product of its own per step).  The right
    side u/tau, then CG's residual, sits in the head of the buffers'
    zero-rimmed copy, and the matvec's product K y and the box solve's
    DST-I in their flat scratch.  Between steps the stepper holds under one
    field beside those buffers: the DST slabs, the symbol tables and the
    masks (0.81; 1.65 with a box divisor held, 2.76 with a DST buffer of
    the box's own held per solve besides).  A warm step keeps the cold
    step's bits."""
    gf, mask = _ellipse_ball(6 / 128)
    field, buffers = gf.values.nbytes, {}

    def first_step():
        step = flow._prox_stepper(ELLIPSE, gf.spacing, mask, 1e-3,
                                  InnerSolverConfig(tolerance=1e-7), buffers)
        return step, *step(gf.values)
    built = work(first_step, count=False, cold=False)
    step, first, stats = built.result
    again = work(lambda: step(gf.values)[0], count=False, cold=False)
    assert stats["preconditioned"] and _same_bits(again.result, first)
    handed = sum(a.nbytes for plan in buffers.values() for a in plan)
    assert built.held - handed - first.nbytes < field
    assert again.peak < 2.5 * field


def test_the_box_solve_borrows_a_scratch_that_holds_a_box_longer_than_the_copy(monkeypatch):
    """On 387 x 387 nodes the DST box, 399 a side, is longer than the
    correlation's zero-rimmed copy, 391: the buffers' flat scratch holds the
    larger of the two, and a preconditioned quadratic prox step whose box
    solve runs in it keeps the bits of one whose box solve runs in a
    scratch of its own."""
    lay = ball_layout(EUCLID, 6.0, 6 / 193)
    mask = ball_mask(EUCLID, lay, 6.0)
    datum = np.where(mask, np.exp(-norms.dual_norm_eval(EUCLID, lay.coords()) ** 2), 0.0)
    assert mask.shape == (387, 387) and operators.dst_box(mask.shape) == (399, 399)
    inner, buffers = InnerSolverConfig(tolerance=1e-7), {}
    borrowed, stats = flow._prox_stepper(EUCLID, lay.spacing, mask, 1e-3, inner, buffers)(datum)
    (scratch,) = [plan[3] for plan in buffers.values()]
    assert scratch.size == 399 * 399 > 391 * 391
    own = flow._box_preconditioner
    monkeypatch.setattr(flow, "_box_preconditioner",
                        lambda *args: own(*args[:5], np.empty(args[5].size)))
    alone = proximal_step(lay.with_values(datum), EUCLID, mask, 1e-3, inner).values
    assert stats["preconditioned"] and _same_bits(borrowed, alone)


def test_a_solve_leaves_no_field_in_a_module_cache(work):
    """What a solve allocates and still holds once its trajectory is
    dropped is under a quarter of a field, for either scheme: its
    correlation buffers and DST-I slabs die with it, and only plans that
    hold no field stay cached."""
    for scheme, tau in (("implicit_proximal", 1e-2), ("explicit_euler", 1e-4)):
        problem, _ = _ball_problem(ELLIPSE, 6.0, 6 / 64, lambda r: np.exp(-r**2), tau=tau,
                                   t_end=2 * tau, scheme=scheme, monitor_lambda=0.5,
                                   monitor_ell=0.25, inner=InnerSolverConfig(tolerance=1e-7))
        solve(problem)
        held = work(lambda: _dropped(solve, problem), count=False).held
        assert held < problem.datum.values.nbytes / 4, scheme


def _dropped(call, *args) -> None:
    """call(*args), its result dropped: what the call still holds is cached."""
    call(*args)


_ENTRY_POINTS = {
    "energy": lambda gf, mask: energy(gf, ELLIPSE, mask),
    "weighted_monitors": lambda gf, mask: weighted_monitors(gf, ELLIPSE, 0.1, 0.5, 0.25, mask),
    "energy_gradient": lambda gf, mask: energy_gradient(gf.values, ELLIPSE, gf.spacing),
    "finsler_laplacian": lambda gf, mask: finsler_laplacian(gf, ELLIPSE),
    "proximal_step": lambda gf, mask: proximal_step(gf, ELLIPSE, mask, 1e-2,
                                                    InnerSolverConfig(tolerance=1e-7)),
    "explicit_step": lambda gf, mask: explicit_step(gf, ELLIPSE, mask, 1e-4),
}


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_public_entry_points_leave_no_field_in_a_module_cache(name, work):
    """What one call of a public entry point on the 257 x 129 ellipse
    diag(4, 1) ball allocates and still holds once its result is dropped is
    under a quarter of a field: each one-shot call makes its correlation
    buffers for the call, and only plans that hold no field stay cached.
    The warm call runs on a coarser grid of the same ball, so that a cache
    keyed by the grid, cleared or not, fills under the trace."""
    call = _ENTRY_POINTS[name]
    call(*_ellipse_ball(6 / 16))
    gf, mask = _ellipse_ball(6 / 64)
    assert work(lambda: _dropped(call, gf, mask), count=False).held < gf.values.nbytes / 4


def test_flow_problem_bounds_its_steps():
    """t_end / tau above MAX_STEPS, or past the largest float, is refused
    when the problem is built: the first would step for ever, the second
    raised OverflowError from round(inf)."""
    lay = ball_layout(EUCLID, 1.0, 0.25)
    for tau, t_end in ((1.0, 1e300), (1e-300, 1e10), (1e-3, 1e-3 * (flow.MAX_STEPS + 1))):
        with pytest.raises(SpecValidationError, match="steps"):
            FlowProblem(EUCLID, 1.0, lay, tau, t_end)
    assert FlowProblem(EUCLID, 1.0, lay, 1e-3, 1e-3 * flow.MAX_STEPS).steps == flow.MAX_STEPS


def test_an_integral_float_max_iters_is_kept_as_an_int():
    """InnerSolverConfig reads max_iters through `errors.integer` and keeps
    its int: 50.0 steps as 50 (the float failed in the prox's CG with
    "'float' object cannot be interpreted as an integer")."""
    lay = ball_layout(EUCLID, 1.0, 1 / 8)
    mask = ball_mask(EUCLID, lay, 1.0)
    v = lay.with_values(np.exp(-np.sum(lay.coords() ** 2, axis=-1)))
    inner = InnerSolverConfig(tolerance=1e-8, max_iters=50.0)
    assert type(inner.max_iters) is int and inner.max_iters == 50
    got = proximal_step(v, EUCLID, mask, 1e-2, inner)
    want = proximal_step(v, EUCLID, mask, 1e-2, InnerSolverConfig(tolerance=1e-8, max_iters=50))
    np.testing.assert_array_equal(got.values, want.values)


def _unstored_slice():
    """A solve that stores only its last step, asked for its first."""
    lay = ball_layout(EUCLID, 1.0, 0.25)
    return solve(FlowProblem(norm=EUCLID, radius=1.0, datum=lay, tau=0.01,
                             t_end=0.02)).slice_at(0.01)


@pytest.mark.parametrize("call, error, match", [
    (lambda: ball_layout(EUCLID, 1.0, 0.0), SpecValidationError, "spacing"),
    (_unstored_slice, KeyError, "no stored slice at t = 0.01"),
    *[(lambda k=k: scaling_check(_ball_problem(EUCLID, 1.0, 0.25, lambda r: np.exp(-r**2),
                                               tau=0.01, t_end=0.01)[0], k, [0.01]),
       SpecValidationError, "k must be a positive integer")
      for k in (1.5, np.nan, np.inf, 2 + 1e-13)],
], ids=["ball-layout-spacing-0", "slice-at-an-unstored-time", "scaling-k-1.5",
        "scaling-k-nan", "scaling-k-inf", "scaling-k-near-2"])
def test_flow_refuses_bad_arguments_by_name(call, error, match):
    # the CLI reads each of these values itself and never passes such a
    # one; the library's own check guards its Python callers
    with pytest.raises(error, match=match):
        call()


_DIMENSION_ENTRY_POINTS = {
    "proximal_step": lambda gf, spec, mask: proximal_step(gf, spec, mask, 1e-3),
    "energy": lambda gf, spec, mask: energy(gf, spec, mask),
    "energy_gradient": lambda gf, spec, mask: energy_gradient(gf.values, spec, gf.spacing),
    "explicit_step": lambda gf, spec, mask: explicit_step(gf, spec, mask, 1e-5),
    "finsler_laplacian": lambda gf, spec, mask: finsler_laplacian(gf, spec)}


@pytest.mark.parametrize("entry", list(_DIMENSION_ENTRY_POINTS))
@pytest.mark.parametrize("spec", [EUCLID, ELLIPSE, norms.p_norm(3.0, 2), norms.p_norm(1.5, 2)],
                         ids=["euclidean", "ellipse", "p3", "p1.5"])
def test_every_operator_entry_point_refuses_a_norm_of_another_dimension(spec, entry):
    # a 2-D norm on a 3-D grid: the quadratic families and the p >= 2 box
    # solve are refused by `constant_stencil`, the face path by eval_norm.
    # proximal_step, energy and energy_gradient returned a field or a number
    # for the quadratic families (a 2-D stencil zipped against three
    # strides), and the p = 3 prox failed on a numpy shape mismatch
    lay = empty_layout([(-1.0, 1.0)] * 3, (8, 8, 8))
    gf = lay.with_values(np.exp(-np.sum(lay.coords() ** 2, axis=-1)))
    with pytest.raises(ValueError, match="dimension"):
        _DIMENSION_ENTRY_POINTS[entry](gf, spec, ball_mask(norms.euclidean(3), gf, 0.9))
