import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerheat import flow, norms, radial
from finslerheat.errors import ConvergenceError, DomainError, SpecValidationError
from finslerheat.grids import RadialProfile
from finslerheat.radial import (_representation_sum, _scaled_sphere_integral,
                                _tail_bound, bessel_I0, radial_heat_profile,
                                sphere_integral_I)

EPS = np.finfo(float).eps


def test_sphere_integral_at_zero_is_sphere_measure():
    assert sphere_integral_I(0.0, 2) == pytest.approx(
        2 * np.pi, rel=1e-14)
    assert sphere_integral_I(0.0, 3) == pytest.approx(
        4 * np.pi, rel=1e-14)


def test_sphere_integral_n3_closed_form():
    assert sphere_integral_I(1.0, 3) == pytest.approx(4 * np.pi * np.sinh(1.0),
                                                      rel=1e-12)
    for z in (0.5, 2.0, 10.0, 50.0):
        assert sphere_integral_I(z, 3) == pytest.approx(
            4 * np.pi * np.sinh(z) / z, rel=1e-10)


def test_sphere_integral_n1_extension():
    assert sphere_integral_I(1.3, 1) == pytest.approx(2 * np.cosh(1.3), rel=1e-14)


@pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_bessel_identity_n2(z):
    I = sphere_integral_I(z, 2)
    assert abs(I - 2 * np.pi * bessel_I0(z)) / I <= 1e-8


def test_bessel_series_values():
    assert bessel_I0(0.0) == 1.0
    # mpmath gives the independent high-precision oracle
    assert bessel_I0(2.0, 200) == pytest.approx(float(mpmath.besseli(0, 2)),
                                                rel=1e-14)
    assert abs(bessel_I0(1.0, 60) - bessel_I0(1.0, 120)) <= 1e-15


def test_bessel_series_accuracy_z30():
    assert bessel_I0(30.0, 60) == pytest.approx(float(mpmath.besseli(0, 30)),
                                                rel=1e-13)


def test_scaled_sphere_integral_n2_matches_mpmath():
    # 2 pi e^{-z} I0(z) on both sides of z = 40 and far into the tail
    zs = np.array([39.999, 40.001, 100.0, 1e4])
    vals = _scaled_sphere_integral(zs, 2)
    with mpmath.workdps(40):
        refs = [float(2 * mpmath.pi * mpmath.exp(-mpmath.mpf(z))
                      * mpmath.besseli(0, mpmath.mpf(z))) for z in zs]
    np.testing.assert_allclose(vals, refs, rtol=1e-14, atol=0.0)


def test_sphere_integral_positive_and_monotone():
    zs = np.linspace(0.0, 20.0, 41)
    vals = [sphere_integral_I(z, 2) for z in zs]
    assert all(v > 0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_overflow_guard():
    with pytest.raises(DomainError):
        sphere_integral_I(800.0, 2)


def test_constants_are_invariant():
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 14.0, 257)
    rho = np.linspace(0.0, 2.0, 9)
    for dim in (1, 2, 3):
        u = radial_heat_profile(prof, dim, rho, 0.5)
        np.testing.assert_allclose(u, 1.0, atol=1e-6)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_closed_form(dim):
    # e^{-r^2} evolves to (1+4t)^{-N/2} e^{-r^2/(1+4t)}
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 14.0, 2049)
    rho = np.linspace(0.0, 2.0, 17)
    t = 0.25
    u = radial_heat_profile(prof, dim, rho, t)
    exact = (1 + 4 * t) ** (-dim / 2) * np.exp(-(rho**2) / (1 + 4 * t))
    np.testing.assert_allclose(u, exact, rtol=1e-9)


def test_point_evaluation_through_ellipse():
    el = norms.ellipse(np.diag([4.0, 1.0]))
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 14.0, 2049)
    x = np.array([1.0, 0.5])
    t = 0.25
    rho = float(norms.dual_norm_eval(el, x))
    expected = (1 + 4 * t) ** -1 * np.exp(-(rho**2) / (1 + 4 * t))
    got = radial_heat_profile(prof, 2, norms.dual_norm_eval(el, x[None]), t)
    assert got[0] == pytest.approx(expected, rel=1e-8)


def test_semigroup_property():
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 14.0, 2049)
    t1, t2 = 0.2, 0.15
    rr = np.linspace(0.0, 12.0, 1025)
    mid = RadialProfile(rr, radial_heat_profile(prof, 2, rr, t1), even=True)
    rho = np.linspace(0.0, 1.0, 9)
    two = radial_heat_profile(mid, 2, rho, t2)
    one = radial_heat_profile(prof, 2, rho, t1 + t2)
    np.testing.assert_allclose(two, one, atol=1e-5)


def test_initial_value_recovery():
    # mild Lipschitz data: the t -> 0 drift is t * |radial laplacian| < 1e-3
    prof = RadialProfile.from_function(lambda r: np.exp(-(r**2) / 8.0), 14.0, 2049)
    rho = np.linspace(0.0, 1.0, 11)
    u = radial_heat_profile(prof, 2, rho, 1e-3)
    np.testing.assert_allclose(u, np.exp(-(rho**2) / 8.0), atol=1e-3)


def test_short_profile_tail_is_flagged():
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 2.0, 65)
    with pytest.raises(DomainError):
        radial_heat_profile(prof, 2, np.array([1.5]), 0.5)


def test_quadrature_lays_out_at_most_max_nodes(monkeypatch):
    # at t = 0.05 the sum starts at 16 nodes on each of 16 unit panels: a
    # bound below 256 refuses the start before it is laid out, and a bound
    # of 256 stops the doubling, as the 4096-node ceiling does
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 16.0, 1025)
    rho = np.linspace(0.0, 2.0, 5)
    monkeypatch.setattr(radial, "MAX_NODES", 255)
    with pytest.raises(DomainError, match="quadrature nodes"):
        radial_heat_profile(prof, 2, rho, 0.05)
    monkeypatch.setattr(radial, "MAX_NODES", 256)
    with pytest.raises(ConvergenceError) as info:
        radial_heat_profile(prof, 2, rho, 0.05)
    np.testing.assert_array_equal(info.value.best, _representation_sum(prof, 2, rho, 0.05, 16))
    monkeypatch.setattr(radial, "MAX_NODES", 512)
    assert np.all(np.isfinite(radial_heat_profile(prof, 2, rho, 0.05)))


def test_quadrature_refuses_a_profile_reaching_max_radius_at_small_t():
    # 10^6 unit panels of 128 nodes would be 1.28e8 nodes and 1 GB an array
    prof = RadialProfile([0.0, 1e6], [0.0, 0.0], even=False)
    with pytest.raises(DomainError, match="quadrature nodes"):
        radial_heat_profile(prof, 2, np.zeros(1), 1e-4)


def test_unsettled_quadrature_reports_the_last_change(monkeypatch):
    # with a zero tolerance no doubling settles: the error carries the last
    # sum and its change against the sum before it.  The sums run from the
    # start max(16, 2^ceil(log2(pi / (4 sqrt t)))) to the ceiling, here
    # lowered to 256 nodes
    sums, nodes = [], []

    def spy(*args):
        nodes.append(args[-1])
        sums.append(_representation_sum(*args))
        return sums[-1]

    t, ceiling = 0.1, 256
    monkeypatch.setattr(radial, "_QUAD_TOL", 0.0)
    monkeypatch.setattr(radial, "_MAX_NODES", ceiling)
    monkeypatch.setattr(radial, "_representation_sum", spy)
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 4.0, 257)
    with pytest.raises(ConvergenceError) as info:
        radial_heat_profile(prof, 2, np.linspace(0.0, 2.0, 5), t)
    start = max(16, 2 ** math.ceil(math.log2(math.pi / (4.0 * math.sqrt(t)))))
    assert nodes == [start * 2**k for k in range(int(math.log2(ceiling // start)) + 1)]
    gap = info.value.gap
    assert gap > 0.0
    assert gap == float(np.max(np.abs(sums[-1] - sums[-2])))
    np.testing.assert_array_equal(info.value.best, sums[-1])


GAUSSIAN = RadialProfile.from_function(lambda r: np.exp(-r**2), 16.0, 2049)


@settings(max_examples=40)
@given(dim=st.sampled_from([1, 2, 3]),
       log_t=st.floats(-7.0, 0.0),
       rho=st.lists(st.floats(0.0, 2.2), min_size=1, max_size=5))
@example(dim=2, log_t=-7.0, rho=[0.5123])
def test_small_times_are_resolved_or_refused(dim, log_t, rho):
    # e^{-r^2} evolves to (1+4t)^{-N/2} e^{-r^2/(1+4t)}.  Two sums whose
    # nodes are too sparse for the kernel's width can agree while both miss
    # its peak (64 and 128 nodes give 7.6e-10 for 0.769 at rho = 0.5123,
    # t = 1e-7), so each row is right or the call raises
    t, rho = 10.0**log_t, np.array(rho)
    exact = (1 + 4 * t) ** (-dim / 2) * np.exp(-(rho**2) / (1 + 4 * t))
    try:
        u = radial_heat_profile(GAUSSIAN, dim, rho, t)
    except ConvergenceError:
        assert t < 1e-6
        return
    np.testing.assert_allclose(u, exact, rtol=5e-9, atol=0.0)


def test_unresolved_time_is_refused():
    with pytest.raises(ConvergenceError, match="4096"):
        radial_heat_profile(GAUSSIAN, 2, np.array([0.5123]), 1e-7)


def test_gauss_legendre_rule_is_numpys_and_read_only():
    for n in (16, 160):
        x, w = radial._gauss_legendre(n)
        ref = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
        assert radial._gauss_legendre(n)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)


def test_negative_time_rejected():
    # refused by `errors.positive`, the check that the CLI's `times` reader calls
    prof = RadialProfile.from_function(lambda r: np.ones_like(r), 14.0, 65)
    with pytest.raises(SpecValidationError, match="t must be a finite number above 0, not 0.0"):
        radial_heat_profile(prof, 2, np.array([0.5]), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rho_is_refused(bad):
    # a NaN sorted into the last block of rows made every panel bound NaN:
    # no panel was kept and every row of the block, the valid one too, read 0
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 8.0, 2049)
    assert radial_heat_profile(prof, 2, np.array([0.2236]), 1e-3)[0] == \
        pytest.approx(np.exp(-0.2236**2 / 1.004) / 1.004, rel=1e-9)
    with pytest.raises(DomainError, match="finite rho"):
        radial_heat_profile(prof, 2, np.array([bad, 0.2236]), 1e-3)


def _dense_sum(profile, dim, rho, t, nodes):
    """Every kernel entry, each row summed exactly (math.fsum): the reference
    for the panel-pruned sum.  Returns the sum and sum_j |K_ij a_j|, both
    with the prefactor (4 pi t)^(-N/2)."""
    R = profile.r_max
    panels = max(1, int(np.ceil(R)))
    edges = np.linspace(0.0, R, panels + 1)
    x, w = np.polynomial.legendre.leggauss(nodes)
    r = ((edges[1:] + edges[:-1])[:, None] / 2.0
         + (edges[1:] - edges[:-1])[:, None] / 2.0 * x[None, :]).ravel()
    wr = ((edges[1:] - edges[:-1])[:, None] / 2.0 * w[None, :]).ravel()
    a = wr * profile(r) * r ** (dim - 1)
    kern = np.exp(-((rho[:, None] - r[None, :]) ** 2) / (4.0 * t)) \
        * _scaled_sphere_integral(rho[:, None] * r[None, :] / (2.0 * t), dim)
    pref = (4.0 * np.pi * t) ** (-dim / 2.0)
    return (pref * np.array([math.fsum(row) for row in kern * a]),
            pref * (kern @ np.abs(a)))


def _bump(r, center, width):
    return np.maximum(1.0 - ((r - center) / width) ** 2, 0.0) ** 3


# The dropped panels are certified below eps * sum_j |K_ij a_j| per row.  The
# dot product over the kept columns rounds like the unpruned one, which is
# up to 4.3 eps * sum_j |K_ij a_j| off the exact sum on these draws.
ROUNDING = 8.0 * EPS


@settings(max_examples=30)
@given(dim=st.sampled_from([1, 2, 3]),
       t=st.floats(1e-3, 4.0),
       R=st.integers(4, 10),
       beta=st.floats(0.0, 1.5),
       center=st.floats(1.0, 3.0),
       near=st.integers(600, 1500),
       seed=st.integers(0, 2**16))
def test_pruned_sum_matches_dense_to_rounding(dim, t, R, beta, center, near, seed):
    # e^{-r^2} minus beta times a bump changes sign once beta > e^{-center^2};
    # the appended rows lie 20 sqrt(t) beyond R, where u < 1e-40
    prof = RadialProfile.from_function(
        lambda r: np.exp(-r**2) - beta * _bump(r, center, 0.8), float(R), 257)
    rng = np.random.default_rng(seed)
    far = R + 20.0 * np.sqrt(t) + rng.uniform(0.0, 5.0, 8)
    rho = np.concatenate([rng.uniform(0.0, R, near), far])
    rng.shuffle(rho)
    pruned = _representation_sum(prof, dim, rho, t, 64)
    exact, scale = _dense_sum(prof, dim, rho, t, 64)
    assert np.min(np.abs(exact)) < 1e-40
    assert np.all(np.abs(pruned - exact) <= ROUNDING * scale)


def test_uncertified_block_falls_back_to_every_panel(monkeypatch):
    # mass near r = 0 and r = R only: one block spans [0, R], the end rows
    # let the middle panels go, and the middle rows, which sum far less,
    # fail the certificate
    R, t, dim = 16.0, 0.01, 2
    prof = RadialProfile.from_function(
        lambda r: np.exp(-4 * r**2) + np.exp(-4 * (r - R) ** 2), R, 1025)
    rho = np.linspace(0.0, R, 200)
    entries = []
    real = radial._scaled_sphere_integral
    monkeypatch.setattr(radial, "_scaled_sphere_integral",
                        lambda z, d, *out: entries.append(z.size) or real(z, d, *out))
    pruned = _representation_sum(prof, dim, rho, t, 64)
    columns = 16 * 64
    # end rows, kept panels, then the dropped ones: every entry once
    assert len(entries) == 3
    assert sum(entries) == (rho.size + 2) * columns
    exact, scale = _dense_sum(prof, dim, rho, t, 64)
    assert np.all(np.abs(pruned - exact) <= ROUNDING * scale)


def _evaluated_share(monkeypatch, prof, dim, rho, t):
    """Share of the dense kernel entries that radial_heat_profile evaluates."""
    entries, dense = [], []
    real_sphere, real_sum = radial._scaled_sphere_integral, radial._representation_sum

    def spy_sum(profile, d, r, tt, nodes):
        dense.append(r.size * int(np.ceil(profile.r_max)) * nodes)
        return real_sum(profile, d, r, tt, nodes)

    monkeypatch.setattr(radial, "_scaled_sphere_integral",
                        lambda z, d, *out: entries.append(z.size) or real_sphere(z, d, *out))
    monkeypatch.setattr(radial, "_representation_sum", spy_sum)
    radial_heat_profile(prof, dim, rho, t)
    return sum(entries) / sum(dense)


def test_pruning_skips_most_kernel_entries(monkeypatch):
    el = norms.ellipse(np.diag([4.0, 1.0]))
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 16.0, 2049)
    points = np.random.default_rng(1).uniform(-2.0, 2.0, (4000, 2))
    rho = norms.dual_norm_eval(el, points)
    for t in (0.05, 1.0):
        assert _evaluated_share(monkeypatch, prof, 2, rho, t) <= 0.5
    layout = flow.ball_layout(el, 6.0, 6 / 128)
    assert layout.values.shape == (513, 257)
    h0 = norms.dual_norm_eval(el, layout.coords()).ravel()
    assert _evaluated_share(monkeypatch, prof, 2, h0[h0 <= 0.5], 0.01) <= 0.25


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_bound_is_set_by_the_largest_rho(dim):
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2 / 16), 6.0, 257)
    for rho in ([0.0, 1.0], [0.5, 3.0, 5.5], [2.0, 5.9], [1.0, 7.0]):
        for t in (0.01, 0.5, 2.0):
            lo, hi = (_tail_bound(prof, dim, r, t) for r in (min(rho), max(rho)))
            assert max(lo, hi) == hi


def _expression_kernel(rho, r, t, dim):
    """The kernel as one expression, e^(-(rho-r)^2/4t) times the scaled
    sphere factor's own expression, each temporary a new array: the form
    `radial._kernel` keeps the bits of."""
    from scipy.special import i0e as scipy_i0e
    z = rho[:, None] * r[None, :] / (2.0 * t)
    if dim == 1:
        sphere = 1.0 + np.exp(-2.0 * z)
    elif dim == 2:
        sphere = 2.0 * np.pi * scipy_i0e(z)
    else:
        sphere = np.where(z > 1e-12, 2.0 * np.pi * (-np.expm1(-2.0 * np.clip(z, 1e-300, None)))
                          / np.where(z > 0, z, 1.0), 4.0 * np.pi * (1.0 - z))
    return np.exp(-((rho[:, None] - r[None, :]) ** 2) / (4.0 * t)) * sphere


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), t=st.floats(1e-3, 4.0),
       rho=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=30),
       z=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=40))
@example(dim=2, t=0.5, rho=[0.0, 2.0], z=[8.0, np.nextafter(8.0, 9.0), 7.9, 1e-13])
@example(dim=3, t=0.5, rho=[0.0, 1e-12, 2.0], z=[1e-12, 2e-12, 5.0])
def test_in_place_kernel_is_the_expression_bit_for_bit(dim, t, rho, z):
    """`radial._kernel`, formed in place in two buffers, against the
    expression form on rows rho (0 among them) and nodes r whose z = rho r
    / 2t at the largest rho lies on both sides of `i0e`'s switch at 8."""
    rho = np.array([0.0] + rho)
    top = max(rho.max(), 1.0)
    r = np.array(z + [4.0, 12.0]) * 2.0 * t / top
    got = radial._kernel(rho, r, t, dim)
    want = _expression_kernel(rho, r, t, dim)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_warm_radial_sum_peaks_under_one_and_a_third_kernel_blocks(monkeypatch):
    """Each `_representation_sum` of a warm `radial_heat_profile` of the
    benchmark's radial-solve (4000 points, r_max 16, t = 0.05 and 1) peaks
    under 1.3 blocks of the dense kernel, _BLOCK rows by every node of the
    16 panels (1.09 with numpy 2.4): each block's kernel is formed in place
    in two buffers of its kept entries, and the kept kernel is dropped
    before the skipped panels' is built.  The expression form of the kernel
    took 2.21."""
    el = norms.ellipse(np.diag([4.0, 1.0]))
    prof = RadialProfile.from_function(lambda r: np.exp(-r**2), 16.0, 2049)
    rho = norms.dual_norm_eval(el, np.random.default_rng(1).uniform(-2.0, 2.0, (4000, 2)))
    real, blocks = radial._representation_sum, []
    first = [radial_heat_profile(prof, 2, rho, t) for t in (0.05, 1.0)]

    def spy(profile, dim, r, t, nodes):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real(profile, dim, r, t, nodes)
        dense = radial._BLOCK * int(np.ceil(profile.r_max)) * nodes * 8
        blocks.append((tracemalloc.get_traced_memory()[1] - held) / dense)
        return out

    monkeypatch.setattr(radial, "_representation_sum", spy)
    tracemalloc.start()
    try:
        again = [radial_heat_profile(prof, 2, rho, t) for t in (0.05, 1.0)]
    finally:
        tracemalloc.stop()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    assert len(blocks) >= 4 and max(blocks) < 1.3


def test_i0e_is_scipys_bit_for_bit():
    """Cephes' i0e against scipy.special.i0e on [0, 700] and at 0, 8 (the
    switch of series) and its neighbours, 1e300, inf and NaN."""
    from scipy.special import i0e as scipy_i0e
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.uniform(0.0, 700.0, 20000), rng.uniform(0.0, 16.0, 20000),
                        [0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0),
                         5e-324, 1e300, np.inf, np.nan]])
    assert radial.i0e(z).tobytes() == scipy_i0e(z).tobytes()
    assert radial.i0e(z.reshape(-1, 8)).tobytes() == scipy_i0e(z).tobytes()


@pytest.mark.parametrize("call, error, match", [
    (lambda: sphere_integral_I(-1.0, 2), DomainError, "z >= 0"),
    (lambda: sphere_integral_I(1.0, 0), SpecValidationError, "dimension"),
    (lambda: bessel_I0(1.0, 0), SpecValidationError, "terms"),
], ids=["sphere-integral-z-negative", "sphere-integral-dimension-0", "bessel-terms-0"])
def test_radial_refuses_bad_arguments_by_name(call, error, match):
    with pytest.raises(error, match=match):
        call()
