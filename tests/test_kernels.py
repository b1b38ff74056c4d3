import math

import numpy as np
import pytest

from halfspace_lpp.model import ModelParams, ParameterError, ScalingConstantsBulk, ScalingConstantsEdge
from halfspace_lpp import kernels
from halfspace_lpp.contours import ContourPlacementError, QuadratureError


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def test_kernel_bm_values():
    assert kernels.kernel_bm(1.0, 0.0, 1.0, 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi)
    )
    # first term equals 1 when s = 1/(2 pi) and x = 0
    s = 1.0 / (2.0 * math.pi)
    assert kernels.kernel_bm(s, 0.0, 1.0, 0.0) == pytest.approx(1.0)
    # s <= t drops the second term
    assert kernels.kernel_bm(1.0, 0.3, 2.0, 5.0) == pytest.approx(
        math.exp(-0.09 / 2.0) / math.sqrt(2.0 * math.pi)
    )
    with pytest.raises(ParameterError):
        kernels.kernel_bm(0.0, 0.0, 1.0, 0.0)


def test_phase_function_identities():
    q, c = 0.5, 1.4
    cst = ScalingConstantsEdge(q, c)
    # S1(1) = 0 for the bulk phase
    assert abs(kernels.s1_bulk(np.array([1.0 + 0j]), q)[0]) < 1e-14
    # analytic second derivatives match the closed forms
    for kap in (0.0, 2.0, 5.0):
        d2 = kernels.s2_edge_d2(c + 0j, kap, q, c)
        assert d2.real == pytest.approx(
            cst.sigma2 ** 2 * (cst.kappa_bar - kap) / c ** 2, rel=1e-10
        )
    # S-to-Shat rescaling identity at random points
    zs = np.array([0.8 + 0.3j, 1.2 - 0.5j])
    for kap in (0.5, 3.0):
        kh = 1.0 / (1.0 + kap)
        lhs = kernels.s2_edge(zs, kap, q, c)
        rhs = (1.0 + kap) * kernels.s_hat(zs, kh, q, c, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("regime, c, N, v", [
    ("edge", 1.4, 100, 0.5), ("edge", 1.4, 400, 0.9), ("edge", 1.4, 100, 2.37),
    ("bulk", 0.8, 200, 1.0), ("bulk", 1.3, 60, 0.77),
])
def test_window_exponents_equal_the_phase_functions(regime, c, N, v):
    # each window's expo takes every logarithm once per node, and is
    # bit-identical to its sum of the public phase functions
    P = ModelParams(0.5, c)
    if regime == "edge":
        win = kernels._EdgeWindow(P, N, v)
        frac = math.floor(v * N) - v * N

        def whole(z, a):
            s2 = kernels.s2_edge(z, v, P.q, c) - kernels.s2_edge(complex(c), v, P.q, c)
            return N * s2 + frac * (np.log(1.0 - P.q / z) - win._lq_c) + a * win.phase(z)
    else:
        win = kernels._BulkWindow(P, N)

        def whole(z, a):
            return (N * kernels.s1_bulk(z, P.q) + win.slice_index(v) * kernels.g1_bulk(z, P.q)
                    + a * win.phase(z))

    contours = [win.z_contour(v), win.z_contour(v, shifted=True),
                win.w_contour(v, levels=(0.0,)), win.w_contour(v, levels=(0.123,)),
                win.heat_contour(), win.count_contour(v)]
    for contour in contours:
        for level in range(6):
            z, _ = contour.nodes(level)
            for a in (0.0, -1.3, 2.71):
                assert np.array_equal(win.expo(z, v, a), whole(z, a))
    cc = np.asarray(c, dtype=complex)
    assert np.array_equal(win.expo(cc, v, 0.5), whole(cc, 0.5))


def test_phase_diagnostics_single():
    rep = kernels.phase_diagnostics(0.5, 1.4, [0.0, 4.0])
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]


def test_kernel_geo_antisymmetry_and_k21(rng):
    P = ModelParams(0.4, 0.7)
    kv = kernels.kernel_geo(1, 2, 2, -1, P, 3, 1, 2)
    kv_sw = kernels.kernel_geo(2, -1, 1, 2, P, 3, 2, 1)
    assert kv.k11 == pytest.approx(-kv_sw.k11, abs=1e-10)
    assert kv.k22 == pytest.approx(-kv_sw.k22, abs=1e-10)
    assert kv.k21 == pytest.approx(-kv_sw.k12, abs=1e-12)


def test_kernel_geo_contour_independence():
    P = ModelParams(0.4, 0.7)
    q, c = 0.4, 0.7
    base = kernels.kernel_geo(1, 1, 1, 1, P, 3, 1, 1)
    r1, rw, r2 = kernels.geo_default_radii(q, c, True)
    for fac in (0.8, 1.2):
        radii = (
            1.0 + (r1 - 1.0) * fac,
            max(c, q) + (rw - max(c, q)) * fac,
            max(1.0, c, q) + (r2 - max(1.0, c, q)) * fac,
        )
        kv = kernels.kernel_geo(1, 1, 1, 1, P, 3, 1, 1, radii=radii)
        assert abs(kv.k11 - base.k11) < 1e-8
        assert abs(kv.k12 - base.k12) < 1e-8
        assert abs(kv.k22 - base.k22) < 1e-8


def test_kernel_geo_contour_independence_at_random_radii():
    # admissible radii: 1 < r1 < 1/q with r1 > c (K11, K12's z circle),
    # max(c, q) < rw < r1 (K12's w circle for u >= v), r2 > max(c, q, 1)
    # (K22); one slice, so both K12 orders take the same nesting
    rng = np.random.default_rng(2026)
    for _ in range(20):
        q = rng.uniform(0.2, 0.6)
        c = rng.uniform(0.2, min(1.6, 0.9 / q))
        P = ModelParams(q, c)
        N, M = int(rng.integers(2, 7)), int(rng.integers(0, 4))
        x, y = (int(v) for v in rng.integers(-N, N + 6, size=2))
        lo = max(c, q)
        r1 = max(1.0, c) + (1.0 / q - max(1.0, c)) * rng.uniform(0.1, 0.9)
        radii = (r1, lo + (r1 - lo) * rng.uniform(0.1, 0.9), max(lo, 1.0) + rng.uniform(0.1, 1.0))
        base = kernels.kernel_geo(1, x, 1, y, P, N, M, M)
        kv = kernels.kernel_geo(1, x, 1, y, P, N, M, M, radii=radii)
        for block in ("k11", "k12", "k21", "k22"):
            assert abs(getattr(kv, block) - getattr(base, block)) <= kv.err + base.err, (
                q, c, N, M, x, y, radii, block)


@pytest.mark.parametrize("radii, circle", [
    ((1.7, 0.7, 2.0), "K12 w"),  # the w circle through the pole at w = c
    ((1.7, 1.7, 2.0), "K12 w"),  # |z| = |w|
    ((1.0, 0.9, 2.0), "K11 z"),  # through z = +-1
    ((1.7, 0.9, 0.4), "K22 z"),  # through w = q
])
def test_kernel_geo_refuses_circles_through_singularities(radii, circle):
    # through c the trapezoid rule returned the principal value, K12 =
    # 0.1279966 with err 1.1e-13 against 0.1251487 on admissible circles
    with pytest.raises(ContourPlacementError, match=circle):
        kernels.kernel_geo(1, 1, 0, 2, ModelParams(0.4, 0.7), 3, 1, 0, radii=radii)


def test_kernel_geo_sum_rule_and_positivity():
    # expected number of points at levels >= -N equals N exactly, and the
    # density is nonnegative up to the reported quadrature error
    P = ModelParams(0.4, 0.7)
    N = 3
    total = 0.0
    for x in range(-N, 40):
        rho, err = kernels.rho1_geo(x, P, N, 1)
        assert rho >= -max(err, 1e-12)
        total += rho
    assert total == pytest.approx(N, abs=1e-6)


def test_kernel_geo_refuses_useless_values():
    # at c > 1 and N = 40 the circles sit far from the integrands' saddles:
    # rho1_geo on level 40 returned 6280, with err 4.5e6, for a density
    P = ModelParams(0.5, 1.3)
    with pytest.raises(QuadratureError, match="above 0.0001") as info:
        kernels.rho1_geo(40, P, 40, 10, tol=1e-9)
    assert abs(info.value.partial) > 1.0
    # kernel_geo and rho_k_geo get their integrals from the same place
    with pytest.raises(QuadratureError, match="above 0.0001"):
        kernels.kernel_geo(1, 40, 1, 50, P, 40, 10, 10, tol=1e-9)
    with pytest.raises(QuadratureError, match="above 0.0001"):
        kernels.rho_k_geo([(0, 10, 40), (1, 10, 50)], P, 40, tol=1e-9)
    # at N = 20 level 20 keeps its value, with err 1.1e-5
    rho, err = kernels.rho1_geo(20, P, 20, 5, tol=1e-9)
    assert 0.0 < rho < 1.0 and err < 1e-4


def test_kernel_geo_infeasible_parameters():
    # c >= 1/q leaves no admissible contour family (rejected at the domain)
    with pytest.raises((kernels.ContourPlacementError, ParameterError)):
        kernels.kernel_geo(1, 0, 1, 0, ModelParams(0.5, 2.5), 3, 1, 1)


def test_quadrature_self_consistency():
    # halving tol moves the value by less than the reported error
    P = ModelParams(0.4, 0.7)
    kv1 = kernels.kernel_geo(1, 0, 1, 2, P, 3, 1, 1, tol=1e-7)
    kv2 = kernels.kernel_geo(1, 0, 1, 2, P, 3, 1, 1, tol=5e-8)
    assert abs(kv1.k12 - kv2.k12) <= max(kv1.err, 1e-12)


def test_hs_limit_r_values():
    # indicator structure of R12
    comp = kernels.hs_limit_components(1.0, 0.1, 0.5, 0.2, tol=1e-8)
    assert comp["R12"] == 0.0
    # paper value at (0, 0; 1, 0): -(4 pi)^{-1/2} e^{+1/12}
    comp = kernels.hs_limit_components(1e-12, 0.0, 1.0, 0.0, tol=1e-8)
    target = -math.exp(1.0 / 12.0) / math.sqrt(4.0 * math.pi)
    assert comp["R12"] == pytest.approx(target, rel=1e-9)
    # vanishing prefactor of R22 at y - t^2 - x + s^2 = 0
    c2 = kernels.hs_limit_components(0.5, 0.3, 1.0, 0.3 + 0.75, tol=1e-8)
    assert abs(c2["R22"]) < 1e-12


def test_limit_bulk_r12_indicator():
    sc = ScalingConstantsBulk(0.5)
    comp = kernels.bulk_limit_components(1.5, 0.0, 1.0, 0.3, sc, tol=1e-8)
    assert comp["R12"] == 0.0


def test_r22_closed_form_cross_check(rng):
    sc = ScalingConstantsBulk(0.5)
    for _ in range(3):
        s, t = rng.uniform(0.2, 1.5, 2)
        x, y = rng.uniform(-1.0, 1.0, 2)
        comp = kernels.bulk_limit_components(s, x, t, y, sc, tol=1e-10)
        closed = kernels.r22_limit_closed_form(s, x, t, y, sc.f1)
        assert abs(comp["R22"] - closed) < 1e-8


def test_conjugation_identity(rng):
    sc = ScalingConstantsBulk(0.5)
    s, t = 0.7, 1.1
    x, y = 0.2, -0.4
    a = kernels.kernel_limit_bulk(s, x, t, y, sc, tol=1e-9)
    b = kernels.kernel_limit_bulk_from_hs(s, x, t, y, sc, tol=1e-9)
    assert np.max(np.abs(a.as_matrix() - b.as_matrix())) < 1e-7


def test_k22_antisymmetry_numerical():
    sc = ScalingConstantsBulk(0.5)
    a = kernels.kernel_limit_bulk(0.8, 0.1, 1.2, -0.2, sc, tol=1e-9)
    b = kernels.kernel_limit_bulk(1.2, -0.2, 0.8, 0.1, sc, tol=1e-9)
    assert abs(a.k22 + b.k22) < 1e-7
    assert abs(a.k11 + b.k11) < 1e-7
    assert a.k21 == pytest.approx(-b.k12, abs=1e-12)


def test_edge_prelimit_trivia():
    P = ModelParams(0.5, 1.4)
    # s = t kills the heat-kernel summand of R12: components at s=t are finite
    comp = kernels.edge_prelimit_components(1.0, 0.0, 1.0, 0.0, P, 64, tol=1e-7)
    assert np.isfinite(comp["R12"].real)
    with pytest.raises(ParameterError):
        kernels.edge_prelimit_components(9.0, 0.0, 1.0, 0.0, P, 64)


@pytest.mark.parametrize("kappa", [-0.5, 8.0, 8.5, 12.0])
def test_edge_entry_points_reject_slices_outside_window(kappa):
    # kappa_bar = 8 at q = 0.5, c = 1.4; the diagonal batch and the edge tail
    # count took such slices and returned densities of 1e5 and counts of -650
    P, N = ModelParams(0.5, 1.4), 100
    assert ScalingConstantsEdge(0.5, 1.4).kappa_bar == pytest.approx(8.0)
    calls = [
        lambda: kernels.edge_k12_diag_batch([0.0, 0.1], P, N, kappa),
        lambda: kernels.expected_count_tail(0.0, P, N, "edge", kappa),
        lambda: kernels.edge_prelimit_components(kappa, 0.0, 1.0, 0.0, P, N),
        lambda: kernels.kernel_N_edge(1.0, 0.0, kappa, 0.0, P, N),
        lambda: kernels.edge_lattice_point(0.0, P, N, kappa),
    ]
    for call in calls:
        with pytest.raises(ParameterError):
            call()


def test_bulk_feasibility_predicate():
    ok_large, checks = kernels.bulk_prelimit_feasible(0.5, 0.8, 100000)
    assert ok_large, checks
    ok_small, checks = kernels.bulk_prelimit_feasible(0.5, 0.8, 50)
    assert not ok_small  # c = 0.8 not inside gamma^- at N = 50


def test_edge_feasibility_predicate():
    ok, checks = kernels.edge_prelimit_feasible(0.5, 1.4, 100)
    assert ok, checks
    ok2, _ = kernels.edge_prelimit_feasible(0.5, 1.95, 4)
    assert not ok2


def test_expected_count_tail_large_a():
    P = ModelParams(0.5, 1.4)
    v, _ = kernels.expected_count_tail(8.0, P, 100, "edge", 0.5)
    assert abs(v) < 0.01
    Pb = ModelParams(0.5, 0.8)
    v2, _ = kernels.expected_count_tail(6.0, Pb, 60, "bulk", 1.0)
    assert abs(v2) < 0.01
    with pytest.raises(ParameterError):
        kernels.expected_count_tail(0.0, P, 50, "nosuch", 0.5)


def test_nan_diag_batch_fails_at_first_level(monkeypatch):
    levels = []
    nodes = kernels.Contour.nodes

    def recording(self, level):
        levels.append(level)
        return nodes(self, level)

    monkeypatch.setattr(kernels.Contour, "nodes", recording)
    with pytest.raises(QuadratureError):
        kernels.edge_k12_diag_batch(np.array([0.0, np.nan]), ModelParams(0.5, 1.4), 64, 0.5)
    assert levels and max(levels) <= 1


@pytest.mark.parametrize("regime", ["edge", "bulk"])
def test_diag_batch_matches_components(regime):
    # the batched diagonal K12 equals I12 + R12 of the pointwise components
    if regime == "edge":
        P, N, v = ModelParams(0.5, 1.4), 64, 0.5
        xs = [kernels.edge_lattice_point(a, P, N, v)[0] for a in (-1.0, 0.0, 1.0)]
        vals, err = kernels.edge_k12_diag_batch(xs, P, N, v)
        comps = [kernels.edge_prelimit_components(v, x, v, x, P, N, tol=1e-8) for x in xs]
    else:
        P, N, v = ModelParams(0.5, 1.3), 200, 1.0
        xs = [kernels.bulk_lattice_point(a, P, N, v)[0] for a in (-1.0, 0.0, 1.0)]
        vals, err = kernels.bulk_k12_diag_batch(xs, P, N, v)
        comps = [kernels.bulk_prelimit_components(v, x, v, x, P, N, tol=1e-8) for x in xs]
    for val, comp in zip(vals, comps):
        assert abs(val - (comp["I12"] + comp["R12"])) <= err + comp["err"]


def test_assembled_k21_is_minus_swapped_k12(monkeypatch):
    sc = ScalingConstantsBulk(0.5)
    cases = [
        (kernels.kernel_hs_inf, (0.5, 0.3, 1.0, 0.6), ()),
        (kernels.kernel_limit_bulk, (0.7, 0.2, 1.1, -0.4), (sc,)),
        (kernels.kernel_N_bulk, (1.0, 0.1, 1.5, 0.3), (ModelParams(0.5, 1.3), 50)),
        (kernels.kernel_N_edge, (0.5, 0.1, 1.0, -0.2), (ModelParams(0.5, 1.4), 64)),
    ]
    for fn, (s, x, t, y), args in cases:
        a = fn(s, x, t, y, *args, tol=1e-7)
        b = fn(t, y, s, x, *args, tol=1e-7)
        assert a.k21 == -b.k12 and b.k21 == -a.k12, fn.__name__

    # the backward pass evaluates the K12 double integral only
    calls = []
    double = kernels.integrate_double
    monkeypatch.setattr(kernels, "integrate_double",
                        lambda *a, **k: calls.append(1) or double(*a, **k))
    kernels.kernel_hs_inf(0.5, 0.3, 1.0, 0.6)
    assert len(calls) == 4


def _threshold_count(N, kappa):
    """E[#points >= threshold level] on the edge slice kappa, as in
    check_tail_moments (q = 0.5, c = 1.4)."""
    cst = ScalingConstantsEdge(0.5, 1.4)
    thr = (cst.h1_kappa(kappa) - cst.h2_kappa(kappa)) * math.sqrt(N) / cst.sigma2 + 1.0
    return kernels.expected_count_tail(thr, ModelParams(0.5, 1.4), N, "edge", kappa)


def test_edge_threshold_count_is_resolved(monkeypatch):
    # at the threshold level the z saddle of the summed K12 is z_crit(kappa):
    # on the kernel's wedge at c this count sat at the roundoff floor (err 4.9)
    v1, e1 = _threshold_count(400, 0.5)
    assert e1 < 1e-6

    def other_apex(self, kappa):
        r = self.N ** -0.5 / math.cos(kernels.EDGE_THETA)
        return kernels.edge_gamma_contour(self.cst.z_crit(kappa) + 6.0 * self.N ** -0.5,
                                          kernels.EDGE_THETA, 2.0 / self.q, r, 0.05)

    monkeypatch.setattr(kernels._EdgeWindow, "count_contour", other_apex)
    v2, e2 = _threshold_count(400, 0.5)
    assert abs(v1 - v2) <= e1 + e2


def test_edge_count_contour_needs_room_below_inverse_q():
    # z_crit(7.5) + 3 N^{-1/2} at N = 16 lies beyond 1/q = 2
    with pytest.raises(ContourPlacementError):
        kernels.expected_count_tail(0.0, ModelParams(0.5, 1.4), 16, "edge", 7.5)


def test_edge_diag_batch_walk_refines_axes_apart(monkeypatch):
    # the w circle needs more levels than the graded z wedge; the batch still
    # equals I12 + R12 of the pointwise components
    levels = []
    nodes = kernels.Contour.nodes

    def recording(self, level):
        levels.append((len(self.pieces), level))
        return nodes(self, level)

    P, N, v = ModelParams(0.5, 1.4), 64, 0.5
    x = kernels.edge_lattice_point(0.5, P, N, v)[0]
    monkeypatch.setattr(kernels.Contour, "nodes", recording)
    vals, err = kernels.edge_k12_diag_batch([x], P, N, v)
    monkeypatch.undo()
    z_level = max(lv for n, lv in levels if n > 1)
    w_level = max(lv for n, lv in levels if n == 1)
    assert z_level < w_level
    comp = kernels.edge_prelimit_components(v, x, v, x, P, N, tol=1e-8)
    assert abs(vals[0] - (comp["I12"] + comp["R12"])) <= err + comp["err"]


def test_edge_k12_factors_match_whole_integrand():
    # the prelimit I12 integrand written whole, with one exp per node pair
    P, N = ModelParams(0.5, 1.4), 64
    s, x, t, y = 0.5, 0.1, 1.0, -0.2
    win = kernels._EdgeWindow(P, N)
    c, scale = win.c, win.scale

    def f12(z, w):
        return (scale * (z * w - 1.0) * (z - c) / (z * (z - w) * (z * z - 1.0) * (w - c))
                * np.exp(win.expo(z, s, x) - win.expo(w, t, y)))

    whole, e = kernels.integrate_double(f12, win.z_contour(s), win.w_contour(t, levels=(y,)))
    i12, _, err = win.k12_pieces(s, x, t, y, kernels.DEFAULT_TOL)
    assert abs(whole - i12) <= e + err


def test_geo_k12_factors_match_whole_integrand():
    # the exact kernel's K12 integrand written whole, six powers per node pair
    q, c, N, M_u, M_v = 0.4, 0.7, 3, 1, 2
    u, x, v, y = 1, 2, 2, -1
    rz, rw, _ = kernels.geo_default_radii(q, c, u >= v)

    def f12(z, w):
        return ((z * w - 1.0) / (z * (z - w) * (z * z - 1.0)) * (z - c) / (w - c)
                * z ** (-x) * w ** y
                * (1.0 - q / z) ** (M_u + N) * (1.0 - q / w) ** (-M_v - N)
                * (1.0 - q * z) ** (-N) * (1.0 - q * w) ** N)

    whole, e = kernels.integrate_double(f12, kernels.Contour([kernels.full_circle(0.0, rz)]),
                                        kernels.Contour([kernels.full_circle(0.0, rw)]))
    kv = kernels.kernel_geo(u, x, v, y, ModelParams(q, c), N, M_u, M_v)
    assert abs(whole - kv.k12) <= e + kv.err


@pytest.mark.parametrize("point", [(0.7, 0.2, 1.1, -0.4), (1.3, -0.5, 0.4, 0.8)])
def test_limit_bulk_antisymmetry_with_per_axis_exponentials(point):
    sc = ScalingConstantsBulk(0.5)
    s, x, t, y = point
    a = kernels.kernel_limit_bulk(s, x, t, y, sc)
    b = kernels.kernel_limit_bulk(t, y, s, x, sc)
    assert a.k21 == -b.k12 and b.k21 == -a.k12
    assert abs(a.k11 + b.k11) <= a.err + b.err
    assert abs(a.k22 + b.k22) <= a.err + b.err


@pytest.mark.parametrize("N", [200, 400])
def test_edge_diag_batch_converges_at_large_N(N):
    # the w circle needs level 4 here, as the pointwise I12 does; a batch
    # capped below the engine's maximum level raised QuadratureError
    P, v = ModelParams(0.5, 1.4), 0.5
    xs = [kernels.edge_lattice_point(a, P, N, v)[0] for a in (-1.0, 0.0, 1.0)]
    vals, err = kernels.edge_k12_diag_batch(xs, P, N, v)
    win = kernels._EdgeWindow(P, N)
    for x, val in zip(xs, vals):
        i12, r12, e = win.k12_pieces(v, x, v, x, 1e-8)
        assert abs(val - (i12 + r12)) <= err + e


def test_geo_coincident_blocks_integrate_k12_only(monkeypatch):
    # K11 and K22 at coincident points are projected out of the Pfaffian
    # matrix and K21 repeats K12's integral, so only K12 is integrated
    P, N = ModelParams(0.4, 0.7), 3
    points = [(0, 1, 0), (1, 2, 2)]

    def four_blocks(a, b):
        return kernels.kernel_geo(a[0], a[2], b[0], b[2], P, N, a[1], b[1], 1e-9)

    ref_rho2 = kernels.correlation_fn(points, four_blocks)[0]
    ref_rho1 = kernels.kernel_geo(1, 2, 1, 2, P, N, 2, 2, 1e-9).k12.real
    calls = []
    double = kernels.integrate_double
    monkeypatch.setattr(kernels, "integrate_double",
                        lambda *a, **k: calls.append(1) or double(*a, **k))
    rho1, _ = kernels.rho1_geo(2, P, N, 2, tol=1e-9)
    assert len(calls) == 1 and rho1 == ref_rho1
    calls.clear()
    rho2, _ = kernels.rho_k_geo(points, P, N, tol=1e-9)
    assert len(calls) == 6 and rho2 == ref_rho2


def test_geo_w_circle_through_inverse_q_stays_finite():
    # the default u < v w circle has radius exactly 1/q = 2, where the w
    # factor evaluates 0^(-N); no Circle or panel node is real
    rho, err = kernels.rho_k_geo([(0, 1, 0), (1, 1, 2)], ModelParams(0.5, 0.8), 3)
    assert math.isfinite(rho) and abs(rho - 0.05015836783218392) <= err


def _w_contour_on(piece):
    """An edge w_contour that takes `piece` at every level."""
    def w_contour(self, kappa, shifted=False, *, levels):
        r = self.N ** -0.5 * (1.0000003 if shifted else 1.0)
        return kernels.Contour([piece(0.0, self.cst.z_crit(kappa) + r)])
    return w_contour


def test_edge_w_contour_is_a_circle_on_the_lattice_only(monkeypatch):
    P, N = ModelParams(0.5, 1.4), 64
    win = kernels._EdgeWindow(P, N)
    xs = [kernels.edge_lattice_point(a, P, N, 0.5)[0] for a in (-1.0, 0.0, 1.0)]
    assert isinstance(win.w_contour(0.5, levels=xs).pieces[0], kernels.Circle)
    assert isinstance(win.w_contour(0.5, shifted=True, levels=xs[:1]).pieces[0],
                      kernels.Circle)
    assert isinstance(win.w_contour(0.5, levels=xs + [0.1]).pieces[0], kernels.Arc)
    # off the lattice the components are those of the full_circle rule ...
    point = (0.5, 0.1, 1.0, -0.2)
    comp = kernels.edge_prelimit_components(*point, P, N, tol=1e-7)
    monkeypatch.setattr(kernels._EdgeWindow, "w_contour", _w_contour_on(kernels.full_circle))
    assert kernels.edge_prelimit_components(*point, P, N, tol=1e-7) == comp
    # ... which, unlike the periodic rule, converges across the log seam
    monkeypatch.setattr(kernels._EdgeWindow, "w_contour", _w_contour_on(kernels.Circle))
    with pytest.raises(QuadratureError):
        kernels.edge_prelimit_components(*point, P, N, tol=1e-7)


def test_edge_i22_on_lattice_circles_needs_fewer_nodes(monkeypatch):
    # the N = 400 edge point of the kernel-pointwise benchmark: the panels
    # of full_circle took 4096 x 4096 nodes for I22, the midpoint rule 2048
    P, N = ModelParams(0.5, 1.4), 400
    x = kernels.edge_lattice_point(-0.3, P, N, 0.5)[0]
    y = kernels.edge_lattice_point(0.2, P, N, 2.0)[0]
    sizes = {}
    nodes = kernels.Contour.nodes

    def recording(self, level):
        z, w = nodes(self, level)
        if len(self.pieces) == 1:  # the w circles; I22 runs on two of them
            sizes[id(self)] = max(sizes.get(id(self), 0), len(z))
        return z, w

    win = kernels._EdgeWindow(P, N)
    monkeypatch.setattr(kernels.Contour, "nodes", recording)
    monkeypatch.setattr(kernels, "integrate_single", lambda *a, **k: (0.0, 0.0))
    win.k11_k22_pieces(0.5, x, 2.0, y, 1e-8)
    assert sorted(sizes.values()) == [2048, 2048]
