import cmath
import itertools
import math

import numpy as np
import pytest

from halfspace_lpp.contours import ContourPlacementError, QuadratureError
from halfspace_lpp.model import ModelParams
from halfspace_lpp import schur


@pytest.fixture
def rng():
    return np.random.default_rng(777)


def test_partition_helpers():
    assert schur.interlaces((2, 1), (3, 2))
    assert schur.interlaces((), (5,))
    assert not schur.interlaces((3,), (2,))
    assert not schur.interlaces((2, 2), (3, 1))
    assert schur.alt_sum((4, 1, 1)) == 4
    assert schur.trim((3, 1, 0, 0)) == (3, 1)


def test_schur_weight_examples():
    # all empty partitions: weight 1
    assert schur.schur_weight([(), ()], 0.5, 0.8, N=3) == pytest.approx(1.0)
    # broken interlacing: weight 0
    assert schur.schur_weight([(3,), (1,)], 0.5, 0.8, N=3) == 0.0
    # N=1, M=0, lambda = (1): tau(c) * s_(1)(q) = c q
    w = schur.schur_weight([(1,)], 0.5, 0.8, N=1)
    assert w == pytest.approx(0.8 * 0.5)
    # too many rows for N: weight 0
    assert schur.schur_weight([(1, 1)], 0.5, 0.8, N=1) == 0.0


def test_principal_specialization():
    # s_lambda(q, q) for lambda = (a, b): q^{a+b} (a - b + 1)
    for lam, N in (((3, 1), 2), ((2,), 2), ((5, 5), 2)):
        got = math.exp(schur.principal_spec_log(lam, 0.3, N))
        a, b = lam[0], lam[1] if len(lam) > 1 else 0
        assert got == pytest.approx(0.3 ** (a + b) * (a - b + 1))


def _conditional_ratio(seq_a, seq_b, q, c):
    """Weight ratio of two sequences sharing the final partition, and its
    closed form c^(delta alt) q^(-delta sum) from the time-M conditional law."""
    N = max(len(schur.trim(seq_a[-1])), 1)
    ratio = schur.schur_weight(seq_a, q, c, N) / schur.schur_weight(seq_b, q, c, N)
    d_alt = schur.alt_sum(seq_a[0]) - schur.alt_sum(seq_b[0])
    d_sum = sum(seq_a[0]) - sum(seq_b[0])
    return ratio, c ** d_alt * q ** -d_sum


def test_conditional_ratio_exact():
    q, c = 0.3, 0.6
    a = [(3, 1), (3, 2)]
    b = [(2, 1), (3, 2)]
    ratio, pred = _conditional_ratio(a, b, q, c)
    assert ratio == pytest.approx(pred, rel=1e-12)
    # unit ratio for identical sequences
    r2, p2 = _conditional_ratio(a, a, q, c)
    assert r2 == p2 == 1
    # single-part bump: ratio = c * q^{-1}
    r3, p3 = _conditional_ratio([(3,), (3,)], [(2,), (3,)], q, c)
    assert r3 == pytest.approx(c / q, rel=1e-12)
    assert p3 == pytest.approx(c / q, rel=1e-12)


def test_conditional_ratio_random_pairs(rng):
    # random on-support (M=2, N=2) pairs sharing the final partition
    q, c = 0.4, 0.5
    lam_top = (4, 2)
    below = schur.interlacing_below(lam_top)
    for _ in range(10):
        mu_a = below[rng.integers(len(below))]
        mu_b = below[rng.integers(len(below))]
        chain_a = [schur.interlacing_below(mu_a)[-1], mu_a, lam_top]
        chain_b = [schur.interlacing_below(mu_b)[-1], mu_b, lam_top]
        ra, pa = _conditional_ratio(chain_a, chain_b, q, c)
        assert ra == pytest.approx(pa, rel=1e-12)


def test_sampler_matches_enumeration_smallq(rng):
    # q = 0.05, c = 0: P(lambda^0 = empty) matches the enumerated mass
    P = ModelParams(0.05, 0.0)
    N, M, B = 2, 1, 40000
    arr = schur.sample_schur_process_batch(N, M, P, rng, B)
    emp = np.mean([schur.trim(arr[b, :, 0]) == () for b in range(B)])
    seqs, weights, tail = schur.enumerate_schur_support(N, M, P.q, P.c, 12)
    Z = math.exp(schur.schur_normalization_log(P.q, P.c, N, M))
    mass = sum(w for s, w in zip(seqs, weights) if s[0] == ()) / Z
    se = math.sqrt(mass * (1 - mass) / B)
    assert abs(emp - mass) < 3 * se + tail / Z


def test_sampler_interlacing_and_even_columns(rng):
    P = ModelParams(0.4, 0.0)
    arr = schur.sample_schur_process_batch(3, 2, P, rng, 3000)
    # interlacing along the chain: lam_i >= mu_i >= lam_{i+1}
    for j in range(2):
        mu, lam = arr[:, :, j], arr[:, :, j + 1]
        assert np.all(mu <= lam)
        assert np.all(lam[:, 1:] <= mu[:, :-1])
    # c = 0: alternating sum of lambda^0 vanishes (even columns)
    alt = arr[:, 0, 0] - arr[:, 1, 0] + arr[:, 2, 0]
    assert np.all(alt == 0)


def test_partition_fn_series_examples():
    v, tail = schur.partition_fn_series(1, (1, 0), ModelParams(0.5, 0.0))
    assert v == pytest.approx(0.5, abs=1e-10)
    v, tail = schur.partition_fn_series(1, (1, 0), ModelParams(0.5, 0.8))
    assert v == pytest.approx(13.0 / 6.0, abs=1e-9)
    assert tail < 1e-9
    # positivity across a few parameter points
    for q, c in ((0.2, 0.0), (0.8, 1.2), (0.5, 1.9)):
        val, _ = schur.partition_fn_series(3, (4, 0), ModelParams(q, c))
        assert val > 0.0


def test_partition_fn_series_past_the_envelope_overflow():
    # the tail envelope of the first blocks passes the float range (its log
    # above 709) although Z fits; it is compared in log scale
    v, tail = schur.partition_fn_series(200, (0, 0), ModelParams(0.5, 1.5))
    assert math.log(v) == pytest.approx(357.764, abs=1e-3)
    assert 0.0 < tail <= 1e-12 * v


def test_partition_fn_contour_examples():
    z = schur.partition_fn_contour(1, (1, 0), 0.5, 0.8)
    assert abs(z - 13.0 / 6.0) < 1e-9
    assert abs(z.imag) < 1e-10
    # equal exit values, c = 0: interlacing pins B1(0) = 1 and then c = 0
    # pins B2(0) = 1, leaving the single unit-weight configuration
    z2 = schur.partition_fn_contour(1, (1, 1), 0.5, 0.0)
    assert abs(z2 - 1.0) < 1e-9
    v2, _ = schur.partition_fn_series(1, (1, 1), ModelParams(0.5, 0.0))
    assert v2 == pytest.approx(1.0, abs=1e-10)


def test_partition_fn_contour_raises_or_agrees_at_long_times():
    # at T1 = 100 the circles mid-way across their annuli made the integrals
    # cancel to about 1e-25 of the integrands' magnitude (Z ~ 4e77 against
    # |f u| ~ 1e103), below the roundoff of the sum, and the contour form
    # raised; circles near the integrands' saddles agree with the series
    T1, y, q, c = 100, (0, 0), 0.5, 1.5
    vs, _ = schur.partition_fn_series(T1, y, ModelParams(q, c), tol=1e-12)
    try:
        vc = schur.partition_fn_contour(T1, y, q, c)
    except QuadratureError:
        return
    assert abs(vc - vs) / abs(vs) < 1e-8


def test_default_radii_clear_poles_near_c_one():
    # perfbench ensemble-sampling seed 3401 draws this input; with r1 = q the
    # pole at q/c lay 1.3e-4 off the circle and the trapezoid never converged
    T1, gap, q, c = 4, 4, 0.6050901780565486, 0.9997860673188714
    r1, r2 = schur.default_contour_radii(T1, gap, q, c)
    # each radius keeps 1/10 of its annulus' log width from both ends
    for r, lo, hi in ((r1, q * q, q / c), (r2, q * c, 1.0)):
        edge = 0.1 * math.log(hi / lo)
        assert math.log(r / lo) >= edge * (1.0 - 1e-9)
        assert math.log(hi / r) >= edge * (1.0 - 1e-9)
    vs, _ = schur.partition_fn_series(T1, (gap, 0), ModelParams(q, c), tol=1e-12)
    vc = schur.partition_fn_contour(T1, (gap, 0), q, c)
    assert abs(vc - vs) / abs(vs) < 1e-10


def test_partition_fn_contour_agrees_at_long_times():
    # circles near the integrands' saddles; circles mid-way across the
    # annuli raised here at T1 = 100 for c = 0.9 and c = 1.5
    for T1, cs in ((100, (0.5, 0.9, 1.5)), (300, (0.5, 0.9))):
        for q in (0.2, 0.5):
            for c in cs:
                for gap in (0, 10):
                    vs, _ = schur.partition_fn_series(T1, (gap, 0), ModelParams(q, c),
                                                      tol=1e-12)
                    vc = schur.partition_fn_contour(T1, (gap, 0), q, c)
                    assert abs(vc - vs) / abs(vs) < 1e-10, (T1, q, c, gap)


def test_partition_fn_contour_raises_or_agrees_at_t300_c_above_one():
    for q in (0.2, 0.5):
        for gap in (0, 10):
            try:
                vc = schur.partition_fn_contour(300, (gap, 0), q, 1.5)
            except QuadratureError:
                continue
            vs, _ = schur.partition_fn_series(300, (gap, 0), ModelParams(q, 1.5),
                                              tol=1e-12)
            assert abs(vc - vs) / abs(vs) < 1e-10, (q, gap)


def test_characteristic_ratio_raises_on_a_floor_accept():
    # the circle integral of Z(qhat, chat) is about 1e-16 of its scale here;
    # the engine accepted it on an absolute floor, and the ratio came out of
    # modulus 1.118 with no error
    with pytest.raises(QuadratureError):
        schur.characteristic_ratio(300, (0, 0), ModelParams(0.5, 1.5), 0.1, 0.2)


def test_default_radii_refuse_thin_annuli():
    # q/c within 1e-4 of q^2 (r1), and qc within 5e-5 of 1 (r2)
    for q, c in ((0.5, 1.0 / (0.5 * (1.0 + 1e-4))), (0.5, 1.9999)):
        with pytest.raises(ContourPlacementError):
            schur.default_contour_radii(1, 1, q, c)
        with pytest.raises(ContourPlacementError):
            schur.partition_fn_contour(1, (1, 0), q, c)


def _brute_path_count(T1, y, x):
    """Interlacing increasing path pairs from x at 0 to y at T1, enumerated."""
    def paths(x0, y0):
        out = []
        for mids in itertools.product(range(x0, y0 + 1), repeat=T1 - 1):
            vals = (x0,) + mids + (y0,)
            if all(a <= b for a, b in zip(vals, vals[1:])):
                out.append(vals)
        return out

    cnt = 0
    for p1 in paths(x[0], y[0]):
        for p2 in paths(x[1], y[1]):
            # interlacing p1(r-1) >= p2(r)
            if all(p1[r - 1] >= p2[r] for r in range(1, T1 + 1)):
                cnt += 1
    return cnt


def test_origin_law_weights_match_brute_path_count():
    # p * Z = c^{x1-x2} q^{y1+y2-x1-x2} * #paths(x -> y) for T1 <= 4; pairs
    # without a path are absent from the law
    q, c = 0.5, 0.8
    P = ModelParams(q, c)
    cases = [((2, 0), (1, 0)), ((3, 1), (1, 1)), ((2, 2), (0, 0)),
             ((4, 1), (2, 0)), ((3, 0), (0, 0))]
    for T1 in (1, 2, 3, 4):
        for y, x in cases:
            x1, x2, p = schur.origin_law(T1, y, P)
            Z, _ = schur.partition_fn_series(T1, y, P)
            law = {(a, b): v for a, b, v in zip(x1.tolist(), x2.tolist(), p)}
            count = _brute_path_count(T1, y, x)
            w = c ** (x[0] - x[1]) * q ** (y[0] + y[1] - x[0] - x[1])
            assert law.get(x, 0.0) * Z == pytest.approx(w * count, rel=1e-9)


def test_characteristic_ratio_trivia():
    P = ModelParams(0.5, 0.3)
    r = schur.characteristic_ratio(60, (20, 0), P, 0.0, 0.0)
    assert abs(r - 1.0) < 1e-12
    # c = 0, s = 0: gap degenerate at 0, ratio 1 for all t
    P0 = ModelParams(0.5, 0.0)
    for t in (0.5, 1.5):
        r = schur.characteristic_ratio(40, (10, 0), P0, 0.0, t)
        assert abs(r - 1.0) < 1e-9


def characteristic_ratio_limit(c, s, t, b=1.0):
    """Limit target e^{-b s^2} (1-c)^2 / (1 - c e^{it})^2 of
    schur.characteristic_ratio."""
    return math.exp(-b * s * s) * (1.0 - c) ** 2 / (1.0 - c * cmath.exp(1j * t)) ** 2


def test_characteristic_ratio_converges():
    P = ModelParams(0.5, 0.3)
    p = 1.0
    sigma = math.sqrt(2.0)
    lim = characteristic_ratio_limit(0.3, 1.0, 1.0)
    errs = []
    for Tn in (100, 400, 1600):
        gap = round(2.0 * sigma * math.sqrt(Tn))
        r = schur.characteristic_ratio(Tn, (gap, 0), P, 1.0, 1.0)
        errs.append(abs(r - lim))
    assert errs[0] > errs[1] > errs[2]


def test_origin_law_hand_case():
    P = ModelParams(0.5, 0.8)
    x1, x2, p = schur.origin_law(1, (1, 0), P)
    Z = 13.0 / 6.0
    for a, b, prob in zip(x1, x2, p):
        w = 0.8 ** (a - b) * 0.5 ** ((1 - a) + (0 - b))
        assert prob == pytest.approx(w / Z, abs=1e-10)
    assert p.sum() == pytest.approx(1.0, abs=1e-8)


def test_origin_exact_sampler(rng):
    P = ModelParams(0.5, 0.8)
    X1, X2 = schur.sample_origin_exact(1, (1, 0), P, rng, 50000)
    assert np.all(X1 >= X2)
    assert np.all(X1 <= 1)
    # P(x1 = 1) = (c/(1-qc)) / Z = (0.8/0.6)/(13/6)
    target = (0.8 / 0.6) / (13.0 / 6.0)
    emp = np.mean(X1 == 1)
    assert abs(emp - target) < 4 * math.sqrt(target * (1 - target) / 50000)


def _log_h(r, T1):
    if r < 0:
        return -math.inf
    if r == 0 or T1 == 0:
        return 0.0 if r == 0 else -math.inf
    return math.lgamma(T1 + r) - math.lgamma(r + 1) - math.lgamma(T1)


def _log_jacobi_trudi(T1, a, b, ap, bp):
    """Scalar log(h_a h_b - h_ap h_bp); -inf when the count is zero."""
    la = _log_h(a, T1) + _log_h(b, T1)
    lb = _log_h(ap, T1) + _log_h(bp, T1)
    if la == -math.inf:
        return -math.inf
    if lb == -math.inf:
        return la
    if lb >= la:
        return -math.inf
    diff = -math.expm1(lb - la)
    return la + math.log(diff) if diff > 0.0 else -math.inf


def _origin_law_scalar(T1, y, params, tail_tol=1e-10):
    """The per-(n, d) loop that origin_law replaced, kept as its reference.

    It normalizes with math.fsum: a running logaddexp over a million terms
    drifts by about 4e-11 relative, more than the rows differ."""
    q, c = params.q, params.c
    delta = y[0] - y[1]
    lq, lc = math.log(q), (math.log(c) if c > 0 else -math.inf)
    rows = []
    log_total = -math.inf
    n = 0
    while True:
        block = []
        for d in range(0, (delta + n if c > 0 else 0) + 1):
            lcount = _log_jacobi_trudi(T1, delta + n - d, n, delta + n + 1, n - d - 1)
            if lcount > -math.inf:
                block.append((n, d, (delta + 2 * n - d) * lq + (d * lc if d else 0.0) + lcount))
        if block:
            top = max(b[2] for b in block)
            lb = top + math.log(math.fsum(math.exp(b[2] - top) for b in block))
            log_total = max(log_total, lb) + math.log1p(math.exp(-abs(log_total - lb)))
        rows.extend(block)
        lh2 = 2.0 * _log_h(delta + n + 1, T1)
        lpre = math.log(delta + n + 2)
        p1 = lpre + lh2 + (delta + 2 * (n + 1)) * lq
        p2 = lpre + lh2 + (n + 1) * (lq + lc) + delta * lc if c > 0 else -math.inf
        g = ((T1 + delta + n + 1) / (delta + n + 2)) ** 2 * (delta + n + 3) / (delta + n + 2)
        rho = max(q * q * g, c * q * g if c > 0 else 0.0)
        if rho < 1.0 and n > 0:
            ltail = np.logaddexp(p1, p2) - math.log1p(-rho)
            if ltail < log_total + math.log(tail_tol):
                break
        n += 1
    lw = np.array([r[2] for r in rows])
    top = lw.max()
    p = np.exp(lw - top)
    p /= math.fsum(p)
    x2 = y[1] - np.array([r[0] for r in rows])
    return x2 + np.array([r[1] for r in rows]), x2, p


@pytest.mark.parametrize("T1, y, c", [(3, (2, 0), 0.8), (100, (114, 86), 0.3),
                                      (400, (428, 372), 0.3)])
def test_origin_law_matches_scalar_loop(T1, y, c):
    P = ModelParams(0.5, c)
    x1, x2, p = schur.origin_law(T1, y, P)
    r1, r2, rp = _origin_law_scalar(T1, y, P)
    assert np.array_equal(x1, r1) and np.array_equal(x2, r2)
    # subnormal probabilities carry fewer digits than 1e-12
    np.testing.assert_allclose(p, rp, rtol=1e-12, atol=1e-300)
    assert abs(math.fsum(p) - 1.0) < 1e-12


def test_origin_law_without_mass_fails_fast(monkeypatch):
    # T1 = 0 with y = (1, 0) leaves no path pair, and c = 0 no other term:
    # the first row with a zero tail envelope must raise
    rows = []
    block = schur._pair_block

    def counted(*args):
        rows.append(args[2])
        if len(rows) > 10:
            raise RuntimeError("origin_law kept adding rows without mass")
        return block(*args)

    monkeypatch.setattr(schur, "_pair_block", counted)
    with pytest.raises(schur.AccuracyError, match="no configuration has mass"):
        schur.origin_law(0, (1, 0), ModelParams(0.5, 0.0))
    assert rows == [0, 1]


def test_origin_gap_tv_sums_to_largest_gap_plus_tail():
    c = 0.95
    gaps = np.random.default_rng(5).negative_binomial(2, 1.0 - c, size=20000)
    assert gaps.max() > 80
    # explicit support far past the sample: the law's mass beyond it is
    # c^3001 * 3002 < 1e-60
    counts = np.bincount(gaps, minlength=3001)
    want = 0.5 * np.abs(counts / gaps.size - schur.origin_gap_law(c, 3000)).sum()
    assert schur.origin_gap_tv(gaps, c) == pytest.approx(want, abs=1e-12)
    # a point mass at k is at distance 1 - P(V = k)
    for k in (0, 7, 300):
        lam = schur.origin_gap_law(0.5, k)[k]
        assert schur.origin_gap_tv(np.array([k, k]), 0.5) == pytest.approx(1.0 - lam, abs=1e-15)