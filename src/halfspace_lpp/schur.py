"""Pfaffian Schur process weights and samplers, interacting-pair partition
functions (series and contour forms), the exact law of an interacting pair
at the origin, and the distance of sampled origin gaps to their limit law.

Partitions are tuples of non-negative ints, weakly decreasing, trailing
zeros optional.
"""

import cmath
import math

import numpy as np

from .contours import (CIRCLE_MAX_NODES, ContourPlacementError, QuadratureError,
                       integrate_circle)
from .model import ParameterError
from .lpp import sample_weights_batch, lambda_process_batch


class AccuracyError(RuntimeError):
    """Requested tolerance not reachable within the allowed truncation."""


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def trim(lam):
    lam = tuple(lam)
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def interlaces(mu, lam):
    """True iff mu precedes lam: lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..."""
    mu, lam = trim(mu), trim(lam)
    if len(mu) > len(lam):
        return False
    for i in range(len(lam)):
        m = mu[i] if i < len(mu) else 0
        if lam[i] < m:
            return False
        if i + 1 < len(lam) and m < lam[i + 1]:
            return False
    return True


def weight_sum(lam):
    return sum(lam)


def alt_sum(lam):
    return sum(v if i % 2 == 0 else -v for i, v in enumerate(lam))


def principal_spec_log(lam, q, N):
    """log s_lambda(q, ..., q) with N variables; -inf when len(lam) > N."""
    lam = trim(lam)
    if len(lam) > N:
        return -math.inf
    full = lam + (0,) * (N - len(lam))
    out = weight_sum(lam) * math.log(q) if weight_sum(lam) else 0.0
    for i in range(N):
        for j in range(i + 1, N):
            out += math.log(full[i] - full[j] + j - i) - math.log(j - i)
    return out


# ---------------------------------------------------------------------------
# Schur process weight and sampler
# ---------------------------------------------------------------------------

def schur_weight(partitions, q, c, N):
    """Unnormalized weight of a partition sequence (lambda^0, ..., lambda^M).

    Zero signals off-support (broken interlacing or too many rows).
    """
    seq = [trim(p) for p in partitions]
    for a, b in zip(seq, seq[1:]):
        if not interlaces(a, b):
            return 0.0
    ls = principal_spec_log(seq[-1], q, N)
    if ls == -math.inf:
        return 0.0
    a0 = alt_sum(seq[0])
    if c == 0.0:
        tau = 1.0 if a0 == 0 else 0.0
    else:
        tau = c ** a0
    return tau * q ** (weight_sum(seq[-1]) - weight_sum(seq[0])) * math.exp(ls)


def schur_normalization_log(q, c, N, M):
    """log Z for the Schur process: sum of all weights."""
    return -N * math.log(1.0 - c * q) - (N * (N - 1) // 2 + N * M) * math.log(1.0 - q * q)


def sample_schur_process_batch(N, M, params, rng, size):
    """(size, N, M+1) array: entry [b, i, j] is lambda^j_{i+1} of sample b.

    Exact sampler through the LPP identity: rsk shapes of the symmetrized
    environment at corners (N+j, N).
    """
    W = sample_weights_batch(N + M, N, params, rng, size)
    return lambda_process_batch(W, N, M)


# ---------------------------------------------------------------------------
# enumeration helpers (oracles for the distribution tests)
# ---------------------------------------------------------------------------

def partitions_up_to(max_weight, max_len):
    """All partitions with |lambda| <= max_weight and length <= max_len."""
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for v in range(min(remaining, cap), 0, -1):
            rec(prefix + [v], remaining - v, v)

    rec([], max_weight, max_weight)
    return out


def interlacing_below(lam):
    """All mu with mu interlacing below lam (mu precedes lam)."""
    lam = trim(lam)
    if not lam:
        return [()]
    out = []

    def rec(i, prefix):
        if i == len(lam):
            out.append(trim(prefix))
            return
        lo = lam[i + 1] if i + 1 < len(lam) else 0
        hi = min(lam[i], prefix[-1]) if prefix else lam[i]
        for v in range(lo, hi + 1):
            rec(i + 1, prefix + [v])

    rec(0, [])
    return out


def enumerate_schur_support(N, M, q, c, weight_cutoff):
    """All sequences with |lambda^M| <= cutoff, with float weights.

    Returns (sequences, weights, tail_bound_on_missing_mass) where the tail
    bound covers sequences with |lambda^M| > cutoff, via the exact
    normalization Z minus the enumerated mass... the bound reported is the
    residual Z - sum(weights), which is exact up to float arithmetic.
    """
    seqs, weights = [], []

    def chains(lam, steps):
        if steps == 0:
            return [[lam]]
        out = []
        for mu in interlacing_below(lam):
            for chain in chains(mu, steps - 1):
                out.append(chain + [lam])
        return out

    for lam in partitions_up_to(weight_cutoff, N):
        for chain in chains(trim(lam), M):
            w = schur_weight(chain, q, c, N)
            if w > 0.0:
                seqs.append(tuple(chain))
                weights.append(w)
    Z = math.exp(schur_normalization_log(q, c, N, M))
    tail = max(Z - sum(weights), 0.0)
    return seqs, np.asarray(weights), tail


# ---------------------------------------------------------------------------
# interacting-pair partition function: series form
# ---------------------------------------------------------------------------

def _log_h_upto(lh, T1, top):
    """The table lh[r] = log h_r = log C(T1 + r - 1, r), r = 0, 1, ..., of
    the complete homogeneous sums in T1 unit variables (lh[0] = 0, and
    lh[r > 0] = -inf at T1 = 0), grown to reach index top: rebuilt from
    math.lgamma values to twice the index asked for."""
    if len(lh) > top:
        return lh
    r = np.arange(2 * top + 1)
    lg = np.array([math.inf] + [math.lgamma(k) for k in range(1, T1 + 2 * top + 2)])
    with np.errstate(invalid="ignore"):
        lh = lg[T1 + r] - lg[r + 1] - lg[T1]
    lh[0] = 0.0
    return lh


def _pair_block(T1, delta, n, q, c, lh):
    """Block n of the interacting-pair sum and the envelope of the rest.

    Returns (d, log w, log p1, log p2, rho).  The terms have x2 = y2 - n,
    x1 = x2 + d for d = 0..delta+n (d = 0 only when c = 0) with a nonzero
    path count, and log w = (delta+2n-d) log q + d log c + log(h_a h_b -
    h_ap h_bp), a = delta+n-d, b = n, ap = delta+n+1, bp = n-d-1.  The
    blocks past n sum to at most (p1 + p2) / (1 - rho) when rho < 1.  The
    log h table lh (_log_h_upto) must reach index delta + n + 1.
    """
    lq, lc = math.log(q), (math.log(c) if c > 0 else -math.inf)
    d = np.arange(delta + n + 1 if c > 0 else 1)
    h_n, h_ap = lh[n], lh[delta + n + 1]
    la = lh[delta + n - d] + h_n
    lb = np.full(len(d), -np.inf)  # log h_{n-d-1}, h_r = 0 for r < 0
    lb[:n] = h_ap + lh[n - 1 - d[:n]]
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = -np.expm1(lb - la)
        lw = (delta + 2 * n - d) * lq + (d * lc if c > 0 else 0.0) + (la + np.log(diff))
    keep = diff > 0.0
    # envelope (delta+n+2) h_{delta+n+1}^2 (q^{delta+2n+2} + (cq)^{n+1} c^delta)
    lpre = math.log(delta + n + 2)
    p1 = lpre + 2.0 * h_ap + (delta + 2 * (n + 1)) * lq
    p2 = lpre + 2.0 * h_ap + (n + 1) * (lq + lc) + delta * lc if c > 0 else -math.inf
    x = ((T1 + delta + n + 1) / (delta + n + 2)) ** 2
    rho = max(q * q * x * (delta + n + 3) / (delta + n + 2),
              c * q * x * (delta + n + 3) / (delta + n + 2) if c > 0 else 0.0)
    return d[keep], lw[keep], p1, p2, rho


def _pair_blocks(T1, delta, q, c, cap):
    """The blocks n = 0, 1, ..., cap of the interacting-pair sum, each as
    (n, d, log w, log tail) with d and log w those of _pair_block and log
    tail the log of the envelope (p1 + p2) / (1 - rho) of the blocks past
    n, None when rho >= 1; the log h table is grown as the blocks need it."""
    lh = np.zeros(0)
    for n in range(cap + 1):
        lh = _log_h_upto(lh, T1, delta + n + 1)
        d, lw, p1, p2, rho = _pair_block(T1, delta, n, q, c, lh)
        tail = float(np.logaddexp(p1, p2)) - math.log1p(-rho) if rho < 1.0 else None
        yield n, d, lw, tail


def partition_fn_series(T1, y, params, tol=1e-12):
    """Interacting-pair normalization Z(T1, y; q, c) by direct summation.

    Returns (value, tail_bound); the tail bound is rigorous, from geometric
    domination of the term envelope.  Raises AccuracyError when tol is not
    reached within 100000 blocks.
    """
    y1, y2 = y
    if y1 < y2:
        raise ParameterError("need y1 >= y2")
    total = 0.0
    for _, _, lw, log_tail in _pair_blocks(T1, y1 - y2, params.q, params.c, 100000):
        total += float(np.exp(lw).sum())
        if log_tail is not None and log_tail <= math.log(tol * max(total, 1e-300)):
            return total, math.exp(log_tail)
    raise AccuracyError(
        f"series for Z({T1},{y}) did not reach tol={tol} within 100000 terms"
    )


# ---------------------------------------------------------------------------
# interacting-pair partition function: contour form
# ---------------------------------------------------------------------------

_CONTOUR_TOL = 1e-11  # the circle integrals of the contour partition function
_RADIUS_MARGIN = 0.1  # of an annulus' log width, kept clear at each end


def _log_peak(T1, k, q, r):
    """log |(1 - u)^-T1 (1 - qhat^2/u)^-T1 u^-k| at u = r, |qhat| = q: its
    largest value on |u| = r, reached at u = r for real qhat."""
    return -T1 * (math.log1p(-r) + math.log1p(-q * q / r)) - k * math.log(r)


def _contour_Z_scaled(T1, y, qhat, chat, r1, r2):
    """Z via the two-circle formula, returned as (log_scale, scaled_value),
    the scale the larger _log_peak of the circles.  QuadratureError, with
    the integral's value, when a circle's returned error is above
    _CONTOUR_TOL of |value|: the engine accepted on an absolute floor, or
    its roundoff floor is above the tolerance."""
    delta = y[0] - y[1]
    k1, k2 = delta + 1, delta + 3
    scale = max(_log_peak(T1, k1, abs(qhat), r1), _log_peak(T1, k2, abs(qhat), r2))

    def circle(k, pole_fn, r):
        def f(u):
            return np.exp(-T1 * (np.log(1.0 - u) + np.log(1.0 - qhat * qhat / u))
                          - k * np.log(u) - np.log(pole_fn(u)) - scale)

        val, err = integrate_circle(f, r, tol=_CONTOUR_TOL)
        if not err <= _CONTOUR_TOL * abs(val):
            raise QuadratureError(
                f"partition-function circle |u| = {r:.6g}: error {err:.3e} above "
                f"{_CONTOUR_TOL:g} of |value| {abs(val):.3e}", partial=val)
        return val

    i1 = circle(k1, lambda u: 1.0 - u * chat / qhat, r1)
    i2 = circle(k2, lambda u: 1.0 - qhat * chat / u, r2)
    return scale, qhat ** delta * i1 - qhat ** (delta + 2) * i2


def _saddle_radius(T1, k, q, lo, hi):
    """Radius of a circle integrand (1 - u)^-T1 (1 - q^2/u)^-T1 u^-k times a
    pole factor, analytic on the annulus lo < |u| < hi: the r in (q^2, 1)
    that minimises its modulus at u = r, the positive root of
    (T1 + k) r^2 - k (1 + q^2) r - (T1 - k) q^2, clamped to keep
    _RADIUS_MARGIN of the annulus' log width W clear of each end.  There the
    trapezoid rule's error on n nodes falls at least like
    e^(-n _RADIUS_MARGIN W); ContourPlacementError when half that rate does
    not reach _CONTOUR_TOL by CIRCLE_MAX_NODES nodes."""
    width = math.log(hi / lo)
    if 0.5 * _RADIUS_MARGIN * CIRCLE_MAX_NODES * width < -math.log(_CONTOUR_TOL):
        raise ContourPlacementError(
            f"annulus ({lo:.6g}, {hi:.6g}) too thin for tol {_CONTOUR_TOL:g} within "
            f"{CIRCLE_MAX_NODES} trapezoid nodes")
    root = (k * (1.0 + q * q) + math.hypot(k * (1.0 - q * q), 2.0 * T1 * q)) / (2.0 * (T1 + k))
    edge = _RADIUS_MARGIN * width
    return math.exp(min(max(math.log(root), math.log(lo) + edge), math.log(hi) - edge))


def default_contour_radii(T1, delta, q, c):
    """(r1, r2) of the two circles of Z(T1, (y2 + delta, y2); q, c): each near
    the saddle of its integrand (k = delta + 1 for r1, delta + 3 for r2),
    inside the annuli r1 in (q^2, min(1, q/c)) and r2 in (max(q^2, qc), 1),
    whose ends are the integrands' nearest singularities (_saddle_radius)."""
    hi1 = min(1.0, q / c) if c > 0 else 1.0
    if hi1 <= q * q:
        raise ParameterError("no admissible r1: need q^2 < q/c")
    lo2 = max(q * q, q * c)
    if lo2 >= 1.0:
        raise ParameterError("no admissible r2: need max(q^2, qc) < 1")
    return (_saddle_radius(T1, delta + 1, q, q * q, hi1),
            _saddle_radius(T1, delta + 3, q, lo2, 1.0))


def partition_fn_contour(T1, y, qhat, chat):
    """Z(T1, y; qhat, chat) by the two-circle contour formula.

    qhat, chat may be complex with |qhat| < 1; the circles are those of
    default_contour_radii(T1, y1 - y2, |qhat|, |chat|), each integral taken
    to a relative 1e-11 on the level engine.  Raises QuadratureError when an
    integral's returned error is above that (_contour_Z_scaled), and
    AccuracyError when Z overflows a float.
    """
    r1, r2 = default_contour_radii(T1, y[0] - y[1], abs(qhat), abs(chat))
    scale, val = _contour_Z_scaled(T1, y, complex(qhat), complex(chat), r1, r2)
    if scale > 700.0:
        raise AccuracyError(
            f"partition function magnitude e^{scale:.1f} overflows float; "
            "use characteristic_ratio for scale-free quantities"
        )
    return val * math.exp(scale)


def characteristic_ratio(T_n, y, params, s, t, b=1.0):
    """Joint characteristic function of the centered origin statistics of an
    interacting pair, e^{2 i p T_n s / (sigma sqrt(d_n))} Z(qhat, chat)/Z(q, c),
    with qhat = q e^{-i s/(sigma sqrt(d_n))}, chat = c e^{i t}, d_n = T_n / b.
    Both Z are taken on the circles of default_contour_radii(T_n, y1 - y2,
    q, c) and raise as in partition_fn_contour: at T_n = 300, c = 1.5 the
    first circle integral of Z(qhat, chat) is 1e-16 of its scale.

    Its large-n limit is e^{-b s^2} (1-c)^2 / (1 - c e^{it})^2.
    """
    q, c = params.q, params.c
    d_n = T_n / b
    p = q / (1.0 - q)
    sigma = math.sqrt(p * (1.0 + p))
    qhat = q * cmath.exp(-1j * s / (sigma * math.sqrt(d_n)))
    chat = c * cmath.exp(1j * t)
    r1, r2 = default_contour_radii(T_n, y[0] - y[1], q, c)
    sc_num, num = _contour_Z_scaled(T_n, y, qhat, chat, r1, r2)
    sc_den, den = _contour_Z_scaled(T_n, y, complex(q), complex(c), r1, r2)
    phase = cmath.exp(2j * p * T_n * s / (sigma * math.sqrt(d_n)))
    return phase * math.exp(sc_num - sc_den) * num / den


# ---------------------------------------------------------------------------
# exact origin law of an interacting pair
# ---------------------------------------------------------------------------

def origin_law(T1, y, params):
    """Exact joint law of (B1(0), B2(0)) under the interacting-pair measure.

    Marginalizing the uniform conditional paths leaves the mixture weights
    w(x1, x2) = c^{x1-x2} q^{y1+y2-x1-x2} * #paths(x -> y), with the count
    given by the 2x2 Jacobi-Trudi determinant.  Returns (x1, x2, p) arrays
    with sum(p) >= 1 - 1e-10 of the true mass, ordered by n = y2 - x2,
    then by d = x1 - x2.  Each n contributes its whole d-row at once, with
    the log h terms read from one table (_log_h_upto).  Raises
    AccuracyError at the first row whose tail envelope is zero while the
    total is still zero: then no configuration has mass; and past 200000
    rows.
    """
    y1, y2 = y
    ns, ds, lws = [], [], []
    log_total = -math.inf
    for n, d, lw, ltail in _pair_blocks(T1, y1 - y2, params.q, params.c, 200000):
        if lw.size:
            log_total = np.logaddexp(log_total, np.logaddexp.reduce(lw))
        ns.append(np.full(lw.size, n))
        ds.append(d)
        lws.append(lw)
        if ltail is not None and n > 0:
            if ltail == log_total == -math.inf:
                raise AccuracyError("origin law: no configuration has mass")
            if ltail < log_total + math.log(1e-10):
                break
    else:
        raise AccuracyError("origin law truncation did not converge")

    p = np.exp(np.concatenate(lws) - log_total)
    x2 = y2 - np.concatenate(ns)
    x1 = x2 + np.concatenate(ds)
    return x1, x2, p


def sample_origin_exact(T1, y, params, rng, size):
    """(x1, x2) samples from the exact interacting-pair origin law."""
    x1, x2, p = origin_law(T1, y, params)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return x1[idx], x2[idx]


def origin_gap_law(c, kmax):
    """Limiting gap law P(V = k) = (1-c)^2 (k+1) c^k, k >= 0, truncated."""
    k = np.arange(kmax + 1)
    if c == 0.0:
        p = np.zeros(kmax + 1)
        p[0] = 1.0
        return p
    return (1.0 - c) ** 2 * (k + 1) * c ** k


def origin_gap_tv(gaps, c):
    """TV distance between the empirical law of the integer gaps X1 - X2 >= 0
    and the limiting gap law: the sum over 0..K, K the largest sampled gap,
    plus the law's tail P(V > K) = c^(K+1) ((K+2) - (K+1) c), where the
    sample has no mass."""
    counts = np.bincount(gaps)
    K = counts.size - 1
    tail = c ** (K + 1) * ((K + 2) - (K + 1) * c)
    return 0.5 * (float(np.abs(counts / len(gaps) - origin_gap_law(c, K)).sum()) + tail)
