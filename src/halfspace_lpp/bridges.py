"""Continuum limit samplers: Brownian bridges, 3D Bessel bridges, pinned
pairs, and pinned reverse Brownian line ensembles, plus the empirical
discrete-to-continuum comparison.

All samplers draw exact finite-dimensional laws on a uniform grid (sequential
Gaussian conditioning); avoidance constraints are imposed at grid level by
rejection, which is the documented approximation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ParameterError
from .schur import origin_gap_tv, sample_origin_exact


class RejectionError(RuntimeError):
    """Rejection sampler exhausted its try budget; carries the rate seen."""

    def __init__(self, msg, acceptance_rate):
        super().__init__(msg)
        self.acceptance_rate = acceptance_rate


def sample_brownian_bridge(a, b, x, y, n_steps, rng, size=1):
    """Brownian bridges from (a, x) to (b, y) on a uniform grid, exactly.

    Returns (times, values) with values of shape (size, n_steps + 1).
    Sequential conditioning: given B(t_i) = v, the next point is Gaussian
    with mean interpolating to y and variance dt * (b - t_{i+1}) / (b - t_i).
    """
    if not (a < b):
        raise ParameterError("need a < b")
    times = np.linspace(a, b, n_steps + 1)
    vals = np.empty((size, n_steps + 1))
    vals[:, 0] = x
    # one draw per step in step order, the same stream as per-step calls
    z = rng.standard_normal((n_steps, size))
    for i in range(n_steps):
        t0, t1 = times[i], times[i + 1]
        frac = (t1 - t0) / (b - t0)
        mean = vals[:, i] + frac * (y - vals[:, i])
        var = (t1 - t0) * (b - t1) / (b - t0)
        vals[:, i + 1] = mean + math.sqrt(max(var, 0.0)) * z[i]
    vals[:, -1] = y
    return times, vals


def sample_bessel_bridge(b, y, n_steps, rng, size=1):
    """3D Bessel bridges on [0, b] ending at y > 0, via the norm of three
    scalar Brownian bridges from 0 to (y, 0, 0)."""
    if b <= 0.0 or y <= 0.0:
        raise ParameterError("need b > 0 and y > 0")
    _, w1 = sample_brownian_bridge(0.0, b, 0.0, y, n_steps, rng, size)
    _, w2 = sample_brownian_bridge(0.0, b, 0.0, 0.0, n_steps, rng, size)
    times, w3 = sample_brownian_bridge(0.0, b, 0.0, 0.0, n_steps, rng, size)
    return times, np.sqrt(w1 * w1 + w2 * w2 + w3 * w3)


def bessel_onepoint_density(v, t, b, y):
    """Density of the 3D Bessel bridge at one interior time t (vector v)."""
    v = np.asarray(v, dtype=float)

    def p(tt, a, bb):
        return np.exp(-((a - bb) ** 2) / (2.0 * tt)) / math.sqrt(2.0 * math.pi * tt)

    out = (
        (b / t) * (v / y) * p(t, 0.0, v) / p(b, 0.0, y)
        * (p(b - t, v, y) - p(b - t, v, -y))
    )
    return np.where(v > 0.0, out, 0.0)


def sample_pinned_pair(b, y1, y2, n_steps, rng, size=1):
    """Pinned pair: (U + V, U - V)/sqrt(2) with U a reverse Brownian motion
    to 2^{-1/2}(y1 + y2) and V an independent Bessel bridge to 2^{-1/2}(y1 - y2).

    Returns (times, Q) with Q of shape (size, 2, n_steps + 1);
    Q[:, 0, 0] == Q[:, 1, 0] exactly (the pinning) and Q1 >= Q2 on the grid.
    """
    if not (y1 > y2):
        raise ParameterError("need y1 > y2")
    root2 = math.sqrt(2.0)
    # reverse Brownian motion on [0,b] pinned at time b: run a standard BM
    # from time b downward; increments over [t, b] have variance b - t
    times = np.linspace(0.0, b, n_steps + 1)
    dt = np.diff(times)
    steps = rng.standard_normal((size, n_steps)) * np.sqrt(dt[::-1])
    U = np.empty((size, n_steps + 1))
    U[:, -1] = (y1 + y2) / root2
    U[:, :-1] = U[:, -1:] + np.cumsum(steps, axis=1)[:, ::-1]
    _, V = sample_bessel_bridge(b, (y1 - y2) / root2, n_steps, rng, size)
    q1 = (U + V) / root2
    q2 = (U - V) / root2
    return times, np.stack([q1, q2], axis=1)


def sample_pinned_ensemble(b, y, g, n_steps, rng, max_tries=1000, size=1):
    """Rejection sampler for the g-floored pinned reverse Brownian ensemble.

    y is a strictly decreasing vector of even length 2k; g is a grid function
    (length n_steps + 1) or None.  k independent pinned pairs are drawn and
    accepted iff B_{2i} > B_{2i+1} on the interior grid (with B_{2k+1} = g).
    Each pass draws as many candidates as samples are still missing, capped
    by what is left of the budget of max_tries candidates.  Returns (times,
    samples, acceptance_rate) with samples of shape (size, 2k, n_steps + 1).
    """
    y = np.asarray(y, dtype=float)
    k2 = len(y)
    if k2 % 2 != 0 or np.any(np.diff(y) >= 0.0):
        raise ParameterError("y must be strictly decreasing of even length")
    if g is not None and g[-1] >= y[-1]:
        raise ParameterError("need g(b) < y_2k")
    k = k2 // 2
    out = np.empty((size, k2, n_steps + 1))
    tries = 0
    got = 0
    while got < size:
        if tries >= max_tries:
            rate = got / max(tries, 1)
            raise RejectionError(
                f"pinned-ensemble rejection got {got}/{size} in {tries} tries",
                acceptance_rate=rate,
            )
        nb = min(size - got, max_tries - tries)
        tries += nb
        pairs = [sample_pinned_pair(b, y[2 * i], y[2 * i + 1], n_steps, rng, nb)[1]
                 for i in range(k)]
        if g is not None:
            pairs.append(np.broadcast_to(np.asarray(g, dtype=float), (nb, 1, n_steps + 1)))
        curves = np.concatenate(pairs, axis=1)
        # rows 1, 3, ... above rows 2, 4, ... (g last) on the open interior
        ok = np.all(curves[:, 1:-1:2, 1:-1] > curves[:, 2::2, 1:-1], axis=(1, 2))
        acc = curves[ok, :k2]
        out[got : got + len(acc)] = acc
        got += len(acc)
    return np.linspace(0.0, b, n_steps + 1), out, got / max(tries, 1)


# ---------------------------------------------------------------------------
# discrete-to-continuum comparison
# ---------------------------------------------------------------------------

def ks_distance(samples_a, samples_b):
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(samples_a, dtype=float))
    b = np.sort(np.asarray(samples_b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


@dataclass
class PinnedOriginReport:
    gap_tv: dict
    sum_ks: dict
    top_ks: dict


def discrete_to_pinned_check(T_values, b, y_scaled, params, rng, n_samples=100000,
                             n_cont=100000):
    """Compare interacting-pair origin statistics against the pinned-pair limit.

    For each T in T_values the exact time-0 law of the interacting pair with
    exit data Y = round(p T + sigma sqrt(d) y_i) is sampled, scaled per the
    d_n = T/b convention, and compared with (i) the geometric gap law
    (1-c)^2 (k+1) c^k and (ii) pinned-pair origin marginals: the scaled sum
    (Q1 + Q2)/2 at time 0 is Gaussian with mean (y1+y2)/2 and variance b/2.
    Reports total-variation and Kolmogorov-Smirnov distances per T.
    """
    q, c = params.q, params.c
    if c >= 1.0:
        raise ParameterError("discrete-to-pinned comparison needs c < 1")
    p = q / (1.0 - q)
    sigma = math.sqrt(p * (1.0 + p))
    y1, y2 = y_scaled
    rep = PinnedOriginReport(gap_tv={}, sum_ks={}, top_ks={})
    # continuum reference: time-0 values of the pinned pair
    zmean = 0.5 * (y1 + y2)
    zsd = math.sqrt(b / 2.0)
    ref_sum = zmean + zsd * rng.standard_normal(n_cont)
    for T in T_values:
        d = T / b
        Y1 = round(p * T + sigma * math.sqrt(d) * y1)
        Y2 = round(p * T + sigma * math.sqrt(d) * y2)
        X1, X2 = sample_origin_exact(T, (Y1, Y2), params, rng, n_samples)
        rep.gap_tv[T] = origin_gap_tv(X1 - X2, c)
        # in the scaled-ensemble convention both curves' time-0 values
        # converge to the pin Z ~ N((y1+y2)/2, b/2)
        scale = 1.0 / (sigma * math.sqrt(d))
        rep.sum_ks[T] = ks_distance(0.5 * (X1 + X2) * scale, ref_sum)
        rep.top_ks[T] = ks_distance(X1 * scale, ref_sum)
    return rep
