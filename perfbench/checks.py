"""Output checks of the benchmark, written apart from the program.

Every function takes plain values or arrays and returns a list of problem
strings; an empty list means the output passed.  Reference values come from
closed forms, from enumeration (reference.py), from another entry point of
the program that computes the same quantity by a different method, or from
a property the output must have.  Statistical bounds are set at six standard
errors (or a chi-square p-value of 1e-6), so a correct program passes them
on any seed.
"""

import csv
import math

import numpy as np
from scipy import stats as sstats

Z_BOUND = 6.0
P_FLOOR = 1e-6


def brownian_kernel(s, x, t, y):
    """Closed-form Brownian kernel: heat density at (s, x) minus, for s > t,
    the transition density from (t, y)."""
    val = math.exp(-x * x / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)
    if s > t:
        val -= math.exp(-((x - y) ** 2) / (2.0 * (s - t))) / math.sqrt(2.0 * math.pi * (s - t))
    return val


def r22_gaussian(s, x, t, y, f1):
    """The R22 limit integral evaluated as a Gaussian integral on the
    imaginary axis."""
    a = f1 * (s + t)
    b = y - x
    return b / (8.0 * math.sqrt(math.pi) * a ** 1.5) * math.exp(-b * b / (4.0 * a))


def strictly_falling(label, values):
    if all(a > b for a, b in zip(values, values[1:])):
        return []
    return [f"{label}: error does not fall with N: " + " -> ".join(f"{v:.3e}" for v in values)]


def falls_beyond_error(label, values, errs):
    """Each value lies below the one before it by more than both quadrature
    errors: values[i+1] + errs[i+1] < values[i] - errs[i].  A fall that the
    returned errors do not resolve fails."""
    if all(b + eb < a - ea for a, b, ea, eb in zip(values, values[1:], errs, errs[1:])):
        return []
    return [f"{label}: fall with N not resolved by the quadrature error: "
            + " -> ".join(f"{v:.3e} (err {e:.1e})" for v, e in zip(values, errs))]


def close(label, value, expected, tol):
    diff = abs(value - expected)
    if diff <= tol:
        return []
    return [f"{label}: {value!r} differs from {expected!r} by {diff:.3e} (allowed {tol:.3e})"]


def exact_correlation(label, value, err, expected, missing, terms):
    """An exact kernel correlation against the enumerated law.  The enumerated
    value sits at most `missing` below the exact one; each of the `terms`
    kernel entries carries the quadrature error `err`."""
    return close(label, value, expected, missing + terms * err + 1e-12)


def ensemble(label, arr):
    """(B, K, T) integer curves: ordered, non-decreasing in time, interlacing
    lambda_i(t-1) >= lambda_{i+1}(t)."""
    arr = np.asarray(arr)
    out = []
    if arr.ndim != 3 or arr.size == 0:
        return [f"{label}: expected a non-empty (B, K, T) array, got shape {arr.shape}"]
    if np.any(np.diff(arr, axis=2) < 0):
        out.append(f"{label}: a curve decreases in time")
    if arr.shape[1] > 1 and np.any(arr[:, :-1, :] < arr[:, 1:, :]):
        out.append(f"{label}: curves out of order")
    if arr.shape[1] > 1 and np.any(arr[:, :-1, :-1] < arr[:, 1:, 1:]):
        out.append(f"{label}: interlacing lambda_i(t-1) >= lambda_(i+1)(t) violated")
    return out


def parse_curve_archive(path):
    """Curve archive `sample_id,index,time,value` parsed with the csv module
    into a dense (B, K, T) array; every cell must appear exactly once."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["sample_id", "index", "time", "value"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    data = np.array([[int(v) for v in row] for row in rows[1:]], dtype=np.int64)
    B, K, T = data[:, 0].max() + 1, data[:, 1].max(), data[:, 2].max() + 1
    out = np.zeros((B, K, T), dtype=np.int64)
    seen = np.zeros((B, K, T), dtype=np.int64)
    np.add.at(seen, (data[:, 0], data[:, 1] - 1, data[:, 2]), 1)
    if np.any(seen != 1):
        raise ValueError(f"{path}: cells missing or repeated")
    out[data[:, 0], data[:, 1] - 1, data[:, 2]] = data[:, 3]
    return out


def same_array(label, got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape:
        return [f"{label}: shape {got.shape} differs from {expected.shape}"]
    bad = int(np.count_nonzero(got != expected))
    return [f"{label}: {bad} entries differ"] if bad else []


def top_curve_is_g1(label, curves, g1_tables, N):
    """curves[b, 0, t] = lambda_1(N + t, N) must equal G_1(N + t, N)."""
    out = []
    for b, G in enumerate(g1_tables):
        g = G[N - 1:, N - 1]
        if not np.array_equal(curves[b, 0, :len(g)], g):
            out.append(f"{label}: sample {b} top curve differs from G_1")
    return out


def binomial(label, count, trials, p):
    """Sampled frequency count/trials against the exact probability p."""
    se = math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)
    z = (count / trials - p) / se
    if abs(z) <= Z_BOUND:
        return []
    return [f"{label}: sampled {count / trials:.5f} vs exact {p:.5f}, z = {z:+.2f}"]


def chi_square(label, observed, expected):
    """Goodness of fit; bins with expected count < 8 are pooled."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    big = expected >= 8.0
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    if exp[-1] < 8.0:
        obs[-2] += obs[-1]
        exp[-2] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    exp *= obs.sum() / exp.sum()
    p = float(sstats.chisquare(obs, exp).pvalue)
    return [] if p > P_FLOOR else [f"{label}: chi-square p = {p:.2e}"]

