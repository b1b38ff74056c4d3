"""Empirical statistics of sampled ensembles and their comparison with the
exact kernel formulas: densities, pair correlations, tail counts, with
jackknife standard errors; empirical laws of sampled rows, counted by one
lexicographic sort, and their total-variation distance to exact laws; plus
CSV archive IO.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    pass


@dataclass
class LatticeSpec:
    """Slice lattice a * Z + b in scaled coordinates: x_of(m) is the scaled
    value of the integer index m (the level lambda_i - i).  The estimators
    compare indices, never floats.
    """

    a: float
    b: float

    def x_of(self, m):
        return self.a * m + self.b


def jackknife_mean(values):
    """(mean, jackknife standard error) along axis 0."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 2:
        raise InputError("need at least 2 samples for a standard error")
    mean = values.mean(axis=0)
    loo = (values.sum(axis=0) - values) / (n - 1)
    se = np.sqrt((n - 1) / n * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    return mean, se


@dataclass
class PointStats:
    """Per-level densities of a sampled slice and their jackknife errors."""

    levels: np.ndarray
    density: np.ndarray
    density_se: np.ndarray


def empirical_point_stats(samples, slice_index, lattice, window):
    """Densities rho_1(x) in a window of one time slice of an archive.

    samples: (B, K, M+1) integer curve array; points are lambda_i - i.
    window: (lo, hi) in scaled coordinates; density is estimated at every
    lattice level inside.  Estimators are unbiased indicator means with
    jackknife errors.
    """
    samples = np.asarray(samples)
    if samples.shape[0] < 2:
        raise InputError("need at least 2 samples")
    pts = samples[:, :, slice_index] - np.arange(1, samples.shape[1] + 1)
    lo, hi = window
    m_lo = int(math.ceil((lo - lattice.b) / lattice.a - 1e-9))
    m_hi = int(math.floor((hi - lattice.b) / lattice.a + 1e-9))
    ms = np.arange(m_lo, m_hi + 1)
    ind = (pts[:, :, None] == ms[None, None, :]).any(axis=1).astype(float)
    density, density_se = jackknife_mean(ind)
    return PointStats(levels=lattice.x_of(ms), density=density, density_se=density_se)


def empirical_tail_count(samples, slice_index, lattice, a):
    """(mean, se) of #{i : scaled point >= a} at one slice."""
    samples = np.asarray(samples)
    pts = samples[:, :, slice_index] - np.arange(1, samples.shape[1] + 1)
    # exact integer comparison: point index m = lambda_i - i vs threshold index
    m_min = int(math.ceil((a - lattice.b) / lattice.a - 1e-9))
    counts = (pts >= m_min).sum(axis=1).astype(float)
    return jackknife_mean(counts)


def pair_correlation(samples, slice_pairs):
    """Empirical rho_2 for point pairs ((slice, m), (slice, m)) in index units."""
    samples = np.asarray(samples)
    K = samples.shape[1]
    out = []
    for (j1, m1), (j2, m2) in slice_pairs:
        p1 = samples[:, :, j1] - np.arange(1, K + 1)
        p2 = samples[:, :, j2] - np.arange(1, K + 1)
        ind = (np.any(p1 == m1, axis=1) & np.any(p2 == m2, axis=1)).astype(float)
        out.append(jackknife_mean(ind))
    return out


def _row_classes(rows):
    """Distinct rows of a 2-D integer array in lexicographic order, as
    (perm, starts, counts): rows[perm] is sorted, stably, and the class
    starting at starts[c] holds counts[c] rows."""
    perm = np.lexsort(rows.T[::-1])
    srt = rows[perm]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return perm, starts, np.diff(starts, append=len(rows))


def empirical_law(rows):
    """Empirical law of the rows of a 2-D integer array, as a {row tuple:
    count} dict whose keys come in order of first occurrence."""
    rows = np.asarray(rows)
    perm, starts, counts = _row_classes(rows)
    first = perm[starts]  # the stable sort puts each class's first row first
    return {tuple(rows[first[j]].tolist()): int(counts[j]) for j in np.argsort(first)}


def tv_distance(counts, probs, missing=0.0):
    """Total variation distance between the empirical law of a {key: count}
    dict and a {key: probability} dict, plus half of `missing`, the mass the
    probabilities leave out.  Sums over set(probs) | set(counts), in that
    set's order."""
    n = sum(counts.values())
    tv = 0.0
    for key in set(probs) | set(counts):
        tv += abs(probs.get(key, 0.0) - counts.get(key, 0) / n)
    return 0.5 * tv + 0.5 * missing


# ---------------------------------------------------------------------------
# archives
# ---------------------------------------------------------------------------

_ARCHIVE_BLOCK = 1 << 16  # archive lines formatted per write


def write_curve_archive(path, samples):
    """CSV archive of a batch of line ensembles: sample_id,index,time,value.

    One line per value, in (sample, index, time) order, with CRLF endings;
    the body is formatted a block of whole samples at a time.
    """
    samples = np.asarray(samples)
    B, K, T = samples.shape
    step = max(1, _ARCHIVE_BLOCK // max(K * T, 1))
    b, i, t = np.indices((min(step, B), K, T))
    with open(path, "w", newline="") as fh:
        fh.write("sample_id,index,time,value\r\n")
        for s in range(0, B, step):
            vals = samples[s : s + step]
            n = vals.shape[0]
            grid = np.stack([b[:n] + s, i[:n] + 1, t[:n], vals.astype(np.int64)], axis=-1)
            fh.write("%d,%d,%d,%d\r\n" * (n * K * T) % tuple(grid.ravel().tolist()))


def read_curve_archive(path):
    """(B, K, T) int64 array of a write_curve_archive CSV, in any row order.

    Raises InputError unless every row has four integers, sample ids and
    times are non-negative, indices are at least 1, and the rows fill each
    (sample, index, time) cell of the (B, K, T) grid exactly once.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    except (ValueError, OSError) as exc:
        raise InputError(f"cannot parse curve archive {path}: {exc}") from exc
    if data.size == 0:
        return np.zeros((0, 0, 0), dtype=np.int64)
    if data.shape[1] != 4:
        raise InputError(f"curve archive {path}: {data.shape[1]} columns, expected 4")
    b, i, t = data[:, 0], data[:, 1] - 1, data[:, 2]
    if min(b.min(), i.min(), t.min()) < 0:
        raise InputError(f"curve archive {path}: a negative sample id or time, "
                         "or an index below 1")
    B, K, T = int(b.max()) + 1, int(i.max()) + 1, int(t.max()) + 1
    if len(data) != B * K * T:
        raise InputError(f"curve archive {path}: {len(data)} rows for the "
                         f"{B} x {K} x {T} cells")
    cell = (b * K + i) * T + t
    if np.bincount(cell).max() > 1:
        raise InputError(f"curve archive {path}: a (sample id, index, time) cell "
                         "listed twice, another missing")
    out = np.empty(B * K * T, dtype=np.int64)
    out[cell] = data[:, 3]
    return out.reshape(B, K, T)


def write_stats_csv(path, rows):
    """Stats table rows (slice, x_or_window, estimate, stderr, exact, z)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slice", "x_or_window", "estimate", "stderr", "exact", "z_score"])
        for r in rows:
            w.writerow([r[0], r[1], repr(float(r[2])), repr(float(r[3])),
                        repr(float(r[4])), repr(float(r[5]))])
