"""Exact one- and two-point functions of a small Pfaffian Schur process, by
enumeration written apart from the program.

The law of (lambda^0 < lambda^1 < ... < lambda^M), each step interlacing, with
at most N rows, is proportional to

    c^{alt(lambda^0)} q^{|lambda^M| - |lambda^0|} s_{lambda^M}(q, ..., q),

with the Schur polynomial in N equal variables given by the Weyl dimension
formula and the normalisation Z = (1 - cq)^{-N} (1 - q^2)^{-(N(N-1)/2 + NM)}.
Sequences with |lambda^M| <= cutoff are summed; 1 - (enumerated mass) / Z is
the missing mass, an upper bound on how far every tabulated value lies below
the exact one.  The points of slice j are {lambda^j_i - i : 1 <= i <= N}.

Recompute the stored table with

    python3 perfbench/reference.py

which rewrites perfbench/reference/schur_n3_m2.json.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

PARAMS = {"N": 3, "M": 2, "q": 0.4, "c": 0.7, "cutoff": 26}
LEVELS = list(range(-3, 7))
PATH = Path(__file__).resolve().parent / "reference" / "schur_n3_m2.json"


def _partitions(max_weight, rows):
    """Weakly decreasing tuples of length `rows` with sum <= max_weight."""
    def rec(prefix, remaining, cap):
        if len(prefix) == rows:
            yield tuple(prefix)
            return
        for v in range(min(remaining, cap), -1, -1):
            yield from rec(prefix + [v], remaining - v, v)

    yield from rec([], max_weight, max_weight)


def _below(lam):
    """All mu of the same length with lam_{i+1} <= mu_i <= lam_i."""
    ranges = [range(lam[i + 1] if i + 1 < len(lam) else 0, lam[i] + 1)
              for i in range(len(lam))]
    return itertools.product(*ranges)


def _log_schur_equal(lam, q):
    n = len(lam)
    out = sum(lam) * math.log(q)
    for i in range(n):
        for j in range(i + 1, n):
            out += math.log((lam[i] - lam[j] + j - i) / (j - i))
    return out


def enumerate_sequences(N, M, q, c, cutoff):
    """(sequences, probabilities, missing mass); a sequence is an (M+1, N)
    integer array of partitions, slice 0 first."""
    log_z = -N * math.log(1.0 - c * q) - (N * (N - 1) // 2 + N * M) * math.log(1.0 - q * q)
    seqs, logw = [], []

    def chains(lam, steps):
        if steps == 0:
            yield (lam,)
            return
        for mu in _below(lam):
            for chain in chains(mu, steps - 1):
                yield chain + (lam,)

    for top in _partitions(cutoff, N):
        base = _log_schur_equal(top, q) + sum(top) * math.log(q)
        for chain in chains(top, M):
            first = chain[0]
            alt = sum(v if i % 2 == 0 else -v for i, v in enumerate(first))
            seqs.append(chain)
            logw.append(base + alt * math.log(c) - sum(first) * math.log(q))
    probs = np.exp(np.asarray(logw) - log_z)
    return np.asarray(seqs, dtype=np.int64), probs, max(0.0, 1.0 - float(probs.sum()))


def correlation_table(N, M, q, c, cutoff, levels=LEVELS):
    """rho_1 on every (slice, level) cell and rho_2 on every pair of cells."""
    seqs, probs, missing = enumerate_sequences(N, M, q, c, cutoff)
    cells = [(j, x) for j in range(M + 1) for x in levels]
    rho1 = np.zeros(len(cells))
    rho2 = np.zeros((len(cells), len(cells)))
    for lo in range(0, len(seqs), 1 << 17):  # chunks keep the indicator small
        points = seqs[lo:lo + (1 << 17)] - np.arange(1, N + 1)
        p = probs[lo:lo + (1 << 17)]
        ind = np.zeros((len(points), len(cells)))
        for k, (j, x) in enumerate(cells):
            ind[:, k] = np.any(points[:, j, :] == x, axis=1)
        rho1 += p @ ind
        rho2 += ind.T @ (ind * p[:, None])
    return {
        "params": {"N": N, "M": M, "q": q, "c": c, "cutoff": cutoff},
        "missing_mass": missing,
        "sequences": int(len(seqs)),
        "rho1": {f"{j},{x}": float(rho1[k]) for k, (j, x) in enumerate(cells)},
        "rho2": {
            f"{cells[a][0]},{cells[a][1]};{cells[b][0]},{cells[b][1]}": float(rho2[a, b])
            for a in range(len(cells)) for b in range(a + 1, len(cells))
        },
    }


def load():
    with open(PATH) as fh:
        return json.load(fh)


def main():
    table = correlation_table(**PARAMS)
    PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH.name}: {table['sequences']} sequences, "
          f"missing mass {table['missing_mass']:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
