"""Pfaffians of skew-symmetric matrices and correlation-function assembly."""

import math

import numpy as np

from .model import ParameterError


class ShapeError(ValueError):
    pass


def slogpf(A):
    """(phase, logabs) with Pf(A) = phase * exp(logabs), as slogdet splits
    det; Pf(A) = 0 gives (0, -inf).  Skew-symmetric elimination with partial
    pivoting, for real or complex A of even dimension."""
    A = np.array(A, dtype=complex)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ShapeError("matrix must be square")
    if n % 2 != 0:
        raise ShapeError("Pfaffian needs even dimension")
    logabs = 0.0
    phase = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        # pivot: largest |A[j, k]| for j > k
        col = np.abs(A[k + 1 :, k])
        j = int(np.argmax(col)) + k + 1
        if col[j - k - 1] == 0.0:
            return 0.0 + 0.0j, -math.inf
        if j != k + 1:
            A[[k + 1, j], :] = A[[j, k + 1], :]
            A[:, [k + 1, j]] = A[:, [j, k + 1]]
            phase = -phase
        piv = A[k + 1, k]
        logabs += math.log(abs(piv))
        phase *= -piv / abs(piv)  # Pf contribution is A[k, k+1] = -A[k+1, k]
        if k + 2 < n:
            tail = slice(k + 2, n)
            u = A[tail, k] / piv
            v = A[tail, k + 1]  # column k+1, i.e. -A[k+1, tail]
            A[tail, tail] += np.outer(u, v) - np.outer(v, u)
    return phase, logabs


def pfaffian(A):
    """Pf(A) = phase * exp(logabs) from slogpf: raises OverflowError past
    e^700 and underflows to 0 below about e^-745."""
    phase, logabs = slogpf(A)
    if logabs > 700.0:
        raise OverflowError(f"|Pf| = e^{logabs:.1f} overflows float range")
    return phase * math.exp(logabs)


def pfaffian_expansion(A):
    """Recursive minor expansion along the first row; cross-check for 2m <= 8."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if n > 8:
        raise ParameterError("expansion cross-check capped at dimension 8")
    if n % 2 != 0:
        raise ShapeError("Pfaffian needs even dimension")
    if n == 0:
        return 1.0 + 0.0j
    if n == 2:
        return A[0, 1]
    total = 0.0 + 0.0j
    for j in range(1, n):
        keep = [i for i in range(n) if i not in (0, j)]
        minor = A[np.ix_(keep, keep)]
        total += (-1.0) ** (j - 1) * A[0, j] * pfaffian_expansion(minor)
    return total


def correlation_fn(points, kernel_eval):
    """rho_k(points) = Pf of the 2k x 2k matrix of kernel blocks.

    kernel_eval(p, q) must return an object with .as_matrix() and .err for a
    pair of space-time points.  Off-diagonal blocks below the diagonal are
    filled by skew symmetry; small numerical asymmetry of the diagonal
    blocks is projected out.
    """
    n = len(points)
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    err = 0.0
    for i in range(n):
        for j in range(i, n):
            kv = kernel_eval(points[i], points[j])
            blk = kv.as_matrix()
            A[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = blk
            if j > i:
                A[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = -blk.T
            err = max(err, kv.err)
    A = 0.5 * (A - A.T)
    return pfaffian(A).real, err
