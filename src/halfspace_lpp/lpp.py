"""Symmetrized geometric LPP: environment sampling, last passage times, the
RSK shape hierarchy, and the interlacing line ensembles built from it.

Conventions.  A weight array is a plain (m, n) int64 ndarray indexed from 0,
so w[i-1, j-1] is the weight at lattice point (i, j).  Partitions are tuples
of ints with trailing zeros stripped.  The diagonal weights are Geom(c*q),
off-diagonal Geom(q^2), mirrored across the diagonal wherever both mirror
cells fall inside the rectangle.

Sampling draws a weight only for the cells that are not mirror copies and
keeps the draws packed as int32, one row of samples per cell, with an index
map that sends each lower-triangle cell to its mirror; a weight that would
pass 2^31 - 1 raises ResourceError instead of wrapping.  The uniform stream
is that of one (size, m, n) draw followed by one (size, min(m, n)) draw for
the diagonal, so fixed seeds give the same environments as a full draw.

One loop feeds a batched tableau a stream of letter-count words and reads
its shape: at one corner, along the line ensemble of an environment array,
and along the top curves fed straight from the packed draws.  The tableau
keeps each row letter-major, as an (n, batch) int32 prefix sum, and inserts
a word by the max-plus recursion R'[u] = w[u] + max(R'[u-1], R[u]), one
batch-wide pass per letter, so no scan runs along a sample row.  The top
curves draw every word into buffers reused from word to word.
"""

import itertools

import numpy as np

from .model import ModelParams, ParameterError


class BoundsError(IndexError):
    """Requested corner lies outside the stored weight array."""


class ResourceError(RuntimeError):
    """Instance too large: the exhaustive oracle's cell cap, or RSK prefix
    sums that would overflow their int32 storage."""


BRUTE_FORCE_CELL_CAP = 16
_DRAW_SLAB = 1 << 16  # uniforms drawn per slab by _symmetric_draws
_INT32_MAX = int(np.iinfo(np.int32).max)


# ---------------------------------------------------------------------------
# environment sampling
# ---------------------------------------------------------------------------

def _icdf_in_place(x, alpha):
    """The steps of geometric_icdf on the float buffer x, in place: x ends
    holding the integral draws as floats."""
    if alpha == 0.0:
        x.fill(0.0)
        return x
    np.maximum(x, 2.0 ** -53, out=x)
    np.log(x, out=x)
    np.divide(x, np.log(alpha), out=x)
    np.floor(x, out=x)
    return x


def geometric_icdf(u, alpha):
    """Inverse CDF of Geom(alpha): mass alpha^k (1-alpha) on k >= 0.

    alpha = 0 degenerates to the zero distribution.  u = 0, which
    rng.random() can return, is read as 2^-53, its smallest positive value.
    Returns int64 values shaped like u (a scalar for a scalar); u is left
    untouched.
    """
    x = _icdf_in_place(np.array(u, dtype=float), alpha)
    return x.astype(np.int64)[()]


def _int32_weights(u, alpha, out):
    """Write geometric_icdf(u, alpha) into the int32 array `out`, running the
    steps in place on the float buffer u; refused with ResourceError, before
    `out` is touched, when a weight would not fit int32."""
    x = _icdf_in_place(u, alpha)
    top = x.max(initial=0.0)
    if top > _INT32_MAX:
        raise ResourceError(f"geometric weight {top:.0f} passes the int32 limit")
    np.copyto(out, x, casting="unsafe")


def _symmetric_draws(m, n, params, rng, size):
    """Packed weights of `size` symmetrized environments on an m x n grid.

    Consumes the stream of one (size, m, n) uniform draw, taken whole samples
    a slab at a time, then of one (size, r) draw for the diagonal, r = min(m, n).
    Only cells that are not mirror copies get a weight: i < j, every row
    i >= r, then the diagonal.  Returns (packed, index): packed is a (P, size)
    int32 array, one row per kept cell, and index an (m, n) array with
    w[b, i, j] = packed[index[i, j], b]; below the diagonal of the r x r
    block it points at the mirror cell above it.
    """
    if m < 1 or n < 1:
        raise ParameterError(f"grid must be nonempty, got m={m}, n={n}")
    if not isinstance(params, ModelParams):
        params = ModelParams(*params)
    q, c = params.q, params.c
    r = min(m, n)
    i, j = np.indices((m, n))
    cells = np.flatnonzero((i < j) | (i >= r))  # the slab cells kept, row-major
    nf = cells.size
    index = np.empty((m, n), dtype=np.intp)
    index.flat[cells] = np.arange(nf)
    d = np.arange(r)
    index[d, d] = nf + d
    block = index[:r, :r]
    np.copyto(block, block.T.copy(), where=np.tri(r, k=-1, dtype=bool))
    packed = np.empty((nf + r, size), dtype=np.int32)
    # whole samples a slab at a time: the stream of one (size, m, n) draw
    step = max(1, _DRAW_SLAB // (m * n))
    for s in range(0, size, step):
        u = rng.random((min(step, size - s), m * n))
        _int32_weights(u[:, cells], q * q, packed[:nf, s : s + step].T)
    _int32_weights(rng.random((size, r)), c * q, packed[nf:].T)
    return packed, index


def sample_weights_batch(m, n, params, rng, size):
    """(size, m, n) int64 array of symmetrized geometric environments."""
    packed, index = _symmetric_draws(m, n, params, rng, size)
    w = np.empty((size, m, n), dtype=np.int64)
    for i in range(m):
        w[:, i] = packed[index[i]].T
    return w


# ---------------------------------------------------------------------------
# last passage times
# ---------------------------------------------------------------------------

def _check_corner(W, m, n):
    if not (1 <= m <= W.shape[0] and 1 <= n <= W.shape[1]):
        raise BoundsError(
            f"corner ({m},{n}) outside weight array of shape {W.shape}"
        )


def lpp_g1_grid(W):
    """Full table of last passage times G_1(i, j) for the given environment.

    G_1(i,j) = w_ij + max(G_1(i-1,j), G_1(i,j-1)); each row is a max-plus
    prefix scan, done with cumulative sums and a running maximum.
    """
    W = np.asarray(W, dtype=np.int64)
    m, n = W.shape
    G = np.empty((m, n), dtype=np.int64)
    up = np.full(n, np.iinfo(np.int64).min // 2, dtype=np.int64)
    up[0] = 0
    for i in range(m):
        csum = np.cumsum(W[i])
        shifted = np.concatenate(([0], csum[:-1]))
        G[i] = csum + np.maximum.accumulate(up - shifted)
        up = G[i]
    return G


def lpp_g1(W, m, n):
    """Last passage time G_1(m, n): max weight of an up-right path (1,1)->(m,n)."""
    W = np.asarray(W)
    _check_corner(W, m, n)
    return int(lpp_g1_grid(W[:m, :n])[m - 1, n - 1])


# ---------------------------------------------------------------------------
# RSK row insertion as a max-plus recursion
# ---------------------------------------------------------------------------
#
# Tableau rows live over the alphabet 1..n, batched over samples and stored
# letter-major: row k is an (n, B) int32 array R, R[u, b] the number of
# letters <= u+1 in the row of sample b.  Inserting a weakly increasing word
# with letter counts w into a row leaves the row with prefix sums
#     R'[u] = w[u] + max(R'[u-1], R[u]),   R'[-1] = 0,
# Greene's max-plus recursion, which for the first row is the last passage
# time G_1 of the words inserted so far.  Letters are conserved, so the word
# bumped into the next row has counts w + D - shift(D) with D = R - R' <= 0
# and shift(D)[u] = D[u-1], shift(D)[0] = 0; it totals sum(w) + D[n-1].  All
# of these are bounded by the sample's number of inserted letters, which is
# checked once per word.


class RSKTableau:
    """Batched semistandard tableau built by multiset row insertion.

    Tracks at most max_rows rows, each as a letter-major (n, batch) int32
    prefix sum; `rows` shows the rows in use as (batch, n) views.  Bumping
    out of the last tracked row is discarded, which leaves the tracked rows
    (hence the first max_rows parts of the shape) exact.  insert_counts
    raises ResourceError when a sample's inserted letters, which bound every
    prefix sum, would pass 2^31 - 1.
    """

    def __init__(self, batch, n, max_rows):
        self.batch = batch
        self.n = n
        self.max_rows = max_rows
        self._rows = []
        self._letters = np.zeros(batch, dtype=np.int64)
        self._word = np.empty((n, batch), dtype=np.int32)
        self._spare = np.empty((n, batch), dtype=np.int32)

    @property
    def rows(self):
        return [R.T for R in self._rows]

    def insert_counts(self, counts):
        """Insert one weakly increasing word per sample, given as (batch, n)
        letter counts."""
        counts = np.asarray(counts)
        total = counts.sum(axis=1, dtype=np.int64)
        letters = self._letters + total
        if letters.max(initial=0) > _INT32_MAX:
            raise ResourceError(f"{letters.max()} RSK letters pass the int32 limit")
        self._letters = letters
        w, X = self._word, self._spare
        np.copyto(w, counts.T, casting="same_kind")
        for k in range(self.max_rows):
            if not total.any():
                break
            if k == len(self._rows):
                self._rows.append(np.zeros_like(w))
            R = self._rows[k]
            prev = np.add(R[0], w[0], out=X[0])
            for x, r, c in zip(X[1:], R[1:], w[1:]):
                prev = np.add(np.maximum(prev, r, out=x), c, out=x)
            self._rows[k], X = X, R
            if k + 1 < self.max_rows:
                D = np.subtract(X, self._rows[k], out=X)
                total += D[-1]
                w += D
                w[1:] -= D[:-1]
        self._spare = X

    def shape(self):
        """(batch, max_rows) int64 array of row lengths (trailing rows zero)."""
        out = np.zeros((self.batch, self.max_rows), dtype=np.int64)
        for k, R in enumerate(self._rows):
            out[:, k] = R[-1]
        return out


def _shapes(words, size, n, K, first, T):
    """(size, K, T+1) shapes of a tableau tracking K rows that is fed the
    first + T + 1 (size, n) letter-count words of the iterator `words`, read
    after word `first` (0-based) and after each of the T words that follow.
    No word is held past its insertion."""
    tab = RSKTableau(size, n, K)
    out = np.zeros((size, K, T + 1), dtype=np.int64)
    for i in range(first + T + 1):
        tab.insert_counts(next(words))
        if i >= first:
            out[:, :, i - first] = tab.shape()
    return out


def rsk_shape_batch(W_batch, m, n):
    """Shapes lambda(m, n) for a batch of environments, as (B, min(m, n))."""
    W_batch = np.asarray(W_batch)
    words = (W_batch[:, i, :n] for i in range(m))
    return _shapes(words, W_batch.shape[0], n, min(m, n), m - 1, 0)[:, :, 0]


def rsk_shape(W, m, n):
    """Partition lambda(m, n); its prefix sums are the hierarchy G_k(m, n)."""
    W = np.asarray(W)
    _check_corner(W, m, n)
    shape = rsk_shape_batch(W[None, :m, :n], m, n)[0]
    nz = np.nonzero(shape)[0]
    return tuple(int(v) for v in shape[: nz[-1] + 1]) if nz.size else ()


# ---------------------------------------------------------------------------
# exhaustive disjoint-path oracle
# ---------------------------------------------------------------------------

def lpp_gk_bruteforce(W, m, n, k):
    """Exact G_k(m, n) by enumerating k vertex-disjoint up-right path tuples.

    Path i runs from (1, i) to (m, n-k+i).  States are the per-row end
    columns of the (automatically non-crossing) paths.  Hard cap m*n <= 16.
    For k > min(m, n) the covering convention G_k = sum(W) applies.
    """
    W = np.asarray(W, dtype=np.int64)
    _check_corner(W, m, n)
    if m * n > BRUTE_FORCE_CELL_CAP:
        raise ResourceError(
            f"brute-force oracle capped at m*n <= {BRUTE_FORCE_CELL_CAP}, got {m * n}"
        )
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k > min(m, n):
        return int(W[:m, :n].sum())

    prefix = np.zeros((m, n + 1), dtype=np.int64)
    prefix[:, 1:] = np.cumsum(W[:m, :n], axis=1)

    def interval_sum(row, a, b):
        # inclusive columns a..b, 1-based
        return int(prefix[row, b] - prefix[row, a - 1])

    def extensions(entry_cols, row, final):
        """All end-column tuples for this row, with the row's added weight."""
        if final:
            target = tuple(n - k + i + 1 for i in range(k))
            ok = all(entry_cols[i] <= target[i] for i in range(k)) and all(
                target[i] < entry_cols[i + 1] for i in range(k - 1)
            )
            if ok:
                yield target, sum(
                    interval_sum(row, entry_cols[i], target[i]) for i in range(k)
                )
            return
        ranges = []
        for i in range(k):
            hi = entry_cols[i + 1] - 1 if i + 1 < k else n
            if entry_cols[i] > hi:
                return
            ranges.append(range(entry_cols[i], hi + 1))
        for ends in itertools.product(*ranges):
            if all(ends[i] < entry_cols[i + 1] for i in range(k - 1)):
                yield ends, sum(
                    interval_sum(row, entry_cols[i], ends[i]) for i in range(k)
                )

    starts = tuple(range(1, k + 1))
    dp = {}
    for ends, wsum in extensions(starts, 0, final=(m == 1)):
        dp[ends] = max(dp.get(ends, -1), wsum)
    for row in range(1, m):
        nxt = {}
        final = row == m - 1
        for cols, val in dp.items():
            for ends, wsum in extensions(cols, row, final):
                tot = val + wsum
                if nxt.get(ends, -1) < tot:
                    nxt[ends] = tot
        dp = nxt
    if not dp:
        raise ParameterError(f"no disjoint {k}-tuple of paths on a {m}x{n} grid")
    return int(max(dp.values()))


# ---------------------------------------------------------------------------
# line ensembles
# ---------------------------------------------------------------------------

def lambda_process_batch(W_batch, N, M, max_curves=None):
    """(B, K, M+1) array of curves L_i(t) = lambda_i(t+N, N) for a batch."""
    W_batch = np.asarray(W_batch)
    B, rows, cols = W_batch.shape
    if rows < N + M or cols < N:
        raise BoundsError(
            f"need a ({N + M}, {N}) environment, got ({rows}, {cols})"
        )
    K = min(N, max_curves) if max_curves else N
    words = (W_batch[:, i, :N] for i in range(N + M))
    return _shapes(words, B, N, K, N - 1, M)


def sample_top_curves(N, M, params, rng, size, n_curves=2):
    """Stream-sample `size` environments on [[1, N+M]] x [[1, N]] and return
    the top `n_curves` curves as a (size, n_curves, M+1) array.

    The N x N block is held only as its packed int32 draws (N(N+1)/2 cells
    per sample) and fed to the tableau one row of the index map at a time;
    the mirrored (size, N, N) environment is never built.  Rows beyond N have
    no mirror cell inside the rectangle and are drawn one at a time as they
    are inserted.  Samples are processed in chunks of max(1, 2^25 // N^2), a
    deterministic function of N that fixes the stream; a chunk's packed draws
    hold about 2^24 int32 weights (64 MB) whatever the batch size.
    """
    if not isinstance(params, ModelParams):
        params = ModelParams(*params)
    q = params.q
    chunk = max(1, (1 << 25) // max(N * N, 1))
    if size > chunk:
        parts = [
            sample_top_curves(N, M, params, rng, min(chunk, size - i0), n_curves)
            for i0 in range(0, size, chunk)
        ]
        return np.concatenate(parts, axis=0)

    def words(packed, index):
        # every word is written into one reused letter-major buffer
        word = np.empty((N, size), dtype=np.int32)
        for i in range(N):
            yield np.take(packed, index[i], axis=0, out=word, mode="clip").T
        del packed  # its only reference: free the block before the rows past N
        u = np.empty((size, N))
        for _ in range(M):
            _int32_weights(rng.random(out=u), q * q, word.T)
            yield word.T

    # draw the block before _shapes allocates the tableau and the output, so
    # that neither coexists with the draw's temporaries
    top = words(*_symmetric_draws(N, N, params, rng, size))
    return _shapes(top, size, N, n_curves, N - 1, M)


# ---------------------------------------------------------------------------
# rescaled curves
# ---------------------------------------------------------------------------

def rescale_bulk(curves, N, consts, times):
    """Centered curves sigma^-1 N^-1/3 (L_i(t) - 2qN/(1-q) - q t/(1-q)) of a
    (..., M+1) curve array at the integer times t in `times`; the bulk limit
    reads them at scaled time t N^-2/3."""
    q = consts.q
    center = 2.0 * q * N / (1.0 - q) + q * times / (1.0 - q)
    return (curves[..., times] - center) / (consts.sigma * N ** (1.0 / 3.0))


def rescale_top_batch(top_vals, N, consts, t_grid):
    """Top-curve fluctuation field on [0, kappa_bar), the N^{1/2} window, for
    a (B, M+1) array of top-curve values; the grid must hit integer times."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size and t_grid.max() >= consts.kappa_bar:
        raise ParameterError("t grid must stay below kappa_bar")
    times = t_grid * N
    idx = np.rint(times).astype(int)
    if np.max(np.abs(times - idx)) > 1e-9:
        raise ParameterError("batch rescaling requires integer times t*N")
    scale = (consts.p2 * (1.0 + consts.p2)) ** -0.5 * N ** -0.5
    return scale * (top_vals[:, idx] - consts.C_top * N - consts.p2 * times)
