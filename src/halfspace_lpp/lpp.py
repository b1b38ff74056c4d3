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

That stream is drawn as contiguous sample ranges.  On a PCG64 bit generator,
whose random() takes one 64-bit output per double, a range reads its doubles
from a copy of the caller's generator moved by advance() to the offsets that
the serial draw gives its samples, and the caller's generator is then moved
past the whole stream: every output and the caller's next draw are those of
the serial draw.  sample_weights_batch gathers one bounded range at a time
into its output; sample_top_curves runs the ranges of a chunk at once, one
per usable CPU.  Any other bit generator runs the same code as one range,
read in order.

_run_jobs is the package's one thread runner, on a pool of worker threads
made at first use (never at import) and dropped in a forked child: the
top-curve ranges of a chunk run on it, and so do the two one-axis
doublings of a large double-contour walk step (contours).

One loop feeds a batched tableau a stream of letter-count words and reads
its shape: at one corner, along the line ensemble of an environment array,
and along the top curves fed straight from the packed draws.  The tableau
keeps each row letter-major, as an (n, batch) int32 prefix sum, and inserts
a word by the max-plus recursion R'[u] = w[u] + max(R'[u-1], R[u]), one
batch-wide pass per letter, so no scan runs along a sample row.  The top
curves draw every word into buffers reused from word to word.
"""

import contextvars
import itertools
import os
import threading

import numpy as np

from .model import ParameterError


class BoundsError(IndexError):
    """Requested corner lies outside the stored weight array."""


class ResourceError(RuntimeError):
    """Instance too large: the exhaustive oracle's cell cap, or RSK prefix
    sums that would overflow their int32 storage."""


BRUTE_FORCE_CELL_CAP = 16
_DRAW_SLAB = 1 << 16  # uniforms drawn per slab by _symmetric_draws
_RANGE_WEIGHTS = 1 << 20  # weights per sample range of sample_weights_batch
_INT32_MAX = int(np.iinfo(np.int32).max)
# Top-curve chunks split into at most _MAX_RANGES sample ranges (the jobs of
# _run_jobs, whose pool has _MAX_RANGES - 1 threads at most) of at least
# _MIN_PART samples and _MIN_RANGE_WEIGHTS weights per word each.  numpy
# releases the GIL only in ufunc calls of more than 500 elements, so ranges
# of few samples serialise on their RSK rows, and a small word costs less
# than its thread hand-offs.  Measured on 2 CPUs, M = 200, one range against
# two: N = 100 with 200 samples 172 -> 322 ms, 1000 samples 467 -> 455 ms,
# 2000 samples 889 -> 775 ms; 4000 samples at N = 1 30 -> 63 ms, N = 10
# 134 -> 134 ms, N = 30 407 -> 270 ms.
_MAX_RANGES = 4
_MIN_PART = 1000
_MIN_RANGE_WEIGHTS = 50_000


# ---------------------------------------------------------------------------
# environment sampling
# ---------------------------------------------------------------------------

def _log_ratio(x, alpha):
    """log(max(x, 2^-53)) / log(alpha) on the float buffer x, in place: the
    steps of geometric_icdf before its floor."""
    np.maximum(x, 2.0 ** -53, out=x)
    np.log(x, out=x)
    return np.divide(x, np.log(alpha), out=x)


def geometric_icdf(u, alpha):
    """Inverse CDF of Geom(alpha): mass alpha^k (1-alpha) on k >= 0.

    alpha = 0 degenerates to the zero distribution.  u = 0, which
    rng.random() can return, is read as 2^-53, its smallest positive value.
    Returns int64 values shaped like u (a scalar for a scalar); u is left
    untouched.
    """
    x = np.array(u, dtype=float)
    if alpha == 0.0:
        x.fill(0.0)
    else:
        np.floor(_log_ratio(x, alpha), out=x)
    return x.astype(np.int64)[()]


def _int32_weights(u, alpha, out):
    """Write geometric_icdf(u, alpha) into the int32 array `out`, running the
    steps in place on the float buffer u of draws in [0, 1); refused with
    ResourceError, before `out` is touched, when a weight would not fit int32.

    For such draws log(max(u, 2^-53)) / log(alpha) >= 0, so the cast's
    truncation is the floor.  The largest weight is that of u = 2^-53; the
    draws are scanned for one past the limit only when that bound comes
    within a factor two of 2^31 (alpha > 1 - 3.4e-8), a margin far wider
    than the rounding of log.
    """
    if alpha == 0.0:
        out.fill(0)
        return
    x = _log_ratio(u, alpha)
    if np.log(2.0 ** -53) / np.log(alpha) >= 2.0 ** 30:
        top = x.max(initial=0.0)
        if top >= 2.0 ** 31:
            raise ResourceError(f"geometric weight {int(top)} passes the int32 limit")
    np.copyto(out, x, casting="unsafe")


def _packed_rows(m, n):
    """Rows of the packed draws of an m x n grid, one per cell that is not a
    mirror copy: m n less the r (r - 1) / 2 cells below the diagonal of the
    r x r block, r = min(m, n)."""
    if m < 1 or n < 1:
        raise ParameterError(f"grid must be nonempty, got m={m}, n={n}")
    r = min(m, n)
    return m * n - r * (r - 1) // 2


def _symmetric_draws(m, n, params, seek, size, b0, b1, out):
    """Draw the packed weights of samples [b0, b1) of a stream of `size`
    symmetrized environments on an m x n grid into `out`; return the index map.

    The stream is that of one (size, m, n) uniform draw followed by one
    (size, r) draw for the diagonal, r = min(m, n): sample b reads its cells
    from double b m n on and its diagonal from double size m n + b r on,
    whole samples a slab at a time.  seek(k) returns a Generator whose next
    double is double k of the stream.  Only cells that are not mirror copies
    get a weight: i < j, every row i >= r, then the diagonal.  out is a
    (_packed_rows(m, n), b1 - b0) int32 array, one row per kept cell; the
    (m, n) index map has w[b, i, j] = out[index[i, j], b - b0], and below the
    diagonal of the r x r block it points at the mirror cell above it.
    """
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
    step = max(1, _DRAW_SLAB // (m * n))
    rng = seek(b0 * m * n)
    for s in range(b0, b1, step):
        u = rng.random((min(step, b1 - s), m * n))
        _int32_weights(u[:, cells], q * q, out[:nf, s - b0 : s - b0 + step].T)
    u = seek(size * m * n + b0 * r).random((b1 - b0, r))
    _int32_weights(u, c * q, out[nf:].T)
    return index


# ---------------------------------------------------------------------------
# sample ranges of one stream
# ---------------------------------------------------------------------------
#
# Generator.random on a PCG64 or PCG64DXSM bit generator takes one 64-bit
# output per double, so advance(k) skips exactly k doubles (the jump-ahead of
# the LCG inside PCG).  A sample range then reads its doubles of the caller's
# stream from its own copy of the bit generator, set to the stream's start
# state and advanced to each absolute offset, never backwards; the caller's
# generator is advanced past the whole stream afterwards.  Other bit
# generators (MT19937, SFC64, and Philox, whose advance counts blocks of four
# outputs) run the same code as one range read in order.

_SEEKABLE = (np.random.PCG64, np.random.PCG64DXSM)


def _seeker(rng, start):
    """seek(k): a Generator whose next double is double k of the stream that
    starts at the bit-generator state `start`.  With start None it is rng
    itself, which must then be read in order."""
    if start is None:
        return lambda k: rng
    g = np.random.Generator(type(rng.bit_generator)())

    def seek(k):
        g.bit_generator.state = start
        g.bit_generator.advance(k)
        return g

    return seek


def _skip(rng, k):
    """Move rng past k doubles, as drawing them would.  advance() drops a
    buffered 32-bit half, which doubles never read, so it is put back."""
    bg = rng.bit_generator
    before = bg.state
    bg.advance(k)
    after = bg.state
    after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
    bg.state = after


def _usable_cpus():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool = None  # the worker threads of _run_jobs, made at first use
_pool_lock = threading.Lock()
_pool_thread = threading.local()  # .on is set in the pool's threads


def _mark_pool_thread():
    _pool_thread.on = True


def _forget_pool():
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)  # a forked child has no pool


def _run_jobs(jobs):
    """Run the callables in `jobs` and return their results in order:
    jobs[:-1] on the persistent pool of max(1, min(usable CPUs,
    _MAX_RANGES) - 1) worker threads, each in a copy of the caller's
    context, and jobs[-1] in the calling thread.  Every job has finished
    before this returns or raises; the error of the first failing job in
    list order is raised.  A job set started on a worker, or on a host with
    one usable CPU, runs in order in its own thread, so a job never waits on
    the pool."""
    global _pool
    if len(jobs) < 2 or getattr(_pool_thread, "on", False) or _usable_cpus() < 2:
        return [job() for job in jobs]
    from concurrent.futures import Future, ThreadPoolExecutor, wait
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, min(_usable_cpus(), _MAX_RANGES) - 1),
                                       "hslpp-job", initializer=_mark_pool_thread)
    futures = [_pool.submit(contextvars.copy_context().run, job) for job in jobs[:-1]]
    futures.append(Future())
    try:
        futures[-1].set_result(jobs[-1]())
    except BaseException as exc:  # raised once every job has finished
        futures[-1].set_exception(exc)
    wait(futures)
    return [f.result() for f in futures]


def sample_weights_batch(m, n, params, rng, size):
    """(size, m, n) int64 array of symmetrized geometric environments.

    Drawn and gathered a sample range of at most _RANGE_WEIGHTS weights at a
    time, so the packed int32 draws beside the output never hold more than
    one range; a bit generator that cannot seek draws them as one range.
    """
    P = _packed_rows(m, n)
    w = np.empty((size, m, n), dtype=np.int64)
    part = max(1, _RANGE_WEIGHTS // (m * n))
    if size <= part or not isinstance(rng.bit_generator, _SEEKABLE):
        part = max(size, 1)
    ranged = part < size
    seek = _seeker(rng, rng.bit_generator.state if ranged else None)
    for b0 in range(0, size, part):
        b1 = min(size, b0 + part)
        packed = np.empty((P, b1 - b0), dtype=np.int32)
        index = _symmetric_draws(m, n, params, seek, size, b0, b1, packed)
        for i in range(m):
            w[b0:b1, i] = packed[index[i]].T
        del packed
    if ranged:
        _skip(rng, size * (m * n + min(m, n)))
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


def _shapes(words, n, first, out):
    """Fill the (size, K, T+1) array `out` with the shapes of a tableau
    tracking K rows that is fed the first + T + 1 (size, n) letter-count
    words of the iterator `words`, read after word `first` (0-based) and
    after each of the T words that follow; return it.  No word is held past
    its insertion."""
    size, K, T1 = out.shape
    tab = RSKTableau(size, n, K)
    for i in range(first + T1):
        tab.insert_counts(next(words))
        if i >= first:
            out[:, :, i - first] = tab.shape()
    return out


def rsk_shape_batch(W_batch, m, n):
    """Shapes lambda(m, n) for a batch of environments, as (B, min(m, n))."""
    W_batch = np.asarray(W_batch)
    words = (W_batch[:, i, :n] for i in range(m))
    out = np.empty((W_batch.shape[0], min(m, n), 1), dtype=np.int64)
    return _shapes(words, n, m - 1, out)[:, :, 0]


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
    return _shapes(words, N, N - 1, np.empty((B, K, M + 1), dtype=np.int64))


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

    A chunk of `size` samples runs as contiguous sample ranges, one per
    usable CPU (at most _MAX_RANGES, each of at least _MIN_PART samples and
    _MIN_RANGE_WEIGHTS weights per word), run at once by _run_jobs.  Each
    range seeks its doubles of the chunk's stream by the offsets of the
    serial draw: sample b reads its block cells from b N^2, its diagonal
    from size N^2 + b N and row N + t from size N^2 + size N + t size N + b N;
    the caller's generator then moves past size N (N + 1 + M) doubles.
    Outputs and the caller's next draw are those of the serial draw.  A bit
    generator that cannot seek (not PCG64) runs each chunk as one range,
    read in order.
    """
    P = _packed_rows(N, N)
    out = np.empty((size, n_curves, M + 1), dtype=np.int64)
    chunk = max(1, (1 << 25) // (N * N))
    for i0 in range(0, size, chunk):
        _top_curve_chunk(N, M, params, rng, P, out[i0 : i0 + chunk])
    return out


def _top_curve_chunk(N, M, params, rng, P, out):
    """Fill `out` with the top curves of a chunk of len(out) samples, run as
    sample ranges run by _run_jobs; P = N (N + 1) / 2 packed cells."""
    size = len(out)
    parts = 1
    if isinstance(rng.bit_generator, _SEEKABLE):
        parts = max(1, min(_usable_cpus(), _MAX_RANGES, size // _MIN_PART,
                           size * N // _MIN_RANGE_WEIGHTS))
    bounds = [size * p // parts for p in range(parts + 1)]
    start = rng.bit_generator.state if parts > 1 else None
    # one allocation, range p's block the contiguous segment of its samples,
    # held by nothing but that range's words: it is freed once every range
    # has fed its N block words, before most of the rows past N
    flat = np.empty(P * size, dtype=np.int32)
    blocks = [[flat[P * b0 : P * b1].reshape(P, b1 - b0)]
              for b0, b1 in zip(bounds, bounds[1:])]
    del flat

    def run(p):
        b0, b1 = bounds[p], bounds[p + 1]
        words = _top_words(N, M, params, _seeker(rng, start), size, b0, b1,
                           blocks[p].pop())
        _shapes(words, N, N - 1, out[b0:b1])

    _run_jobs([lambda p=p: run(p) for p in range(parts)])
    if parts > 1:
        _skip(rng, size * N * (N + 1 + M))


def _top_words(N, M, params, seek, size, b0, b1, block):
    """The N + M letter-count words of samples [b0, b1) of a size-sample
    chunk, as (b1 - b0, N) views of one reused buffer: the N rows of the
    N x N block, drawn into `block` (the only reference to it, dropped after
    them), then the M rows past N, row N + t read from double
    size N (N + 1) + t size N + b0 N of the chunk's stream."""
    index = _symmetric_draws(N, N, params, seek, size, b0, b1, block)
    word = np.empty((N, b1 - b0), dtype=np.int32)
    for i in range(N):
        yield np.take(block, index[i], axis=0, out=word, mode="clip").T
    del block
    u = np.empty((b1 - b0, N))
    q = params.q
    for t in range(M):
        rng = seek(size * N * (N + 1) + t * size * N + b0 * N)
        _int32_weights(rng.random(out=u), q * q, word.T)
        yield word.T


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
