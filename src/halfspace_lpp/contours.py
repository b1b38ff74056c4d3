"""Oriented piecewise contours in the complex plane and quadrature on them.

Pieces are segments, circular arcs and full circles with a [0, 1]
parametrization.  Single and double contour integrals share one
level-doubling engine over two node rules.  Segments and arcs carry
Gauss-Legendre panels whose count doubles from level to level (tensor
products for double integrals); a full_circle is such an arc, with panel
breaks on the real axis at theta = +-pi and 0.  A Circle carries the
periodic trapezoid rule at the midpoints theta_k = -pi + 2 pi (k + 1/2)/n,
n = 256 * 2^level, as many nodes per level as the arc's panels; it converges
geometrically for an integrand that is analytic and single-valued on an
annulus around the circle, and no node lies on the real axis.  An integrand
with a branch seam on the circle (a principal logarithm times a non-integer
coefficient) needs the arc, whose panels break at the seam.  The
acceptance threshold is max(tol * |value|, tol^2, 1e-13 * mass), where
mass is the integrand's L1 mass, so a value below the roundoff floor of the
mass counts as zero.

A single integral accepts level l when its change from level l - 1 is below
the threshold; the error is that change.  A double integral walks over level
pairs (lz, lw), one level per contour: at the current pair it evaluates the
two one-axis doublings (lz + 1, lw) and (lz, lw + 1), accepts when both
change the value by at most the threshold, and otherwise advances every
contour whose doubling moved the value by more, so a contour resolved at a
coarse level stays there while the other one refines.  The accepted value
is V(lz + 1, lw) + V(lz, lw + 1) - V(lz, lw), which cancels the leading
error of each axis, and the error is the sum of the two one-axis changes.
Errors are floored at the roundoff of a sum over the nodes: eps sqrt(n) *
mass for a single integral over n nodes, and eps (sqrt(n_z) + sqrt(n_w)) *
mass for a double one over the finest levels evaluated, eps being machine
epsilon and n, n_z, n_w the node counts of the levels' whole rules.  No
contour passes the engine's maximum level; a non-finite level raises
QuadratureError at once, and non-convergence raises it with the partial
value, the levels reached, the last changes and the threshold.

A double integrand may come factored as a(z) F(z, w) b(w): the per-axis
factors are evaluated once per node of a level and folded into the weights
next to dz and dw, and only the coupling F runs on the node pairs.  The
mass stays sum_ij |dz_i a_i| |F_ij| |b_j dw_j|, the L1 mass of the whole
integrand, so the split moves no threshold.  A factor with one column per
point batches integrals over the same nodes, accepted over all points.

A factored walk then drops each node whose weight |dz_i a_i| is at most
_NEGLIGIBLE = 2^-133 (about 1e-40, the cut of truncate_wedge) of the
largest on its axis and level; with (n, P) weights a node stays while it
is above that fraction of the largest in any column.  Steepest-descent
factors e^{N S} fall by hundreds of orders of magnitude along a contour,
so most node pairs of such an integral go.  Per point, the dropped part
of the sum and of the mass is at most 2^-133 (n_z + n_w) K times the
mass, K being the ratio of the largest to the smallest |F| over the node
pairs: below the 1e-13 * mass floor unless |F| varies by more than about
1e20, which takes a contour almost on a pole of the coupling.  n, the
threshold, the floor (over the whole rules' nodes) and the maximum
levels keep their meaning.  Every node stays when a weight is not finite,
so the walk raises at once, and when all are zero.  Unfactored integrands
and single walks, whose F carries the exponentials, keep every node.

An integrand with real coefficients (real=True: a(conj z) = conj(a(z)),
likewise F and b) on contours that conjugation maps onto themselves, as
circles and arcs centred at the origin and wedges with a real apex are,
is summed over half the z contour.  Node conj(z_i) then carries the
weight -conj(dz_i), so the pairs (i, j) and (conj i, conj j) add
conjugate terms: the full sum S is 2 Re S_up for a double integral and
2i Im S_up for a single one, S_up being the sum over the z nodes above
the real axis (against every w node), and the value, the prefactor
times that, is real.  The mass is twice that of S_up, the whole
contour's; the floor counts the whole rules' nodes, so the threshold,
the floor and the maximum levels mean what they mean for the full sum,
and the walk reaches the same level pairs on half the node pairs.
Before a level of either contour is used, its rule is checked to be
closed under conjugation: as many nodes above the real axis as below,
none on it, and the conjugated nodes below, sorted, matching those above
with weights -conj(dz) to roundoff (_CONJ_TOL); a rule that fails raises
ContourPlacementError.  The z contour then keeps its nodes above the
axis, the w contour all of its nodes, before any node of negligible
weight is dropped.

The pair sums run in tiles of whole rows: at most 2^15 node pairs for
scalar weights, whose two complex and one real tile buffers (about 1.25
MB) stay in a core's L2 cache, and 2^17 for batched weights, whose matrix
product packs the w weights once per tile.  A GEMM row's result does not
depend on the tile it sits in as long as the tile holds at least 2 rows
(on OpenBLAS, measured: only 1-row tiles change bits), so the batched
tile size moves no value.  Each thread keeps its tile buffers, sized to
a whole tile, from sum to sum, so a sum over rules of any length
allocates and page-faults no tile memory; a sum started inside a
coupling gets buffers of its own.  A coupling that calls
pair_buffers(z, w) writes into them: the first such call in a tile gets
that tile's buffers, any other call (outside the engine, or a second
coupling in the same tile) gets fresh arrays, so no result aliases
another.  The engine consumes a coupling's result before the next tile,
so F must not keep it.  Each tile leaves its row sums; the rows are
summed against the z weights once, in row order, so reruns are
byte-identical.  While a tile is evaluated numpy's ufunc buffer is kept
small (_UFUNC_BUFSIZE), which results do not depend on.

The two one-axis doublings of a walk step share only the read-only
weights of the current levels, and each builds its own new level, so they
run concurrently by lpp._run_jobs, the package's one thread runner: the
z-doubling on a pool thread in a copy of the caller's context, the
w-doubling in the calling thread, each with its own tile buffers.  Each
computes what the serial walk computes, in the same order, so every
value, error and level is bit-identical; when both raise, the
z-doubling's error is raised, as the serial walk raises it first.  A step
with at most _SERIAL_PAIRS evaluated node pairs per doubling stays
serial, and _run_jobs runs the pair in order on one usable CPU and on a
pool thread (a walk nested in the z-doubling), so no walk waits on the
pool.  While numpy holds the GIL (ufunc calls on small arrays, the
Python between them) the two threads take turns.

Segments carry an optional geometric panel grading toward one endpoint,
for integrands with a short internal scale (steepest-descent wedges near a
critical point).

The adaptive Gauss-Kronrod integrate_contour is kept as an independent
reference for tests; it is the one routine that rejects a pole on the
contour.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import lpp

# Kronrod-15 nodes on [-1, 1] (positive half) and weights; the embedded
# Gauss-7 rule uses the odd-indexed nodes.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_KNODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[:-1][::-1]])
_KWEIGHTS = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[:-1][::-1]])
_GWEIGHTS = np.zeros_like(_KWEIGHTS)
_GWEIGHTS[1:-1:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_CIRCLE_LEVEL0_NODES = 256  # the 16 panels of 16 nodes of a level-0 full_circle


class QuadratureError(RuntimeError):
    """Non-convergence or a non-finite integrand; carries the partial value in
    .partial.  From the level-doubling engine it also carries .levels (the
    level of each contour reached), .changes (the last change per contour)
    and .threshold (the acceptance threshold), which the message repeats."""

    def __init__(self, msg, partial=None, levels=None, changes=None, threshold=None):
        if levels is not None:
            msg += f" at levels {tuple(levels)}"
        if changes is not None:
            msg += (" (changes " + ", ".join(f"{c:.3e}" for c in changes)
                    + f" against threshold {threshold:.3e})")
        super().__init__(msg)
        self.partial = partial
        self.levels = levels
        self.changes = changes
        self.threshold = threshold


class ContourPlacementError(ValueError):
    """Contour constraints (radii, pole distances) cannot be met."""


class _Panels:
    """Gauss-Legendre panels on the piece's base breaks, each halved per
    level."""

    def rule(self, level):
        """Parameters t in (0, 1) of the level's nodes and their weights for dt."""
        breaks = _refine(self.base_breaks(), level)
        t0 = breaks[:-1][:, None]
        t1 = breaks[1:][:, None]
        t = 0.5 * (t0 + t1) + 0.5 * (t1 - t0) * _GL_NODES[None, :]
        w = 0.5 * (t1 - t0) * _GL_WEIGHTS[None, :]
        return t.ravel(), w.ravel()


@dataclass
class Segment(_Panels):
    """Straight piece from a to b; optional geometric grading.

    grade = 'start' or 'end' anchors panels of geometrically growing width at
    that endpoint, the smallest being about grade_scale of the length.
    """

    a: complex
    b: complex
    grade: str = None
    grade_scale: float = 0.125

    def point(self, t):
        return self.a + np.asarray(t) * (self.b - self.a)

    def derivative(self, t):
        return np.full(np.shape(t), self.b - self.a, dtype=complex)

    def base_breaks(self):
        return np.linspace(0.0, 1.0, 5) if self.grade is None else _graded(self)


@dataclass
class Arc(_Panels):
    """Circular arc center + radius e^{i theta}, theta from theta0 to theta1
    (counterclockwise when theta1 > theta0)."""

    center: complex
    radius: float
    theta0: float
    theta1: float

    def point(self, t):
        th = self.theta0 + np.asarray(t) * (self.theta1 - self.theta0)
        return self.center + self.radius * np.exp(1j * th)

    def derivative(self, t):
        th = self.theta0 + np.asarray(t) * (self.theta1 - self.theta0)
        return 1j * self.radius * (self.theta1 - self.theta0) * np.exp(1j * th)

    def base_breaks(self):
        span = abs(self.theta1 - self.theta0)
        n = max(4, int(math.ceil(span / (math.pi / 8))))
        return np.linspace(0.0, 1.0, n + 1)


def _graded(seg):
    """Panel breaks on [0, 1] of widths doubling away from the segment's
    graded endpoint, the first about grade_scale (clipped to [1e-12, 0.5])."""
    h = min(max(seg.grade_scale, 1e-12), 0.5)
    pts = [0.0]
    x = h
    while x < 1.0:
        pts.append(x)
        x *= 2.0
    pts.append(1.0)
    pts = np.array(pts)
    return pts if seg.grade == "start" else 1.0 - pts[::-1]


def full_circle(center, radius):
    """Positively oriented circle as a single arc piece, for integrands with
    a branch seam on it: its Gauss-Legendre panels break at theta = +-pi,
    the principal-log seam, so a jump there costs no convergence.  An
    integrand that is single-valued on the circle converges faster on a
    Circle."""
    return Arc(center, radius, -math.pi, math.pi)


@dataclass
class Circle:
    """Positively oriented full circle center + radius e^{i theta}, theta
    from -pi to pi, with the periodic trapezoid rule: the level-l nodes are
    the n = 256 * 2^l midpoints theta_k = -pi + 2 pi (k + 1/2)/n, with
    weights derivative/n.  For an integrand analytic and single-valued on an
    annulus around the circle the rule converges geometrically; across a
    branch seam it does not converge, so such integrands take full_circle.
    No node is real, so no pole, zero or seam on the real axis is hit."""

    center: complex
    radius: float

    def _spoke(self, t):
        return self.radius * np.exp(1j * (2.0 * math.pi * np.asarray(t) - math.pi))

    def point(self, t):
        return self.center + self._spoke(t)

    def derivative(self, t):
        return 2j * math.pi * self._spoke(t)

    def rule(self, level):
        """Parameters t in (0, 1) of the level's nodes and their weights for dt."""
        n = _CIRCLE_LEVEL0_NODES << level
        return (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)


@dataclass
class Contour:
    """Ordered list of pieces, each traversed from its t = 0 end to t = 1."""

    pieces: list

    def nodes(self, level):
        """Each piece's nodes at `level` by its rule; returns (points z_i,
        weights for dz)."""
        zs, ws = [], []
        for piece in self.pieces:
            t, w = piece.rule(level)
            zs.append(piece.point(t))
            ws.append(w * piece.derivative(t))
        return np.concatenate(zs), np.concatenate(ws)

    def min_distance(self, points):
        """Min distance from the given points to 512 samples of each piece."""
        if len(points) == 0:
            return math.inf
        t = np.linspace(0.0, 1.0, 512)
        best = math.inf
        for piece in self.pieces:
            z = piece.point(t)
            for p in points:
                best = min(best, float(np.min(np.abs(z - p))))
        return best


def _refine(breaks, level):
    breaks = np.asarray(breaks, dtype=float)
    for _ in range(level):
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        breaks = np.sort(np.concatenate([breaks, mids]))
    return breaks


def wedge_pieces(apex, phi, length, grade_scale=None):
    """The two legs of an infinite wedge C^phi_apex truncated to `length`,
    oriented from apex + L e^{-i phi} up through the apex to apex + L e^{i phi}."""
    lo = apex + length * np.exp(-1j * phi)
    hi = apex + length * np.exp(1j * phi)
    gs = grade_scale if grade_scale is not None else 0.125
    return [
        Segment(lo, apex, grade="end", grade_scale=gs),
        Segment(apex, hi, grade="start", grade_scale=gs),
    ]


def truncate_wedge(apex, phi, log_magnitude, start=4.0):
    """Truncation length for C^phi_apex: doubled from `start` until |integrand|
    at both ray ends is below 1e-40 of its value next to the apex; raises
    QuadratureError past length 4096."""
    ref = log_magnitude(np.array([apex + 1e-3 * np.exp(1j * phi)]))[0]
    L = start
    while L <= 4096:
        ends = np.array([apex + L * np.exp(1j * phi), apex + L * np.exp(-1j * phi)])
        vals = log_magnitude(ends)
        if np.all(vals - ref < -40.0 * math.log(10.0)):
            return L
        L *= 2.0
    raise QuadratureError("wedge truncation did not decay by 1e-40 within L=4096")


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod on a contour
# ---------------------------------------------------------------------------

def _gk15(f, piece, t0, t1):
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t0 + t1)
    t = mid + half * _KNODES
    vals = f(piece.point(t)) * piece.derivative(t)
    k = half * np.sum(_KWEIGHTS * vals)
    g = half * np.sum(_GWEIGHTS * vals)
    return k, abs(k - g)


def integrate_contour(f, contour, tol=1e-10, poles=(), max_depth=40,
                      pole_clearance=1e-6):
    """Adaptive complex line integral of f along the contour.

    Bisects each piece until the local Kronrod-Gauss discrepancy is below
    tol * max(running max of |partial integral|, tol).  Returns (value,
    error_estimate).  Raises QuadratureError (carrying the partial value)
    after max_depth bisections, and ContourPlacementError when a listed pole
    comes within pole_clearance of the contour.
    """
    if poles:
        d = contour.min_distance(list(poles))
        if d < pole_clearance:
            raise ContourPlacementError(
                f"pole within {d:.2e} of contour (clearance {pole_clearance})"
            )
    total = 0.0 + 0.0j
    err_total = 0.0
    runmax = 0.0
    for piece in contour.pieces:
        stack = [(0.0, 1.0, 0)]
        while stack:
            t0, t1, depth = stack.pop()
            val, err = _gk15(f, piece, t0, t1)
            thresh = tol * max(runmax, tol)
            if err <= thresh or depth >= max_depth:
                if depth >= max_depth and err > thresh:
                    raise QuadratureError(
                        f"GK bisection depth {max_depth} exceeded (err={err:.2e})",
                        partial=total + val,
                    )
                total += val
                err_total += err
                runmax = max(runmax, abs(total))
            else:
                tm = 0.5 * (t0 + t1)
    # two halves; deeper one first keeps the stack small
                stack.append((t0, tm, depth + 1))
                stack.append((tm, t1, depth + 1))
    return total, err_total


_TILE_PAIRS = 1 << 15  # scalar weights: a tile's three buffers fit in L2
_BATCH_TILE_PAIRS = 1 << 17  # (n, P) weights, per thread: GEMM-bound, larger tiles pack V less
# numpy's ufunc buffer while a tile is evaluated: under the default 8192
# elements, a (rows, 1) column broadcast against a (1, m) row is copied
# through the buffer whenever m is at most about 2048, which makes each
# elementwise pass over a tile about 3x slower
_UFUNC_BUFSIZE = 256
# a walk step whose doublings have at most _SERIAL_PAIRS evaluated node
# pairs each, counted over the kept nodes, stays serial.  Measured on 2
# CPUs, one step's two doublings (weights of the new level and pair sums)
# serial against concurrent: 2^15 pairs 0.9 vs 1.1 ms, 2^16 1.4-1.5 vs 1.5
# ms, 2^17 2.6-3.4 vs 2.7 ms, 2^18 5.1-6.3 vs 4.3-5.0 ms, 2^19 11.6-11.8 vs
# 7.5-7.7 ms.  The exact kernel's level-0 circles, 128 z nodes (the upper
# half, real=True) against 256 w nodes, give doublings of at most 2^16
# kept pairs, which stay serial.
_SERIAL_PAIRS = 1 << 17
# the conjugation check of a real-symmetric rule (_upper): nodes are sorted
# by Re z + _CONJ_KEY Im z, an irrational slope along which no two of a
# contour's nodes lie, and must match to _CONJ_TOL relative.  The kernels'
# contours match to 1.1e-13 at level 6 (the bulk arc's weights: a panel
# width of 1/1088 carries the rounding of breaks near 1)
_CONJ_KEY = 0.5 * (math.sqrt(5.0) - 1.0)
_CONJ_TOL = 1e-10
# a factored double walk drops the nodes of an axis whose weight is at
# most this fraction of the axis' largest (about 1e-40, truncate_wedge's cut)
_NEGLIGIBLE = 2.0 ** -133
_DOUBLE_MAX_LEVEL = 6
_SINGLE_MAX_LEVEL = 9
_EPS = float(np.finfo(float).eps)

# per thread: .held, the flat (out, tmp, mag) tile buffers kept between sums,
# and .lent, the current tile's (out, tmp) until a coupling takes them
_tile = threading.local()


def _upper(z, dz):
    """The mask of the nodes above the real axis, once the rule (z, dz) is
    checked to be closed under conjugation: as many nodes below the axis as
    above and none on it, and the conjugated nodes below, sorted, equal to
    those above within _CONJ_TOL of the largest |z|, with weights
    -conj(dz) within _CONJ_TOL of the largest |dz|.  Raises
    ContourPlacementError otherwise."""
    up = z.imag > 0.0
    lo = ~up
    a, b = z[up], z[lo]
    if 2 * len(a) != len(z) or not (b.imag < 0.0).all():
        raise ContourPlacementError(
            f"rule not closed under conjugation: {len(a)} nodes above the real axis, "
            f"{np.count_nonzero(b.imag < 0.0)} below, {np.count_nonzero(b.imag == 0.0)} on it")
    ia = np.argsort(a.real + _CONJ_KEY * a.imag)
    ib = np.argsort(b.real - _CONJ_KEY * b.imag)  # the key of conj(b)
    dev = max(np.abs(a[ia] - b[ib].conj()).max() / np.abs(z).max(),
              np.abs(dz[up][ia] + dz[lo][ib].conj()).max() / np.abs(dz).max())
    if not dev <= _CONJ_TOL:
        raise ContourPlacementError(
            f"rule not closed under conjugation: conjugate nodes or weights "
            f"{dev:.2e} apart (relative)")
    return up


def _weights(contour, level, factor, real=False, half=True):
    """Nodes z of `contour` at `level`, the weights dz_i factor(z_i) and the
    node count n of the level's rule.  The weights are one per node, or
    (n, P) for a factor that returns one column per point p; a complex
    (n, P) factor is new from its call and takes dz in place.  With real
    set the rule is checked to be closed under conjugation (_upper), and
    with half set only its nodes above the real axis are kept."""
    z, wz = contour.nodes(level)
    n = len(z)
    if real:
        up = _upper(z, wz)
        if half:
            z, wz = z[up], wz[up]
    f = 1.0 if factor is None else factor(z)
    if np.ndim(f) < 2:
        return z, wz * f, n
    return z, np.multiply(wz[:, None], f, out=f if f.dtype == complex else None), n


def _drop_negligible(z, U):
    """The nodes z and weights U without the nodes whose weight is at most
    _NEGLIGIBLE of the largest, per column for (n, P) weights (a node
    stays while any column keeps it); every node when a weight is not
    finite or all are zero."""
    mag = np.abs(U)
    top = mag.max(axis=0)
    if not np.all(np.isfinite(top)):
        return z, U
    keep = mag > _NEGLIGIBLE * top
    if keep.ndim == 2:
        keep = keep.any(axis=1)
    if keep.all() or not keep.any():
        return z, U
    return z[keep], U[keep]


def pair_buffers(z, w):
    """Two arrays (out, tmp) of the broadcast shape of z and w for a
    coupling to write into, complex for the engine's nodes.  While
    _block_sums evaluates a tile, the first call with the tile's shape gets
    the engine's buffers for that tile; every other call gets two fresh
    arrays, so no result aliases another."""
    shape = np.broadcast(z, w).shape
    lent = getattr(_tile, "lent", None)
    if lent is not None and lent[0].shape == shape:
        _tile.lent = None
        return lent
    dtype = np.result_type(z, w, 1.0)
    return np.empty(shape, dtype), np.empty(shape, dtype)


def _block_sums(F, z, U, w, V):
    """sum_ij U_i F(z_i, w_j) V_j and its sum of absolute values (per point
    for (n, P) weights).  F is evaluated tile by tile in the thread's tile
    buffers, lent to the coupling through pair_buffers; each tile
    leaves its row sums sum_j F_ij V_j and sum_j |F_ij| |V_j|, and the rows
    are summed against U and |U| once, in row order."""
    tile = _TILE_PAIRS if U.ndim == 1 else _BATCH_TILE_PAIRS
    rows = max(1, min(tile // max(len(w), 1), len(z)))
    pairs = rows * len(w)
    held = getattr(_tile, "held", None)  # None while a sum of this thread runs
    _tile.held = None
    if held is None or len(held[2]) < pairs:
        size = max(pairs, tile)  # a whole tile: rules of other lengths fit too
        held = (np.empty(size, dtype=complex), np.empty(size, dtype=complex),
                np.empty(size))
    out, tmp, mag = (b[:pairs].reshape(rows, len(w)) for b in held)
    row_vals = np.empty(U.shape[:1] + V.shape[1:], dtype=complex)
    row_mass = np.empty(row_vals.shape)
    absV = np.abs(V)
    zc, wr = z[:, None], w[None, :]
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for i0 in range(0, len(z), rows):
            i1 = min(i0 + rows, len(z))
            _tile.lent = (out[:i1 - i0], tmp[:i1 - i0])
            vals = F(zc[i0:i1], wr)
            np.matmul(vals, V, out=row_vals[i0:i1])
            np.matmul(np.abs(vals, out=mag[:i1 - i0]), absV, out=row_mass[i0:i1])
    finally:
        _tile.lent = None
        _tile.held = held
        np.setbufsize(bufsize)
    return (np.einsum("i...,i...->...", U, row_vals),
            np.einsum("i...,i...->...", np.abs(U), row_mass))


def _finite(kind, levels, raw, mass, pref, partial, part=None):
    """The prefactor times the raw sums (a scalar or one value per point),
    or times part(raw sums) when a part is given, and the mass, the largest
    over the points; raises on a non-finite result."""
    val = pref * (raw if part is None else part(raw))
    mass = abs(pref) * float(np.max(mass))
    if not (np.all(np.isfinite(val)) and math.isfinite(mass)):
        raise QuadratureError(f"{kind}-contour integrand not finite", partial=partial,
                              levels=levels)
    return val, mass


def _threshold(val, mass, tol):
    return max(tol * float(np.max(np.abs(val))), tol * tol, 1e-13 * mass)


def _change(a, b):
    return float(np.max(np.abs(a - b)))


def _single_walk(F, contour, tol, factor=None, real=False):
    """(1/(2 pi i)) times the integral of factor(z) F(z) over one contour:
    accept level l when its change from level l - 1 is below the threshold.

    The factor is folded into the quadrature weights; an (n, P) factor gives
    one value per column, with the acceptance rule and the error taken over
    all of them.  With real set the integrand is real-symmetric and the sum
    runs over the upper half of the contour (module docstring).  Returns
    (value or values, error).
    """
    pref, part = 1.0 / (2j * math.pi), None
    if real:  # (1/(2 pi i)) 2i Im S_up
        pref, part = 1.0 / math.pi, np.imag
    prev = change = thr = None
    for level in range(_SINGLE_MAX_LEVEL + 1):
        z, U, n = _weights(contour, level, factor, real)
        vals = F(z)
        val, mass = _finite("single", (level,), vals @ U, np.abs(vals) @ np.abs(U),
                            pref, prev, part)
        if prev is not None:
            change, thr = _change(val, prev), _threshold(val, mass, tol)
            if change <= thr:
                return val, max(change, _EPS * math.sqrt(n) * mass)
        prev = val
    raise QuadratureError("single-contour quadrature not converged", partial=prev,
                          levels=(_SINGLE_MAX_LEVEL,), changes=(change,), threshold=thr)


def _walk(F, contours, tol, factors=(None, None), real=False):
    """(1/(2 pi i))^2 times the integral of a(z) F(z, w) b(w) over two
    contours, (a, b) = factors, by the per-axis walk over level pairs of the
    module docstring, the two doublings of a step concurrent where the
    module docstring says; only the weights of the levels in use are kept.
    (n, P) factors batch, and real halves the z contour, as in
    _single_walk."""
    pref, part = -1.0 / (4.0 * math.pi * math.pi), None
    if real:  # pref 2 Re S_up
        pref, part = 2.0 * pref, np.real
    weights = ({}, {})  # per contour: level -> (nodes, weights, count), levels in use only
    values = {}  # level pair -> (value, mass)
    partial = None

    def at(pair):
        if pair not in values:
            for axis, level in enumerate(pair):
                if level not in weights[axis]:
                    z, U, n = _weights(contours[axis], level, factors[axis], real, axis == 0)
                    if factors[axis] is not None:
                        z, U = _drop_negligible(z, U)
                    weights[axis][level] = z, U, n
            (z, U, _), (w, V, _) = weights[0][pair[0]], weights[1][pair[1]]
            values[pair] = _finite("double", pair, *_block_sums(F, z, U, w, V),
                                   pref, partial, part)
        return values[pair]

    pair = (0, 0)
    while True:
        partial, mass = at(pair)
        thr = _threshold(partial, mass, tol)
        zpair, wpair = (pair[0] + 1, pair[1]), (pair[0], pair[1] + 1)
        pairs = 2 * len(weights[0][pair[0]][0]) * len(weights[1][pair[1]][0])
        if pairs > _SERIAL_PAIRS:
            (vz, _), (vw, _) = lpp._run_jobs([lambda: at(zpair), lambda: at(wpair)])
        else:
            vz, vw = at(zpair)[0], at(wpair)[0]
        changes = (_change(vz, partial), _change(vw, partial))
        if max(changes) <= thr:
            n_z, n_w = (weights[axis][level + 1][2] for axis, level in enumerate(pair))
            floor = _EPS * (math.sqrt(n_z) + math.sqrt(n_w)) * mass
            return vz + vw - partial, max(sum(changes), floor)
        nxt = tuple(level + (change > thr) for level, change in zip(pair, changes))
        if max(nxt) >= _DOUBLE_MAX_LEVEL:
            raise QuadratureError("double-contour quadrature not converged",
                                  partial=partial, levels=pair, changes=changes,
                                  threshold=thr)
        pair = nxt
        for axis in (0, 1):
            weights[axis].pop(pair[axis] - 1, None)


def integrate_double(F, contour_z, contour_w, tol=1e-9, z_factor=None, w_factor=None,
                     real=False):
    """Tensor-product double contour integral (1/(2 pi i)^2) *
    iint z_factor(z) F(z, w) w_factor(w), a missing factor being 1.

    Each factor takes the 1-D node array of a level, once, and is folded into
    its quadrature weights (a complex (n, P) factor must return a new array,
    which takes dz in place); only the coupling F, which must broadcast over
    (z[:, None], w[None, :]), runs on the node pairs, one cache-sized tile
    of rows at a time.  F may write its result into the engine's tile
    buffers through pair_buffers; its result is consumed before the next
    tile, so it must not be kept (module docstring).
    The mass is sum_ij |dz_i a_i| |F_ij| |b_j dw_j|, that of the whole
    integrand; on a factored axis the nodes of negligible weight are
    dropped (module docstring).  Each contour's level is doubled on its
    own, only while its doubling moves the value by more than the
    threshold (up to level 6); the error is the sum of the two one-axis
    changes at the accepted level pair, floored at eps (sqrt(n_z) +
    sqrt(n_w)) * mass (module docstring).

    real=True promises an integrand with real coefficients, a(zbar) =
    conj(a(z)) and likewise for F and b, on contours closed under
    conjugation; the pair sum then runs over the z nodes above the real
    axis only and the value is real (module docstring).  A rule that is not
    closed under conjugation raises ContourPlacementError.
    """
    return _walk(F, (contour_z, contour_w), tol, (z_factor, w_factor), real)


def integrate_single(F, contour, tol=1e-10, real=False):
    """(1/2 pi i) * contour integral by the same level-doubling engine, on
    each piece's node rule; real as in integrate_double."""
    return _single_walk(F, contour, tol, real=real)


CIRCLE_MAX_NODES = _CIRCLE_LEVEL0_NODES << _SINGLE_MAX_LEVEL  # the last Circle level


def integrate_circle(f, radius, tol=1e-12):
    """(1/2pi i) * integral over the origin-centered Circle |u| = radius by
    integrate_single, at most CIRCLE_MAX_NODES nodes; returns (value, error)."""
    return integrate_single(f, Contour([Circle(0.0, radius)]), tol)
