"""Correlation kernels of the half-space model: exact finite-size kernel,
prelimit bulk/edge kernels, and their limits, all via contour quadrature.

Every kernel returns a KernelValue2x2 whose off-diagonal blocks satisfy
K21(s,x;t,y) = -K12(t,y;s,x) by construction.  Every double integrand is
handed to integrate_double as a(z) F(z, w) b(w): the per-axis factors a and b
carry all exponentials and powers, one exp(exponent) per node and axis, and
only the rational coupling F runs on the node pairs: (zw - 1)/(z - w) for
K12, (z - w)/(zw - 1) for K11 and K22, (zw - 1)/(z - w)^2 for the summed K12
of the tail counts, (z + w)/(z - w) for the bulk limit K12, and the Moebius
form ((z + dz) - (w + dw))/((z + dz) + (w + dw)) for the other limit and
half-space blocks.  So the individually huge e^{N S} never overflow, and
the rounding of the large exponents acts as a perturbation of the
quadrature weights instead of as independent noise on every node pair,
which matters where a value sits near the roundoff floor of the integrand's
mass (the edge threshold counts of expected_count_tail).  All logarithms
are principal branch; on lattice points the total log-coefficients are
integers, which keeps the assembled integrands single-valued across the cut.
Circles whose integrands are single-valued take the periodic trapezoid rule
(contours.Circle): every circle of the exact kernel, and the edge w circle
when all its levels are lattice levels.  Off the lattice the edge w circle
is a full_circle, whose panels break at the cut.

Every integrand here is real-symmetric, f(conj z) = conj(f(z)): q, c, N,
the levels, slices, times and shifts are real, so each factor and
coupling is a rational function, power or exponential of z with real
coefficients, and the principal logarithm is conjugate-symmetric off its
cut at z <= 0, on which no node lies.  Every contour is mapped onto
itself by conjugation: circles and arcs centred at the origin, wedges
with a real apex and the chord across one.  So every engine call passes
real=True and sums over the upper half of its z contour: half the node
pairs, the same level pairs, a real value (contours module docstring).

Each coupling writes into the engine's tile buffers (contours.pair_buffers)
with out= ufuncs and in-place operators, in the operation order of its
plain expression, so its values are bit-identical to that expression and
a pair sum allocates nothing per tile.

The tail counts expected_count_tail sum the K12 integrands over the levels
above a as geometric series.  In the edge window the summed double integral
takes its own z contour: near the threshold level its z exponent is N S1,
whose saddle is z_crit(kappa), not c, so the wedge moves to the apex
z_crit(kappa) + 3 N^{-1/2}, between the w circle and 1/q (the summed
integrand has no z pole at c).  The residue part stays on the kernel's
wedge at c, which must enclose the pole there.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import ParameterError, ScalingConstantsBulk, ScalingConstantsEdge
from .contours import (
    Arc,
    Circle,
    Contour,
    ContourPlacementError,
    Segment,
    _EPS,
    _single_walk,
    _walk,
    full_circle,
    integrate_double,
    integrate_single,
    pair_buffers,
    truncate_wedge,
    wedge_pieces,
)
from .pfaffian import correlation_fn

DEFAULT_TOL = 1e-9
EDGE_THETA = 5.0 * math.pi / 16.0  # edge wedge half-angle, inside (pi/4, pi/2)


@dataclass
class KernelValue2x2:
    k11: complex
    k12: complex
    k21: complex
    k22: complex
    err: float

    def as_matrix(self):
        return np.array([[self.k11, self.k12], [self.k21, self.k22]])


# ---------------------------------------------------------------------------
# phase functions (principal logarithm throughout)
# ---------------------------------------------------------------------------

def _window_logs(z, q):
    """log z, log(1 - q/z) and log(1 - q z): the logarithms of every phase
    function, each taken once per node by the scaling windows' exponents."""
    z = np.asarray(z, dtype=complex)
    return np.log(z), np.log(1.0 - q / z), np.log(1.0 - q * z)


def s1_bulk(z, q):
    z = np.asarray(z, dtype=complex)
    h1 = 2.0 * q / (1.0 - q)
    return np.log(1.0 - q / z) - np.log(1.0 - q * z) - h1 * np.log(z)


def g1_bulk(z, q):
    z = np.asarray(z, dtype=complex)
    p1 = q / (1.0 - q)
    return np.log(1.0 - q / z) - p1 * np.log(z) - math.log(1.0 - q)


def s1_edge(z, kappa, q):
    z = np.asarray(z, dtype=complex)
    h1k = (2.0 * q * math.sqrt(1.0 + kappa) + 2.0 * q * q + q * q * kappa) / (1.0 - q * q)
    return (1.0 + kappa) * np.log(1.0 - q / z) - np.log(1.0 - q * z) - h1k * np.log(z)


def s2_edge(z, kappa, q, c):
    z = np.asarray(z, dtype=complex)
    cst = ScalingConstantsEdge(q, c)
    h2k = cst.h2_kappa(kappa)
    return (1.0 + kappa) * np.log(1.0 - q / z) - np.log(1.0 - q * z) - h2k * np.log(z)


def g2_edge(z, q, c):
    z = np.asarray(z, dtype=complex)
    p2 = q / (c - q)
    return np.log(1.0 - q / z) - p2 * np.log(z)


def s_hat(z, kappa_hat, q, c, which):
    """Auxiliary phases; S_i(z; kappa) = (1+kappa) s_hat(z; 1/(1+kappa))."""
    z = np.asarray(z, dtype=complex)
    if which == 1:
        coef = q * (q + 2.0 * math.sqrt(kappa_hat) + q * kappa_hat) / (1.0 - q * q)
    else:
        coef = (q * c * kappa_hat * (c - q) + q * (1.0 - q * c)) / ((1.0 - q * c) * (c - q))
    return np.log(1.0 - q / z) - kappa_hat * np.log(1.0 - q * z) - coef * np.log(z)


def s2_edge_d1(z, kappa, q, c):
    """Analytic S2'(z; kappa)."""
    cst = ScalingConstantsEdge(q, c)
    h2k = cst.h2_kappa(kappa)
    return (1.0 + kappa) * (q / (z * z)) / (1.0 - q / z) + q / (1.0 - q * z) - h2k / z


def s2_edge_d2(z, kappa, q, c):
    cst = ScalingConstantsEdge(q, c)
    h2k = cst.h2_kappa(kappa)
    # d/dz of (1+kappa) q / (z^2 - q z) is -(1+kappa) q (2z - q) / (z^2 - qz)^2
    t1 = (1.0 + kappa) * (-q * (2.0 * z - q)) / ((z * z - q * z) ** 2)
    t2 = q * q / (1.0 - q * z) ** 2
    return t1 + t2 + h2k / (z * z)


# ---------------------------------------------------------------------------
# couplings: the part of a double integrand evaluated on the node pairs
# ---------------------------------------------------------------------------

def _k12_coupling(z, w):
    """(z w - 1) / (z - w)"""
    out, tmp = pair_buffers(z, w)
    np.multiply(z, w, out=out)
    out -= 1.0
    out /= np.subtract(z, w, out=tmp)
    return out


def _k11_coupling(z, w):
    """(z - w) / (z w - 1), also the K22 coupling"""
    out, tmp = pair_buffers(z, w)
    np.multiply(z, w, out=tmp)
    tmp -= 1.0
    np.subtract(z, w, out=out)
    out /= tmp
    return out


def _tail_coupling(z, w):
    """(z w - 1) / (z - w)^2"""
    out, tmp = pair_buffers(z, w)
    np.subtract(z, w, out=tmp)
    tmp *= tmp
    np.multiply(z, w, out=out)
    out -= 1.0
    out /= tmp
    return out


def _limit_k12_coupling(z, w):
    """(z + w) / (z - w)"""
    out, tmp = pair_buffers(z, w)
    np.add(z, w, out=out)
    out /= np.subtract(z, w, out=tmp)
    return out


def _mobius(dz, dw):
    """The coupling ((z + dz) - (w + dw)) / ((z + dz) + (w + dw)), with the
    shifts taken on the node arrays before they meet."""
    def coupling(z, w):
        out, tmp = pair_buffers(z, w)
        zs, ws = z + dz, w + dw
        np.subtract(zs, ws, out=out)
        out /= np.add(zs, ws, out=tmp)
        return out
    return coupling


# ---------------------------------------------------------------------------
# exact kernel of the finite point process
# ---------------------------------------------------------------------------

def geo_default_radii(q, c, u_ge_v):
    """Admissible circle radii (r1, rw, r2) for the exact kernel blocks: K11
    runs on r1, K12 on z circle r1 and w circle rw, K22 on r2."""
    qinv = 1.0 / q
    r1 = 0.5 * (max(1.0, c) + qinv) if c > 1.0 else 0.5 * (1.0 + qinv)
    if not (1.0 < r1 < qinv):
        raise ContourPlacementError(f"no admissible r1 in (1, 1/q) for c={c}")
    if u_ge_v:
        lo = max(c, q)
        if lo >= r1:
            raise ContourPlacementError("need max(c,q) < r1 for nested contours")
        rw = 0.5 * (lo + r1)
    else:
        rw = r1 + max(0.5, 0.25 * r1)
    r2 = max(c, q, 1.0) + 0.5
    return r1, rw, r2


def _geo_lambda(z, q, N, level, M):
    """z^{-level} (1 - q/z)^{M + N} (1 - q z)^{-N}"""
    return z ** (-level) * (1.0 - q / z) ** (M + N) * (1.0 - q * z) ** (-N)


def _geo_a(q, c, N, level, M):
    """The z factor (z - c) lambda(z) / (z (z^2 - 1)) of K11 and K12."""
    return lambda z: (z - c) / (z * (z * z - 1.0)) * _geo_lambda(z, q, N, level, M)


def _geo_b(q, c, N, level, M):
    """The w factor 1 / ((w - c) lambda(w)) of K12 and K22."""
    return lambda w: 1.0 / ((w - c) * _geo_lambda(w, q, N, level, M))


# a circle of the exact kernel may pass no closer to a singularity of its
# integrand than this fraction of its radius (_geo_clear)
_GEO_CLEARANCE = 1e-3


def _geo_clear(circles):
    """Raise ContourPlacementError unless each (name, radius, radii to avoid)
    circle keeps _GEO_CLEARANCE times its radius from every radius it must
    avoid.  The trapezoid rule cannot resolve a pole that close: at (q, c)
    = (0.4, 0.7), N = 3, a K12 w circle at distance d from w = c converged
    at d = 3e-3 of its radius, raised QuadratureError at its maximum level
    for every d from 1e-8 to 1e-3, and through c (d = 0) returned the
    principal value, K12 = 0.1279966 with err 1.1e-13 against 0.1251487."""
    for name, r, avoid in circles:
        d = min(abs(r - a) for a in avoid)
        if d < _GEO_CLEARANCE * r:
            raise ContourPlacementError(
                f"{name} circle of radius {r:.6g} passes {d:.2e} from a singularity "
                f"of its integrand (clearance {_GEO_CLEARANCE:g} of the radius)")


def _geo_k12(u, x, v, y, params, N, M_u, M_v, tol, radii):
    """K12(u, x; v, y) of the exact kernel and its error, on the nested
    circles r1, rw of the radii (geo_default_radii when None): the z
    factor is singular at z = 0, +-1, 1/q, the w factor at w = 0, q, c, and
    the coupling at |z| = |w|."""
    q, c = params.q, params.c
    r1, rw, _ = geo_default_radii(q, c, u >= v) if radii is None else radii
    _geo_clear((("K12 z", r1, (0.0, 1.0, 1.0 / q)), ("K12 w", rw, (0.0, q, c, r1))))
    return integrate_double(_k12_coupling, Contour([Circle(0.0, r1)]),
                            Contour([Circle(0.0, rw)]), tol,
                            _geo_a(q, c, N, x, M_u), _geo_b(q, c, N, y, M_v), real=True)


def _geo_k11_k22_circles(params, u_ge_v, radii):
    """The K11 circles (r1, s1) and the K22 circles (r2, s2) of the exact
    kernel, s1 and s2 off the z = w diagonal, once _geo_clear has checked
    them: K11's avoid |z| = 0, 1, 1/q and |z| |w| = 1, K22's |w| = 0, q, c
    and |z| |w| = 1."""
    q, c = params.q, params.c
    r1, _, r2 = geo_default_radii(q, c, u_ge_v) if radii is None else radii
    s1, s2 = r1 * 1.0000003, r2 * 1.0000003
    z_poles, w_poles = (0.0, 1.0, 1.0 / q), (0.0, q, c)
    _geo_clear((("K11 z", r1, z_poles), ("K11 w", s1, z_poles + (1.0 / r1,)),
                ("K22 z", r2, w_poles), ("K22 w", s2, w_poles + (1.0 / r2,))))
    return r1, s1, r2, s2


def _geo_k12_pieces(s, x, t, y, params, N, tol, radii):
    """(I12, R12 = 0, err) of the exact kernel at slices s = (u, M_u), t =
    (v, M_v)."""
    k12, err = _geo_k12(s[0], x, t[0], y, params, N, s[1], t[1], tol, radii)
    return k12, 0.0, err


def _geo_k11_k22_pieces(s, x, t, y, params, N, tol, radii):
    """(I11, I22, R22 = 0, err) of the exact kernel at slices s = (u, M_u),
    t = (v, M_v)."""
    q, c = params.q, params.c
    r1, s1, r2, s2 = _geo_k11_k22_circles(params, s[0] >= t[0], radii)
    k11, e11 = integrate_double(_k11_coupling, Contour([Circle(0.0, r1)]),
                                Contour([Circle(0.0, s1)]), tol,
                                _geo_a(q, c, N, x, s[1]), _geo_a(q, c, N, y, t[1]), real=True)
    k22, e22 = integrate_double(_k11_coupling, Contour([Circle(0.0, r2)]),
                                Contour([Circle(0.0, s2)]), tol,
                                _geo_b(q, c, N, x, s[1]), _geo_b(q, c, N, y, t[1]), real=True)
    return k11, k22, 0.0, max(e11, e22)


def kernel_geo(u, x, v, y, params, N, M_u, M_v, tol=DEFAULT_TOL, radii=None):
    """Exact 2x2 correlation kernel block at points (u, x), (v, y).

    u, v index the slices (with time offsets M_u, M_v); x, y are integer
    levels of the point process {lambda_i - i}.  The integrands carry
    integer powers only, so they are single-valued on every circle, and all
    four blocks integrate over Circle contours (the periodic trapezoid
    rule).  The block is assembled by _assemble_2x2 from the slices (u, M_u)
    and (v, M_v): K21(u, x; v, y) = -K12(v, y; u, x), the swapped slice
    order flipping the nesting of the K12 circles.  radii, when given, is an
    (r1, rw, r2) triple used in place of geo_default_radii for both slice
    orders.  A circle that passes within _GEO_CLEARANCE of its radius of a
    singularity of its integrand raises ContourPlacementError (_geo_clear):
    those of K11 and K22 (_geo_k11_k22_circles) are checked before any
    integral, and K12's (_geo_k12) before its own.
    """
    _geo_k11_k22_circles(params, u >= v, radii)
    return _assemble_2x2(_geo_k12_pieces, _geo_k11_k22_pieces, (u, M_u), x, (v, M_v), y,
                         params, N, tol, radii)


def rho1_geo(x, params, N, M_slice, tol=DEFAULT_TOL):
    """One-point function rho_1(x) = K12(x, x) on a single slice."""
    k12, err = _geo_k12(1, x, 1, x, params, N, M_slice, M_slice, tol, None)
    return k12, err


def rho_k_geo(points, params, N, tol=DEFAULT_TOL):
    """k-point correlation via the Pfaffian of the assembled block matrix.

    points: list of (slice_index, M_slice, x).  A block at coincident points
    is [[0, K12], [-K12, 0]]: K11 and K22 are antisymmetric and K21 = -K12
    there, so only K12 is integrated.
    """

    def block(a, b):
        if a == b:
            k12, err = _geo_k12(a[0], a[2], a[0], a[2], params, N, a[1], a[1], tol, None)
            return KernelValue2x2(k11=0.0, k12=k12, k21=-k12, k22=0.0, err=err)
        return kernel_geo(a[0], a[2], b[0], b[2], params, N, a[1], b[1], tol)

    return correlation_fn(points, block)


# ---------------------------------------------------------------------------
# 2x2 assembly from K12 pieces and K11/K22 pieces
# ---------------------------------------------------------------------------

def _components(k12_pieces, k11_k22_pieces, s, x, t, y, *args):
    """The raw pieces I11, I12, I22, R12, R22 at (s, x; t, y) and their error.

    k12_pieces(s, x, t, y, *args) returns (I12, R12, err) and
    k11_k22_pieces(s, x, t, y, *args) returns (I11, I22, R22, err).
    """
    i12, r12, e12 = k12_pieces(s, x, t, y, *args)
    i11, i22, r22, e_rest = k11_k22_pieces(s, x, t, y, *args)
    return {"I11": i11, "I12": i12, "I22": i22, "R12": r12, "R22": r22,
            "err": max(e12, e_rest)}


def _assemble_2x2(k12_pieces, k11_k22_pieces, s, x, t, y, *args):
    """K11 = I11, K12 = I12 + R12 and K22 = I22 + R22 at (s, x; t, y), and
    K21(s, x; t, y) = -K12(t, y; s, x) from a backward pass over the K12
    pieces alone."""
    fwd = _components(k12_pieces, k11_k22_pieces, s, x, t, y, *args)
    i21, r21, e21 = k12_pieces(t, y, s, x, *args)
    return KernelValue2x2(
        k11=fwd["I11"],
        k12=fwd["I12"] + fwd["R12"],
        k21=-(i21 + r21),
        k22=fwd["I22"] + fwd["R22"],
        err=max(fwd["err"], e21),
    )


# ---------------------------------------------------------------------------
# prelimit kernels: one scaling window per regime
# ---------------------------------------------------------------------------

class _Window:
    """A scaling window of the prelimit kernel at size N.

    A subclass defines the window once: its contours z_contour(v) and
    w_contour(v, shifted, levels) at slice v (shifted=True gives the copy
    moved off the z = w diagonal; levels are the scaled levels of every
    integrand taken over it), the exponent expo(z, v, a) of the z-factor at
    scaled level a, its a-derivative phase(z), the lattice center(v), the heat
    contour of the s < t part of R12, the z contour count_contour(v) of the
    summed double integral in count_tail (z_contour unless overridden), and
    the scalars scale (the K12 and residue prefactor), k11_scale, k22_scale,
    has_residue (the pole at w = c leaves a residue) and tail_offset.  The
    integrands below are written once in these terms, the double ones as
    the per-axis factors z_factor and w_factor times a coupling.
    """

    def __init__(self, params, N):
        self.q, self.c, self.N = params.q, params.c, N

    def count_contour(self, v):
        return self.z_contour(v)

    def z_factor(self, z, v, a):
        """(z - c) e^{expo(z, v, a)} / (z (z^2 - 1)): the z factor of K12 and
        the z and w factor of K11."""
        return (z - self.c) / (z * (z * z - 1.0)) * np.exp(self.expo(z, v, a))

    def w_factor(self, w, v, a):
        """e^{-expo(w, v, a)} / (w - c): the w factor of K12 and the z and w
        factor of K22."""
        return np.exp(-self.expo(w, v, a)) / (w - self.c)

    def k12_factors(self, s, x, t, y):
        """The z and w factors of the K12 integrand at (s, x; t, y), whose
        coupling is _k12_coupling."""
        return (lambda z: self.scale * self.z_factor(z, s, x),
                lambda w: self.w_factor(w, t, y))

    def residue_integrand(self, s, x, t, y):
        """F12(z, c) times the residue prefactor: the w = c part of R12."""
        c = self.c
        cc = np.asarray(c, dtype=complex)

        def res(z):
            return (
                self.scale * (z * c - 1.0) / (z * (z * z - 1.0))
                * np.exp(self.expo(z, s, x) - self.expo(cc, t, y))
            )

        return res

    def k12_pieces(self, s, x, t, y, tol):
        """I12 and R12 (heat-kernel part for s < t plus residue) at (s, x; t, y)."""
        zs = self.z_contour(s)
        i12, err = integrate_double(_k12_coupling, zs, self.w_contour(t, levels=(y,)), tol,
                                    *self.k12_factors(s, x, t, y), real=True)
        r12 = 0.0
        if s < t:

            def heat(z):
                return -self.scale * np.exp(self.expo(z, s, x) - self.expo(z, t, y)) / z

            v, e = integrate_single(heat, self.heat_contour(), tol, real=True)
            r12, err = r12 + v, max(err, e)
        if self.has_residue:
            v, e = integrate_single(self.residue_integrand(s, x, t, y), zs, tol, real=True)
            r12, err = r12 + v, max(err, e)
        return i12, r12, err

    def k11_k22_pieces(self, s, x, t, y, tol):
        """I11, I22 and the residue part of R22 at (s, x; t, y)."""
        c = self.c
        i11, e11 = integrate_double(
            _k11_coupling, self.z_contour(s), self.z_contour(t, shifted=True), tol,
            lambda z: self.k11_scale * self.z_factor(z, s, x),
            lambda w: self.z_factor(w, t, y), real=True)
        ws, wt = self.w_contour(s, levels=(x,)), self.w_contour(t, levels=(y,))
        i22, e22 = integrate_double(
            _k11_coupling, ws, self.w_contour(t, shifted=True, levels=(y,)), tol,
            lambda z: self.k22_scale * self.w_factor(z, s, x),
            lambda w: self.w_factor(w, t, y), real=True)
        r22, e_r22 = 0.0, 0.0
        if self.has_residue:
            cc = np.asarray(c, dtype=complex)

            def f_a(z):
                return self.k22_scale * np.exp(
                    -self.expo(z, s, x) - self.expo(cc, t, y)) / (c * z - 1.0)

            def f_b(w):
                return self.k22_scale * np.exp(
                    -self.expo(cc, s, x) - self.expo(w, t, y)) / (c * w - 1.0)

            va, ea = integrate_single(f_a, ws, tol, real=True)
            vb, eb = integrate_single(f_b, wt, tol, real=True)
            r22, e_r22 = va - vb, max(ea, eb)
        return i11, i22, r22, max(e11, e22, e_r22)

    def lattice_point(self, a, v):
        """Nearest lattice level m to the scaled value a, as (scaled m, m)."""
        center = self.center(v)
        m = round(a * self.scale + center)
        return (m - center) / self.scale, m

    def k12_diag(self, v, xs, tol):
        """K12(v, x; v, x) for an array of scaled levels x, with the
        x-dependence e^{x phase} folded into the per-axis factors (the
        heat-kernel part of R12 vanishes at coincident slices).  On lattice
        levels, an arithmetic progression x_j = x_0 + j h, those factors
        come from an anchored power recurrence (_level_factor): an exact
        e^{x_j phase(z)} every _ANCHOR_STRIDE-th level and products with
        e^{h phase(z)} between, within _RECURRENCE_ULPS eps (1 + |phase(z)|
        max |x|) of the exact factor, relative."""
        zc = self.z_contour(v)
        i12, err = _diag_batch_eval(_k12_coupling, self.k12_factors(v, 0.0, v, 0.0),
                                    (self.phase, lambda w: -self.phase(w)),
                                    zc, self.w_contour(v, levels=xs), xs, tol)
        if not self.has_residue:
            return i12, err
        phase_c = self.phase(np.asarray(self.c, dtype=complex))
        r12, e = _diag_batch_single(self.residue_integrand(v, 0.0, v, 0.0),
                                    lambda z: self.phase(z) - phase_c, zc, xs, tol)
        return i12 + r12, max(err, e)

    def count_tail(self, a, v, tol):
        """E[#points >= a] on slice v: the K12 integrands summed over the
        lattice levels from a (snapped up to the lattice) as geometric series."""
        center = self.center(v)
        aN = (math.ceil(a * self.scale + center - 1e-9) - center) / self.scale
        zc, c = self.z_contour(v), self.c
        U, eU = integrate_double(
            _tail_coupling, self.count_contour(v), self.w_contour(v, levels=(aN,)), tol,
            lambda z: z * self.z_factor(z, v, aN), lambda w: self.w_factor(w, v, aN),
            real=True)
        V, eV = 0.0, 0.0
        if self.has_residue:
            res = self.residue_integrand(v, aN, v, aN)
            V, eV = integrate_single(lambda z: res(z) / (self.scale * (1.0 - c / z)),
                                     zc, tol, real=True)
        return U + V + self.tail_offset, max(eU, eV)


def bulk_contour(a, N, sign):
    """gamma^+/-_N(a): wedge of angle pi/3 (resp. 2pi/3) at 1 + a N^{-1/3},
    legs of euclidean length N^{-1/12}, closed by an origin-centered arc."""
    apex = 1.0 + a * N ** (-1.0 / 3.0)
    phi = math.pi / 3.0 if sign > 0 else 2.0 * math.pi / 3.0
    L = N ** (-1.0 / 12.0)
    grade = max(N ** (-0.25), 1e-3)
    legs = wedge_pieces(apex, phi, L, grade_scale=grade)
    hi = apex + L * cmath.exp(1j * phi)
    rad = abs(hi)
    th = cmath.phase(hi)
    arc = Arc(0.0, rad, th, 2.0 * math.pi - th)
    return Contour([legs[0], legs[1], arc])


def bulk_prelimit_feasible(q, c, N):
    """Contour-nesting conditions under which the prelimit formulas are the
    genuine correlation kernel (they hold for all large N)."""
    inv3 = N ** (-1.0 / 3.0)
    hi = abs(1.0 + inv3 + N ** (-1.0 / 12.0) * cmath.exp(1j * math.pi / 3.0))
    lo_apex = 1.0 - inv3
    lo_rad = abs(1.0 - inv3 + N ** (-1.0 / 12.0) * cmath.exp(2j * math.pi / 3.0))
    checks = {
        "gamma_plus_outside_unit": 1.0 + inv3 > 1.0,
        "gamma_minus_inside_unit": lo_rad < 1.0 and lo_apex < 1.0,
        "qinv_outside_gamma_plus": hi < 1.0 / q,
    }
    if c < 1.0:
        checks["c_inside_gamma_minus"] = c < lo_apex and (c > -lo_rad)
        checks["q_inside_gamma_minus"] = q < lo_apex
    elif c > 1.0:
        checks["c_outside_gamma_plus"] = c > hi
        checks["cinv_inside_gamma_minus"] = 1.0 / c < lo_apex
    return all(checks.values()), checks


class _BulkWindow(_Window):
    """The N^{1/3} window at times t (slice T = floor(t N^{2/3}))."""

    def __init__(self, params, N):
        super().__init__(params, N)
        self.sc = ScalingConstantsBulk(self.q)
        s1g = self.sc.sigma1
        self.scale = s1g * N ** (1.0 / 3.0)
        self.k11_scale = 4.0 * s1g * s1g * N ** (2.0 / 3.0)
        self.k22_scale = 0.25
        self.has_residue = self.c > 1.0
        self.tail_offset = 1.0 if self.has_residue else 0.0

    def slice_index(self, t):
        return math.floor(t * self.N ** (2.0 / 3.0))

    def z_contour(self, t, shifted=False):
        return bulk_contour(1.0 + 1e-7 if shifted else 1.0, self.N, +1)

    def w_contour(self, t, shifted=False, *, levels):
        """gamma^-_N, the same wedge at every level."""
        return bulk_contour(-1.0 - 1e-7 if shifted else -1.0, self.N, -1)

    def heat_contour(self):
        return self.z_contour(0.0)

    def phase(self, z):
        return -self.scale * np.log(z)

    def expo(self, z, t, a):
        """N S1(z) + T G1(z) - sigma1 a N^{1/3} log z, combined from one
        _window_logs as s1_bulk, g1_bulk and phase combine theirs."""
        q = self.q
        lz, lqz, l1 = _window_logs(z, q)
        s1 = lqz - l1 - 2.0 * q / (1.0 - q) * lz
        g1 = lqz - q / (1.0 - q) * lz - math.log(1.0 - q)
        return self.N * s1 + self.slice_index(t) * g1 + a * (-self.scale * lz)

    def center(self, t):
        return self.sc.h1 * self.N + self.sc.p1 * self.slice_index(t)

    def k11_k22_pieces(self, s, x, t, y, tol):
        """The base pieces plus the reflection integral of R22."""
        i11, i22, r22, err = super().k11_k22_pieces(s, x, t, y, tol)
        q, c = self.q, self.c
        Ts, Tt = self.slice_index(s), self.slice_index(t)

        def f_r22c(w):
            return (1.0 - w * w) / (4.0 * (1.0 - c * w) * (w - c)) * np.exp(
                (self.scale * (y - x) - 1.0) * np.log(w)
                - Ts * g1_bulk(1.0 / w, q)
                - Tt * g1_bulk(w, q)
            )

        v, e = integrate_single(f_r22c, self.w_contour(s, levels=(x, y)), tol, real=True)
        return i11, i22, r22 + v, max(err, e)


def bulk_prelimit_components(s, x, t, y, params, N, tol=DEFAULT_TOL):
    """The five raw pieces I11, I12, I22, R12, R22 of the prelimit bulk kernel."""
    win = _BulkWindow(params, N)
    return _components(win.k12_pieces, win.k11_k22_pieces, s, x, t, y, tol)


def kernel_N_bulk(s, x, t, y, params, N, tol=DEFAULT_TOL):
    """Assembled prelimit bulk kernel K^N (2x2 block)."""
    win = _BulkWindow(params, N)
    return _assemble_2x2(win.k12_pieces, win.k11_k22_pieces, s, x, t, y, tol)


def bulk_lattice_point(a, params, N, t):
    """Nearest point of the slice-t lattice Lambda_t(N) to the scaled value a,
    returned with its integer index (level m = lambda_i - i)."""
    return _BulkWindow(params, N).lattice_point(a, t)


def edge_gamma_contour(c, theta, R, r, grade_scale):
    """The wedge-plus-arc contour C(x, theta, R, r) around center x = c: rays
    at angles +-theta from c, cut at distance r from c by a chord and closed
    by the origin-centered arc through their points at radius R, the ray
    segments graded toward the chord by grade_scale.  The edge window takes
    theta = EDGE_THETA = 5 pi/16 and R = 2/q."""
    zp = c + r * cmath.exp(1j * theta)
    zm = c + r * cmath.exp(-1j * theta)
    tplus = -c * math.cos(theta) + math.sqrt(R * R - c * c * math.sin(theta) ** 2)
    zetap = c + tplus * cmath.exp(1j * theta)
    zetam = c + tplus * cmath.exp(-1j * theta)
    pieces = []
    pieces.append(Segment(zetam, zm, grade="end", grade_scale=grade_scale))
    if r > 0.0:
        pieces.append(Segment(zm, zp))
    pieces.append(Segment(zp, zetap, grade="start", grade_scale=grade_scale))
    th = cmath.phase(zetap)
    pieces.append(Arc(0.0, abs(zetap), th, 2.0 * math.pi - th))
    return Contour(pieces)


def edge_prelimit_feasible(q, c, N):
    """Contour-nesting conditions of the edge window at wedge angle
    EDGE_THETA."""
    checks = {
        "wedge_radius_fits": 1.0 / q - c >= (1.0 / math.cos(EDGE_THETA)) * N ** -0.5,
        "circle_between": c + N ** -0.5 > 1.0,
    }
    return all(checks.values()), checks


class _EdgeWindow(_Window):
    """The N^{1/2} window at slices kappa in [0, kappa_bar), c in (1, 1/q).

    Its z contours are edge_gamma_contour wedges of half-angle theta =
    EDGE_THETA = 5 pi/16, closed by the arc through radius R = 2/q.  Every
    entry point builds it with the slices it will use, and the constructor
    raises ParameterError for a slice outside [0, kappa_bar).
    """

    def __init__(self, params, N, *kappas):
        super().__init__(params, N)
        self.cst = ScalingConstantsEdge(self.q, self.c)
        kbar = self.cst.kappa_bar
        if not all(0.0 <= k < kbar for k in kappas):
            raise ParameterError(f"edge slices must lie in [0, kappa_bar={kbar:.4g})")
        self.scale = self.k11_scale = self.k22_scale = self.cst.sigma2 * math.sqrt(N)
        self.has_residue = True
        self.tail_offset = 0.0
        self._lq_c = cmath.log(1.0 - self.q / self.c)

    def _wedge(self, apex, r):
        return edge_gamma_contour(apex, EDGE_THETA, 2.0 / self.q, r,
                                  min(0.2, self.N ** -0.5))

    def z_contour(self, kappa, shifted=False):
        return self._wedge(self.c, self.N ** -0.5 / math.cos(EDGE_THETA)
                           * (1.0000003 if shifted else 1.0))

    def w_contour(self, kappa, shifted=False, *, levels):
        """The circle |w| = z_crit(kappa) + N^{-1/2} for integrands at the
        scaled levels `levels` of slice kappa.  At a lattice level every
        branched factor of e^{expo} has an integer power, so the integrand
        is single-valued on the circle and takes a Circle (the periodic
        trapezoid rule); off the lattice the power of w has a non-integer
        part, the integrand jumps across the principal-log seam at w < 0,
        and it takes full_circle, whose panels break at the seam."""
        r = self.N ** -0.5 * (1.0000003 if shifted else 1.0)
        m = np.asarray(levels, dtype=float) * self.scale + self.center(kappa)
        lattice = bool(np.all(np.abs(m - np.rint(m)) < 1e-9))
        return Contour([(Circle if lattice else full_circle)(0.0, self.cst.z_crit(kappa) + r)])

    def count_contour(self, kappa):
        """The wedge at z_crit(kappa) + 3 N^{-1/2}, between the w circle and
        1/q (module docstring): on the kernel's wedge at c the threshold
        counts sat at the roundoff floor of a mass far above the count."""
        r = self.N ** -0.5 / math.cos(EDGE_THETA)
        apex = self.cst.z_crit(kappa) + 3.0 * self.N ** -0.5
        if 1.0 / self.q - apex < r:
            raise ContourPlacementError(
                f"count contour apex {apex:.4g} leaves less than {r:.3g} below 1/q")
        return self._wedge(apex, r)

    def heat_contour(self):
        """Wedge of half-angle pi/2 at c, closed by the circle of radius
        sqrt(c^2 + N^{-1/6})."""
        c, N = self.c, self.N
        Rt = math.sqrt(c * c + N ** (-1.0 / 6.0))
        ytop = math.sqrt(Rt * Rt - c * c)
        gs = min(0.25, N ** -0.5 / ytop)
        thc = cmath.phase(c + 1j * ytop)
        return Contour(
            [
                Segment(c - 1j * ytop, c + 0j, grade="end", grade_scale=gs),
                Segment(c + 0j, c + 1j * ytop, grade="start", grade_scale=gs),
                Arc(0.0, Rt, thc, 2.0 * math.pi - thc),
            ]
        )

    def phase(self, z):
        return -self.scale * (np.log(z) - math.log(self.c))

    def expo(self, z, kappa, a):
        """N S2bar(z; kappa) + frac log((1-q/z)/(1-q/c)) - sigma2 a sqrt(N) log(z/c),
        S2bar(z; kappa) = S2(z; kappa) - S2(c; kappa) the exponent that drives
        the edge decay and frac = floor(kappa N) - kappa N, combined from one
        _window_logs as s2_edge(z) - s2_edge(c) and phase combine theirs."""
        frac = math.floor(kappa * self.N) - kappa * self.N
        h2k = self.cst.h2_kappa(kappa)

        def s2(z):
            lz, lqz, l1 = _window_logs(z, self.q)
            return (1.0 + kappa) * lqz - l1 - h2k * lz, lz, lqz

        s2z, lz, lqz = s2(z)
        return (
            self.N * (s2z - s2(complex(self.c))[0])
            + frac * (lqz - self._lq_c)
            + a * (-self.scale * (lz - math.log(self.c)))
        )

    def center(self, kappa):
        return self.cst.h2_kappa(kappa) * self.N


def edge_prelimit_components(s, x, t, y, params, N, tol=DEFAULT_TOL):
    """Raw pieces I11, I12, I22, R12, R22 of the prelimit edge kernel.

    Valid for c in (1, 1/q) with s, t in [0, kappa_bar).
    """
    win = _EdgeWindow(params, N, s, t)
    return _components(win.k12_pieces, win.k11_k22_pieces, s, x, t, y, tol)


def kernel_N_edge(s, x, t, y, params, N, tol=DEFAULT_TOL):
    """Assembled prelimit edge kernel K^N; converges to the Brownian kernel."""
    win = _EdgeWindow(params, N, s, t)
    return _assemble_2x2(win.k12_pieces, win.k11_k22_pieces, s, x, t, y, tol)


def edge_lattice_point(a, params, N, kappa):
    """Nearest point of the edge lattice Lambda_kappa(N) to scaled value a,
    kappa in [0, kappa_bar)."""
    return _EdgeWindow(params, N, kappa).lattice_point(a, kappa)


# ---------------------------------------------------------------------------
# limiting kernels
# ---------------------------------------------------------------------------

def kernel_bm(s, x, t, y):
    """Brownian motion kernel: heat density minus the transition density."""
    if s <= 0.0 or t <= 0.0:
        raise ParameterError("kernel_bm needs s, t > 0")
    val = math.exp(-x * x / (2.0 * s)) / math.sqrt(2.0 * math.pi * s)
    if s > t:
        val -= math.exp(-((x - y) ** 2) / (2.0 * (s - t))) / math.sqrt(
            2.0 * math.pi * (s - t)
        )
    return val


def _airy_wedge(apex, phi, cubic_sign, quad_mag, lin_mag):
    """Truncated wedge contour for exponents +-z^3/3 + a z^2 + b z with
    |a| <= quad_mag, |b| <= lin_mag; the probe over-estimates the magnitude,
    so the truncation is conservative."""

    def logmag(z):
        return (cubic_sign * z ** 3 / 3.0).real + quad_mag * np.abs(z) ** 2 + lin_mag * np.abs(z)

    L = truncate_wedge(apex, phi, logmag, start=4.0 + lin_mag + quad_mag)
    return Contour(wedge_pieces(apex, phi, L))


def _hs_wedges(s, x, t, y):
    if s <= 0.0 or t <= 0.0:
        raise ParameterError("half-space limit kernel needs s, t > 0")
    phi = math.pi / 3.0
    return (_airy_wedge(1.0 + s, phi, +1.0, 0.0, abs(x) + 1.0),
            _airy_wedge(1.0 + t, phi, +1.0, 0.0, abs(y) + 1.0))


def _hs_e(z, x):
    """The per-axis factor e^{z^3/3 - x z} of the half-space integrands."""
    return np.exp(z ** 3 / 3.0 - x * z)


def _hs_k12(s, x, t, y, tol):
    cz, cw = _hs_wedges(s, x, t, y)
    i12, err = integrate_double(_mobius(s, -t), cz, cw, tol,
                                lambda z: _hs_e(z, x) / (2.0 * (z + s)), lambda w: _hs_e(w, y),
                                real=True)
    if s < t:
        r12 = -1.0 / math.sqrt(4.0 * math.pi * (t - s)) * math.exp(
            (-((s - t) ** 4) + 6.0 * (x + y) * (s - t) ** 2 + 3.0 * (x - y) ** 2)
            / (12.0 * (s - t))
        )
    else:
        r12 = 0.0
    return i12, r12, err


def _hs_k11_k22(s, x, t, y, tol):
    cz, cw = _hs_wedges(s, x, t, y)
    i11, e1 = integrate_double(_mobius(s, t), cz, cw, tol,
                               lambda z: _hs_e(z, x) / (4.0 * (z + s)),
                               lambda w: _hs_e(w, y) / (w + t), real=True)
    i22, e3 = integrate_double(_mobius(-s, -t), cz, cw, tol,
                               lambda z: _hs_e(z, x), lambda w: _hs_e(w, y), real=True)
    h_st = cmath.exp(s ** 3 / 3.0 + t ** 3 / 3.0 - x * s - y * t).real
    pref = y - t * t - x + s * s
    r22 = (
        h_st * pref / (2.0 * math.sqrt(math.pi) * (t + s) ** 1.5)
        * math.exp(-(pref ** 2) / (4.0 * (t + s)))
    )
    return i11, i22, r22, max(e1, e3)


def hs_limit_components(s, x, t, y, tol=DEFAULT_TOL):
    """I and R blocks of the half-space limit kernel at (s,x), (t,y), s,t > 0."""
    return _components(_hs_k12, _hs_k11_k22, s, x, t, y, tol)


def kernel_hs_inf(s, x, t, y, tol=DEFAULT_TOL):
    """The half-space limit kernel K^{hs,inf} as a 2x2 block."""
    return _assemble_2x2(_hs_k12, _hs_k11_k22, s, x, t, y, tol)


def _limit_wedge(sign, s, x, t, y, consts, shift=1.0):
    """The pi/3 wedge at sigma1 (sign +1) or the 2pi/3 wedge at -sigma1
    (sign -1) of the bulk limit kernel; shift moves the apex off the z = w
    diagonal."""
    phi = math.pi / 3.0 if sign > 0 else 2.0 * math.pi / 3.0
    return _airy_wedge(sign * consts.sigma1 * shift, phi, sign,
                       consts.f1 * max(s, t), abs(x) + abs(y) + 1.0)


def _limit_expo(z, f1, s, x):
    """z^3/3 - f1 s z^2 - x z, the per-axis exponent of the bulk limit kernel."""
    return z ** 3 / 3.0 - f1 * s * z * z - x * z


def _limit_k12(s, x, t, y, consts, tol):
    f1 = consts.f1
    i12, err = integrate_double(
        _limit_k12_coupling,
        _limit_wedge(+1.0, s, x, t, y, consts),
        _limit_wedge(-1.0, s, x, t, y, consts), tol,
        lambda z: np.exp(_limit_expo(z, f1, s, x)) / (2.0 * z),
        lambda w: np.exp(-_limit_expo(w, f1, t, y)), real=True)
    if s < t:
        r12 = -1.0 / math.sqrt(4.0 * math.pi * f1 * (t - s)) * math.exp(
            -((y - x) ** 2) / (4.0 * f1 * (t - s))
        )
    else:
        r12 = 0.0
    return i12, r12, err


def _limit_k11_k22(s, x, t, y, consts, tol):
    f1, s1g = consts.f1, consts.sigma1
    phi23 = 2.0 * math.pi / 3.0
    i11, e1 = integrate_double(
        _mobius(0.0, 0.0), _limit_wedge(+1.0, s, x, t, y, consts),
        _limit_wedge(+1.0, s, x, t, y, consts, shift=1.0000003), tol,
        lambda z: np.exp(_limit_expo(z, f1, s, x)) / z,
        lambda w: np.exp(_limit_expo(w, f1, t, y)) / w, real=True)
    i22, e3 = integrate_double(
        _mobius(0.0, 0.0), _limit_wedge(-1.0, s, x, t, y, consts),
        _limit_wedge(-1.0, s, x, t, y, consts, shift=1.0000003), tol,
        lambda z: np.exp(-_limit_expo(z, f1, s, x)) / 4.0,
        lambda w: np.exp(-_limit_expo(w, f1, t, y)), real=True)

    def f_r22(w):
        return w * np.exp(f1 * (s + t) * w * w + w * (y - x))

    # Gaussian-only exponent: decays like e^{-f1(s+t) r^2 / 2} along the
    # rays, so it needs its own (possibly much longer) truncation
    def logmag_r22(w):
        return (f1 * (s + t) * w * w + w * (y - x)).real

    r22_wedge = Contour(
        wedge_pieces(
            -s1g,
            phi23,
            truncate_wedge(-s1g, phi23, logmag_r22,
                           start=8.0 + 4.0 * (1.0 + abs(y - x)) / (f1 * (s + t))),
        )
    )
    vr22, e4 = integrate_single(f_r22, r22_wedge, tol, real=True)
    return i11, i22, -0.5 * vr22, max(e1, e3, e4)


def bulk_limit_components(s, x, t, y, consts, tol=DEFAULT_TOL):
    """I and R blocks of the bulk limit kernel (the K-infinity of the
    near-diagonal window); consts supplies f1 and sigma1."""
    return _components(_limit_k12, _limit_k11_k22, s, x, t, y, consts, tol)


def r22_limit_closed_form(s, x, t, y, f1):
    """Gaussian evaluation of the R22 limit integral after deforming the
    2pi/3 wedge to the imaginary axis."""
    a = f1 * (s + t)
    b = y - x
    return b / (8.0 * math.sqrt(math.pi) * a ** 1.5) * math.exp(-b * b / (4.0 * a))


def kernel_limit_bulk(s, x, t, y, consts, tol=DEFAULT_TOL):
    """Assembled bulk limit kernel K-infinity."""
    return _assemble_2x2(_limit_k12, _limit_k11_k22, s, x, t, y, consts, tol)


def conjugation_factor(s, x, f1):
    """f(s, x) = 2 exp(s^3 f1^3 / 3 - (x + f1^2 s^2) f1 s)."""
    return 2.0 * math.exp(s ** 3 * f1 ** 3 / 3.0 - (x + f1 * f1 * s * s) * f1 * s)


def kernel_limit_bulk_from_hs(s, x, t, y, consts, tol=DEFAULT_TOL):
    """K-infinity obtained from the half-space kernel by the conjugation
    K_uv(s,x;t,y) = K^hs_uv(f1 s, x + f1^2 s^2; f1 t, y + f1^2 t^2) dressed
    with the factor f(s, x)."""
    f1 = consts.f1
    base = kernel_hs_inf(
        f1 * s, x + f1 * f1 * s * s, f1 * t, y + f1 * f1 * t * t, tol
    )
    fs = conjugation_factor(s, x, f1)
    ft = conjugation_factor(t, y, f1)
    return KernelValue2x2(
        k11=base.k11 * fs * ft,
        k12=base.k12 * fs / ft,
        k21=base.k21 * ft / fs,
        k22=base.k22 / (fs * ft),
        err=base.err,
    )


# ---------------------------------------------------------------------------
# steepest-descent diagnostics
# ---------------------------------------------------------------------------

def _fd_derivative(f, z0, order, h):
    """Central finite difference of given order, Richardson-extrapolated
    from the steps h and h/2."""

    def central(hh):
        if order == 1:
            return (f(z0 + hh) - f(z0 - hh)) / (2.0 * hh)
        return (f(z0 + hh) - 2.0 * f(z0) + f(z0 - hh)) / (hh * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def phase_diagnostics(q, c, kappas):
    """Run every steepest-descent sanity check on a (q, c, kappa) family:
    finite differences of step h = 1e-4 against the closed forms, to a
    relative 1e-6 (fd_tol).

    Returns a report dict with one entry per check carrying (ok, detail).
    """
    h, fd_tol = 1e-4, 1e-6
    cst = ScalingConstantsEdge(q, c)
    report = {"params": (q, c), "checks": [], "ok": True}

    def add(name, ok, detail):
        report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})
        report["ok"] = report["ok"] and bool(ok)

    sc = ScalingConstantsBulk(q)
    v = s1_bulk(np.array([1.0 + 0j]), q)[0]
    add("bulk_S1_at_1_vanishes", abs(v) < 1e-12, f"S1(1) = {v:.2e}")

    # cubic Taylor behavior of bulk S1 near 1: slope-4 log-log fit of the rest
    rs = np.geomspace(1e-3, 1e-2, 8)
    rows = []
    for th in (0.3, 1.1):
        zs = 1.0 + rs * cmath.exp(1j * th)
        rest = np.abs(
            s1_bulk(zs, q) - sc.sigma1 ** 3 * (zs - 1.0) ** 3 / 3.0
        )
        slope = np.polyfit(np.log(rs), np.log(rest), 1)[0]
        rows.append(slope)
        add(
            f"bulk_S1_quartic_rest_theta={th}",
            abs(slope - 4.0) < 0.2,
            f"log-log slope {slope:.3f}",
        )

    for kappa in kappas:
        zc = cst.z_crit(kappa)
        tag = f"kappa={kappa:.4g}"

        d1 = _fd_derivative(lambda z: s2_edge(z, kappa, q, c), c + 0j, 1, h)
        scale = max(1.0, abs(s2_edge_d2(c + 0j, kappa, q, c)))
        add(f"S2_prime_zero_{tag}", abs(d1) < fd_tol * scale, f"S2'(c) = {d1:.2e}")
        a1 = s2_edge_d1(c + 0j, kappa, q, c)
        add(f"S2_prime_analytic_{tag}", abs(a1) < 1e-10 * scale, f"analytic {a1:.2e}")

        d2 = _fd_derivative(lambda z: s2_edge(z, kappa, q, c), c + 0j, 2, h)
        target = cst.sigma2 ** 2 * (cst.kappa_bar - kappa) / (c * c)
        add(
            f"S2_second_formula_{tag}",
            abs(d2 - target) < fd_tol * max(1.0, abs(target)),
            f"fd {d2:.8g} vs sigma2^2 (kbar - k)/c^2 = {target:.8g}",
        )

        g1d = _fd_derivative(lambda z: g2_edge(z, q, c), c + 0j, 1, h)
        add(f"G2_prime_zero_{tag}", abs(g1d) < fd_tol, f"G2'(c) = {g1d:.2e}")
        g2d = _fd_derivative(lambda z: g2_edge(z, q, c), c + 0j, 2, h)
        gt = -cst.sigma2 ** 2 / (c * c)
        add(
            f"G2_second_formula_{tag}",
            abs(g2d - gt) < fd_tol * max(1.0, abs(gt)),
            f"fd {g2d:.8g} vs -sigma2^2/c^2 = {gt:.8g}",
        )

        ds1 = (s1_edge(zc + 0j, kappa, q) - s1_edge(c + 0j, kappa, q)).real
        ds2 = (s2_edge(zc + 0j, kappa, q, c) - s2_edge(c + 0j, kappa, q, c)).real
        add(f"S1_difference_negative_{tag}", ds1 < 0.0, f"S1(zc)-S1(c) = {ds1:.6g}")
        add(f"S2_difference_positive_{tag}", ds2 > 0.0, f"S2(zc)-S2(c) = {ds2:.6g}")

        kh = 1.0 / (1.0 + kappa)
        zs = np.array([0.7 + 0.2j, 1.1 - 0.4j, c + 0.3j])
        lhs1 = s1_edge(zs, kappa, q)
        rhs1 = (1.0 + kappa) * s_hat(zs, kh, q, c, 1)
        lhs2 = s2_edge(zs, kappa, q, c)
        rhs2 = (1.0 + kappa) * s_hat(zs, kh, q, c, 2)
        dev = max(np.max(np.abs(lhs1 - rhs1)), np.max(np.abs(lhs2 - rhs2)))
        add(f"S_to_Shat_identity_{tag}", dev < 1e-10, f"max dev {dev:.2e}")

        # decay along the theta-rays near c
        theta = EDGE_THETA
        eps1 = -(cst.sigma2 ** 2) * (cst.kappa_bar - kappa) / (4.0 * c * c) * math.cos(
            2.0 * theta
        )
        ok_decay = True
        worst = 0.0
        for r in np.linspace(1e-4, 0.05, 12):
            for sgn in (1.0, -1.0):
                z = c + r * cmath.exp(sgn * 1j * theta)
                val = (s2_edge(z, kappa, q, c) - s2_edge(c + 0j, kappa, q, c)).real
                worst = max(worst, val + eps1 * r * r)
                ok_decay = ok_decay and (val <= -eps1 * r * r + 1e-12)
        add(f"S2_ray_decay_{tag}", ok_decay, f"worst excess {worst:.2e}")

    # monotonicity of Re G2 on centered circles
    ok_mono = True
    for R in (0.5, 1.0, c, 1.0 / q * 0.9):
        th = np.linspace(1e-3, math.pi - 1e-3, 200)
        vals = g2_edge(R * np.exp(1j * th), q, c).real
        ok_mono = ok_mono and bool(np.all(np.diff(vals) > 0))
    add("G2_increasing_on_circles", ok_mono, "d/dtheta Re G2 > 0 sampled")

    return report


# ---------------------------------------------------------------------------
# batched coincident-point K12 (direct-sum oracle support)
# ---------------------------------------------------------------------------

# every _ANCHOR_STRIDE-th level of a progression takes an exact exp, the
# levels between take the power recurrence (_level_factor).  Measured on
# the three diagonal batches of the benchmark's kernel-tail-sums (edge 300
# levels at N = 100; bulk 220 levels at c = 0.8, N = 200 and c = 1.3, N =
# 60; tol 1e-10), median of 7 rounds on a shared 2-core x86_64 machine,
# one BLAS thread:
# stride 1 (every level exact) 0.22-0.26 s, 4 0.17-0.18 s, 8 0.155-0.17 s,
# 16 0.15-0.16 s, 32 0.145-0.155 s.  The largest deviation from the exact
# entries over levels 0-5 of their contours, in units of eps (1 + |phase|
# max |x|), read 1.7 at stride 2, 1.5 at 8, 2.5 at 16 and 4.8 at 32.  Past 8
# the pair sums hold the time and the deviation grows with the stride.
_ANCHOR_STRIDE = 8
# xs counts as a progression when it is within _PROGRESSION_ULPS eps max |x|
# of x_0 + j h; lattice levels (m - center) / scale were within 1.0
_PROGRESSION_ULPS = 4
# the recurrence's bound in units of eps (1 + |phase(z)| max |x|) at stride
# 8: about 2 per column past the anchor (the rounding of r and of the
# product), 2 for the exact column's exp and f, 2 for the two rounded
# exponents and 2 _PROGRESSION_ULPS for the levels' deviation from the
# progression between the anchor and the column, about 26 in all
_RECURRENCE_ULPS = 32


def _level_step(xs):
    """The step h of the levels xs as an arithmetic progression x_j = x_0 +
    j h, or None unless xs is a finite 1-D progression of at least 3 points
    to within _PROGRESSION_ULPS eps max_j |x_j|, eps the machine epsilon."""
    if xs.ndim != 1 or len(xs) < 3 or not np.all(np.isfinite(xs)):
        return None
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    dev = np.max(np.abs(xs - (xs[0] + h * np.arange(len(xs)))))
    return h if dev <= _PROGRESSION_ULPS * _EPS * np.max(np.abs(xs)) else None


def _level_factor(f, phase, xs):
    """The batched engine factor z -> f(z) e^{phase(z) x_j}, one column per
    level x_j of xs (f None meaning 1).

    On an arithmetic progression of levels (_level_step) the columns j = 0,
    L, 2L, ... (L = _ANCHOR_STRIDE) are exact, f(z) e^{phase(z) x_j} as
    off the progression, and each of the L - 1 columns after an anchor is
    the one before it times r(z) = e^{phase(z) h}: one complex exp per node
    for r and per node and anchor, instead of one per node and level.  An
    entry k columns past its anchor differs from the exact one by at most
    _RECURRENCE_ULPS eps (1 + |phase(z)| max_j |x_j|) of its modulus, eps
    the machine epsilon: the rounded exponents phase(z) x_j and phase(z) h,
    which exp magnifies by |phase(z) x| in the exact column too, the
    roundings of r and of k products, and the levels' own deviation from
    x_0 + j h.  The bound holds for entries in the normal floating range:
    an anchor that underflows passes its lost digits on to the columns
    after it.  Any other xs makes every column exact.  The factor is a new
    complex (nodes, len(xs)) array, column-major on a progression.
    """
    h = _level_step(xs)

    def exact(z):
        e = np.multiply.outer(phase(z), xs)
        np.exp(e, out=e)
        return e if f is None else np.multiply(f(z)[:, None], e, out=e)

    def recurrence(z):
        p = phase(z)
        out = np.empty((len(xs), len(p)), dtype=complex)  # row j: column j of the factor
        anchors = out[::_ANCHOR_STRIDE]
        np.exp(np.multiply.outer(xs[::_ANCHOR_STRIDE], p, out=anchors), out=anchors)
        if f is not None:
            np.multiply(f(z), anchors, out=anchors)  # f first: anchors equal exact columns
        r = np.exp(p * h)
        for k in range(1, _ANCHOR_STRIDE):
            dst = out[k::_ANCHOR_STRIDE]
            np.multiply(out[k - 1::_ANCHOR_STRIDE][:len(dst)], r, out=dst)
        return out.T

    return exact if h is None else recurrence


def _diag_batch_eval(F, factors, phases, cz, cw, xs, tol):
    """(1/(2 pi i))^2 iint a(z) F(z, w) b(w) e^{zphase(z) x} e^{wphase(w) x}
    for each x, (a, b) = factors and (zphase, wphase) = phases: each axis
    factor times its exponential is one (nodes, len(xs)) engine factor
    (_level_factor).  On an arithmetic progression of levels the
    exponentials come from an anchored power recurrence, exact every
    _ANCHOR_STRIDE-th level, whose entries deviate from the exact ones by
    at most _RECURRENCE_ULPS eps (1 + |phase| max |x|), relative; the
    values move by far less than the returned error."""
    xs = np.asarray(xs, dtype=float)
    return _walk(F, (cz, cw), tol,
                 tuple(_level_factor(f, p, xs) for f, p in zip(factors, phases)), real=True)


def _diag_batch_single(F, phase, contour, xs, tol):
    """(1/2 pi i) * integral of F(z) e^{phase(z) x} per x, level-doubled,
    the exponentials built as in _diag_batch_eval."""
    xs = np.asarray(xs, dtype=float)
    return _single_walk(F, contour, tol, _level_factor(None, phase, xs), real=True)


def edge_k12_diag_batch(xs, params, N, kappa, tol=1e-8):
    """K12(kappa, x; kappa, x) for an array of scaled lattice levels x, kappa
    in [0, kappa_bar)."""
    return _EdgeWindow(params, N, kappa).k12_diag(kappa, xs, tol)


def bulk_k12_diag_batch(xs, params, N, t, tol=1e-8):
    """K12(t, x; t, x) for an array of scaled lattice levels x (bulk window).

    At coincident slices the heat-kernel part of R12 vanishes; the c > 1
    residue term remains.
    """
    return _BulkWindow(params, N).k12_diag(t, xs, tol)


# ---------------------------------------------------------------------------
# expected counts above a level
# ---------------------------------------------------------------------------

def expected_count_tail(a, params, N, regime, slice_value, tol=DEFAULT_TOL):
    """E[#points >= a] on one slice, by the summed-kernel contour formulas.

    regime 'edge': the N^{1/2} window at kappa = slice_value in [0,
    kappa_bar) (needs c > 1); regime 'bulk': the N^{1/3} window at time t =
    slice_value.  The level a is snapped up to the slice lattice.
    """
    if regime == "edge":
        win = _EdgeWindow(params, N, slice_value)
    elif regime == "bulk":
        win = _BulkWindow(params, N)
    else:
        raise ParameterError(f"unknown regime {regime!r}")
    return win.count_tail(a, slice_value, tol)
