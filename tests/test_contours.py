import math
from collections import defaultdict

import numpy as np
import pytest

from halfspace_lpp import contours as ct


def test_residue_circle():
    circ = ct.Contour([ct.full_circle(0.0, 1.0)])
    val, err = ct.integrate_contour(lambda z: 1.0 / z, circ, tol=1e-12)
    assert abs(val - 2j * math.pi) < 1e-10
    assert err < 1e-9


def test_orientation_reversal_negates():
    fwd = ct.Contour([ct.Arc(0.0, 2.0, -math.pi, math.pi)])
    bwd = ct.Contour([ct.Arc(0.0, 2.0, math.pi, -math.pi)])
    f = lambda z: np.exp(z) / z
    v1, _ = ct.integrate_contour(f, fwd, tol=1e-12)
    v2, _ = ct.integrate_contour(f, bwd, tol=1e-12)
    assert abs(v1 + v2) < 1e-10


def test_vertical_gaussian():
    wedge = ct.Contour(ct.wedge_pieces(0.0, math.pi / 2, 30.0))
    val, _ = ct.integrate_contour(lambda z: np.exp(z * z), wedge, tol=1e-12)
    assert abs(val - 1j * math.sqrt(math.pi)) < 1e-9


def test_real_axis_gaussian_two_segments():
    # explicit straight path over the real axis
    path = ct.Contour([ct.Segment(-12.0 + 0j, 0j), ct.Segment(0j, 12.0 + 0j)])
    val, _ = ct.integrate_contour(lambda z: np.exp(-z * z), path, tol=1e-12)
    assert abs(val - math.sqrt(math.pi)) < 1e-10


def test_pole_clearance_guard():
    circ = ct.Contour([ct.full_circle(0.0, 1.0)])
    with pytest.raises(ct.ContourPlacementError):
        ct.integrate_contour(lambda z: 1.0 / (z - 1.0), circ,
                             poles=[1.0 + 0j], pole_clearance=1e-2)
    # a pole safely off the contour passes the guard
    val, _ = ct.integrate_contour(lambda z: 1.0 / (z - 2.0), circ,
                                  poles=[2.0 + 0j], pole_clearance=1e-2)
    assert abs(val) < 1e-10


def test_double_integral_product_poles():
    cz = ct.Contour([ct.full_circle(0.0, 1.0)])
    cw = ct.Contour([ct.full_circle(0.0, 2.0)])
    val, err = ct.integrate_double(lambda z, w: 1.0 / (z * w), cz, cw, tol=1e-12)
    assert abs(val - 1.0) < 1e-10
    # genuinely zero integral accepted at the noise floor
    v0, e0 = ct.integrate_double(lambda z, w: z * 0 + w * 0 + 1.0, cz, cw,
                                 tol=1e-10)
    assert abs(v0) < 1e-12


def test_single_levels_and_circle_trapezoid():
    circ = ct.Contour([ct.full_circle(0.0, 1.5)])
    v, _ = ct.integrate_single(lambda z: np.exp(z) / z ** 3, circ, tol=1e-12)
    assert abs(v - 0.5) < 1e-10  # residue of e^z / z^3 is 1/2!
    v2, _ = ct.integrate_circle(lambda u: np.exp(u) / u ** 3, 1.5)
    assert abs(v2 - 0.5) < 1e-10


def test_truncate_wedge_grows_until_decay():
    L = ct.truncate_wedge(0.0, 2 * math.pi / 3,
                          lambda z: (-(z ** 3) / 3.0).real + 2.0 * np.abs(z))
    f = lambda z: np.exp(-(z ** 3) / 3.0 + 2.0 * z)
    ends = abs(f(np.array([L * np.exp(2j * math.pi / 3)])))[0]
    assert ends < 1e-30


def test_graded_segment_breaks():
    seg = ct.Segment(0j, 1.0 + 0j, grade="start", grade_scale=1e-3)
    br = seg.base_breaks()
    assert br[0] == 0.0 and br[-1] == 1.0
    assert br[1] == pytest.approx(1e-3)
    assert np.all(np.diff(br) > 0)
    seg2 = ct.Segment(0j, 1.0 + 0j, grade="end", grade_scale=1e-3)
    br2 = seg2.base_breaks()
    assert br2[-2] == pytest.approx(1.0 - 1e-3)


def test_quadrature_failure_carries_partial():
    # a pole sitting on the contour cannot converge
    circ = ct.Contour([ct.full_circle(0.0, 1.0)])
    with pytest.raises(ct.QuadratureError) as ei:
        ct.integrate_contour(lambda z: 1.0 / (z - 1.0), circ, tol=1e-13,
                             max_depth=8)
    assert ei.value.partial is not None


def _record_levels(monkeypatch):
    levels = []
    nodes = ct.Contour.nodes

    def recording(self, level):
        levels.append(level)
        return nodes(self, level)

    monkeypatch.setattr(ct.Contour, "nodes", recording)
    return levels


def test_nan_integrand_fails_at_first_level(monkeypatch):
    levels = _record_levels(monkeypatch)
    circ = ct.Contour([ct.full_circle(0.0, 1.0)])
    with pytest.raises(ct.QuadratureError):
        ct.integrate_double(lambda z, w: z * w * np.nan, circ, circ)
    assert levels and max(levels) <= 1
    levels.clear()
    with pytest.raises(ct.QuadratureError):
        ct.integrate_single(lambda z: z * np.nan, circ)
    assert levels and max(levels) <= 1


def _levels_by_contour(monkeypatch):
    """Levels requested from Contour.nodes, listed per contour object."""
    levels = defaultdict(list)
    nodes = ct.Contour.nodes

    def recording(self, level):
        levels[id(self)].append(level)
        return nodes(self, level)

    monkeypatch.setattr(ct.Contour, "nodes", recording)
    return levels


def _smooth(z):
    return np.exp(z) / z  # resolved by the level-0 panels of the unit circle


def _peaked(w):
    return 1.0 / (w * (w - 1.02))  # a pole 0.02 outside the unit circle


@pytest.mark.parametrize("smooth_first", [True, False])
def test_double_refines_only_the_axis_that_moves(monkeypatch, smooth_first):
    smooth = ct.Contour([ct.full_circle(0.0, 1.0)])
    peaked = ct.Contour([ct.full_circle(0.0, 1.0)])
    levels = _levels_by_contour(monkeypatch)
    if smooth_first:
        val, err = ct.integrate_double(lambda z, w: _smooth(z) * _peaked(w), smooth, peaked)
    else:
        val, err = ct.integrate_double(lambda z, w: _peaked(z) * _smooth(w), peaked, smooth)
    # the smooth axis stays at level 0: only its one-axis doubling is asked for
    assert max(levels[id(smooth)]) == 1
    assert max(levels[id(peaked)]) >= 3
    a, _ = ct.integrate_single(_smooth, smooth)
    b, _ = ct.integrate_single(_peaked, peaked)
    assert abs(val - a * b) <= err


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_double_error_bounds_true_error(tol):
    # the w integral of 1/((z - w) w) is 1/z while |w| < |z|, so the value is
    # 1; the close z = w diagonal makes both contours refine
    cz = ct.Contour([ct.full_circle(0.0, 1.0)])
    cw = ct.Contour([ct.full_circle(0.0, 0.98)])
    val, err = ct.integrate_double(lambda z, w: 1.0 / ((z - w) * w), cz, cw, tol)
    assert abs(val - 1.0) <= err < 1e3 * max(tol, 1e-14)


def test_non_convergence_reports_levels_changes_and_threshold():
    circ = ct.Contour([ct.full_circle(0.0, 1.0)])
    # a pole 1e-6 off the circle needs more levels than the engine allows
    with pytest.raises(ct.QuadratureError) as ei:
        ct.integrate_double(lambda z, w: 1.0 / (z * (w - 1.000001)), circ, circ)
    e = ei.value
    assert e.levels == (0, 5)
    assert e.changes[0] <= e.threshold < e.changes[1]
    assert e.partial is not None and np.isfinite(e.partial)
    assert "(0, 5)" in str(e) and f"{e.threshold:.3e}" in str(e)
    with pytest.raises(ct.QuadratureError) as ei:
        ct.integrate_single(lambda z: 1.0 / (z - 1.000001), circ)
    e = ei.value
    assert e.levels == (9,) and e.changes[0] > e.threshold
    assert e.partial is not None and "(9,)" in str(e)


def _k12_coupling(z, w):
    return (z * w - 1.0) / (z - w)


def test_factored_double_equals_whole_integrand():
    # e^z/z * (zw - 1)/(z - w) * 1/w: the w integral over |w| = 0.5 is -1/z,
    # so the value is -(1/2 pi i) iint e^z / z^2 = -1
    cz = ct.Contour([ct.full_circle(0.0, 1.0)])
    cw = ct.Contour([ct.full_circle(0.0, 0.5)])
    a = lambda z: np.exp(z) / z
    b = lambda w: 1.0 / w
    fac, efac = ct.integrate_double(_k12_coupling, cz, cw, z_factor=a, w_factor=b)
    whole, ewhole = ct.integrate_double(lambda z, w: a(z) * _k12_coupling(z, w) * b(w), cz, cw)
    assert abs(fac - whole) <= efac + ewhole
    assert abs(fac + 1.0) <= efac


def test_factors_run_once_per_level_on_node_arrays(monkeypatch):
    cz = ct.Contour([ct.full_circle(0.0, 1.0)])
    cw = ct.Contour([ct.full_circle(0.0, 0.98)])
    levels = _levels_by_contour(monkeypatch)
    shapes = {"z": [], "w": []}

    def recorded(axis, f):
        def factor(z):
            shapes[axis].append(np.shape(z))
            return f(z)
        return factor

    # the close z = w diagonal makes both contours refine past level 1
    ct.integrate_double(lambda z, w: 1.0 / (z - w), cz, cw,
                        z_factor=recorded("z", lambda z: 1.0 + 0.0 * z),
                        w_factor=recorded("w", lambda w: 1.0 / w))
    for axis, contour in (("z", cz), ("w", cw)):
        assert all(len(shape) == 1 for shape in shapes[axis])
        # one call per level requested, never twice for one level
        assert len(shapes[axis]) == len(set(shapes[axis])) == len(set(levels[id(contour)]))
        assert len(shapes[axis]) >= 3


def test_nan_factor_fails_at_first_level(monkeypatch):
    levels = _record_levels(monkeypatch)
    circ = ct.Contour([ct.full_circle(0.0, 1.0)])
    with pytest.raises(ct.QuadratureError):
        ct.integrate_double(lambda z, w: z * w, circ, circ, z_factor=lambda z: z * np.nan)
    assert levels and max(levels) <= 1


def test_circle_nodes_are_never_real_and_as_many_as_the_arc():
    for level in range(10):
        z, w = ct.Contour([ct.Circle(0.0, 2.0)]).nodes(level)
        arc, _ = ct.Contour([ct.full_circle(0.0, 2.0)]).nodes(level)
        assert len(z) == len(arc) == 256 << level
        assert np.min(np.abs(z.imag)) > 0.0
        assert abs(np.sum(w / z) - 2j * math.pi) < 1e-12


@pytest.mark.parametrize("piece, rw, tol", [(ct.full_circle, 0.95, 1e-9)] + [
    (ct.Circle, rw, tol) for rw in (0.98, 0.95) for tol in (1e-6, 1e-9, 1e-12)])
def test_error_floor_bounds_roundoff(piece, rw, tol):
    # the panel case read err 5.6e-15 against a true error of 8.4e-15 under
    # a fixed 1e-15 * mass floor; the floor now grows with the node counts
    cz = ct.Contour([piece(0.0, 1.0)])
    cw = ct.Contour([piece(0.0, rw)])
    val, err = ct.integrate_double(lambda z, w: 1.0 / ((z - w) * w), cz, cw, tol)
    assert abs(val - 1.0) <= err < 1e3 * max(tol, 1e-14)


@pytest.mark.parametrize("piece", [ct.full_circle, ct.Circle])
def test_closed_forms_on_random_radii(piece):
    # (1/2 pi i) of e^z z^{-k-1} is 1/k!, and with |w| < |z| the w integral
    # of 1/((z - w) w^{k+1}) is z^{-k-1}, so the double integral with the
    # factor e^z z^{-j-1} is 1/(j + k + 1)!
    rng = np.random.default_rng(2024)
    for _ in range(60):
        k, r = int(rng.integers(0, 13)), float(rng.uniform(0.2, 4.0))
        tol = float(rng.choice([1e-6, 1e-9, 1e-12]))
        val, err = ct.integrate_single(lambda z: np.exp(z) * z ** (-k - 1.0),
                                       ct.Contour([piece(0.0, r)]), tol)
        assert abs(val - 1.0 / math.factorial(k)) <= err, (k, r, tol)
    for _ in range(12):
        j, k = (int(n) for n in rng.integers(0, 6, 2))
        rz = float(rng.uniform(0.4, 2.5))
        rw = rz * float(rng.uniform(0.3, 0.9))
        tol = float(rng.choice([1e-6, 1e-9, 1e-12]))
        val, err = ct.integrate_double(lambda z, w: 1.0 / ((z - w) * w ** (k + 1)),
                                       ct.Contour([piece(0.0, rz)]),
                                       ct.Contour([piece(0.0, rw)]), tol,
                                       z_factor=lambda z: np.exp(z) * z ** (-j - 1.0))
        assert abs(val - 1.0 / math.factorial(j + k + 1)) <= err, (j, k, rz, rw, tol)
