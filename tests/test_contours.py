import math

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


def test_connectivity_check():
    good = ct.Contour([ct.Segment(0j, 1j), ct.Segment(1j, 1.0 + 1j)])
    assert good.connected()
    bad = ct.Contour([ct.Segment(0j, 1j), ct.Segment(2j, 3j)])
    assert not bad.connected()
    closed = ct.Contour([ct.full_circle(0.0, 1.0)])
    assert closed.connected(closed=True)


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
