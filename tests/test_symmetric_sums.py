"""Sums over the upper half of a conjugation-closed z contour: equal to
the full sum of an independent reference (adaptive Gauss-Kronrod over a
single contour, a tensor-product sum over both whole contours) within the
returned errors, exactly real, refused on a contour that is not closed
under conjugation, and in the kernels half the z nodes of the full sum's
level pairs."""

import math

import numpy as np
import pytest

from halfspace_lpp import contours as ct
from halfspace_lpp import kernels, lpp
from halfspace_lpp.model import ModelParams

XS = np.array([-0.4, 0.0, 0.7])


def _single_cases():
    """(name, contour, F) with F real-symmetric and analytic near the contour."""
    rational = lambda z: np.exp(z) / (z * (z - 0.3) * (z + 0.7))
    return [
        ("Circle", ct.Contour([ct.Circle(0.0, 1.5)]), rational),
        # z^(1/2) jumps across the principal-log seam at z < 0
        ("full_circle", ct.Contour([ct.full_circle(0.0, 1.5)]),
         lambda z: np.sqrt(z) * np.exp(z) / (z - 0.3)),
        ("bulk_contour", kernels.bulk_contour(1.0, 200, +1), rational),
        ("edge_gamma_contour",
         kernels.edge_gamma_contour(1.4, kernels.EDGE_THETA, 4.0, 0.05, 0.05), rational),
        ("airy_wedge", kernels._airy_wedge(1.5, np.pi / 3.0, +1.0, 0.0, 1.3),
         lambda z: np.exp(z ** 3 / 3.0 - 0.3 * z) / (z + 0.5)),
    ]


def _double_cases():
    """(name, z contour, w contour, coupling, z factor, w factor)."""
    s, x, t, y = 0.5, 0.3, 1.0, 0.6
    cz, cw = kernels._hs_wedges(s, x, t, y)
    return [
        ("Circle", ct.Contour([ct.Circle(0.0, 1.0)]), ct.Contour([ct.Circle(0.0, 0.5)]),
         kernels._k12_coupling, lambda z: np.exp(3.0 * z) / z, lambda w: np.cos(w) / w),
        ("full_circle", ct.Contour([ct.full_circle(0.0, 1.0)]),
         ct.Contour([ct.full_circle(0.0, 0.5)]), kernels._k12_coupling,
         lambda z: np.sqrt(z) * np.exp(z), lambda w: np.exp(-w) / w),
        ("bulk_contour", kernels.bulk_contour(1.0, 200, +1),
         kernels.bulk_contour(-1.0, 200, -1),
         kernels._limit_k12_coupling, lambda z: np.exp(z) / z, lambda w: np.exp(-w)),
        ("edge_gamma_contour",
         kernels.edge_gamma_contour(1.4, kernels.EDGE_THETA, 4.0, 0.05, 0.05),
         ct.Contour([ct.Circle(0.0, 1.1)]), kernels._k12_coupling,
         lambda z: np.exp(z) / (z * (z * z - 1.0)), lambda w: 1.0 / (w - 1.4)),
        ("airy_wedge", cz, cw, kernels._mobius(s, -t),
         lambda z: kernels._hs_e(z, x) / (2.0 * (z + s)), lambda w: kernels._hs_e(w, y)),
    ]


def _batched(f):
    """f(z) e^{z x} for each x in XS, as a new (n, P) factor."""
    return lambda z: np.exp(np.multiply.outer(z, XS)) * f(z)[:, None]


def _real(v):
    return not np.iscomplexobj(v) and np.all(np.imag(v) == 0.0)


def _contour_reference(F, contour):
    """(1/(2 pi i)) * the integral of F by adaptive Gauss-Kronrod, and its
    error estimate."""
    val, err = ct.integrate_contour(F, contour, 1e-12)
    return val / (2j * math.pi), err / (2.0 * math.pi)


def _tensor_reference(F, cz, cw, a, b, level):
    """(1/(2 pi i))^2 * the tensor-product sum over both whole contours'
    rules at `level`; one value per column of an (n, P) z factor."""
    z, dz = cz.nodes(level)
    w, dw = cw.nodes(level)
    U = a(z)
    U = U * (dz[:, None] if U.ndim == 2 else dz)
    return -(U.T @ (F(z[:, None], w[None, :]) @ (b(w) * dw))) / (4.0 * math.pi ** 2)


@pytest.mark.parametrize("case", _single_cases(), ids=lambda c: c[0])
def test_single_half_sum_equals_full_sum(case):
    _, contour, F = case
    v, e = ct.integrate_single(F, contour, 1e-10)
    ref, e_ref = _contour_reference(F, contour)
    assert _real(v) and abs(v - ref) <= e + e_ref
    v, e = ct._single_walk(F, contour, 1e-10, _batched(np.ones_like))
    assert _real(v)
    for x, vx in zip(XS, v):
        ref, e_ref = _contour_reference(lambda z: F(z) * np.exp(z * x), contour)
        assert abs(vx - ref) <= e + e_ref


@pytest.mark.parametrize("case", _double_cases(), ids=lambda c: c[0])
def test_double_half_sum_equals_full_sum(case):
    _, cz, cw, F, a, b = case
    for got, za in ((ct.integrate_double(F, cz, cw, 1e-9, a, b), a),
                    (ct._walk(F, (cz, cw), 1e-9, (_batched(a), b)), _batched(a))):
        v, e = got
        ref0, ref = (_tensor_reference(F, cz, cw, za, b, level) for level in (1, 2))
        assert _real(v) and np.all(np.abs(v - ref) <= e + np.abs(ref - ref0))


@pytest.mark.parametrize("piece", [ct.Circle(0.1j, 1.0), ct.Arc(0.0, 1.0, 0.0, np.pi)],
                         ids=["off-axis Circle", "upper Arc"])
def test_rule_not_closed_under_conjugation_raises(piece):
    contour, circle = ct.Contour([piece]), ct.Contour([ct.Circle(0.0, 3.0)])
    with pytest.raises(ct.ContourPlacementError, match="conjugation"):
        ct.integrate_single(np.exp, contour)
    for cz, cw in ((contour, circle), (circle, contour)):
        with pytest.raises(ct.ContourPlacementError, match="conjugation"):
            ct.integrate_double(kernels._k12_coupling, cz, cw)


# the (z nodes, w nodes) of every pair sum of the two kernel calls below, as
# recorded when the full-sum mode still existed: the z counts are half the
# z rules' and the level pairs are those of the full sums
BLOCK_SHAPES = {
    "kernel_N_edge": [
        (68, 256), (134, 256), (68, 512), (134, 512), (68, 1024), (134, 1024), (68, 2048),
        (68, 136), (134, 136), (68, 268), (128, 256), (256, 256), (128, 512), (256, 512),
        (512, 512), (256, 1024), (512, 1024), (1024, 1024), (512, 2048), (68, 256),
        (134, 256), (68, 512), (134, 512), (68, 1024), (134, 1024), (68, 2048)],
    "bulk_prelimit_components": [
        (168, 272), (336, 272), (168, 544), (336, 544), (168, 1088), (336, 1088),
        (168, 2176), (168, 336), (336, 336), (168, 672), (136, 272), (272, 272),
        (136, 544), (272, 544), (544, 544), (272, 1088), (544, 1088), (1088, 1088),
        (544, 2176)],
}


KERNEL_CALLS = {
    "kernel_N_edge":
        lambda: kernels.kernel_N_edge(0.5, 0.1, 1.0, -0.2, ModelParams(0.5, 1.4), 64, tol=1e-7),
    "bulk_prelimit_components":
        lambda: kernels.bulk_prelimit_components(1.0, 0.0, 1.5, 0.3, ModelParams(0.5, 1.3), 50),
}


@pytest.mark.parametrize("name", list(KERNEL_CALLS))
def test_kernels_sum_half_the_z_nodes_at_the_same_level_pairs(monkeypatch, name):
    shapes = []
    block_sums = ct._block_sums

    def recorded(F, z, U, w, V):
        shapes.append((len(z), len(w)))
        return block_sums(F, z, U, w, V)

    monkeypatch.setattr(lpp, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(ct, "_block_sums", recorded)
    KERNEL_CALLS[name]()
    assert shapes == BLOCK_SHAPES[name]
