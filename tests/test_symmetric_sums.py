"""Sums over the upper half of a conjugation-closed z contour (real=True):
the same value as the full sum within the returned errors, exactly real,
refused on a contour that is not closed under conjugation, and in the
kernels half the z nodes at the same level pairs."""

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


def _agree(half, full):
    (v, e), (v0, e0) = half, full
    assert not np.iscomplexobj(v) and np.all(np.imag(v) == 0.0)
    assert np.all(np.abs(v - v0) <= e + e0)
    assert e <= 1.05 * e0 + 1e-14


@pytest.mark.parametrize("case", _single_cases(), ids=lambda c: c[0])
def test_single_half_sum_equals_full_sum(case):
    _, contour, F = case
    _agree(ct.integrate_single(F, contour, 1e-10, real=True),
           ct.integrate_single(F, contour, 1e-10))
    ones = _batched(np.ones_like)
    _agree(ct._single_walk(F, contour, 1e-10, ones, real=True),
           ct._single_walk(F, contour, 1e-10, ones))


@pytest.mark.parametrize("case", _double_cases(), ids=lambda c: c[0])
def test_double_half_sum_equals_full_sum(case):
    _, cz, cw, F, a, b = case
    _agree(ct.integrate_double(F, cz, cw, 1e-9, a, b, real=True),
           ct.integrate_double(F, cz, cw, 1e-9, a, b))
    _agree(ct._walk(F, (cz, cw), 1e-9, (_batched(a), b), real=True),
           ct._walk(F, (cz, cw), 1e-9, (_batched(a), b)))


@pytest.mark.parametrize("piece", [ct.Circle(0.1j, 1.0), ct.Arc(0.0, 1.0, 0.0, np.pi)],
                         ids=["off-axis Circle", "upper Arc"])
def test_rule_not_closed_under_conjugation_raises(piece):
    contour, circle = ct.Contour([piece]), ct.Contour([ct.Circle(0.0, 3.0)])
    with pytest.raises(ct.ContourPlacementError, match="conjugation"):
        ct.integrate_single(np.exp, contour, real=True)
    for cz, cw in ((contour, circle), (circle, contour)):
        with pytest.raises(ct.ContourPlacementError, match="conjugation"):
            ct.integrate_double(kernels._k12_coupling, cz, cw, real=True)


def _block_shapes(monkeypatch, fn, real):
    """The (z nodes, w nodes) of every pair sum of fn(), on one thread; with
    real False the kernels' double integrals run on the whole z contour."""
    shapes = []
    block_sums = ct._block_sums

    def recorded(F, z, U, w, V):
        shapes.append((len(z), len(w)))
        return block_sums(F, z, U, w, V)

    with monkeypatch.context() as m:
        m.setattr(lpp, "_usable_cpus", lambda: 1)
        m.setattr(ct, "_block_sums", recorded)
        if not real:
            m.setattr(kernels, "integrate_double", lambda *a, real: ct.integrate_double(*a))
        fn()
    return shapes


@pytest.mark.parametrize("fn", [
    lambda: kernels.kernel_N_edge(0.5, 0.1, 1.0, -0.2, ModelParams(0.5, 1.4), 64, tol=1e-7),
    lambda: kernels.bulk_prelimit_components(1.0, 0.0, 1.5, 0.3, ModelParams(0.5, 1.3), 50),
], ids=["kernel_N_edge", "bulk_prelimit_components"])
def test_kernels_sum_half_the_z_nodes_at_the_same_level_pairs(monkeypatch, fn):
    half = _block_shapes(monkeypatch, fn, True)
    full = _block_shapes(monkeypatch, fn, False)
    assert half and half == [(nz // 2, nw) for nz, nw in full]
