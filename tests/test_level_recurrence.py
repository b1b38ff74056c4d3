"""The diagonal K12 batches build e^{phase(z) x} on a progression of lattice
levels by an anchored power recurrence (kernels._level_factor): within the
stated bound of the exact exponentials, exact off a progression, and giving
the batches of every level computed exactly within their returned error, on
the same level pairs."""

import math

import numpy as np
import pytest

from halfspace_lpp import kernels
from halfspace_lpp.model import ModelParams, ScalingConstantsBulk, ScalingConstantsEdge


def _edge_levels(kappa=0.5, N=100, count=300):
    """count scaled lattice levels of the edge window (q = 0.5, c = 1.4) from
    the centre of slice kappa up."""
    cst = ScalingConstantsEdge(0.5, 1.4)
    center, scale = cst.h2_kappa(kappa) * N, cst.sigma2 * math.sqrt(N)
    m0 = math.ceil(center - 1e-9)
    return (np.arange(m0, m0 + count) - center) / scale


def _bulk_levels(N, t=1.0, count=220):
    """count scaled lattice levels of the bulk window (q = 0.5) at time t."""
    sb = ScalingConstantsBulk(0.5)
    T = math.floor(t * N ** (2.0 / 3.0))
    center, scale = sb.h1 * N + sb.p1 * T, sb.sigma1 * N ** (1.0 / 3.0)
    m0 = math.ceil(center - 1e-9)
    return (np.arange(m0, m0 + count) - center) / scale


# (window, slice, levels) as check_tail_moments and the benchmark sum them
WINDOWS = {
    "edge": lambda: (kernels._EdgeWindow(ModelParams(0.5, 1.4), 100, 0.5), 0.5, _edge_levels()),
    "bulk_c0.8": lambda: (kernels._BulkWindow(ModelParams(0.5, 0.8), 200), 1.0,
                          _bulk_levels(200)),
    "bulk_c1.3": lambda: (kernels._BulkWindow(ModelParams(0.5, 1.3), 60), 1.0,
                          _bulk_levels(60)),
}


def _axes(win, v, xs):
    """(contour, f, phase) of each recurrence factor of win.k12_diag: the z
    and w axes of I12 and the z axis of the residue part."""
    fa, fb = win.k12_factors(v, 0.0, v, 0.0)
    phase_c = win.phase(np.asarray(win.c, dtype=complex))
    return [(win.z_contour, fa, win.phase),
            (win.w_contour(v, levels=xs), fb, lambda w: -win.phase(w)),
            (win.z_contour, None, lambda z: win.phase(z) - phase_c)]


def _direct(f, phase, xs, z):
    """f(z) e^{phase(z) x} with one exp per node and level."""
    e = np.exp(np.multiply.outer(phase(z), xs))
    return e if f is None else f(z)[:, None] * e


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_recurrence_within_its_bound_of_direct_exponentials(name):
    win, v, xs = WINDOWS[name]()
    assert kernels._level_step(xs) is not None  # lattice levels are a progression
    stride, top = kernels._ANCHOR_STRIDE, np.max(np.abs(xs))
    for contour, f, phase in _axes(win, v, xs):
        for level in range(6):
            z, _ = contour.nodes(level)
            got, want = kernels._level_factor(f, phase, xs)(z), _direct(f, phase, xs, z)
            assert np.array_equal(got[:, ::stride], want[:, ::stride])  # exact anchors
            assert not np.array_equal(got, want)  # the columns between are products
            bound = (kernels._RECURRENCE_ULPS * kernels._EPS
                     * (1.0 + np.abs(phase(z))[:, None] * top) * np.abs(want))
            normal = np.abs(want) > np.finfo(float).tiny
            assert np.all(np.abs(got - want)[normal] <= bound[normal]), (name, level)
            # below the normal range: still under 2^-133 of the column's largest,
            # the engine's negligible-node cut
            cut = 2.0 ** -133 * np.abs(want).max(axis=0)
            assert np.all((np.abs(got) <= cut)[~normal]), (name, level)


@pytest.mark.parametrize("xs", [
    np.array([0.0, 0.1, 0.25, 0.3]),  # uneven
    np.array([0.0, 0.1]),  # fewer than 3 points
    np.array([0.0, np.nan, 0.2, 0.3]),  # not finite
], ids=["uneven", "two", "nan"])
def test_other_levels_take_exact_exponentials(xs):
    win, v, _ = WINDOWS["edge"]()
    assert kernels._level_step(xs) is None
    for contour, f, phase in _axes(win, v, xs):
        z, _ = contour.nodes(1)
        got = kernels._level_factor(f, phase, xs)(z)
        assert np.array_equal(got, _direct(f, phase, xs, z), equal_nan=True)


def _batch_and_levels(monkeypatch, fn):
    """fn()'s output and the (pieces, level) of every Contour.nodes call,
    sorted: the concurrent doublings call it in either order."""
    levels = []
    nodes = kernels.Contour.nodes

    def recording(self, level):
        levels.append((len(self.pieces), level))
        return nodes(self, level)

    with monkeypatch.context() as m:
        m.setattr(kernels.Contour, "nodes", recording)
        out = fn()
    return out, sorted(levels)


BATCHES = {
    "edge": lambda: kernels.edge_k12_diag_batch(_edge_levels(0.5), ModelParams(0.5, 1.4), 100,
                                                0.5, tol=1e-10),
    "bulk_c0.8": lambda: kernels.bulk_k12_diag_batch(_bulk_levels(200), ModelParams(0.5, 0.8),
                                                     200, 1.0, tol=1e-10),
    "bulk_c1.3": lambda: kernels.bulk_k12_diag_batch(_bulk_levels(60), ModelParams(0.5, 1.3),
                                                     60, 1.0, tol=1e-10),
}


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batches_match_every_level_exact(name, monkeypatch):
    (vals, err), levels = _batch_and_levels(monkeypatch, BATCHES[name])
    with monkeypatch.context() as m:
        m.setattr(kernels, "_ANCHOR_STRIDE", 1)  # every column exact
        (exact, exact_err), exact_levels = _batch_and_levels(monkeypatch, BATCHES[name])
    assert np.max(np.abs(vals - exact)) <= min(err, exact_err)
    assert levels == exact_levels
