"""Factored double walks drop the nodes whose weight is negligible against
the axis' largest (contours._NEGLIGIBLE): every kernel agrees with the sum
over all nodes (_NEGLIGIBLE = 0) far inside its returned error, a
non-finite factor still raises at the first level pair, and no axis is
ever emptied."""

import numpy as np
import pytest

from halfspace_lpp import contours as ct
from halfspace_lpp import kernels
from halfspace_lpp.model import ModelParams, ScalingConstantsBulk

EDGE = ModelParams(0.5, 1.4)
SC = ScalingConstantsBulk(0.5)


def _values(out):
    """[(value, error)] of a kernel entry point's result."""
    if isinstance(out, kernels.KernelValue2x2):
        out = vars(out)
    if isinstance(out, dict):
        return [(v, out["err"]) for k, v in out.items() if k != "err"]
    return [out]


CASES = {
    "edge_prelimit": lambda: kernels.edge_prelimit_components(
        0.5, kernels.edge_lattice_point(-0.3, EDGE, 100, 0.5)[0],
        2.0, kernels.edge_lattice_point(0.2, EDGE, 100, 2.0)[0], EDGE, 100, tol=1e-8),
    "bulk_prelimit": lambda: kernels.bulk_prelimit_components(
        1.0, kernels.bulk_lattice_point(0.0, ModelParams(0.5, 1.3), 200, 1.0)[0],
        1.5, kernels.bulk_lattice_point(0.3, ModelParams(0.5, 1.3), 200, 1.5)[0],
        ModelParams(0.5, 1.3), 200, tol=1e-8),
    "bulk_limit": lambda: kernels.bulk_limit_components(1.0, 0.2, 1.5, -0.4, SC, tol=1e-10),
    "hs_limit": lambda: kernels.kernel_limit_bulk_from_hs(0.5, 0.3, 1.0, 0.6, SC, tol=1e-9),
    "kernel_geo": lambda: kernels.kernel_geo(1, 2, 2, -1, ModelParams(0.4, 0.7), 3, 1, 2),
    "edge_diag": lambda: kernels.edge_k12_diag_batch(
        np.linspace(-0.5, 0.5, 20), EDGE, 100, 0.5, tol=1e-9),
    "bulk_diag": lambda: kernels.bulk_k12_diag_batch(
        np.linspace(-1.0, 2.0, 40), ModelParams(0.5, 0.8), 200, 1.0, tol=1e-10),
    "edge_tail": lambda: kernels.expected_count_tail(0.1, EDGE, 100, "edge", 0.5, tol=1e-9),
    "bulk_tail": lambda: kernels.expected_count_tail(
        0.1, ModelParams(0.5, 1.3), 60, "bulk", 1.0, tol=1e-9),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernels_match_the_sum_over_every_node(name, monkeypatch):
    kept = []
    keep = ct._drop_negligible

    def counted(z, U):
        out = keep(z, U)
        kept.append((len(z), len(out[0])))
        return out

    monkeypatch.setattr(ct, "_drop_negligible", counted)
    got = _values(CASES[name]())
    dropped = sum(n - k for n, k in kept)
    monkeypatch.setattr(ct, "_NEGLIGIBLE", 0.0)
    want = _values(CASES[name]())
    for (v, e), (v0, e0) in zip(got, want):
        assert np.max(np.abs(np.asarray(v) - v0)) <= 1e-2 * e0, name
        assert e == pytest.approx(e0, rel=1e-2), name
    assert kept and all(k > 0 for _, k in kept)
    if name.endswith(("prelimit", "diag")):
        assert dropped > 0, name  # the steepest-descent factors do fall off


CIRCLES = (ct.Contour([ct.Circle(0.0, 1.0)]), ct.Contour([ct.Circle(0.0, 0.5)]))


@pytest.mark.parametrize("axis", [0, 1])
def test_nan_factor_at_one_node_raises_at_the_first_level_pair(axis):
    def poisoned(z):
        out = np.exp(40.0 * z) / z  # weights spread over e^80: most nodes negligible
        out[3] = np.nan
        return out

    factors = [lambda z: np.exp(40.0 * z) / z, np.cos]
    factors[axis] = poisoned
    with pytest.raises(ct.QuadratureError, match="not finite") as info:
        ct.integrate_double(kernels._k12_coupling, *CIRCLES, 1e-10, *factors)
    assert info.value.levels == (0, 0)


def test_all_zero_factor_keeps_every_node():
    z, U = CIRCLES[0].nodes(0)
    assert ct._drop_negligible(z, np.zeros_like(U))[0] is z
    assert ct._drop_negligible(z, np.zeros((len(z), 3)))[0] is z
    val, err = ct.integrate_double(kernels._k12_coupling, *CIRCLES, 1e-10,
                                   lambda z: np.zeros_like(z), np.cos)
    assert val == 0.0 and err == 0.0


def test_no_axis_is_ever_emptied():
    rng = np.random.default_rng(11)
    z = np.arange(200) + 0j
    for spread in (1.0, 1e30, 1e200, 1e300, np.inf):
        for _ in range(20):
            logs = rng.uniform(0.0, min(np.log(spread), 800.0), size=(200, 3))
            U = np.exp(-logs) * np.exp(1j * rng.uniform(0, 6.3, size=(200, 3)))
            for W in (U, U[:, 0]):
                zk, Wk = ct._drop_negligible(z, W)
                assert len(zk) > 0 and len(zk) == len(Wk)
                # the largest weight of each column stays
                top = np.abs(W).argmax(axis=0)
                assert set(np.atleast_1d(z[top].real)) <= set(zk.real)
    # a column of its own keeps a node no other column would
    U = np.array([[1.0, 0.0], [1e-50, 1e-60], [1e-60, 1.0]])
    assert list(ct._drop_negligible(np.arange(3.0), U)[0]) == [0.0, 2.0]
    # an infinite weight keeps every node, for the walk to raise on
    U = np.array([1.0, np.inf, 1e-300])
    assert len(ct._drop_negligible(np.arange(3.0), U)[0]) == 3


def test_unfactored_and_single_walks_keep_every_node(monkeypatch):
    calls = []
    monkeypatch.setattr(ct, "_drop_negligible", lambda z, U: calls.append(len(z)) or (z, U))
    ct.integrate_double(lambda z, w: np.exp(5.0 * z) * np.cos(w) / (z - w), *CIRCLES, 1e-10)
    ct.integrate_single(lambda z: np.exp(40.0 * z) / z, CIRCLES[0], 1e-10)
    assert calls == []
    ct.integrate_double(kernels._k12_coupling, *CIRCLES, 1e-10,
                        lambda z: np.exp(5.0 * z) / z)
    assert len(calls) >= 2  # the factored z axis only, at two levels or more
