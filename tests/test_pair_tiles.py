"""The tiled pair sums of the double-contour engine: agreement with a
one-block evaluation, couplings writing into the engine's tile buffers,
and the memory a pair sum takes."""

import threading
import tracemalloc

import numpy as np
import pytest

from halfspace_lpp import contours as ct
from halfspace_lpp import kernels

# each coupling with its plain numpy expression, operation for operation
COUPLINGS = {
    "k12": (kernels._k12_coupling, lambda z, w: (z * w - 1.0) / (z - w)),
    "k11": (kernels._k11_coupling, lambda z, w: (z - w) / (z * w - 1.0)),
    "tail": (kernels._tail_coupling, lambda z, w: (z * w - 1.0) / ((z - w) * (z - w))),
    "limit_k12": (kernels._limit_k12_coupling, lambda z, w: (z + w) / (z - w)),
    "mobius": (kernels._mobius(0.3, -0.2),
               lambda z, w: ((z + 0.3) - (w - 0.2)) / ((z + 0.3) + (w - 0.2))),
}


def _one_block_sums(F, z, U, w, V):
    """The pair sums with F evaluated on the whole grid at once."""
    vals = F(z[:, None], w[None, :])
    return (np.einsum("i...,i...->...", U, vals @ V),
            np.einsum("i...,i...->...", np.abs(U), np.abs(vals) @ np.abs(V)))


def _grid(nz, nw, points, seed):
    """Nodes on the circles |z| = 1 and |w| = 0.5 (every coupling is
    analytic there) with random complex weights, (n,) or (n, points)."""
    rng = np.random.default_rng(seed)
    z = np.exp(2j * np.pi * (np.arange(nz) + 0.5) / nz)
    w = 0.5 * np.exp(2j * np.pi * np.arange(nw) / nw)
    shape = (lambda n: (n,)) if points is None else (lambda n: (n, points))
    U = rng.standard_normal(shape(nz)) + 1j * rng.standard_normal(shape(nz))
    V = rng.standard_normal(shape(nw)) + 1j * rng.standard_normal(shape(nw))
    return z, U, w, V


# (nz, nw, points): several full tiles plus a remainder tile, and a grid
# smaller than one tile, for scalar and (n, P) weights
GRIDS = [(1000, 300, None), (40, 50, None), (600, 2000, 3), (30, 20, 4)]


@pytest.mark.parametrize("nz, nw, points", GRIDS)
def test_tiled_sums_match_one_block(nz, nw, points):
    tile = ct._TILE_PAIRS if points is None else ct._BATCH_TILE_PAIRS
    rows = tile // nw
    assert (nz > 2 * rows and nz % rows) or nz * nw < tile
    z, U, w, V = _grid(nz, nw, points, seed=nz + nw)
    for name, (coupling, _) in COUPLINGS.items():
        val, mass = ct._block_sums(coupling, z, U, w, V)
        ref_val, ref_mass = _one_block_sums(coupling, z, U, w, V)
        assert np.all(np.abs(val - ref_val) <= 1e-13 * np.abs(ref_val)), name
        assert np.all(np.abs(mass - ref_mass) <= 1e-13 * ref_mass), name


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_coupling_in_engine_equals_plain_expression(name):
    coupling, plain = COUPLINGS[name]
    z, U, w, V = _grid(500, 300, None, seed=3)
    raw, copies, plains = [], [], []

    def recorded(zt, wt):
        out = coupling(zt, wt)
        raw.append(out)
        copies.append(out.copy())
        plains.append(plain(zt, wt))
        return out

    ct._block_sums(recorded, z, U, w, V)
    assert len(raw) > 2
    # the coupling wrote into the engine's tile buffer, reused tile to tile
    assert np.shares_memory(raw[0], raw[1])
    for got, want in zip(copies, plains):
        assert np.array_equal(got, want)


def test_couplings_outside_engine_do_not_share_memory():
    z = np.exp(1j * np.arange(7.0))[:, None]
    w = 0.5 * np.exp(0.3j * np.arange(5.0))[None, :]
    a = kernels._k12_coupling(z, w)
    b = kernels._k12_coupling(z, w)
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, b) and np.array_equal(a, COUPLINGS["k12"][1](z, w))


def test_two_couplings_in_one_integrand():
    cz = ct.Contour([ct.full_circle(0.0, 1.0)])
    cw = ct.Contour([ct.full_circle(0.0, 0.5)])
    a = lambda z: np.exp(z) / z
    b = lambda w: 1.0 / w
    k12, k11 = COUPLINGS["k12"][1], COUPLINGS["k11"][1]
    got = ct.integrate_double(
        lambda z, w: kernels._k12_coupling(z, w) - kernels._k11_coupling(z, w),
        cz, cw, z_factor=a, w_factor=b)
    want = ct.integrate_double(lambda z, w: k12(z, w) - k11(z, w), cz, cw,
                               z_factor=a, w_factor=b)
    assert got == want
    assert abs(want[0]) > 0.5


def test_raising_coupling_leaves_no_buffer_lent():
    cz = ct.Contour([ct.full_circle(0.0, 1.0)])
    cw = ct.Contour([ct.full_circle(0.0, 0.5)])
    shapes = []

    def failing(z, w):
        shapes.append((z.shape, w.shape))
        raise ZeroDivisionError("coupling failed")

    bufsize = np.getbufsize()
    with pytest.raises(ZeroDivisionError):
        ct.integrate_double(failing, cz, cw)
    assert np.getbufsize() == bufsize
    zshape, wshape = shapes[0]
    z = np.full(zshape, 1.0 + 0.0j)
    w = np.full(wshape, 0.5 + 0.0j)
    out, tmp = ct.pair_buffers(z, w)
    assert out.flags.owndata and tmp.flags.owndata
    assert kernels._k12_coupling(z, w).flags.owndata


def test_sum_nested_in_a_coupling_gets_its_own_buffers():
    z, U, w, V = _grid(500, 300, None, seed=5)

    def nesting(zt, wt):
        out = kernels._k12_coupling(zt, wt)  # the outer tile's buffer
        ct._block_sums(kernels._k11_coupling, z[:60], U[:60], w[:40], V[:40])
        return out

    assert ct._block_sums(nesting, z, U, w, V) == ct._block_sums(
        kernels._k12_coupling, z, U, w, V)


def test_pair_sum_memory_stays_tile_sized():
    z, U = ct.Contour([ct.full_circle(0.0, 1.0)]).nodes(3)
    w, V = ct.Contour([ct.full_circle(0.0, 0.5)]).nodes(3)
    assert len(z) >= 2048 and len(w) >= 2048
    tracemalloc.start()
    try:
        ct._block_sums(kernels._k12_coupling, z, U, w, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_tile_buffers_fit_rules_of_other_lengths():
    # 32, 29 and 27 rows of 1000, 1100 and 1200 pairs fill a tile to 32000,
    # 31900 and 32400 pairs: the first sum's buffers must hold the third's
    peaks = []

    def sums():
        tracemalloc.start()
        try:
            for nw in (1000, 1100, 1200):
                z, U, w, V = _grid(100, nw, None, seed=nw)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                ct._block_sums(kernels._k12_coupling, z, U, w, V)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()

    # a fresh thread holds no tile buffers yet
    thread = threading.Thread(target=sums, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(peaks) == 3
    buffer = 16 * ct._TILE_PAIRS // 2  # half a complex tile buffer
    assert peaks[0] > 2 * buffer and max(peaks[1:]) < buffer
