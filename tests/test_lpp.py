import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from halfspace_lpp.model import ModelParams, ParameterError, ScalingConstantsBulk, ScalingConstantsEdge
from halfspace_lpp import lpp


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def test_model_params_domain():
    ModelParams(0.5, 0.0)
    ModelParams(0.5, 1.9)
    with pytest.raises(ParameterError):
        ModelParams(0.5, 2.0)
    with pytest.raises(ParameterError):
        ModelParams(1.1, 0.5)
    assert ModelParams(0.5, 0.8).phase == "subcritical"
    assert ModelParams(0.5, 1.0).phase == "critical"
    assert ModelParams(0.5, 1.4).phase == "supercritical"


def test_scaling_constant_identities():
    for q in (0.2, 0.5, 0.8):
        sc = ScalingConstantsBulk(q)
        assert abs(sc.sigma1 / sc.sigma - (2.0 * sc.f1) ** -0.5) < 1e-14
    cst = ScalingConstantsEdge(0.5, 1.4)
    assert abs(cst.kappa_bar - 8.0) < 1e-12
    assert abs(cst.p2 - 5.0 / 9.0) < 1e-14
    assert abs(cst.C_top - 26.0 / 9.0) < 1e-14
    assert cst.z_crit(0.0) == pytest.approx(1.0)
    for kap in (0.0, 2.0, 7.9):
        assert 0.5 < cst.z_crit(kap) < 1.4


def test_weights_symmetry_and_diagonal(rng):
    P = ModelParams(0.5, 0.0)
    W = lpp.sample_weights_batch(4, 4, P, rng, 1)[0]
    assert np.array_equal(W, W.T)
    # c = 0 puts all diagonal mass at zero
    Wb = lpp.sample_weights_batch(3, 3, P, rng, 200)
    assert np.all(Wb[:, np.arange(3), np.arange(3)] == 0)
    # rectangular arrays mirror only the overlapping block
    W2 = lpp.sample_weights_batch(6, 3, ModelParams(0.5, 0.8), rng, 1)[0]
    assert np.array_equal(W2[:3, :3], W2[:3, :3].T)


def test_offdiagonal_mean(rng):
    q = 0.5
    Wb = lpp.sample_weights_batch(2, 2, ModelParams(q, 0.8), rng, 200000)
    vals = Wb[:, 0, 1]
    target = q * q / (1.0 - q * q)
    assert abs(vals.mean() - target) < 4.0 * vals.std() / np.sqrt(len(vals))
    assert np.array_equal(Wb[:, 0, 1], Wb[:, 1, 0])


def test_g1_hand_example():
    W = np.array([[3, 1], [1, 2]])
    assert lpp.lpp_g1(W, 2, 2) == 6
    assert lpp.lpp_g1(np.zeros((3, 3), dtype=int), 3, 3) == 0
    assert lpp.lpp_g1(W, 1, 1) == 3


def test_g1_symmetry(rng):
    P = ModelParams(0.5, 0.8)
    W = lpp.sample_weights_batch(6, 6, P, rng, 1)[0]
    for m, n in [(2, 5), (4, 3), (6, 6)]:
        assert lpp.lpp_g1(W, m, n) == lpp.lpp_g1(W, n, m)


def test_g1_bounds_error():
    W = np.zeros((2, 2), dtype=int)
    with pytest.raises(lpp.BoundsError):
        lpp.lpp_g1(W, 3, 1)


def test_rsk_hand_example():
    W = np.array([[3, 1], [1, 2]])
    assert lpp.rsk_shape(W, 2, 2) == (6, 1)
    assert lpp.rsk_shape(np.zeros((2, 2), dtype=int), 2, 2) == ()
    W2 = np.array([[2], [5]])
    assert lpp.rsk_shape(W2, 2, 1) == (7,)


def test_bruteforce_examples():
    W = np.array([[3, 1], [1, 2]])
    assert lpp.lpp_gk_bruteforce(W, 2, 2, 2) == 7
    assert lpp.lpp_gk_bruteforce(W, 2, 2, 1) == lpp.lpp_g1(W, 2, 2)
    # covering convention for k > min(m, n)
    assert lpp.lpp_gk_bruteforce(W, 2, 2, 3) == W.sum()
    with pytest.raises(lpp.ResourceError):
        lpp.lpp_gk_bruteforce(np.zeros((5, 4), dtype=int), 5, 4, 1)


def test_rsk_matches_bruteforce(rng):
    # every grid with m*n <= 12, sparse and dense weights
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            for hi in (2, 6):
                W = rng.integers(0, hi, size=(m, n))
                lam = lpp.rsk_shape(W, m, n)
                lam = lam + (0,) * (min(m, n) - len(lam))
                pre = np.cumsum(lam)
                for k in range(1, min(m, n) + 1):
                    assert lpp.lpp_gk_bruteforce(W, m, n, k) == pre[k - 1]


def test_lambda_process_invariants(rng):
    P = ModelParams(0.5, 0.8)
    W = lpp.sample_weights_batch(12, 5, P, rng, 1)
    curves = lpp.lambda_process_batch(W, 5, 7)[0]
    assert curves.shape == (5, 8)
    # curves are non-decreasing in t and interlace: L_i(t-1) >= L_{i+1}(t)
    assert np.all(np.diff(curves, axis=1) >= 0)
    assert np.all(curves[:-1, :-1] >= curves[1:, 1:])
    # terminal weight convention: |lambda(m, n)| = sum of the rectangle
    for t in (0, 3, 7):
        assert curves[:, t].sum() == W[0, : 5 + t, :5].sum()
    # zero environment gives identically zero curves
    assert np.all(lpp.lambda_process_batch(np.zeros((1, 8, 3), dtype=int), 3, 5) == 0)
    # M = 0 single column
    single = lpp.lambda_process_batch(W, 5, 0)[0]
    assert single.shape == (5, 1)
    assert tuple(single[:, 0]) == lpp.rsk_shape(W[0], 5, 5) + (0,) * (
        5 - len(lpp.rsk_shape(W[0], 5, 5))
    )


def test_truncated_curves_match_full(rng):
    P = ModelParams(0.4, 1.2)
    W = lpp.sample_weights_batch(10, 4, P, rng, 3)
    full = lpp.lambda_process_batch(W, 4, 6)
    top2 = lpp.lambda_process_batch(W, 4, 6, max_curves=2)
    assert np.array_equal(full[:, :2], top2)


def test_stream_sampler_agrees_with_batch(rng):
    # identical seeds give identical top curves whether or not W materializes
    P = ModelParams(0.5, 1.4)
    r1 = np.random.default_rng(5)
    tops = lpp.sample_top_curves(6, 4, P, r1, 10, n_curves=2)
    r2 = np.random.default_rng(5)
    W = np.zeros((10, 10, 6), dtype=np.int64)
    top_block = lpp.sample_weights_batch(6, 6, P, r2, 10)
    W[:, :6, :] = top_block
    for i in range(6, 10):
        W[:, i, :] = lpp.geometric_icdf(r2.random((10, 6)), 0.25)
    ref = lpp.lambda_process_batch(W, 6, 4, max_curves=2)
    assert np.array_equal(tops, ref)


def test_rescale_bulk_centering():
    q = 0.5
    sc = ScalingConstantsBulk(q)
    assert sc.sigma == pytest.approx(np.sqrt(2.0))
    N = 64
    times = np.arange(41)
    center = 2 * q * N / (1 - q) + q * times / (1 - q)
    curves = np.rint(center)[None, None, :].astype(np.int64)
    out = lpp.rescale_bulk(curves, N, sc, np.array([0, 16, 32]))
    assert out.shape == (1, 1, 3)
    assert np.max(np.abs(out)) < 1.0 / (sc.sigma * N ** (1 / 3))


def test_rescale_top_exact_line():
    q, c = 0.5, 1.4
    cst = ScalingConstantsEdge(q, c)
    N = 50
    times = np.arange(0, 4 * N + 1)
    line = cst.C_top * N + cst.p2 * times
    tops = np.rint(line)[None, :].astype(np.int64)
    vals = lpp.rescale_top_batch(tops, N, cst, [0.0, 1.0, 3.0])
    assert np.max(np.abs(vals)) < 1.0 / np.sqrt(N)
    with pytest.raises(ParameterError):
        lpp.rescale_top_batch(tops, N, cst, [cst.kappa_bar])
    # t = -1 would read tops[:, -N], a time from the far end of the curve
    with pytest.raises(ParameterError, match=r"\[0, kappa_bar"):
        lpp.rescale_top_batch(tops, N, cst, [-1.0, 1.0])


def test_geometric_icdf_at_zero():
    # rng.random() can return 0.0; it is read as the smallest positive draw
    for alpha in (0.25, 0.64):
        with np.errstate(all="raise"):
            w0 = lpp.geometric_icdf(0.0, alpha)
            assert w0 == lpp.geometric_icdf(2.0 ** -53, alpha)
        assert 0 <= w0 < 200


def _insert_into_row_counts(row, incoming):
    """Count-vector row insertion, kept here as the reference for the
    prefix-sum tableau."""
    A = np.zeros_like(incoming)
    A[:, 1:] = np.cumsum(incoming, axis=1)[:, :-1]
    R = np.cumsum(row, axis=1)
    B = R + np.minimum(np.minimum.accumulate(A - R, axis=1), 0)
    bumped = np.diff(B, axis=1, prepend=0)
    return row - bumped + incoming, bumped


def test_rsk_prefix_sums_match_count_insertion():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        B, m, n = (int(v) for v in rng.integers(1, 9, size=3))
        max_rows = int(rng.integers(1, n + 2))
        words = rng.geometric(rng.uniform(0.2, 0.9), size=(m, B, n)) - 1
        tab = lpp.RSKTableau(B, n, max_rows)
        rows = []
        for word in words:
            tab.insert_counts(word)
            incoming = word.astype(np.int64)
            for k in range(len(rows)):
                rows[k], incoming = _insert_into_row_counts(rows[k], incoming)
            if incoming.any() and len(rows) < max_rows:
                rows.append(incoming)
            assert len(tab.rows) == len(rows)
            for R, row in zip(tab.rows, rows):
                assert R.dtype == np.int32
                assert np.array_equal(R, np.cumsum(row, axis=1))
        shape = tab.shape()
        assert shape.dtype == np.int64
        ref = np.zeros((B, max_rows), dtype=np.int64)
        for k, row in enumerate(rows):
            ref[:, k] = row.sum(axis=1)
        assert np.array_equal(shape, ref)


def test_rsk_int32_guard():
    tab = lpp.RSKTableau(2, 2, 1)
    tab.insert_counts(np.array([[2 ** 30, 2 ** 30 - 1], [0, 1]]))
    assert tab.shape().tolist() == [[2 ** 31 - 1], [1]]
    with pytest.raises(lpp.ResourceError):
        tab.insert_counts(np.array([[1, 0], [0, 0]]))
    # the refused word leaves the tableau as it was
    assert tab.shape().tolist() == [[2 ** 31 - 1], [1]]
    with pytest.raises(lpp.ResourceError):
        lpp.RSKTableau(1, 1, 1).insert_counts(np.array([[2 ** 40]]))


def test_first_row_is_g1_after_every_word():
    # the max-plus row recursion on the first row is the LPP recursion
    rng = np.random.default_rng(11)
    for B, m, n in ((1, 1, 1), (5, 7, 4), (4, 3, 9), (30, 12, 12)):
        W = rng.geometric(0.4, size=(B, m, n)) - 1
        G = np.stack([lpp.lpp_g1_grid(w) for w in W])
        tab = lpp.RSKTableau(B, n, 1)
        for i in range(m):
            tab.insert_counts(W[:, i])
            first = tab.rows[0] if tab.rows else np.zeros((B, n))  # no letter yet
            assert np.array_equal(first, G[:, i])


def test_insert_counts_allocates_less_than_a_word():
    B, n = 3000, 100
    rng = np.random.default_rng(4)
    words = [(rng.geometric(0.6, size=(n, B)) - 1).astype(np.int32) for _ in range(4)]
    tab = lpp.RSKTableau(B, n, 2)
    for word in words:
        tab.insert_counts(word.T)
    assert len(tab.rows) == 2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(200):
            tab.insert_counts(words[i % 4].T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < words[0].nbytes, (peak - before) / words[0].nbytes


def test_top_curves_refuse_fresh_words_past_int32():
    # q^2 = 1 - 2e-9 puts a draw u < 0.0137 past 2^31 - 1; at N = 1 the
    # block is one diagonal cell of Geom(cq), so only the rows past N overflow
    P = ModelParams(1.0 - 1e-9, 0.5)
    with pytest.raises(lpp.ResourceError, match="geometric weight"):
        lpp.sample_top_curves(1, 3, P, np.random.default_rng(2), 1000, n_curves=1)


def test_geometric_icdf_input_untouched_and_scalar():
    u = np.random.default_rng(8).random((4, 5))
    u[0, 0] = 0.0
    before = u.copy()
    w = lpp.geometric_icdf(u, 0.36)
    assert np.array_equal(u, before)
    assert w.dtype == np.int64 and w.shape == u.shape
    for (i, j), v in np.ndenumerate(u):
        s = lpp.geometric_icdf(v, 0.36)
        assert np.ndim(s) == 0 and s == w[i, j]
    assert lpp.geometric_icdf(0.5, 0.0) == 0


def _materialised_weights(m, n, params, rng, size, dtype=np.int64):
    """The mirrored sampler as it stood before the packed draws: whole
    (size, m, n) environments, every cell drawn and the lower triangle of the
    r x r block then overwritten by its mirror, the diagonal drawn last."""
    w = np.empty((size, m, n), dtype=dtype)
    r = min(m, n)
    below = np.tri(r, k=-1, dtype=bool)
    step = max(1, (1 << 16) // (m * n))
    for s in range(0, size, step):
        blk = w[s : s + step]
        vals = lpp.geometric_icdf(rng.random(blk.shape), params.q * params.q)
        assert vals.max(initial=0) <= np.iinfo(dtype).max
        blk[...] = vals
        np.copyto(blk[:, :r, :r], blk[:, :r, :r].transpose(0, 2, 1), where=below)
    d = np.arange(r)
    w[:, d, d] = lpp.geometric_icdf(rng.random((size, r)), params.c * params.q)
    return w


def _materialised_top_curves(N, M, params, rng, size, n_curves, dtype=np.int64):
    """sample_top_curves as it stood before the packed draws, building each
    chunk's (chunk, N, N) environment block."""
    chunk = max(1, (1 << 25) // (N * N))
    if size > chunk:
        return np.concatenate([
            _materialised_top_curves(N, M, params, rng, min(chunk, size - i0),
                                     n_curves, dtype)
            for i0 in range(0, size, chunk)
        ])
    top = _materialised_weights(N, N, params, rng, size, dtype)
    tab = lpp.RSKTableau(size, N, n_curves)
    out = np.zeros((size, n_curves, M + 1), dtype=np.int64)
    for i in range(N):
        tab.insert_counts(top[:, i].astype(np.int64))
    out[:, :, 0] = tab.shape()
    for t in range(1, M + 1):
        tab.insert_counts(lpp.geometric_icdf(rng.random((size, N)), params.q * params.q))
        out[:, :, t] = tab.shape()
    return out


@pytest.mark.parametrize("m,n", [(4, 4), (5, 3), (3, 5), (1, 1), (1, 6), (6, 1),
                                 (120, 40), (40, 120)])
def test_packed_weights_equal_materialised(m, n):
    P = ModelParams(0.5, 1.4)
    for size in (1, 7, 700):
        got = lpp.sample_weights_batch(m, n, P, np.random.default_rng([m, n, size]), size)
        ref = _materialised_weights(m, n, P, np.random.default_rng([m, n, size]), size)
        assert got.dtype == np.int64 and got.shape == (size, m, n)
        assert np.array_equal(got, ref)
    curves = lpp.lambda_process_batch(got, min(m, n), m - min(m, n), max_curves=2)
    assert np.array_equal(
        curves, lpp.lambda_process_batch(ref, min(m, n), m - min(m, n), max_curves=2))


@pytest.mark.parametrize("N,M,size,n_curves", [(1, 3, 5, 1), (6, 4, 10, 2),
                                               (30, 20, 300, 3), (600, 3, 100, 1)])
def test_packed_top_curves_equal_materialised(N, M, size, n_curves):
    # (600, 3, 100) spans two chunks of 93 and 7 samples; its reference block
    # is held as int16 (asserted to fit) to keep the test small
    P = ModelParams(0.5, 1.4)
    got = lpp.sample_top_curves(N, M, P, np.random.default_rng(N), size, n_curves)
    ref = _materialised_top_curves(N, M, P, np.random.default_rng(N), size, n_curves,
                                   dtype=np.int16)
    assert np.array_equal(got, ref)


def test_packed_weights_int32_guard():
    # q or c*q close to 1 puts single weights far past 2^31 - 1
    for P in (ModelParams(1.0 - 1e-12, 0.5), ModelParams(0.5, 2.0 - 1e-12)):
        with pytest.raises(lpp.ResourceError):
            lpp.sample_weights_batch(3, 2, P, np.random.default_rng(1), 4)
        with pytest.raises(lpp.ResourceError):
            lpp.sample_top_curves(3, 2, P, np.random.default_rng(1), 4)


def test_top_curves_never_build_the_environment_block():
    # the mirrored int64 block of 3000 samples at N = 100 alone is 240 MB
    tracemalloc.start()
    try:
        lpp.sample_top_curves(100, 1, ModelParams(0.5, 1.4), np.random.default_rng(3),
                              3000, n_curves=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 90e6, peak / 1e6


def test_weights_batch_holds_one_sample_range_beside_its_output():
    # the packed draws of all 3000 samples at 120 x 40 are 48 MB beside the
    # 115 MB int64 output; one sample range of them is under 4 MB
    tracemalloc.start()
    try:
        w = lpp.sample_weights_batch(120, 40, ModelParams(0.5, 1.4),
                                     np.random.default_rng(6), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - w.nbytes < 0.1 * w.nbytes, (peak - w.nbytes) / 1e6


_RUN_JOBS = lpp._run_jobs


def _ranged_run(monkeypatch, sampler, cpus, bit_generator=np.random.PCG64):
    """sampler(rng) with `cpus` usable CPUs; returns its output, the parts
    of every top-curve chunk, and the caller's next draws."""
    parts = []

    def counted(jobs):
        parts.append(len(jobs))
        return _RUN_JOBS(jobs)

    monkeypatch.setattr(lpp, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(lpp, "_run_jobs", counted)
    rng = np.random.Generator(bit_generator(11))
    rng.integers(0, 100, dtype=np.int32)  # leaves a buffered 32-bit half
    out = sampler(rng)
    return out, parts, (rng.integers(0, 100, dtype=np.int32), rng.random(4))


@pytest.mark.parametrize("N,M,size,K,ranged", [
    (1, 3, 100_000, 1, [2]),          # N = 1: 2 * _MIN_RANGE_WEIGHTS samples
    (1, 3, 99_999, 1, [1]),
    (50, 0, 1999, 2, [1]),            # M = 0, just below 2 * _MIN_PART
    (50, 0, 2001, 2, [2]),            # and just above it
    (50, 5, 4000, 3, [4]),
    (120, 2, 4800, 1, [2, 2, 1]),     # chunks of 2330, 2330 and 140 samples
])
def test_top_curve_ranges_equal_one_range(monkeypatch, N, M, size, K, ranged):
    P = ModelParams(0.5, 1.4)
    sampler = lambda rng: lpp.sample_top_curves(N, M, P, rng, size, K)
    # up to four ranges on two cores, switching threads every 10 us
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got, parts, after = _ranged_run(monkeypatch, sampler, cpus=4)
    finally:
        sys.setswitchinterval(interval)
    ref, one, ref_after = _ranged_run(monkeypatch, sampler, cpus=1)
    assert parts == ranged and one == [1] * len(ranged)
    assert got.tobytes() == ref.tobytes()
    assert after[0] == ref_after[0] and after[1].tobytes() == ref_after[1].tobytes()


def test_weights_batch_ranges_equal_one_range(monkeypatch):
    P = ModelParams(0.5, 1.4)
    assert lpp._RANGE_WEIGHTS // (60 * 40) < 1000 // 2  # three sample ranges
    sampler = lambda rng: lpp.sample_weights_batch(60, 40, P, rng, 1000)
    got, _, after = _ranged_run(monkeypatch, sampler, cpus=1)
    monkeypatch.setattr(lpp, "_RANGE_WEIGHTS", 1 << 40)
    ref, _, ref_after = _ranged_run(monkeypatch, sampler, cpus=1)
    assert got.tobytes() == ref.tobytes()
    assert after[0] == ref_after[0] and after[1].tobytes() == ref_after[1].tobytes()


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_top_curves_without_exact_advance_run_as_one_range(monkeypatch, bit_generator):
    # MT19937 has no advance; Philox's counts blocks of four outputs.  A
    # PCG64 stream of this shape runs as two ranges.
    P = ModelParams(0.5, 1.4)
    sampler = lambda rng: lpp.sample_top_curves(50, 2, P, rng, 2500, 2)
    got, parts, after = _ranged_run(monkeypatch, sampler, 4, bit_generator)
    assert parts == [1]
    rng = np.random.Generator(bit_generator(11))
    rng.integers(0, 100, dtype=np.int32)
    assert np.array_equal(got, _loop_top_curves(50, 2, P, rng, 2500, 2))
    assert after[0] == rng.integers(0, 100, dtype=np.int32)
    assert np.array_equal(after[1], rng.random(4))


def test_top_curve_range_error_propagates_and_joins(monkeypatch):
    # two ranges: the one in the calling thread fails at once, the one on
    # the worker takes 0.3 s longer; the error surfaces after both are done
    int32_weights, shapes = lpp._int32_weights, lpp._shapes
    running, finished = set(), []

    def failing(u, alpha, out):
        if threading.current_thread() is threading.main_thread():
            raise lpp.ResourceError("geometric weight in the last range")
        return int32_weights(u, alpha, out)

    def slow(words, n, first, out):
        me = threading.current_thread()
        running.add(me)
        try:
            if me is not threading.main_thread():
                time.sleep(0.3)
            shapes(words, n, first, out)
            finished.append(me)
        finally:
            running.discard(me)

    monkeypatch.setattr(lpp, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lpp, "_int32_weights", failing)
    monkeypatch.setattr(lpp, "_shapes", slow)
    with pytest.raises(lpp.ResourceError, match="last range"):
        lpp.sample_top_curves(50, 3, ModelParams(0.5, 1.4), np.random.default_rng(4),
                              2000)
    assert not running
    assert len(finished) == 1 and finished[0] is not threading.main_thread()


def _loop_rsk_shape_batch(W_batch, m, n):
    """rsk_shape_batch as its own tableau loop, kept as the reference for the
    shared shape loop."""
    tab = lpp.RSKTableau(W_batch.shape[0], n, min(m, n))
    for i in range(m):
        tab.insert_counts(W_batch[:, i, :n])
    return tab.shape()


def _loop_lambda_process_batch(W_batch, N, M, max_curves=None):
    K = min(N, max_curves) if max_curves else N
    tab = lpp.RSKTableau(W_batch.shape[0], N, K)
    out = np.zeros((W_batch.shape[0], K, M + 1), dtype=np.int64)
    for i in range(N + M):
        tab.insert_counts(W_batch[:, i, :N])
        if i >= N - 1:
            out[:, :, i - N + 1] = tab.shape()
    return out


def _loop_top_curves(N, M, params, rng, size, n_curves):
    chunk = max(1, (1 << 25) // max(N * N, 1))
    if size > chunk:
        return np.concatenate([
            _loop_top_curves(N, M, params, rng, min(chunk, size - i0), n_curves)
            for i0 in range(0, size, chunk)
        ])
    packed = np.empty((N * (N + 1) // 2, size), dtype=np.int32)
    index = lpp._symmetric_draws(N, N, params, lambda k: rng, size, 0, size, packed)
    tab = lpp.RSKTableau(size, N, n_curves)
    out = np.zeros((size, n_curves, M + 1), dtype=np.int64)
    for i in range(N):
        tab.insert_counts(packed[index[i]].T)
    out[:, :, 0] = tab.shape()
    for t in range(1, M + 1):
        tab.insert_counts(lpp.geometric_icdf(rng.random((size, N)), params.q ** 2))
        out[:, :, t] = tab.shape()
    return out


def test_shared_shape_loop_equals_tableau_loops():
    P = ModelParams(0.5, 1.2)
    for m, n, size in ((1, 1, 3), (5, 3, 20), (3, 5, 20), (14, 6, 40)):
        W = lpp.sample_weights_batch(m, n, P, np.random.default_rng([m, n]), size)
        assert np.array_equal(lpp.rsk_shape_batch(W, m, n), _loop_rsk_shape_batch(W, m, n))
        r = min(m, n)
        for K in (None, 1, 2):
            assert np.array_equal(lpp.lambda_process_batch(W, r, m - r, max_curves=K),
                                  _loop_lambda_process_batch(W, r, m - r, K))
    # (600, 2, 100) spans two chunks of 93 and 7 samples
    for N, M, size, K in ((1, 2, 4, 1), (7, 5, 30, 3), (600, 2, 100, 1)):
        got = lpp.sample_top_curves(N, M, P, np.random.default_rng(N), size, K)
        ref = _loop_top_curves(N, M, P, np.random.default_rng(N), size, K)
        assert np.array_equal(got, ref)
