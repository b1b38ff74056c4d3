import math

import numpy as np
import pytest

from halfspace_lpp.model import ModelParams
from halfspace_lpp import kernels, lpp, schur, stats


@pytest.fixture
def rng():
    return np.random.default_rng(606)


def test_jackknife_identical_samples():
    vals = np.ones((10, 4)) * 2.5
    mean, se = stats.jackknife_mean(vals)
    assert np.allclose(mean, 2.5)
    assert np.allclose(se, 0.0)
    with pytest.raises(stats.InputError):
        stats.jackknife_mean(np.ones((1, 3)))


def test_density_sums_to_window_count(rng):
    P = ModelParams(0.4, 0.7)
    arr = schur.sample_schur_process_batch(3, 2, P, rng, 4000)
    # the raw integer lattice: a = 1, b = 0 in index units
    lat = stats.LatticeSpec(a=1.0, b=0.0)
    ps = stats.empirical_point_stats(arr, 1, lat, window=(-3, 6))
    assert ps.mean_count == pytest.approx(float(ps.density.sum()), abs=1e-12)
    assert ps.density.shape == ps.density_se.shape == ps.levels.shape


def test_tail_count_matches_contour_formula(rng):
    # N = 40, q = 0.5, c = 0.8, a = 0 in the bulk window at t = 1
    q, c = 0.5, 0.8
    P = ModelParams(q, c)
    N = 40
    t = 1.0
    M = math.floor(t * N ** (2.0 / 3.0))
    B = 30000
    W = lpp.sample_weights_batch(N + M, N, P, rng, B)
    arr = lpp.lambda_process_batch(W, N, M, max_curves=6)
    win = kernels._BulkWindow(P, N)
    lat = stats.LatticeSpec(a=1.0 / win.scale, b=-win.center(t) / win.scale)
    mean, se = stats.empirical_tail_count(arr, M, lat, a=0.0)
    exact, _ = kernels.expected_count_tail(0.0, P, N, "bulk", t, tol=1e-8)
    assert abs(mean - exact) < 3.0 * se


def test_pair_correlation_estimator(rng):
    P = ModelParams(0.4, 0.7)
    arr = schur.sample_schur_process_batch(3, 2, P, rng, 30000)
    out = stats.pair_correlation(arr, [((1, 0), (1, 2))])
    (est, se), = out
    rho, _ = kernels.rho_k_geo([(0, 1, 0), (1, 1, 2)], P, 3, tol=1e-8)
    assert abs(est - rho) < 3.5 * se


def test_archive_roundtrip(tmp_path, rng):
    arr = rng.integers(0, 7, size=(5, 3, 4))
    arr = np.sort(arr, axis=2)
    path = tmp_path / "arch.csv"
    stats.write_curve_archive(path, arr)
    back = stats.read_curve_archive(path)
    assert np.array_equal(back, arr)


def test_corrupted_archive_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,index,time,value\n0,zz,0,not-a-number\n")
    with pytest.raises(stats.InputError) as ei:
        stats.read_curve_archive(path)
    assert str(path) in str(ei.value)


# rows of a 2 x 2 x 2 archive (sample_id, index, time, value) with one row
# replaced: before the fix an index 0 row landed in curve 2, a sample -1
# row was overwritten by sample 1, and duplicates or gaps passed unseen
@pytest.mark.parametrize("row, bad", [
    (0, "0,0,0,7"),       # index below 1
    (0, "-1,1,0,5"),      # negative sample id
    (1, "0,1,-1,5"),      # negative time
    (1, "0,1,0,5"),       # cell (0, 1, 0) twice, (0, 1, 1) missing
    (7, ""),              # cell (1, 2, 1) missing
])
def test_archive_with_misplaced_rows_errors(tmp_path, row, bad):
    path = tmp_path / "arch.csv"
    stats.write_curve_archive(path, np.arange(8).reshape(2, 2, 2))
    lines = path.read_text().splitlines()
    lines[1 + row] = bad
    path.write_text("\n".join(line for line in lines if line) + "\n")
    with pytest.raises(stats.InputError) as ei:
        stats.read_curve_archive(path)
    assert str(path) in str(ei.value)


def test_stats_csv_schema(tmp_path):
    path = tmp_path / "stats.csv"
    stats.write_stats_csv(path, [("t=1", 0.0, 1.25, 0.01, 1.24, 1.0)])
    header = path.read_text().splitlines()[0]
    assert header == "slice,x_or_window,estimate,stderr,exact,z_score"


def test_empirical_law_counts_in_first_occurrence_order(rng):
    rows = rng.integers(-2, 3, size=(3000, 3))
    ref = {}
    for row in rows:
        ref[tuple(int(v) for v in row)] = ref.get(tuple(int(v) for v in row), 0) + 1
    law = stats.empirical_law(rows)
    assert law == ref
    assert list(law) == list(ref)
    assert stats.empirical_law(np.zeros((0, 2), dtype=np.int64)) == {}


def test_tv_distance_with_missing_mass():
    # empirical (1/2, 1/4, 1/4) on a, b, c against 0.4 a + 0.5 b, 0.1 left out
    counts = {"a": 2, "b": 1, "c": 1}
    probs = {"a": 0.4, "b": 0.5}
    tv = stats.tv_distance(counts, probs, missing=0.1)
    assert tv == pytest.approx(0.5 * (0.1 + 0.25 + 0.25) + 0.05, abs=1e-15)
    assert stats.tv_distance({"a": 3}, {"a": 1.0}) == 0.0
