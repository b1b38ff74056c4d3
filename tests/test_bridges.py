import math

import numpy as np
import pytest
from scipy import stats as sstats
from scipy.integrate import quad

from halfspace_lpp.model import ModelParams, ParameterError
from halfspace_lpp import bridges


@pytest.fixture
def rng():
    return np.random.default_rng(4242)


def test_brownian_bridge_endpoints_and_moments(rng):
    times, vals = bridges.sample_brownian_bridge(0.0, 2.0, 1.0, -0.5, 64, rng,
                                                 size=20000)
    assert np.all(vals[:, 0] == 1.0)
    assert np.all(vals[:, -1] == -0.5)
    mid = vals[:, 32]
    # Var B((a+b)/2) = (b-a)/4
    v = mid.var()
    assert abs(v - 0.5) < 5.0 * 0.5 * math.sqrt(2.0 / 20000)
    # covariance s (b - t)/(b - a) after centering
    c = np.cov(vals[:, 16], vals[:, 48])[0, 1]
    assert abs(c - 0.5 * 0.5 / 2.0) < 0.01
    with pytest.raises(ParameterError):
        bridges.sample_brownian_bridge(1.0, 1.0, 0.0, 0.0, 8, rng)


def test_bessel_bridge_positive_and_pinned(rng):
    times, V = bridges.sample_bessel_bridge(1.0, 0.8, 32, rng, size=10000)
    assert np.all(V[:, 1:-1] > 0.0)
    assert np.allclose(V[:, -1], 0.8)
    with pytest.raises(ParameterError):
        bridges.sample_bessel_bridge(1.0, -1.0, 8, rng)


def test_bessel_onepoint_density_chi2(rng):
    b, y, n = 1.0, 0.8, 60000
    _, V = bridges.sample_bessel_bridge(b, y, 64, rng, size=n)
    v = V[:, 32]
    edges = np.linspace(0.01, 3.0, 22)
    cnt, _ = np.histogram(v, edges)
    probs = np.array(
        [quad(lambda u: bridges.bessel_onepoint_density(u, b / 2, b, y), lo, hi)[0]
         for lo, hi in zip(edges[:-1], edges[1:])]
    )
    exp = probs * n
    mask = exp > 10
    chi2 = (((cnt[mask] - exp[mask]) ** 2) / exp[mask]).sum()
    p = sstats.chi2.sf(chi2, mask.sum() - 1)
    assert p > 1e-3


def test_bessel_large_y_linear(rng):
    # endpoint far above the noise scale: path is near the straight line
    b, y = 1.0, 40.0
    _, V = bridges.sample_bessel_bridge(b, y, 32, rng, size=4000)
    mid = V[:, 16].mean()
    assert abs(mid - y / 2.0) < 0.05 * (y / 2.0)


def test_pinned_pair_construction(rng):
    b, y1, y2 = 1.0, 1.0, -0.5
    _, Q = bridges.sample_pinned_pair(b, y1, y2, 64, rng, size=30000)
    assert np.allclose(Q[:, 0, 0], Q[:, 1, 0])
    assert np.all(Q[:, 0] >= Q[:, 1] - 1e-12)
    assert np.allclose(Q[:, 0, -1], y1) and np.allclose(Q[:, 1, -1], y2)
    z = Q[:, 0, 0]
    n = len(z)
    assert abs(z.mean() - 0.25) < 4.0 * math.sqrt(0.5 / n)
    assert abs(z.var() - 0.5) < 5.0 * 0.5 * math.sqrt(2.0 / n)


def test_pinned_ensemble_rates(rng):
    # k = 1 with no floor: acceptance rate 1
    _, _, rate = bridges.sample_pinned_ensemble(1.0, [1.0, 0.0], None, 32, rng,
                                                size=50)
    assert rate == 1.0
    # wide separation: acceptance rate > 0.99
    _, samp, rate = bridges.sample_pinned_ensemble(
        1.0, [9.0, 7.0, -7.0, -9.0], None, 64, rng, size=300, max_tries=400
    )
    assert rate > 0.99
    assert np.all(samp[:, 1, 1:-1] > samp[:, 2, 1:-1])
    # exhausted budget raises with a rate estimate
    with pytest.raises(bridges.RejectionError):
        bridges.sample_pinned_ensemble(
            1.0, [0.02, 0.01, -0.01, -0.02], None, 64, rng, size=500, max_tries=5
        )


def test_grid_refinement_stability(rng):
    b, y1, y2 = 1.0, 1.0, -1.0
    _, Qc = bridges.sample_pinned_pair(b, y1, y2, 256, rng, size=20000)
    _, Qf = bridges.sample_pinned_pair(b, y1, y2, 512, rng, size=20000)
    vc = Qc[:, 0, 0].var()
    vf = Qf[:, 0, 0].var()
    mc_sigma = 0.5 * math.sqrt(2.0 / 20000)
    assert abs(vc - vf) < 2.0 * mc_sigma * 2.0


def test_discrete_to_pinned_sweep(rng):
    P = ModelParams(0.5, 0.3)
    rep = bridges.discrete_to_pinned_check([100, 400], 1.0, (1.0, -1.0), P, rng,
                                           n_samples=60000, n_cont=60000)
    assert rep.gap_tv[400] < 0.05
    decreasing = sum(
        rep_d[100] > rep_d[400]
        for rep_d in (rep.gap_tv, rep.sum_ks, rep.top_ks)
    )
    assert decreasing >= 2


def test_pinned_ensemble_blocks_fill_exactly(rng):
    y = [1.5, 0.75, -0.75, -1.5]
    g = np.full(33, -2.2)
    times, samp, rate = bridges.sample_pinned_ensemble(1.0, y, g, 32, rng,
                                                       max_tries=5000, size=120)
    assert samp.shape == (120, 4, 33) and len(times) == 33
    assert np.all(np.isfinite(samp))
    assert np.all(samp[:, 0, 0] == samp[:, 1, 0])
    assert np.all(samp[:, 1, 1:-1] > samp[:, 2, 1:-1])
    assert np.all(samp[:, 3, 1:-1] > g[1:-1])
    assert 0.0 < rate < 1.0
    _, none, _ = bridges.sample_pinned_ensemble(1.0, y, g, 32, rng, size=0)
    assert none.shape == (0, 4, 33)


def test_pinned_ensemble_budget_counts_candidates(rng):
    with pytest.raises(bridges.RejectionError) as info:
        bridges.sample_pinned_ensemble(1.0, [0.02, 0.01, -0.01, -0.02], None, 64,
                                       rng, size=50, max_tries=40)
    # the budget counts candidates: 40 were drawn, and at these gaps almost none pass
    assert info.value.acceptance_rate <= 1.0 / 40
    assert "in 40 tries" in str(info.value)
