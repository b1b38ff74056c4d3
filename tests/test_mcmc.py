import numpy as np
import pytest
from scipy import stats as sstats

from halfspace_lpp.model import ModelParams
from halfspace_lpp import interacting as ia
from halfspace_lpp import schur


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def paper_maximal_config(T0, T1, x, y):
    """Maximal state min(x_{i-s}, y_i) of the free (f,g absent) space, the
    paper's formula kept as the reference for maximal_config."""
    k = len(x)
    T = T1 - T0
    cfg = np.empty((k, T + 1), dtype=np.int64)
    for i in range(k):
        for s in range(T + 1):
            xv = x[i - s] if i - s >= 0 else ia.INF
            cfg[i, s] = min(xv, y[i])
    return cfg


def test_maximal_config_matches_paper_formula(rng):
    for _ in range(20):
        k = int(rng.integers(1, 4))
        T = int(rng.integers(2, 6))
        x = np.sort(rng.integers(0, 5, size=k))[::-1]
        y = x + np.sort(rng.integers(0, 5, size=k))[::-1]
        y = np.maximum.accumulate(y[::-1])[::-1]  # keep weakly decreasing
        x = np.minimum(x, y)
        if np.any(np.diff(x) > 0) or np.any(np.diff(y) > 0):
            continue
        a = ia.maximal_config(0, T, x, y)
        b = paper_maximal_config(0, T, x, y)
        assert np.array_equal(a, b)


def test_maximal_config_infeasible():
    with pytest.raises(ia.InfeasibilityError):
        ia.maximal_config(0, 2, [0], [-1])
    # interlacing forces emptiness: yded by endpoint order
    with pytest.raises(ia.InfeasibilityError):
        ia.maximal_config(0, 1, [0, 0], [0, 1])


def test_bridge_chain_uniform_on_two_paths(rng):
    # Omega(0, 2, 0, 1) has exactly the paths (0,0,1) and (0,1,1)
    st = ia.sample_interlacing_bridges_mcmc(0, 2, [0], [1], None, None,
                                            steps=3, rng=rng, replicas=4000)
    counts = np.bincount(st[:, 0, 1], minlength=2)
    assert counts.sum() == 4000
    p = sstats.chisquare(counts).pvalue
    assert p > 1e-3


def test_bridge_chain_frozen_case(rng):
    st = ia.sample_interlacing_bridges_mcmc(0, 3, [2], [2], None, None,
                                            steps=25, rng=rng)
    assert np.all(st == 2)


def test_bridge_chain_respects_floor_and_ceiling(rng):
    f = np.array([5, 5, 5, 5, 5])
    g = np.array([-1, -1, -1, 0, 0])
    st = ia.sample_interlacing_bridges_mcmc(0, 4, [1, 0], [4, 2], f, g,
                                            steps=200, rng=rng, replicas=64)
    # interlacing with the floor: bottom curve (index 1) vs g
    assert np.all(st[:, 1, :-1] >= g[None, 1:])
    # ceiling: top curve below f with the interlacing shift
    assert np.all(st[:, 0, 1:] <= f[None, :-1])
    # interlacing between the curves
    assert np.all(st[:, 0, :-1] >= st[:, 1, 1:])


def test_monotone_coupling_invariants(rng):
    tri = ia.monotone_coupled_chains(0, 5, [5, 3], [9, 7], [4, 2], [8, 6],
                                     M=1, steps=800, rng=rng, replicas=8)
    tri.check()
    assert np.all(tri.hat == tri.top - 1)
    # equal boundary data and M = 0: the three chains coincide
    tri0 = ia.monotone_coupled_chains(0, 4, [3, 1], [6, 4], [3, 1], [6, 4],
                                      M=0, steps=500, rng=rng)
    assert np.array_equal(tri0.top, tri0.bot)
    assert np.array_equal(tri0.bot, tri0.hat)
    with pytest.raises(ia.InfeasibilityError):
        ia.monotone_coupled_chains(0, 4, [3], [6], [4], [6], M=1, steps=1,
                                   rng=rng)


def test_monotone_coupling_rejects_empty_bridge_space(rng):
    # the coupling conditions hold, but no bridge runs from x to y: x > y,
    # or y breaks interlacing at the last step
    state = rng.bit_generator.state
    for x, y in (([0], [-1]), ([0, 0], [0, 1])):
        with pytest.raises(ia.InfeasibilityError):
            ia.monotone_coupled_chains(0, 3, x, y, x, y, M=0, steps=5, rng=rng)
    assert rng.bit_generator.state == state  # raised before any step


def test_truncated_geometric_law(rng):
    # beta < 1 on [0, 3]: compare with the exact distribution
    u = rng.random(200000)
    vals = ia._truncated_geometric(0.6, np.zeros(len(u), dtype=np.int64),
                                   np.full(len(u), 3, dtype=np.int64), u)
    w = 0.6 ** np.arange(4)
    w /= w.sum()
    emp = np.bincount(vals, minlength=4) / len(vals)
    assert np.max(np.abs(emp - w)) < 0.005
    # beta > 1 with unbounded lower end: D - j, j geometric(1/beta)
    vals = ia._truncated_geometric(2.0, np.full(len(u), -(2 ** 62), dtype=np.int64),
                                   np.full(len(u), 5, dtype=np.int64), u)
    assert np.all(vals <= 5)
    emp0 = np.mean(vals == 5)
    assert abs(emp0 - 0.5) < 0.01


def test_interacting_chain_stationary_vs_exact(rng):
    P = ModelParams(0.5, 0.8)
    st = ia.sample_interacting_ensemble_mcmc(1, [1, 0], None, P, steps=20,
                                             rng=rng, replicas=20000)
    X1, X2, pr = schur.origin_law(1, (1, 0), P)
    exact = {(int(a), int(b)): p for a, b, p in zip(X1, X2, pr)}
    emp = {}
    for a, b in zip(st[:, 0, 0], st[:, 1, 0]):
        emp[(int(a), int(b))] = emp.get((int(a), int(b)), 0) + 1
    tv = 0.0
    for key in set(exact) | set(emp):
        tv += abs(exact.get(key, 0.0) - emp.get(key, 0) / 20000)
    assert 0.5 * tv < 0.02
    # state-space membership: endpoints and interlacing are exact
    assert np.all(st[:, 0, 1] == 1) and np.all(st[:, 1, 1] == 0)
    assert np.all(st[:, 0, 0] >= st[:, 1, 1])


def test_interacting_chain_c_zero_pins(rng):
    P = ModelParams(0.5, 0.0)
    st = ia.sample_interacting_ensemble_mcmc(2, [3, 1], None, P, steps=30,
                                             rng=rng, replicas=1500)
    assert np.all(st[:, 0, 0] == st[:, 1, 0])


def test_interacting_chain_floor_wellposed(rng):
    P = ModelParams(0.5, 0.8)
    g = np.array([0, 0, 1])
    st = ia.sample_interacting_ensemble_mcmc(2, [4, 1], g, P, steps=50,
                                             rng=rng, replicas=256)
    assert np.all(st[:, 1, :-1] >= g[None, 1:])
    bad_g = np.array([0, 0, 5])
    with pytest.raises(ia.InfeasibilityError):
        ia.sample_interacting_ensemble_mcmc(2, [4, 1], bad_g, P, steps=1, rng=rng)


def test_enumeration_matches_origin_marginal():
    P = ModelParams(0.5, 0.8)
    cfgs, w = ia.enumerate_interacting_configs(1, np.array([1, 0]), None, P,
                                               floor_slack=30)
    X1, X2, pr = schur.origin_law(1, (1, 0), P)
    marg = {}
    for cfg, p in zip(cfgs, w):
        key = (int(cfg[0, 0]), int(cfg[1, 0]))
        marg[key] = marg.get(key, 0.0) + p
    for a, b, p in zip(X1, X2, pr):
        assert marg.get((int(a), int(b)), 0.0) == pytest.approx(p, abs=1e-9)


def test_gibbs_consistency_on_schur_samples(rng):
    # N=2 forces lambda_3 = 0; pad the third curve explicitly
    P = ModelParams(0.3, 0.6)
    arr = schur.sample_schur_process_batch(2, 1, P, rng, 120000)
    arr = np.pad(arr, ((0, 0), (0, 1), (0, 0)))
    rep = ia.gibbs_consistency_check(arr, T=1, k=1, params=P, min_hits=2000)
    assert rep["classes"], "no conditioning class had enough hits"
    for cl in rep["classes"]:
        assert cl["tv"] < 0.05, cl
    # zero-hit window: request absurdly many hits, expect warnings not failure
    rep2 = ia.gibbs_consistency_check(arr, T=1, k=1, params=P,
                                      min_hits=10 ** 9)
    assert rep2["warnings"] and not rep2["classes"]


def _loop_bounds(state, A, B, f, g):
    """Heat-bath interval [C, D] of sites (A, B), one per replica, kept as the
    reference for the shared update."""
    R, k, Tp = state.shape
    r = np.arange(R)
    below = np.where(A + 1 < k,
                     state[r, np.minimum(A + 1, k - 1), np.minimum(B + 1, Tp - 1)],
                     g[np.minimum(B + 1, Tp - 1)] if g is not None else -ia.INF)
    above = np.where(A > 0, state[r, np.maximum(A - 1, 0), B - 1],
                     f[B - 1] if f is not None else ia.INF)
    return (np.maximum(state[r, A, B - 1], below),
            np.minimum(state[r, A, B + 1], above))


def _loop_bridge_chain(state, T, f, g, n_steps, rng):
    R, k, _ = state.shape
    for _ in range(n_steps):
        A = rng.integers(0, k, size=R)
        B = rng.integers(1, T, size=R)
        C, D = _loop_bounds(state, A, B, f, g)
        U = rng.random(R)
        state[np.arange(R), A, B] = C + np.floor(U * (D - C + 1)).astype(np.int64)
    return state


def _loop_coupled(states, T, n_steps, rng):
    R, k, _ = states[0].shape
    r = np.arange(R)
    for _ in range(n_steps):
        A = rng.integers(0, k, size=R)
        B = rng.integers(1, T, size=R)
        U = rng.random(R)
        for state in states:
            C, D = _loop_bounds(state, A, B, None, None)
            state[r, A, B] = C + (U * (D - C + 1)).astype(np.int64)
    return states


def _loop_weighted_chain(chain, n_steps, rng):
    state, g = chain.state, chain._g
    R, k2, _ = state.shape
    r = np.arange(R)
    for _ in range(n_steps):
        A = rng.integers(0, k2, size=R)
        B = rng.integers(0, chain.T1, size=R)
        U = rng.random(R)
        interior = B >= 1
        if np.any(interior):
            Ai, Bi, ri = A[interior], B[interior], r[interior]
            C, D = _loop_bounds(state[interior], Ai, Bi, None, g)
            state[ri, Ai, Bi] = C + np.floor(U[interior] * (D - C + 1)).astype(np.int64)
        origin = ~interior
        Ao, ro, Uo = A[origin], r[origin], U[origin]
        D = state[ro, Ao, 1]
        C = np.where(Ao + 1 < k2, state[ro, np.minimum(Ao + 1, k2 - 1), 1],
                     g[1] if g is not None else -ia.INF)
        upper = Ao % 2 == 0
        val = np.empty(len(ro), dtype=np.int64)
        val[upper] = ia._truncated_geometric(chain._beta_upper, C[upper], D[upper], Uo[upper])
        val[~upper] = ia._truncated_geometric(chain._beta_lower, C[~upper], D[~upper],
                                              Uo[~upper])
        state[ro, Ao, 0] = val
    return state


def test_chains_equal_reference_update_loops():
    # f/g-bounded uniform chain
    f, g = np.array([5, 5, 5, 5, 5]), np.array([-1, -1, -1, 0, 0])
    chain = ia.BridgeChain(0, 4, np.array([1, 0]), np.array([4, 2]), 50, f, g)
    ref = _loop_bridge_chain(chain.state.copy(), 4, f, g, 400, np.random.default_rng(1))
    chain.run(400, np.random.default_rng(1))
    assert np.array_equal(chain.state, ref)
    # coupled triple
    tri = ia.monotone_coupled_chains(0, 6, [5, 3], [9, 7], [4, 2], [8, 6], M=1,
                                     steps=500, rng=np.random.default_rng(2), replicas=30)
    starts = [np.repeat(ia.maximal_config(0, 6, x, y)[None], 30, axis=0)
              for x, y in (([5, 3], [9, 7]), ([4, 2], [8, 6]), ([4, 2], [8, 6]))]
    ref = _loop_coupled(starts, 6, 500, np.random.default_rng(2))
    for got, want in zip((tri.top, tri.bot, tri.hat), ref):
        assert np.array_equal(got, want)
    # g-floored and free weighted chains
    for T1, y, g, P in ((2, [4, 1], np.array([0, 0, 1]), ModelParams(0.5, 0.8)),
                        (3, [5, 3, 2, 0], None, ModelParams(0.5, 1.3))):
        chain = ia.InteractingEnsembleChain(T1, np.array(y), P, 64, g)
        twin = ia.InteractingEnsembleChain(T1, np.array(y), P, 64, g)
        chain.run(600, np.random.default_rng(3))
        assert np.array_equal(chain.state, _loop_weighted_chain(twin, 600,
                                                                np.random.default_rng(3)))
