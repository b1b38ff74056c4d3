"""Heat-bath Markov chains on interlacing path ensembles.

Curves are stored 0-based: state[j, t] is curve j+1 at time t, curves ordered
top to bottom, interlacing state[j, t-1] >= state[j+1, t].  Endpoints are
frozen; interior sites resample uniformly on the allowed integer interval,
by one update all three chains share.  Under the interacting-pair weight,
time-0 sites resample from truncated two-sided geometric conditionals
instead, so every single step is exact.

Chains are batched over independent replicas (leading axis), one site update
per replica per step with replica-independent site choices, drawn as curve
indices, time indices, then uniforms.  The samplers add 20 n log n + 1
burn-in updates for n free sites.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, ParameterError
from .stats import _row_classes, empirical_law, tv_distance

INF = np.int64(2 ** 62)


class InfeasibilityError(ValueError):
    """Empty configuration space (or feasibility not established)."""


# ---------------------------------------------------------------------------
# configuration spaces
# ---------------------------------------------------------------------------

def maximal_config(T0, T1, x, y, f=None, g=None):
    """Pointwise-maximal element of the interlacing bridge space, or raise.

    f and g are optional ceiling/floor paths on [[T0, T1]] (arrays).  The
    space is a finite distributive lattice, so it is non-empty iff the
    maximal candidate below all upper constraints also satisfies the lower
    ones; that candidate is built right-to-left, curve by curve.
    """
    k = len(x)
    T = T1 - T0
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if np.any(x > y):
        raise InfeasibilityError("need x_i <= y_i for increasing bridges")
    cfg = np.empty((k, T + 1), dtype=np.int64)
    for j in range(k):
        cfg[j, T] = y[j]
        for r in range(T - 1, 0, -1):
            cap = cfg[j, r + 1]
            if j > 0:
                cap = min(cap, cfg[j - 1, r - 1])
            elif f is not None:
                cap = min(cap, f[r - 1])
            cfg[j, r] = cap
        cfg[j, 0] = x[j]
    # any valid config is pointwise below cfg, so cfg invalid => space empty
    valid, msg = _config_valid(cfg, x, y, f, g)
    if not valid:
        raise InfeasibilityError(f"no interlacing bridge configuration: {msg}")
    return cfg


def _config_valid(cfg, x, y, f, g):
    k, T1p = cfg.shape
    if np.any(cfg[:, 0] != x) or np.any(cfg[:, -1] != y):
        return False, "endpoint mismatch"
    if np.any(np.diff(cfg, axis=1) < 0):
        return False, "not increasing"
    if k > 1 and np.any(cfg[:-1, :-1] < cfg[1:, 1:]):
        return False, "interlacing violated"
    if f is not None and np.any(np.asarray(f)[:-1] < cfg[0, 1:]):
        return False, "ceiling violated"
    if g is not None and np.any(cfg[-1, :-1] < np.asarray(g)[1:]):
        return False, "floor violated"
    return True, ""


# ---------------------------------------------------------------------------
# uniform interlacing-bridge chain
# ---------------------------------------------------------------------------

def _uniform_update(state, r, A, B, U, f, g):
    """Resample the interior sites state[r, A, B] in place, with uniforms U,
    uniformly between their time neighbours and the interlacing curves above
    and below, or the ceiling path f and floor path g (None: unbounded); the
    uniform law is the truncated geometric one of ratio 1."""
    _, k, Tp = state.shape
    below = np.where(
        A + 1 < k,
        state[r, np.minimum(A + 1, k - 1), np.minimum(B + 1, Tp - 1)],
        g[np.minimum(B + 1, Tp - 1)] if g is not None else -INF,
    )
    above = np.where(
        A > 0,
        state[r, np.maximum(A - 1, 0), B - 1],
        f[B - 1] if f is not None else INF,
    )
    C = np.maximum(state[r, A, B - 1], below)
    D = np.minimum(state[r, A, B + 1], above)
    state[r, A, B] = _truncated_geometric(1.0, C, D, U)


def _burnin(n_sites):
    """Default burn-in of a chain with n_sites free sites, in site updates."""
    n = max(n_sites, 2)
    return int(20 * n * math.log(n)) + 1


@dataclass
class BridgeChain:
    """Uniform heat-bath chain on interlacing bridge ensembles, batched.

    Targets the uniform law on the (f, g)-interlacing bridges from x to y on
    [[T0, T1]].  state has shape (replicas, k, T1-T0+1).
    """

    T0: int
    T1: int
    x: np.ndarray
    y: np.ndarray
    replicas: int = 1
    f: np.ndarray = None
    g: np.ndarray = None
    state: np.ndarray = field(init=False)

    def __post_init__(self):
        base = maximal_config(self.T0, self.T1, self.x, self.y, self.f, self.g)
        self.state = np.repeat(base[None], self.replicas, axis=0)
        self._f = np.asarray(self.f, dtype=np.int64) if self.f is not None else None
        self._g = np.asarray(self.g, dtype=np.int64) if self.g is not None else None

    @property
    def n_sites(self):
        return len(self.x) * max(self.T1 - self.T0 - 1, 0)

    def step(self, rng):
        """One single-site update per replica."""
        T = self.T1 - self.T0
        if T < 2:
            return
        R, k, _ = self.state.shape
        A = rng.integers(0, k, size=R)
        B = rng.integers(1, T, size=R)
        U = rng.random(R)
        _uniform_update(self.state, np.arange(R), A, B, U, self._f, self._g)

    def run(self, steps, rng):
        for _ in range(steps):
            self.step(rng)


def sample_interlacing_bridges_mcmc(T0, T1, x, y, f, g, steps, rng, replicas=1):
    """Heat-bath samples of the uniform (f,g)-interlacing bridge law.

    Returns the (replicas, k, T1-T0+1) state after `steps` single-site
    updates per replica on top of the default burn-in.
    """
    chain = BridgeChain(T0, T1, np.asarray(x), np.asarray(y), replicas, f, g)
    chain.run(_burnin(chain.n_sites) + steps, rng)
    return chain.state if replicas > 1 else chain.state[0]


# ---------------------------------------------------------------------------
# monotone coupling
# ---------------------------------------------------------------------------

@dataclass
class CoupledTriple:
    """States of the three coupled chains and the shift bound M."""

    top: np.ndarray
    bot: np.ndarray
    hat: np.ndarray
    M: int

    def check(self):
        if np.any(self.top < self.bot):
            raise AssertionError("coupling order X^t >= X^b violated")
        if np.any(self.bot < self.hat):
            raise AssertionError("coupling order X^b >= X^hat violated")
        if np.any(self.hat != self.top - self.M):
            raise AssertionError("shift identity X^hat = X^t - M violated")
        return True


def monotone_coupled_chains(
    T0, T1, x_top, y_top, x_bot, y_bot, M, steps, rng, check_every=1,
    replicas=1,
):
    """Run the three monotonically coupled chains from their maximal states.

    Boundary data must satisfy x^b <= x^t <= x^b + M and likewise for y,
    and each bridge space must be non-empty (InfeasibilityError otherwise,
    before any step).
    The chains share the site sequence (A_n, B_n) and uniforms U_n (per
    replica); the ordering and shift invariants are asserted along the way.
    Returns the final CoupledTriple holding (replicas, k, T+1) states.
    """
    x_top = np.asarray(x_top, dtype=np.int64)
    y_top = np.asarray(y_top, dtype=np.int64)
    x_bot = np.asarray(x_bot, dtype=np.int64)
    y_bot = np.asarray(y_bot, dtype=np.int64)
    if np.any(x_bot > x_top) or np.any(y_bot > y_top):
        raise InfeasibilityError("need x^b <= x^t and y^b <= y^t")
    if np.any(x_top - M > x_bot) or np.any(y_top - M > y_bot):
        raise InfeasibilityError("need x^t - M <= x^b and y^t - M <= y^b")
    R = replicas
    top = np.repeat(maximal_config(T0, T1, x_top, y_top)[None], R, axis=0)
    bot = np.repeat(maximal_config(T0, T1, x_bot, y_bot)[None], R, axis=0)
    hat = np.repeat(maximal_config(T0, T1, x_top - M, y_top - M)[None], R, axis=0)
    k = len(x_top)
    T = T1 - T0
    triple = CoupledTriple(top=top, bot=bot, hat=hat, M=M)
    triple.check()
    if T < 2:
        return triple
    r = np.arange(R)
    for n in range(steps):
        A = rng.integers(0, k, size=R)
        B = rng.integers(1, T, size=R)
        U = rng.random(R)
        for state in (top, bot, hat):
            _uniform_update(state, r, A, B, U, None, None)
        if n % check_every == 0:
            triple.check()
    triple.check()
    return triple


# ---------------------------------------------------------------------------
# weighted interacting ensemble chain
# ---------------------------------------------------------------------------

def _truncated_geometric(beta, C, D, u):
    """Exact inverse-CDF draw from P(x) ~ beta^x on integer [C, D].

    Vectorized; beta = 0 degenerates to C, beta = inf to D.  C may be -INF
    (treated as an untruncated tail) only when beta > 1.
    """
    C = np.asarray(C, dtype=np.int64)
    D = np.asarray(D, dtype=np.int64)
    if beta == 0.0:
        return C.copy()
    if math.isinf(beta):
        return D.copy()
    if beta == 1.0:
        return C + np.floor(u * (D - C + 1)).astype(np.int64)
    # measure from the heavy end with ratio rho < 1
    if beta < 1.0:
        rho = beta
        L = (D - C).astype(np.float64)
        j = _trunc_geom_index(rho, L, u)
        return C + j
    rho = 1.0 / beta
    unbounded = C <= -INF // 2
    L = np.where(unbounded, np.inf, (D - C).astype(np.float64))
    j = _trunc_geom_index(rho, L, u)
    return D - j


def _trunc_geom_index(rho, L, u):
    """j with P(j) ~ rho^j on [0, L] (L may be inf), by inverse CDF."""
    lr = math.log(rho)
    total = 1.0 - np.where(np.isinf(L), 0.0, np.exp((L + 1.0) * lr))
    j = np.floor(np.log1p(-u * total) / lr).astype(np.int64)
    j = np.maximum(j, 0)
    finite = ~np.isinf(L)
    if np.any(finite):
        j[finite] = np.minimum(j[finite], L[finite].astype(np.int64))
    return j


@dataclass
class InteractingEnsembleChain:
    """Heat-bath chain for k interacting pairs with exit data y and floor g.

    Stationary law: prod_i c^(B_{2i-1}(0)-B_{2i}(0)) q^(-B_{2i-1}(0)-B_{2i}(0))
    over interlacing 2k-curve configurations with B_j(T1) = y_j and the floor
    B_{2k} interlacing above g.  Interior sites are uniform; time-0 sites are
    truncated geometric with ratio c/q (upper pair member) or 1/(cq) (lower).
    """

    T1: int
    y: np.ndarray
    params: ModelParams
    replicas: int = 1
    g: np.ndarray = None
    state: np.ndarray = field(init=False)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int64)
        if len(y) % 2 != 0:
            raise ParameterError("need an even number of exit values")
        if np.any(np.diff(y) > 0):
            raise ParameterError("exit data must be weakly decreasing")
        if self.g is not None:
            g = np.asarray(self.g, dtype=np.int64)
            if np.any(np.diff(g) < 0) or g[-1] > y[-1]:
                raise InfeasibilityError(
                    "floor must be increasing with g(T1) <= y_2k "
                    "(staircase feasibility condition)"
                )
            self._g = g
        else:
            self._g = None
        k2 = len(y)
        base = np.empty((k2, self.T1 + 1), dtype=np.int64)
        for i in range(k2 // 2):
            base[2 * i, :] = y[2 * i + 1]
            base[2 * i + 1, :] = y[2 * i + 1]
            base[2 * i, self.T1] = y[2 * i]
        base[:, self.T1] = y
        ok, msg = _config_valid(
            base, base[:, 0], y, None, self._g
        )
        if not ok:
            raise InfeasibilityError(f"staircase construction failed: {msg}")
        self.state = np.repeat(base[None], self.replicas, axis=0)
        self._beta_upper = (
            self.params.c / self.params.q
        )  # 1-based odd curves, 0-based even
        self._beta_lower = (
            math.inf if self.params.c == 0.0 else 1.0 / (self.params.c * self.params.q)
        )

    @property
    def n_sites(self):
        return self.state.shape[1] * self.T1  # sites (j, 0..T1-1)

    def step(self, rng):
        """One site update per replica; sites (j, t) with t in [0, T1-1]."""
        R, k2, _ = self.state.shape
        A = rng.integers(0, k2, size=R)
        B = rng.integers(0, self.T1, size=R)
        U = rng.random(R)
        interior = B >= 1
        r = np.arange(R)
        if np.any(interior):
            _uniform_update(self.state, r[interior], A[interior], B[interior],
                            U[interior], None, self._g)
        origin = ~interior
        if np.any(origin):
            Ao, ro, Uo = A[origin], r[origin], U[origin]
            D = self.state[ro, Ao, 1]
            below = np.where(
                Ao + 1 < k2,
                self.state[ro, np.minimum(Ao + 1, k2 - 1), 1],
                self._g[1] if self._g is not None else -INF,
            )
            C = below
            upper_member = Ao % 2 == 0
            val = np.empty(len(ro), dtype=np.int64)
            if np.any(upper_member):
                val[upper_member] = _truncated_geometric(
                    self._beta_upper, C[upper_member], D[upper_member], Uo[upper_member]
                )
            if np.any(~upper_member):
                val[~upper_member] = _truncated_geometric(
                    self._beta_lower, C[~upper_member], D[~upper_member], Uo[~upper_member]
                )
            self.state[ro, Ao, 0] = val

    def run(self, steps, rng):
        for _ in range(steps):
            self.step(rng)


def sample_interacting_ensemble_mcmc(T1, y, g, params, steps, rng, replicas=1):
    """Run the interacting-ensemble chain for `steps` site updates per
    replica on top of the default burn-in; returns the final state(s).

    Well-posedness is the staircase condition (g increasing, g(T1) <= y_2k);
    anything beyond that raises InfeasibilityError.
    """
    chain = InteractingEnsembleChain(
        T1=T1, y=np.asarray(y), params=params, replicas=replicas, g=g
    )
    chain.run(_burnin(chain.n_sites) + steps, rng)
    return chain.state if replicas > 1 else chain.state[0]


# ---------------------------------------------------------------------------
# exact enumeration of small interacting ensembles
# ---------------------------------------------------------------------------

def enumerate_interacting_configs(T1, y, g, params, floor_slack=25):
    """All configurations with weights, for tiny spaces.

    When g is None the bottom curve's values are unbounded below; they are
    cut at y_2k - floor_slack and the discarded mass is geometrically small
    (ratio c*q per level).  Returns (configs, weights) with configs an
    (n, 2k, T1+1) array.
    """
    y = np.asarray(y, dtype=np.int64)
    k2 = len(y)
    q, c = params.q, params.c
    g_arr = (
        np.asarray(g, dtype=np.int64)
        if g is not None
        else np.full(T1 + 1, int(y[-1]) - floor_slack, dtype=np.int64)
    )

    def curve_paths(hi_curve, endpoint):
        """All increasing paths p with p(T1) = endpoint, p(t) <= hi_curve(t-1)
        and p(t) >= the floor; the caller checks interlacing from below."""
        paths = [[endpoint]]
        for t in range(T1 - 1, -1, -1):
            ext = []
            for p in paths:
                hi = p[0]
                if hi_curve is not None and t >= 1:
                    hi = min(hi, hi_curve[t - 1])
                lo = int(g_arr[t])  # crude floor keeping ranges finite
                for v in range(lo, hi + 1):
                    ext.append([v] + p)
            paths = ext
        return paths

    configs = []

    def rec(j, acc):
        if j == k2:
            arr = np.array(acc, dtype=np.int64)
            ok, _ = _config_valid(arr, arr[:, 0], y, None, g_arr if g is not None else None)
            if ok:
                configs.append(arr)
            return
        hi_curve = acc[-1] if acc else None
        for p in curve_paths(hi_curve, int(y[j])):
            rec(j + 1, acc + [p])

    rec(0, [])
    if not configs:
        raise InfeasibilityError("no configurations in the enumerated window")
    configs = np.stack(configs)
    x1 = configs[:, 0::2, 0].sum(axis=1)
    x2 = configs[:, 1::2, 0].sum(axis=1)
    logw = (x1 - x2) * (math.log(c) if c > 0 else -math.inf) - (x1 + x2) * math.log(q)
    if c == 0.0:
        logw = np.where(x1 == x2, -(x1 + x2) * math.log(q), -math.inf)
    w = np.exp(logw - logw.max())
    return configs, w / w.sum()


def gibbs_consistency_check(samples, T, k, params, min_hits=50):
    """Empirical interacting-pair Gibbs check on Schur process samples.

    samples: (B, K, M+1) line-ensemble array with K >= 2k+1 and M >= T.
    For the three most frequent conditioning classes (y, g) the conditional
    law of the top 2k curves on [[0, T]] is compared with the exact
    enumeration.  Returns a report dict with per-class TV distances.
    """
    B, K, Mp1 = samples.shape
    if K < 2 * k + 1 or Mp1 <= T:
        raise ParameterError("samples too shallow for the requested window")
    ys = samples[:, : 2 * k, T]
    gpath = samples[:, 2 * k, : T + 1]
    keys = np.concatenate([ys, gpath], axis=1)
    perm, starts, counts = _row_classes(keys)
    order = np.argsort(-counts)
    report = {"classes": [], "warnings": []}
    for ci in order[:3]:
        hits = int(counts[ci])
        cls = keys[perm[starts[ci]]]
        y = tuple(int(v) for v in cls[: 2 * k])
        g = np.asarray(cls[2 * k :], dtype=np.int64)
        if hits < min_hits:
            report["warnings"].append(
                f"class y={y} g={tuple(g)} has only {hits} hits; skipped"
            )
            continue
        members = perm[starts[ci] : starts[ci] + hits]
        sel = samples[:, : 2 * k, : T + 1][members].reshape(hits, -1)
        configs, probs = enumerate_interacting_configs(T, np.array(y), g, params)
        flat = {tuple(cfg.ravel()): p for cfg, p in zip(configs, probs)}
        tv = tv_distance(empirical_law(sel), flat)
        report["classes"].append(
            {"y": y, "g": tuple(int(v) for v in g), "hits": hits, "tv": tv}
        )
    return report
