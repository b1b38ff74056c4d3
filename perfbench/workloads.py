"""The benchmark's three workloads.

A workload turns a seed into inputs (`__init__`, timed as set-up), lists its
operations (`operations`: named zero-argument calls into the program's public
entry points, timed as one round), computes reference values once per run
(`references`, not timed) and checks the outputs of a round (`check`, not
timed).  Every round repeats the same operations on the same inputs.
Where an `hslpp` command does the job, the operation runs it in-process
through `halfspace_lpp.cli.main`; otherwise it calls the module function.
"""

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import checks
import reference

from halfspace_lpp import cli, bridges, interacting, kernels, lpp, schur, stats
from halfspace_lpp.model import ModelParams, ScalingConstantsBulk, ScalingConstantsEdge


FAILED = object()  # output of an operation that raised


def run_cli(argv):
    """hslpp in-process, with its printed report kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = None
    stream = None  # second word of the input SeedSequence

    def __init__(self, seed, outdir):
        self.seed = int(seed)
        self.outdir = Path(outdir)
        self.inputs = self.make_inputs(np.random.default_rng([self.seed, self.stream]))
        self.results = {}
        self.seconds = {}

    def run_round(self, ops):
        """Run every operation once, in order, keeping each output in
        self.results (a later operation may read an earlier one's output).
        Returns the wall time from the first call to the end of the last and
        the list of operations that raised."""
        self.results = {}
        self.seconds = {}
        failures = []
        t0 = time.perf_counter()
        for name, fn in ops:
            t = time.perf_counter()
            try:
                self.results[name] = fn()
            except Exception as exc:  # counted as a failed operation
                self.results[name] = FAILED
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
            self.seconds[name] = time.perf_counter() - t
        return time.perf_counter() - t0, failures

    def out(self, name):
        path = self.outdir / name
        path.mkdir(parents=True, exist_ok=True)
        return str(path)

    def make_inputs(self, rng):
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    def references(self):
        return {}

    def check(self, res, refs):
        raise NotImplementedError


def _ok(res, *names):
    return all(res.get(n, FAILED) is not FAILED for n in names)


def _point(rng, times, levels):
    """(s, x, t, y) with s, t uniform on `times` and x, y on `levels`."""
    s, t = rng.uniform(*times, 2)
    x, y = rng.uniform(*levels, 2)
    return (float(s), float(x), float(t), float(y))


# ---------------------------------------------------------------------------
# kernel-pointwise
# ---------------------------------------------------------------------------

class KernelPointwise(Workload):
    """Single kernel values at high quadrature level: edge and bulk prelimit
    components, the limit kernels and the exact finite-N kernel."""

    name = "kernel-pointwise"
    stream = 1
    EDGE = ModelParams(0.5, 1.4)
    EDGE_POINT = (0.5, -0.3, 2.0, 0.2)
    BULK_POINT = (1.0, 0.0, 1.5, 0.3)
    GEO = ModelParams(reference.PARAMS["q"], reference.PARAMS["c"])

    def make_inputs(self, rng):
        inp = {}
        # Fixed edge pair: the level the N=100 I12 block reaches, and with it
        # the cost of the whole workload, moves with x and y (1.5 s or 4 s)
        s, x0, t, y0 = self.EDGE_POINT
        inp["edge"] = {
            N: (s, kernels.edge_lattice_point(x0, self.EDGE, N, s)[0],
                t, kernels.edge_lattice_point(y0, self.EDGE, N, t)[0])
            for N in (100, 400)
        }
        # Fixed bulk point: away from it the I22 and R22 errors do not fall
        # monotonically over this N range (see CHANGES.md)
        bs, bx, bt, by = self.BULK_POINT
        inp["bulk"] = {}
        for c in (0.8, 1.3):
            P = ModelParams(0.5, c)
            for N in (50, 200, 800):
                inp["bulk"][c, N] = (bs, kernels.bulk_lattice_point(bx, P, N, bs)[0],
                                     bt, kernels.bulk_lattice_point(by, P, N, bt)[0])
        inp["r22"] = [_point(rng, (0.2, 2.0), (-1.5, 1.5)) for _ in range(5)]
        inp["conj"] = [_point(rng, (0.3, 1.5), (-1.0, 1.0)) for _ in range(5)]
        cells = [(j, x) for j in range(reference.PARAMS["M"] + 1) for x in reference.LEVELS]
        pick = rng.choice(len(cells), size=8, replace=False)
        inp["rho1"] = [cells[i] for i in pick[:4]]
        inp["rho2"] = [tuple(sorted((cells[pick[i]], cells[pick[i + 1]])))
                       for i in (4, 6)]
        return inp

    def operations(self):
        inp = self.inputs
        ops = []
        for N, pt in inp["edge"].items():
            ops.append((f"edge_N{N}", lambda pt=pt, N=N: kernels.edge_prelimit_components(
                *pt, self.EDGE, N, tol=1e-8)))
        sc = ScalingConstantsBulk(0.5)
        for (c, N), pt in inp["bulk"].items():
            ops.append((f"bulk_limit_c{c}_N{N}", lambda pt=pt: kernels.bulk_limit_components(
                *pt, sc, tol=1e-10)))
            ops.append((f"bulk_c{c}_N{N}", lambda pt=pt, c=c, N=N: kernels.bulk_prelimit_components(
                *pt, ModelParams(0.5, c), N, tol=1e-8)))
        for i, pt in enumerate(inp["r22"]):
            ops.append((f"r22_{i}", lambda pt=pt: kernels.bulk_limit_components(
                *pt, sc, tol=1e-10)))
        pts = json.dumps([list(inp["conj"][0])])
        ops.append(("kernel_eval", lambda: run_cli([
            "kernel-eval", "--out", self.out("kernel_eval"), "--tol", "1e-9",
            "--set", "regime=bulk_limit", "--set", "q=0.5", "--set", f"points={pts}"])))
        for i, pt in enumerate(inp["conj"][1:], start=1):
            ops.append((f"limit_bulk_{i}", lambda pt=pt: kernels.kernel_limit_bulk(
                *pt, sc, tol=1e-9)))
        for i, pt in enumerate(inp["conj"]):
            ops.append((f"limit_from_hs_{i}", lambda pt=pt: kernels.kernel_limit_bulk_from_hs(
                *pt, sc, tol=1e-9)))
        N = reference.PARAMS["N"]
        for j, x in inp["rho1"]:
            ops.append((f"rho1_{j}_{x}", lambda j=j, x=x: kernels.rho1_geo(
                x, self.GEO, N, j, tol=1e-9)))
        for (ja, xa), (jb, xb) in inp["rho2"]:
            ops.append((f"rho2_{ja}_{xa}_{jb}_{xb}", lambda a=(ja, xa), b=(jb, xb): kernels.rho_k_geo(
                [(0, a[0], a[1]), (1, b[0], b[1])], self.GEO, N, tol=1e-9)))
        return ops

    def references(self):
        return {"enum": reference.load()}

    def check(self, res, refs):
        inp = self.inputs
        probs = []
        cst = ScalingConstantsEdge(self.EDGE.q, self.EDGE.c)
        if _ok(res, "edge_N100", "edge_N400"):
            e12, e11 = [], []
            for N, (s, x, t, y) in inp["edge"].items():
                comp = res[f"edge_N{N}"]
                target = checks.brownian_kernel(cst.kappa_bar - s, x, cst.kappa_bar - t, y)
                e12.append(abs(comp["I12"] + comp["R12"] - target))
                e11.append(abs(comp["I11"]))
            probs += checks.strictly_falling("edge |K12 - K_BM|", e12)
            probs += checks.strictly_falling("edge |K11|", e11)
        sc = ScalingConstantsBulk(0.5)
        for c in (0.8, 1.3):
            names = [f"bulk{p}_c{c}_N{N}" for N in (50, 200, 800) for p in ("", "_limit")]
            if not _ok(res, *names):
                continue
            pref = (1.0 - c) ** 2 * sc.sigma1 ** 2
            errs = {k: [] for k in ("I11", "I12", "I22", "R12", "R22")}
            for N in (50, 200, 800):
                comp, lim = res[f"bulk_c{c}_N{N}"], res[f"bulk_limit_c{c}_N{N}"]
                n23 = N ** (2.0 / 3.0)
                scaled = {"I11": comp["I11"] / (pref * n23), "I12": comp["I12"],
                          "I22": comp["I22"] * pref * n23, "R12": comp["R12"],
                          "R22": comp["R22"] * pref * n23}
                for k in errs:
                    errs[k].append(abs(scaled[k] - lim[k]))
            for k, e in errs.items():
                probs += checks.strictly_falling(f"bulk c={c} {k}", e)
        for i, pt in enumerate(inp["r22"]):
            if _ok(res, f"r22_{i}"):
                probs += checks.close(f"R22 at {pt}", res[f"r22_{i}"]["R22"],
                                      checks.r22_gaussian(*pt, sc.f1), 1e-8)
        limit = {}
        if _ok(res, "kernel_eval"):
            if res["kernel_eval"] != 0:
                probs.append(f"kernel-eval exited with {res['kernel_eval']}")
            else:
                with open(Path(self.out("kernel_eval")) / "kernel_values.json") as fh:
                    recs = json.load(fh)
                limit[0] = np.array([[complex(r["value_re"], r["value_im"]) for r in recs[:2]],
                                     [complex(r["value_re"], r["value_im"]) for r in recs[2:]]])
        for i in range(1, len(inp["conj"])):
            if _ok(res, f"limit_bulk_{i}"):
                limit[i] = res[f"limit_bulk_{i}"].as_matrix()
        for i, mat in limit.items():
            if _ok(res, f"limit_from_hs_{i}"):
                diff = float(np.max(np.abs(mat - res[f"limit_from_hs_{i}"].as_matrix())))
                if diff >= 1e-6:
                    probs.append(f"bulk limit kernel vs conjugated half-space kernel at "
                                 f"{inp['conj'][i]}: {diff:.2e} >= 1e-6")
        enum = refs["enum"]
        for j, x in inp["rho1"]:
            if _ok(res, f"rho1_{j}_{x}"):
                val, err = res[f"rho1_{j}_{x}"]
                probs += checks.exact_correlation(f"rho1({j},{x})", val, err,
                                                  enum["rho1"][f"{j},{x}"],
                                                  enum["missing_mass"], 1)
        for (ja, xa), (jb, xb) in inp["rho2"]:
            name = f"rho2_{ja}_{xa}_{jb}_{xb}"
            if _ok(res, name):
                val, err = res[name]
                # Pf of a 4x4 block matrix: three products of two entries
                probs += checks.exact_correlation(name, val, err,
                                                  enum["rho2"][f"{ja},{xa};{jb},{xb}"],
                                                  enum["missing_mass"], 6)
        return probs


# ---------------------------------------------------------------------------
# kernel-tail-sums
# ---------------------------------------------------------------------------

class KernelTailSums(Workload):
    """Diagonal K12 on hundreds of lattice levels per call (the batched GEMM
    path) and the summed-kernel tail formulas."""

    name = "kernel-tail-sums"
    stream = 2
    EDGE = ModelParams(0.5, 1.4)
    EDGE_N = 100
    # c = 0.8 needs N >= 130 for the contour nesting that makes K12 a
    # density; at c = 1.3 and N = 200, 220 levels miss part of the tail
    BULK_N = {0.8: 200, 1.3: 60}
    # kappa of the threshold count: here |E - 1| + err at N=400 (3e-4) sits
    # far below |E - 1| at N=100 (1.9e-2); at kappa <= 0.7 the returned error
    # of the N=400 count alone exceeds the N=100 |E - 1| (see CHANGES.md)
    THRESHOLD_KAPPA = 0.9

    def make_inputs(self, rng):
        inp = {}
        cst = ScalingConstantsEdge(self.EDGE.q, self.EDGE.c)
        N = self.EDGE_N
        kap = 0.5 + rng.uniform(-0.1, 0.1)
        a = rng.uniform(-0.3, 0.3)
        s2g, rn = cst.sigma2, math.sqrt(N)
        m0 = math.ceil(a * s2g * rn + cst.h2_kappa(kap) * N - 1e-9)
        inp["edge"] = {"a": a, "kappa": kap, "scale": s2g * rn,
                       "xs": (np.arange(m0, m0 + 300) - cst.h2_kappa(kap) * N) / (s2g * rn)}
        sb = ScalingConstantsBulk(0.5)
        inp["bulk"] = {}
        for c, Nb in self.BULK_N.items():
            n13 = Nb ** (1.0 / 3.0)
            t = 1.0 + rng.uniform(-0.2, 0.2)
            a = rng.uniform(-0.3, 0.3)
            Tt = math.floor(t * Nb ** (2.0 / 3.0))
            m0 = math.ceil(a * sb.sigma1 * n13 + sb.h1 * Nb + sb.p1 * Tt - 1e-9)
            inp["bulk"][c] = {"a": a, "t": t, "scale": sb.sigma1 * n13,
                              "xs": (np.arange(m0, m0 + 220) - sb.h1 * Nb - sb.p1 * Tt)
                              / (sb.sigma1 * n13)}
        kap = self.THRESHOLD_KAPPA
        inp["threshold"] = {
            N: (cst.h1_kappa(kap) - cst.h2_kappa(kap)) * math.sqrt(N) / cst.sigma2 + 1.0
            for N in (100, 400)
        }
        return inp

    def operations(self):
        inp = self.inputs
        e = inp["edge"]
        ops = [
            ("tail_edge", lambda: kernels.expected_count_tail(
                e["a"], self.EDGE, self.EDGE_N, "edge", e["kappa"], tol=1e-9)),
            ("diag_edge", lambda: kernels.edge_k12_diag_batch(
                e["xs"], self.EDGE, self.EDGE_N, e["kappa"], tol=1e-10)),
        ]
        for c, b in inp["bulk"].items():
            P, Nb = ModelParams(0.5, c), self.BULK_N[c]
            ops.append((f"tail_bulk_c{c}", lambda b=b, P=P, Nb=Nb: kernels.expected_count_tail(
                b["a"], P, Nb, "bulk", b["t"], tol=1e-9)))
            ops.append((f"diag_bulk_c{c}", lambda b=b, P=P, Nb=Nb: kernels.bulk_k12_diag_batch(
                b["xs"], P, Nb, b["t"], tol=1e-10)))
        for N, thr in inp["threshold"].items():
            ops.append((f"threshold_N{N}", lambda N=N, thr=thr: kernels.expected_count_tail(
                thr, self.EDGE, N, "edge", self.THRESHOLD_KAPPA, tol=1e-9)))
        return ops

    def check(self, res, refs):
        inp = self.inputs
        probs = []
        pairs = [("edge", "tail_edge", "diag_edge", inp["edge"]["scale"])]
        pairs += [(f"bulk c={c}", f"tail_bulk_c{c}", f"diag_bulk_c{c}", b["scale"])
                  for c, b in inp["bulk"].items()]
        for label, tail, diag, scale in pairs:
            if not _ok(res, diag):
                continue
            k12, err = res[diag]
            low, high = float(k12.real.min()), float(k12.real.max())
            if low < -err or high > 1.0 + err:
                probs.append(f"{label}: diagonal K12 leaves [0, 1] by more than the "
                             f"quadrature error {err:.1e}: range [{low:.3e}, {high:.3e}]")
            if _ok(res, tail):
                val = res[tail][0]
                direct = float(k12.real.sum()) / scale
                probs += checks.close(f"{label}: tail formula vs direct sum", val, direct,
                                      1e-6 * abs(val))
        if _ok(res, "threshold_N100", "threshold_N400"):
            counts = [res[f"threshold_N{N}"] for N in (100, 400)]
            probs += checks.falls_beyond_error(
                "edge threshold count |E - 1|",
                [abs(val - 1.0) for val, _ in counts], [err for _, err in counts])
        return probs


# ---------------------------------------------------------------------------
# ensemble-sampling
# ---------------------------------------------------------------------------

class EnsembleSampling(Workload):
    """Exact samplers, heat-bath chains and archives; almost no quadrature."""

    name = "ensemble-sampling"
    stream = 3
    LPP = {"q": 0.5, "c": 1.4, "N": 100, "M": 200, "samples": 200, "n_curves": 2}
    BROWNIAN = {"q": 0.5, "c": 1.4, "N": 100, "samples": 3000}
    SCHUR = {"q": reference.PARAMS["q"], "c": reference.PARAMS["c"],
             "N": reference.PARAMS["N"], "M": reference.PARAMS["M"], "samples": 20000}
    GIBBS = {"q": 0.5, "c": 0.8, "N": 2, "M": 1, "samples": 100000}
    PINNED = {"q": 0.5, "c": 0.3, "samples": 20000, "T_sweep": [100, 400]}
    G1 = {"N": 40, "M": 40, "size": 8}

    def make_inputs(self, rng):
        inp = {"cli_seed": int(rng.integers(0, 2 ** 31))}
        while True:
            q, c = rng.uniform(0.3, 0.7), rng.uniform(0.2, 1.2)
            if c * q < 0.85:
                break
        inp["partition"] = {"T1": int(rng.integers(2, 7)), "gap": int(rng.integers(0, 5)),
                            "q": q, "c": c}
        inp["oracle"] = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
        inp["rho1"] = [(1, x) for x in range(-3, 4)]
        inp["rho2"] = [((1, 0), (1, 2)), ((0, -1), (2, 1))]
        return inp

    def _cli(self, command, name, cfg):
        argv = [command, "--out", self.out(name), "--seed", str(self.inputs["cli_seed"])]
        for key, val in cfg.items():
            argv += ["--set", f"{key}={json.dumps(val)}"]
        return run_cli(argv)

    def _rng(self, k):
        return np.random.default_rng([self.seed, self.stream, k])

    def operations(self):
        inp = self.inputs
        ops = [
            ("simulate_lpp", lambda: self._cli("simulate-lpp", "simulate_lpp", self.LPP)),
            ("brownian_limit", lambda: self._cli("brownian-limit", "brownian_limit",
                                                 {**self.BROWNIAN, "t_grid": [0.0, 1.0, 2.0]})),
            ("simulate_schur", lambda: self._cli("simulate-schur", "simulate_schur", self.SCHUR)),
            ("gibbs_verify", lambda: self._cli("gibbs-verify", "gibbs_verify", self.GIBBS)),
            ("partition_13_6", lambda: self._cli("partition-fn", "partition_13_6",
                                                 {"T1": 1, "gap": 1, "q": 0.5, "c": 0.8})),
            ("partition", lambda: self._cli("partition-fn", "partition", inp["partition"])),
            ("pinned_origin", lambda: self._cli("pinned-origin", "pinned_origin", self.PINNED)),
            ("read_schur_archive", lambda: stats.read_curve_archive(
                Path(self.out("simulate_schur")) / "schur_curves.csv")),
        ]
        g = self.G1
        P = ModelParams(0.5, 1.4)
        ops.append(("weights", lambda: lpp.sample_weights_batch(
            g["N"] + g["M"], g["N"], P, self._rng(0), g["size"])))
        ops.append(("lambda_process", lambda: lpp.lambda_process_batch(
            self.results["weights"], g["N"], g["M"], max_curves=3)))
        for b in range(g["size"]):
            ops.append((f"g1_{b}", lambda b=b: lpp.lpp_g1_grid(self.results["weights"][b])))
        for m, n in inp["oracle"]:
            ops.append((f"rsk_{m}x{n}", lambda m=m, n=n: self._rsk_oracle(m, n)))
        schur_P = ModelParams(self.SCHUR["q"], self.SCHUR["c"])
        N = self.SCHUR["N"]
        for j, x in inp["rho1"]:
            ops.append((f"rho1_{j}_{x}", lambda j=j, x=x: kernels.rho1_geo(
                x, schur_P, N, j, tol=1e-9)))
        for a, b in inp["rho2"]:
            ops.append((f"rho2_{a}_{b}", lambda a=a, b=b: kernels.rho_k_geo(
                [(0, a[0], a[1]), (1, b[0], b[1])], schur_P, N, tol=1e-9)))
        ops.append(("point_stats", lambda: stats.empirical_point_stats(
            self.results["read_schur_archive"], 1, stats.LatticeSpec(1.0, 0.0), (-3, 3))))
        ops.append(("pair_correlation", lambda: stats.pair_correlation(
            self.results["read_schur_archive"], [((a[0], a[1]), (b[0], b[1]))
                                               for a, b in inp["rho2"]])))
        ops.append(("coupled_chains", lambda: interacting.monotone_coupled_chains(
            0, 6, [5, 3], [9, 7], [4, 2], [8, 6], M=1, steps=1000, rng=self._rng(1),
            check_every=1, replicas=200)))
        ops.append(("uniform_chain", lambda: interacting.sample_interlacing_bridges_mcmc(
            0, 4, [0], [2], None, None, steps=40, rng=self._rng(2), replicas=6000)))
        ops.append(("weighted_chain", lambda: interacting.sample_interacting_ensemble_mcmc(
            1, [1, 0], None, ModelParams(0.5, 0.8), steps=30, rng=self._rng(3),
            replicas=20000)))
        ops.append(("origin_law", lambda: schur.origin_law(1, (1, 0), ModelParams(0.5, 0.8))))
        # pairs close enough that about a quarter of the draws are rejected
        ops.append(("pinned_ensemble", lambda: bridges.sample_pinned_ensemble(
            1.0, [1.5, 0.75, -0.75, -1.5], None, 64, self._rng(4), max_tries=5000, size=100)))
        return ops

    def _rsk_oracle(self, m, n):
        """RSK prefix sums and the disjoint-path oracle on random arrays."""
        rng = self._rng(100 + 13 * m + n)
        out = []
        for _ in range(3):
            W = rng.integers(0, 5, size=(m, n))
            lam = lpp.rsk_shape(W, m, n)
            brute = [lpp.lpp_gk_bruteforce(W, m, n, k) for k in range(1, min(m, n) + 1)]
            out.append((lam, brute))
        return out

    def references(self):
        seed = self.inputs["cli_seed"]
        L, S = self.LPP, self.SCHUR
        return {
            "lpp": lpp.sample_top_curves(L["N"], L["M"], ModelParams(L["q"], L["c"]),
                                         cli.replica_rng(seed, 0), L["samples"],
                                         n_curves=L["n_curves"]),
            "schur": schur.sample_schur_process_batch(S["N"], S["M"],
                                                      ModelParams(S["q"], S["c"]),
                                                      cli.replica_rng(seed, 0), S["samples"]),
        }

    def _manifest(self, name, experiment):
        with open(Path(self.out(name)) / f"{experiment}_manifest.json") as fh:
            return json.load(fh)

    def check(self, res, refs):
        inp = self.inputs
        probs = []
        for name in ("simulate_lpp", "brownian_limit", "simulate_schur", "gibbs_verify",
                     "partition_13_6", "partition", "pinned_origin"):
            if _ok(res, name) and res[name] != 0:
                probs.append(f"{name}: hslpp exited with {res[name]}")
        if _ok(res, "simulate_lpp"):
            arr = checks.parse_curve_archive(Path(self.out("simulate_lpp")) / "lpp_curves.csv")
            probs += checks.same_array("lpp archive vs sampled array", arr, refs["lpp"])
            probs += checks.ensemble("lpp archive", arr)
        if _ok(res, "brownian_limit"):
            with open(Path(self.out("brownian_limit")) / "brownian_limit.csv") as fh:
                rows = list(csv.DictReader(fh))
            # Var U(t) / (kappa_bar - t) in the command's band [0.85, 1.15]:
            # 5.8 standard errors sqrt(2 / (B - 1)) at B = 3000, and the
            # finite-N bias at N = 100 is below 0.5%
            if len(rows) != 3:
                probs.append(f"brownian_limit.csv has {len(rows)} rows, expected 3")
            for row in rows:
                if not 0.85 <= float(row["estimate"]) <= 1.15:
                    probs.append(f"brownian variance ratio at {row['slice']}: "
                                 f"{row['estimate']} outside [0.85, 1.15]")
        if _ok(res, "simulate_schur"):
            arr = checks.parse_curve_archive(Path(self.out("simulate_schur")) / "schur_curves.csv")
            probs += checks.same_array("schur archive vs sampled array", arr, refs["schur"])
            probs += checks.ensemble("schur archive", arr)
            if _ok(res, "read_schur_archive"):
                probs += checks.same_array("stats.read_curve_archive vs own parser",
                                           res["read_schur_archive"], arr)
            probs += self._check_correlations(res, arr)
        if _ok(res, "gibbs_verify"):
            rep = self._manifest("gibbs_verify", "gibbs_verify")["checks"]
            if not rep["classes"]:
                probs.append("gibbs-verify compared no conditioning class")
            for cl in rep["classes"]:
                if cl["tv"] >= 0.05:
                    probs.append(f"gibbs class y={cl['y']}: TV {cl['tv']:.4f} >= 0.05")
        for name, cfg in (("partition_13_6", None), ("partition", inp["partition"])):
            if not _ok(res, name):
                continue
            with open(Path(self.out(name)) / "partition_fn.json") as fh:
                rec = json.load(fh)
            contour = complex(rec["contour_re"], rec["contour_im"])
            probs += checks.close(f"{name}: series vs contour", contour, rec["series"],
                                  1e-8 * abs(rec["series"]))
            if cfg is None:
                probs += checks.close("Z(1,(1,0); 0.5, 0.8) series", rec["series"], 13 / 6, 1e-8)
                probs += checks.close("Z(1,(1,0); 0.5, 0.8) contour", contour, 13 / 6, 1e-8)
        if _ok(res, "pinned_origin"):
            rep = self._manifest("pinned_origin", "pinned_origin")["checks"]
            for T in self.PINNED["T_sweep"]:
                if rep["gap_tv"][str(T)] >= 0.05:
                    probs.append(f"pinned-origin gap TV at T={T}: {rep['gap_tv'][str(T)]:.4f}")
        probs += self._check_lpp(res)
        probs += self._check_chains(res)
        return probs

    def _check_lpp(self, res):
        g = self.G1
        probs = []
        names = ["weights", "lambda_process"] + [f"g1_{b}" for b in range(g["size"])]
        if _ok(res, *names):
            lam = res["lambda_process"]
            probs += checks.ensemble("lambda_process_batch", lam)
            probs += checks.top_curve_is_g1("lambda_process_batch", lam,
                                            [res[f"g1_{b}"] for b in range(g["size"])], g["N"])
        for m, n in self.inputs["oracle"]:
            if not _ok(res, f"rsk_{m}x{n}"):
                continue
            for lam, brute in res[f"rsk_{m}x{n}"]:
                pre = np.cumsum(list(lam) + [0] * (min(m, n) - len(lam)))
                if list(pre) != brute:
                    probs.append(f"RSK prefix sums {list(pre)} != oracle {brute} on {m}x{n}")
        return probs

    def _check_correlations(self, res, arr):
        probs = []
        B = arr.shape[0]
        idx = np.arange(1, arr.shape[1] + 1)
        for j, x in self.inputs["rho1"]:
            hits = np.any(arr[:, :, j] - idx == x, axis=1)
            if _ok(res, f"rho1_{j}_{x}"):
                probs += checks.binomial(f"sampled rho1({j},{x})", int(hits.sum()), B,
                                         res[f"rho1_{j}_{x}"][0])
            if _ok(res, "point_stats") and j == 1:
                ps = res["point_stats"]
                k = int(np.argmin(np.abs(ps.levels - x)))
                probs += checks.close(f"empirical_point_stats rho1({j},{x})",
                                      ps.density[k], hits.mean(), 1e-12)
        for i, (a, b) in enumerate(self.inputs["rho2"]):
            hits = (np.any(arr[:, :, a[0]] - idx == a[1], axis=1)
                    & np.any(arr[:, :, b[0]] - idx == b[1], axis=1))
            if _ok(res, f"rho2_{a}_{b}"):
                probs += checks.binomial(f"sampled rho2({a},{b})", int(hits.sum()), B,
                                         res[f"rho2_{a}_{b}"][0])
            if _ok(res, "pair_correlation"):
                probs += checks.close(f"pair_correlation({a},{b})",
                                      res["pair_correlation"][i][0], hits.mean(), 1e-12)
        return probs

    def _check_chains(self, res):
        probs = []
        if _ok(res, "coupled_chains"):
            tr = res["coupled_chains"]
            if np.any(tr.top < tr.bot) or np.any(tr.bot < tr.hat) or np.any(tr.hat != tr.top - tr.M):
                probs.append("coupled chains: order or shift invariant violated")
        if _ok(res, "uniform_chain"):
            st = res["uniform_chain"][:, 0, 1:4]
            # the 10 weakly increasing triples in {0, 1, 2}, each of mass 1/10
            keys = [(a, b, c) for a in range(3) for b in range(a, 3) for c in range(b, 3)]
            counts = [int(np.sum(np.all(st == k, axis=1))) for k in keys]
            if sum(counts) != len(st):
                probs.append("uniform chain left the bridge space")
            probs += checks.chi_square("uniform bridge chain", counts, [len(st) / 10] * 10)
        if _ok(res, "weighted_chain", "origin_law"):
            st = res["weighted_chain"]
            x1, x2, p = res["origin_law"]
            obs = [int(np.sum((st[:, 0, 0] == a) & (st[:, 1, 0] == b))) for a, b in zip(x1, x2)]
            obs.append(len(st) - sum(obs))
            exp = list(np.asarray(p) * len(st)) + [max(0.0, 1.0 - float(np.sum(p))) * len(st)]
            probs += checks.chi_square("weighted chain vs exact origin law", obs, exp)
        if _ok(res, "pinned_ensemble"):
            _, samp, rate = res["pinned_ensemble"]
            if not np.all(samp[:, 0, 0] == samp[:, 1, 0]):
                probs.append("pinned ensemble: pair not pinned at time 0")
            if not np.all(samp[:, 1, 1:-1] > samp[:, 2, 1:-1]):
                probs.append("pinned ensemble: pairs not ordered on the interior grid")
        return probs


WORKLOADS = {w.name: w for w in (KernelPointwise, KernelTailSums, EnsembleSampling)}
