"""Experiment runner: config-driven subcommands with reproducible seeds.

Configuration is a flat JSON object; any key a command reads (DEFAULTS and
OPTIONAL_KEYS) can be overridden by a --set key=value flag or an
HSLPP_<KEY> environment variable (flags beat env, env beats file; both
values are read as JSON, falling back to the raw string).  Every run
writes a manifest JSON recording the resolved config, its hash, the seed,
wall-clock time, and per-check numbers.  Identical (config, seed) pairs
produce byte-identical archives: every sampling command draws all its
replicas, in order, from the one stream replica_rng(seed, 0), and
verify-all gives check i the stream [seed, i].
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, acceptance, bridges, kernels, lpp, schur, stats
from .model import ModelParams, ScalingConstantsBulk, ScalingConstantsEdge

ENV_PREFIX = "HSLPP_"

DEFAULTS = {
    "q": 0.5,
    "c": 0.8,
    "N": 100,
    "M": 50,
    "T1": 100,
    "samples": 200,
    "n_curves": 2,
    "t_grid": [0.0, 1.0, 2.0],
    "points": [],
    "tol": 1e-8,
    "seed": 20260810,
    "out": "runs",
}
# keys a command reads with a default of its own; unset, they stay out of
# the resolved config
OPTIONAL_KEYS = ("gap", "regime", "N_sweep", "T_sweep", "b", "y_scaled", "checks")


def _parse_value(text):
    """A config value from text: JSON if it parses, else the raw string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path, overrides, env=None):
    """Resolve the run configuration: defaults < file < env < flags.

    HSLPP_<KEY> is looked up for each key of DEFAULTS, OPTIONAL_KEYS and
    the file; an empty one leaves the key as it is.
    """
    cfg = dict(DEFAULTS)
    if path:
        with open(path) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        cfg.update(file_cfg)
    env = os.environ if env is None else env
    for key in dict.fromkeys([*cfg, *OPTIONAL_KEYS]):
        ev = env.get(ENV_PREFIX + key.upper())
        if ev:
            cfg[key] = _parse_value(ev)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        cfg[key] = _parse_value(val)
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()
    ).hexdigest()[:16]


def replica_rng(seed, replica):
    """Deterministic stream SeedSequence([seed, replica]); the sampling
    commands all use replica 0."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(replica)]))


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_manifest(outdir, name, cfg, checks, t0):
    manifest = {
        "experiment": name,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seed": cfg["seed"],
        "version": __version__,
        "wall_clock_s": round(time.time() - t0, 3),
        "checks": checks,
    }
    path = Path(outdir) / f"{name}_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=_json_default)
    return path


def _outdir(cfg):
    p = Path(cfg["out"])
    p.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate_lpp(cfg):
    """Sample the interlacing curves and write archives plus scaled-curve data."""
    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    N, M, B = int(cfg["N"]), int(cfg["M"]), int(cfg["samples"])
    out = _outdir(cfg)
    checks = {}
    if B == 0:
        stats.write_curve_archive(out / "lpp_curves.csv", np.zeros((0, 0, 0)))
        write_manifest(out, "simulate_lpp", cfg, checks, t0)
        print("empty archive written")
        return 0
    rng = replica_rng(cfg["seed"], 0)
    tops = lpp.sample_top_curves(N, M, P, rng, B, n_curves=int(cfg["n_curves"]))
    stats.write_curve_archive(out / "lpp_curves.csv", tops)
    horizon = min(M, int(math.floor(N ** (2.0 / 3.0))))
    times = np.arange(0, horizon + 1)
    scaled = lpp.rescale_bulk(tops, N, ScalingConstantsBulk(P.q), times)
    with open(out / "lpp_scaled.csv", "w") as fh:
        fh.write("sample_id,index,t,value\n")
        for b in range(min(B, 50)):
            for i in range(scaled.shape[1]):
                for j, tt in enumerate(times):
                    fh.write(
                        f"{b},{i+1},{tt / N ** (2.0/3.0):.6f},{scaled[b, i, j]:.6f}\n"
                    )
    if tops.shape[1] >= 2:
        sep = float(
            np.mean(tops[:, 0, : horizon + 1].min(axis=1) > tops[:, 1, : horizon + 1].max(axis=1))
        )
        checks["top_curve_separation_rate"] = sep
        gap0 = np.median(scaled[:, 0, 0] - scaled[:, 1, 0]) if scaled.shape[1] > 1 else None
        checks["scaled_gap_median_t0"] = float(gap0) if gap0 is not None else None
    write_manifest(out, "simulate_lpp", cfg, checks, t0)
    print(f"wrote {out/'lpp_curves.csv'} ({B} samples); checks: {checks}")
    return 0


def cmd_simulate_schur(cfg):
    """Sample Pfaffian Schur sequences and archive the curve array."""
    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    N, M, B = int(cfg["N"]), int(cfg["M"]), int(cfg["samples"])
    rng = replica_rng(cfg["seed"], 0)
    arr = schur.sample_schur_process_batch(N, M, P, rng, B)
    out = _outdir(cfg)
    stats.write_curve_archive(out / "schur_curves.csv", arr)
    write_manifest(out, "simulate_schur", cfg, {"samples": B}, t0)
    print(f"wrote {out/'schur_curves.csv'}")
    return 0


def cmd_gibbs_verify(cfg):
    """Interacting-pair Gibbs property check on sampled Schur ensembles."""
    from . import interacting

    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    N, M, B = int(cfg["N"]), int(cfg["M"]), int(cfg["samples"])
    rng = replica_rng(cfg["seed"], 0)
    arr = schur.sample_schur_process_batch(N, M, P, rng, B)
    if arr.shape[1] == N:
        # lambda_{N+1} is identically zero; pad it so the floor curve exists
        arr = np.pad(arr, ((0, 0), (0, 1), (0, 0)))
    rep = interacting.gibbs_consistency_check(arr, T=1, k=1, params=P)
    out = _outdir(cfg)
    write_manifest(out, "gibbs_verify", cfg, rep, t0)
    for cl in rep["classes"]:
        print(f"class y={cl['y']} g={cl['g']}: hits {cl['hits']}, TV {cl['tv']:.4f}")
    for w in rep["warnings"]:
        print("warning:", w)
    worst = max((cl["tv"] for cl in rep["classes"]), default=None)
    return 0 if (worst is None or worst < 0.05) else 1


def cmd_partition_fn(cfg):
    """Series and contour partition function values for the configured pair."""
    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    T1 = int(cfg["T1"])
    gap = int(cfg.get("gap", 1))
    vs, tail = schur.partition_fn_series(T1, (gap, 0), P, tol=cfg["tol"])
    vc = schur.partition_fn_contour(T1, (gap, 0), P.q, P.c)
    rec = {
        "T1": T1, "y": [gap, 0], "series": vs, "series_tail_bound": tail,
        "contour_re": vc.real, "contour_im": vc.imag,
        "rel_dev": abs(vc - vs) / abs(vs),
    }
    out = _outdir(cfg)
    with open(out / "partition_fn.json", "w") as fh:
        json.dump(rec, fh, indent=2)
    write_manifest(out, "partition_fn", cfg, {"rel_dev": rec["rel_dev"]}, t0)
    print(json.dumps(rec, indent=2))
    return 0 if rec["rel_dev"] < 1e-8 else 1


def cmd_kernel_eval(cfg):
    """Evaluate a kernel at configured points; emits JSON records."""
    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    regime = cfg.get("regime", "hs_limit")
    records = []
    for pt in cfg["points"]:
        s, x, t, y = (float(v) for v in pt)
        if regime == "geo":
            kv = kernels.kernel_geo(1, int(x), 1, int(y), P, int(cfg["N"]),
                                    int(s), int(t), tol=cfg["tol"])
        elif regime == "bulk":
            kv = kernels.kernel_N_bulk(s, x, t, y, P, int(cfg["N"]), tol=cfg["tol"])
        elif regime == "edge":
            kv = kernels.kernel_N_edge(s, x, t, y, P, int(cfg["N"]), tol=cfg["tol"])
        elif regime == "bulk_limit":
            kv = kernels.kernel_limit_bulk(s, x, t, y, ScalingConstantsBulk(P.q),
                                           tol=cfg["tol"])
        elif regime == "hs_limit":
            kv = kernels.kernel_hs_inf(s, x, t, y, tol=cfg["tol"])
        else:
            raise ValueError(f"unknown regime {regime!r}")
        for name, v in (("k11", kv.k11), ("k12", kv.k12), ("k21", kv.k21),
                        ("k22", kv.k22)):
            records.append({
                "regime": regime, "params": {"q": P.q, "c": P.c},
                "points": [s, x, t, y], "tol": cfg["tol"], "entry": name,
                "value_re": complex(v).real, "value_im": complex(v).imag,
                "err": kv.err,
            })
    out = _outdir(cfg)
    with open(out / "kernel_values.json", "w") as fh:
        json.dump(records, fh, indent=2)
    write_manifest(out, "kernel_eval", cfg, {"n_records": len(records)}, t0)
    print(json.dumps(records, indent=2))
    return 0


def cmd_kernel_converge(cfg):
    """Prelimit-vs-limit error tables over an N sweep.  The manifest lists,
    per N, the contour-nesting conditions of the window's feasibility
    predicate that fail (empty where the prelimit is a genuine kernel)."""
    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    regime = cfg.get("regime", "bulk")
    Ns = cfg.get("N_sweep", [50, 200, 800] if regime == "bulk" else [100, 400, 1600])
    points = cfg["points"] or [[1.0, 0.0, 1.5, 0.3]]
    feasible = (kernels.bulk_prelimit_feasible if regime == "bulk"
                else kernels.edge_prelimit_feasible)
    failing = {str(N): [k for k, ok in feasible(P.q, P.c, N)[1].items() if not ok]
               for N in Ns}
    rows = []
    for pt in points:
        s, x0, t, y0 = (float(v) for v in pt)
        for N in Ns:
            if regime == "bulk":
                errs = acceptance.bulk_convergence_errors(s, x0, t, y0, P, N, cfg["tol"])
                row = {f"err_{k}": v for k, v in errs.items()}
            else:
                errs = acceptance.edge_convergence_errors(s, x0, t, y0, P, N, cfg["tol"])
                row = dict(zip(("err_K12", "abs_K11", "abs_K22"), errs))
            rows.append({"point": pt, "N": N, **row})
    out = _outdir(cfg)
    with open(out / "kernel_converge.json", "w") as fh:
        json.dump(rows, fh, indent=2, default=float)
    write_manifest(out, "kernel_converge", cfg,
                   {"rows": len(rows), "failing_nesting_conditions": failing}, t0)
    for r in rows:
        print(r)
    return 0


def cmd_brownian_limit(cfg):
    """Mean/variance sweep of the rescaled top curve against its limit law."""
    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    if not (1.0 < P.c < 1.0 / P.q):
        raise ValueError("brownian-limit needs c in (1, 1/q)")
    cst = ScalingConstantsEdge(P.q, P.c)
    N, B = int(cfg["N"]), int(cfg["samples"])
    t_grid = np.asarray(cfg["t_grid"], dtype=float)
    in_window = t_grid < cst.kappa_bar
    skipped = t_grid[~in_window].tolist()
    t_grid = t_grid[in_window]
    U, moments = acceptance.brownian_limit_stats(P, N, B, t_grid,
                                                 replica_rng(cfg["seed"], 0))
    rows = []
    checks = {"skipped_out_of_window": skipped}
    for t, (ratio, mean, sd) in zip(t_grid, moments):
        rows.append((f"t={t:g}", t, ratio, 0.0, 1.0, mean / sd))
        checks[f"var_ratio_t{t:g}"] = ratio
    # reverse-time increment correlation heuristic
    if t_grid.size >= 3:
        inc1 = U[:, 1] - U[:, 0]
        inc2 = U[:, 2] - U[:, 1]
        checks["increment_corr"] = float(np.corrcoef(inc1, inc2)[0, 1])
    out = _outdir(cfg)
    stats.write_stats_csv(out / "brownian_limit.csv", rows)
    write_manifest(out, "brownian_limit", cfg, checks, t0)
    print(json.dumps(checks, indent=2))
    ok = all(
        0.85 <= v <= 1.15
        for k, v in checks.items()
        if k.startswith("var_ratio")
    )
    return 0 if ok else 1


def cmd_pinned_origin(cfg):
    """Discrete-to-continuum origin comparison along a T sweep."""
    t0 = time.time()
    P = ModelParams(cfg["q"], cfg["c"])
    rng = replica_rng(cfg["seed"], 0)
    Ts = cfg.get("T_sweep", [100, 400])
    rep = bridges.discrete_to_pinned_check(
        Ts, float(cfg.get("b", 1.0)), tuple(cfg.get("y_scaled", [1.0, -1.0])),
        P, rng, n_samples=int(cfg["samples"]),
    )
    checks = {
        "gap_tv": rep.gap_tv, "sum_ks": rep.sum_ks, "top_ks": rep.top_ks,
    }
    out = _outdir(cfg)
    write_manifest(out, "pinned_origin", cfg, checks, t0)
    print(json.dumps(checks, indent=2, default=float))
    return 0


def cmd_verify_all(cfg):
    """Run the full acceptance battery and write the manifest."""
    t0 = time.time()
    out = _outdir(cfg)
    results = acceptance.run_all(seed=int(cfg["seed"]),
                                 names=cfg.get("checks") or None)
    checks = {
        r.name: {"passed": bool(r.passed), "details": r.details,
                 "seconds": round(r.seconds, 2)}
        for r in results
    }
    path = write_manifest(out, "verify_all", cfg, checks, t0)
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed; manifest: {path}")
    return 0 if n_fail == 0 else 1


COMMANDS = {
    "simulate-lpp": cmd_simulate_lpp,
    "simulate-schur": cmd_simulate_schur,
    "gibbs-verify": cmd_gibbs_verify,
    "partition-fn": cmd_partition_fn,
    "kernel-eval": cmd_kernel_eval,
    "kernel-converge": cmd_kernel_converge,
    "brownian-limit": cmd_brownian_limit,
    "pinned-origin": cmd_pinned_origin,
    "verify-all": cmd_verify_all,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="hslpp",
        description="Half-space LPP simulation and verification harness",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", default=None, help="JSON config file")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--set", action="append", default=[], dest="overrides",
                    metavar="KEY=VALUE")
    args = ap.parse_args(argv)
    cfg = load_config(args.config, args.overrides)
    for key in ("seed", "out", "tol"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return COMMANDS[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
