"""Outside-in tracing of halfspace_lpp: spans and counters recorded by
wrapping the program's public functions, with no change to its source.

Every traced function is wrapped at each name under which callers look it
up: the defining module, every module that imported it by name (so
`kernels.integrate_double` is wrapped along with `contours.integrate_double`)
and, for the CLI, the `COMMANDS` dispatch table.  Methods are wrapped on
their class.  A wrapper returns exactly what the wrapped call returns; it
only records a span (name, layer, start, end, parent) and a few counters.
Integrand node pairs are counted by wrapping the integrand handed to the
quadrature routines.  Spans stay in memory until `write` and are reduced to
self times by `layer_metrics`.  `overhead_seconds` gives the time the
wrappers themselves add to a traced round.
"""

import functools
import importlib
import inspect
import json
import os
import statistics
import time
from pathlib import Path

LAYERS = ("contours", "kernels", "pfaffian", "lpp", "schur", "interacting",
          "bridges", "stats", "cli")

# (module, qualified name) of every traced function or method
TARGETS = {
    "contours": ["integrate_double", "integrate_single", "integrate_contour",
                 "integrate_circle", "Contour.nodes"],
    "kernels": ["kernel_geo", "rho1_geo", "rho_k_geo",
                "bulk_prelimit_components", "kernel_N_bulk",
                "edge_prelimit_components", "kernel_N_edge",
                "hs_limit_components", "kernel_hs_inf",
                "bulk_limit_components", "kernel_limit_bulk",
                "kernel_limit_bulk_from_hs", "kernel_bm", "r22_limit_closed_form",
                "edge_k12_diag_batch", "bulk_k12_diag_batch",
                "_diag_batch_eval", "_diag_batch_single",
                "expected_count_tail"],
    "pfaffian": ["pfaffian", "pfaffian_expansion", "correlation_fn"],
    "lpp": ["geometric_icdf", "sample_weights_batch", "lpp_g1_grid", "lpp_g1",
            "RSKTableau.insert_counts", "rsk_shape_batch", "rsk_shape",
            "lpp_gk_bruteforce", "lambda_process_batch", "sample_top_curves",
            "rescale_top_batch"],
    "schur": ["sample_schur_process_batch", "enumerate_schur_support",
              "partition_fn_series", "partition_fn_contour", "origin_law",
              "sample_origin_exact"],
    "interacting": ["BridgeChain.run", "InteractingEnsembleChain.run",
                    "monotone_coupled_chains", "sample_interlacing_bridges_mcmc",
                    "sample_interacting_ensemble_mcmc",
                    "gibbs_consistency_check", "enumerate_interacting_configs"],
    "bridges": ["sample_brownian_bridge", "sample_bessel_bridge",
                "sample_pinned_pair", "sample_pinned_ensemble",
                "discrete_to_pinned_check", "ks_distance"],
    "stats": ["write_curve_archive", "read_curve_archive", "write_stats_csv",
              "jackknife_mean", "empirical_point_stats", "empirical_tail_count",
              "pair_correlation"],
    "cli": ["main", "cmd_simulate_lpp", "cmd_simulate_schur", "cmd_gibbs_verify",
            "cmd_partition_fn", "cmd_kernel_eval", "cmd_kernel_converge",
            "cmd_brownian_limit", "cmd_pinned_origin", "cmd_verify_all"],
}

# span groups behind the per-function metrics; inclusive time of the
# outermost span of each group
GROUPS = {
    "kernels.edge_s": {"edge_prelimit_components", "kernel_N_edge"},
    "kernels.bulk_s": {"bulk_prelimit_components", "kernel_N_bulk"},
    "kernels.limit_s": {"hs_limit_components", "kernel_hs_inf",
                        "bulk_limit_components", "kernel_limit_bulk",
                        "kernel_limit_bulk_from_hs", "kernel_bm",
                        "r22_limit_closed_form"},
    "kernels.geo_s": {"kernel_geo", "rho1_geo", "rho_k_geo"},
    "kernels.diag_s": {"edge_k12_diag_batch", "bulk_k12_diag_batch"},
    "kernels.tail_s": {"expected_count_tail"},
    "pfaffian.s": {"pfaffian", "pfaffian_expansion", "correlation_fn"},
    "lpp.weights_s": {"sample_weights_batch", "geometric_icdf"},
    "lpp.g1_s": {"lpp_g1_grid", "lpp_g1"},
    "lpp.oracle_s": {"lpp_gk_bruteforce"},
    "schur.sample_s": {"sample_schur_process_batch"},
    "schur.partition_s": {"partition_fn_series", "partition_fn_contour"},
    "schur.origin_s": {"origin_law", "sample_origin_exact"},
    "interacting.chain_s": {"BridgeChain.run", "InteractingEnsembleChain.run",
                            "monotone_coupled_chains"},
    "interacting.gibbs_check_s": {"gibbs_consistency_check"},
    "bridges.s": set(TARGETS["bridges"]),
    "stats.archive_write_s": {"write_curve_archive", "write_stats_csv"},
    "stats.archive_read_s": {"read_curve_archive"},
    "stats.estimators_s": {"jackknife_mean", "empirical_point_stats",
                           "empirical_tail_count", "pair_correlation"},
}

# 2x2 kernels assembled from a forward and a backward component pass
ASSEMBLED = {"kernel_N_bulk", "kernel_N_edge", "kernel_hs_inf", "kernel_limit_bulk"}
LEVELLED = {"integrate_double", "_diag_batch_eval"}  # level reached is reported

PER_LAYER_METRICS = [
    ("contours.double_s", "s"), ("contours.double_calls", "count"),
    ("contours.double_pairs", "count"), ("contours.double_pairs_per_s", "1/s"),
    ("contours.double_level_mean", "level"), ("contours.double_level_max", "level"),
    ("contours.double_floor_accepts", "count"), ("contours.max_block_mb", "MB"),
    ("contours.single_s", "s"), ("contours.single_nodes", "count"),
    ("kernels.edge_s", "s"), ("kernels.bulk_s", "s"), ("kernels.limit_s", "s"),
    ("kernels.geo_s", "s"), ("kernels.doubles_per_value", "count"),
    ("kernels.diag_s", "s"), ("kernels.diag_points_per_s", "1/s"),
    ("kernels.diag_level_mean", "level"), ("kernels.tail_s", "s"),
    ("pfaffian.calls", "count"), ("pfaffian.s", "s"), ("pfaffian.max_n", "count"),
    ("lpp.rsk_s", "s"), ("lpp.rsk_cells", "count"), ("lpp.rsk_cells_per_s", "1/s"),
    ("lpp.weights_s", "s"), ("lpp.g1_s", "s"), ("lpp.oracle_s", "s"),
    ("schur.sample_s", "s"), ("schur.partition_s", "s"), ("schur.origin_s", "s"),
    ("interacting.chain_s", "s"), ("interacting.site_updates", "count"),
    ("interacting.site_updates_per_s", "1/s"), ("interacting.gibbs_check_s", "s"),
    ("bridges.s", "s"), ("bridges.pinned_accept_rate", "ratio"),
    ("stats.archive_write_s", "s"), ("stats.archive_read_s", "s"),
    ("stats.archive_mb", "MB"), ("stats.archive_write_mb_per_s", "MB/s"),
    ("stats.estimators_s", "s"),
    ("cli.command_self_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.overhead_s", "s"), ("process.cpu_s", "s"),
]


class Tracer:
    """Span and counter store plus the wrappers that feed it.

    A span is [name, layer, start, end, parent index, attributes].
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.hook_s = 0.0  # time spent in the per-function hooks
        self.integrand_calls = 0  # calls through the counting integrand proxy
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        span = [name, layer, time.perf_counter(), None, parent, {}]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self.stack.pop()

    def _enclosing(self, names):
        for idx in reversed(self.stack):
            if self.spans[idx][0] in names:
                return self.spans[idx]
        return None

    def _wrap(self, fn, name, layer):
        tracer = self
        sig = inspect.signature(fn)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                if before is not None:
                    h = time.perf_counter()
                    args, kwargs = before(tracer, span, sig, args, kwargs)
                    tracer.hook_s += time.perf_counter() - h
                result = fn(*args, **kwargs)
                if after is not None:
                    h = time.perf_counter()
                    after(tracer, span, sig, args, kwargs, result)
                    tracer.hook_s += time.perf_counter() - h
                return result
            finally:
                tracer._close(span)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self, package):
        """Wrap every target of `package` (the imported halfspace_lpp with
        all its submodules loaded) at each name it is looked up by."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in TARGETS}
        for layer, names in TARGETS.items():
            mod = modules[layer]
            for qual in names:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(orig, qual, layer))
                    continue
                orig = getattr(mod, qual)
                wrapper = self._wrap(orig, qual, layer)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            self._set(other, attr, wrapper)
        commands = modules["cli"].COMMANDS
        for key, fn in list(commands.items()):
            wrapped = getattr(modules["cli"], fn.__name__)
            self._undo.append(lambda k=key, f=fn: commands.__setitem__(k, f))
            commands[key] = wrapped

    def _set(self, owner, attr, value):
        old = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- output ----------------------------------------------------------------

    def write(self, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-function hooks: counters that need arguments or results
# ---------------------------------------------------------------------------

def _bound(sig, args, kwargs):
    b = sig.bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def _count_integrand(tracer, span, sig, args, kwargs):
    """Replace the integrand argument by a counting proxy."""
    attrs = span[5]
    attrs.update(pairs=0, max_block=0)
    F = args[0]

    def counted(*xs):
        tracer.integrand_calls += 1
        out = F(*xs)
        attrs["pairs"] += int(getattr(out, "size", 1))
        attrs["max_block"] = max(attrs["max_block"], int(getattr(out, "nbytes", 0)))
        return out

    return (counted,) + tuple(args[1:]), kwargs


def _after_double(tracer, span, sig, args, kwargs, result):
    tol = _bound(sig, args, kwargs)["tol"]
    val, err = result
    span[5]["floor_accept"] = bool(err > tol * abs(val))


def _before_nodes(tracer, span, sig, args, kwargs):
    owner = tracer._enclosing(LEVELLED)
    if owner is not None:
        level = args[1] if len(args) > 1 else kwargs["level"]
        owner[5]["level"] = max(owner[5].get("level", 0), int(level))
    return args, kwargs


def _before_diag(tracer, span, sig, args, kwargs):
    span[5]["points"] = len(_bound(sig, args, kwargs)["xs"])
    return args, kwargs


def _after_insert(tracer, span, sig, args, kwargs, result):
    tab = args[0]
    span[5]["cells"] = tab.batch * tab.n * len(tab.rows)


def _after_run(tracer, span, sig, args, kwargs, result):
    chain = args[0]
    steps = _bound(sig, args, kwargs)["steps"]
    span[5]["updates"] = int(steps) * chain.state.shape[0]


def _after_coupled(tracer, span, sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    span[5]["updates"] = 3 * int(a["steps"]) * int(a["replicas"])


def _after_pinned(tracer, span, sig, args, kwargs, result):
    _, samples, rate = result
    span[5]["accepted"] = len(samples)
    span[5]["tried"] = len(samples) / rate if rate > 0 else 0.0


def _after_archive(tracer, span, sig, args, kwargs, result):
    span[5]["bytes"] = os.path.getsize(_bound(sig, args, kwargs)["path"])


def _after_pfaffian(tracer, span, sig, args, kwargs, result):
    span[5]["n"] = len(args[0])


_BEFORE = {
    "integrate_double": _count_integrand,
    "integrate_single": _count_integrand,
    "Contour.nodes": _before_nodes,
    "_diag_batch_eval": _before_diag,
    "_diag_batch_single": _before_diag,
}
_AFTER = {
    "integrate_double": _after_double,
    "RSKTableau.insert_counts": _after_insert,
    "BridgeChain.run": _after_run,
    "InteractingEnsembleChain.run": _after_run,
    "monotone_coupled_chains": _after_coupled,
    "sample_pinned_ensemble": _after_pinned,
    "write_curve_archive": _after_archive,
    "write_stats_csv": _after_archive,
    "pfaffian": _after_pfaffian,
}


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def wrapper_costs(calls=20000, repeats=5):
    """Seconds that one span wrapper and one call of the counting integrand
    proxy add to a call: (wrapped - bare) / calls on no-op targets, median
    over `repeats`."""
    block = [0.0] * 4

    def noop():
        return block

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "noop", "calibration")
    span = ["noop", "calibration", 0.0, 0.0, -1, {}]
    (counted,), _ = _count_integrand(tracer, span, None, (noop,), {})

    def per_call(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    span_costs, proxy_costs = [], []
    for _ in range(repeats):
        bare = per_call(noop)
        span_costs.append(per_call(wrapped) - bare)
        proxy_costs.append(per_call(counted) - bare)
        tracer.spans.clear()
    return statistics.median(span_costs), statistics.median(proxy_costs)


def overhead_seconds(tracer, rounds, costs):
    """Time the tracer added per round: its spans and integrand-proxy calls
    at the calibrated `costs` (from `wrapper_costs`) plus the measured time
    of its hooks."""
    span_cost, proxy_cost = costs
    return (len(tracer.spans) * span_cost + tracer.integrand_calls * proxy_cost
            + tracer.hook_s) / rounds


def self_times(spans):
    """Duration of each span minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _outermost_time(spans, names):
    """Summed duration of spans in `names` with no ancestor in `names`."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        p = span[4]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][4]
        if p < 0:
            total += span[3] - span[2]
    return total


def _has_ancestor(spans, span, names):
    p = span[4]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][4]
    return False


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(spans, rounds):
    """Per-layer metrics of `rounds` traced rounds, as per-round values."""
    selfs = self_times(spans)
    m = {}
    by = {}
    for span, st in zip(spans, selfs):
        by.setdefault(span[0], []).append((span, st))

    def self_of(name):
        return sum(st for _, st in by.get(name, []))

    def spans_of(name):
        return [s for s, _ in by.get(name, [])]

    doubles = spans_of("integrate_double")
    dlevels = [s[5].get("level", 0) for s in doubles]
    m["contours.double_s"] = self_of("integrate_double")
    m["contours.double_calls"] = len(doubles)
    m["contours.double_pairs"] = sum(s[5]["pairs"] for s in doubles)
    m["contours.double_pairs_per_s"] = _ratio(m["contours.double_pairs"], m["contours.double_s"])
    m["contours.double_level_mean"] = _ratio(sum(dlevels), len(dlevels))
    m["contours.double_level_max"] = max(dlevels, default=0)
    m["contours.double_floor_accepts"] = sum(1 for s in doubles if s[5].get("floor_accept"))
    blocks = [s[5]["max_block"] for s in doubles + spans_of("integrate_single")]
    m["contours.max_block_mb"] = max(blocks, default=0) / 1e6
    m["contours.single_s"] = self_of("integrate_single")
    m["contours.single_nodes"] = sum(s[5]["pairs"] for s in spans_of("integrate_single"))

    for key, names in GROUPS.items():
        m[key] = _outermost_time(spans, names)

    values = [s for s in spans if s[0] in ASSEMBLED
              and not _has_ancestor(spans, s, ASSEMBLED)]
    nested = sum(1 for s in doubles if _has_ancestor(spans, s, ASSEMBLED))
    m["kernels.doubles_per_value"] = _ratio(nested, len(values))
    diag = spans_of("_diag_batch_eval")
    diag_points = sum(s[5]["points"] for s in diag)
    m["kernels.diag_points_per_s"] = _ratio(diag_points, m["kernels.diag_s"])
    m["kernels.diag_level_mean"] = _ratio(sum(s[5].get("level", 0) for s in diag), len(diag))

    pf = spans_of("pfaffian")
    m["pfaffian.calls"] = len(pf)
    m["pfaffian.max_n"] = max((s[5]["n"] for s in pf), default=0)

    m["lpp.rsk_s"] = self_of("RSKTableau.insert_counts")
    m["lpp.rsk_cells"] = sum(s[5]["cells"] for s in spans_of("RSKTableau.insert_counts"))
    m["lpp.rsk_cells_per_s"] = _ratio(m["lpp.rsk_cells"], m["lpp.rsk_s"])

    chains = [s for name in ("BridgeChain.run", "InteractingEnsembleChain.run",
                             "monotone_coupled_chains") for s in spans_of(name)]
    m["interacting.site_updates"] = sum(s[5]["updates"] for s in chains)
    m["interacting.site_updates_per_s"] = _ratio(m["interacting.site_updates"],
                                                 m["interacting.chain_s"])

    pinned = spans_of("sample_pinned_ensemble")
    m["bridges.pinned_accept_rate"] = _ratio(sum(s[5]["accepted"] for s in pinned),
                                             sum(s[5]["tried"] for s in pinned))

    archive_bytes = sum(s[5]["bytes"] for name in ("write_curve_archive", "write_stats_csv")
                        for s in spans_of(name))
    m["stats.archive_mb"] = archive_bytes / 1e6
    m["stats.archive_write_mb_per_s"] = _ratio(m["stats.archive_mb"], m["stats.archive_write_s"])

    m["cli.command_self_s"] = sum(self_of(n) for n in TARGETS["cli"] if n != "main")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(st for span, st in zip(spans, selfs) if span[1] == layer)

    # counts and times per traced round; levels, ratios, rates and maxima as is
    per_round = {k for k, unit in PER_LAYER_METRICS if unit in ("s", "count", "MB")}
    per_round -= {"contours.max_block_mb", "kernels.doubles_per_value", "pfaffian.max_n"}
    return {k: (v / rounds if k in per_round else v) for k, v in m.items()}
