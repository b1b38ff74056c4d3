"""The trace wrappers return exactly what the unwrapped calls return, record
spans with parents, and come off again."""

import json
import math

import numpy as np
import pytest

import halfspace_lpp
import tracing
import workloads
from halfspace_lpp import contours, interacting, kernels, lpp, pfaffian, schur, stats
from halfspace_lpp.model import ModelParams, ScalingConstantsBulk


def calls(tmp_path, tag):
    """A few cheap calls through every traced layer; fresh seeds each time."""
    P = ModelParams(0.4, 0.7)
    circle = contours.Contour([contours.full_circle(0.0, 2.0)])
    A = np.random.default_rng(5).standard_normal((6, 6))
    archive = tmp_path / f"{tag}.csv"
    arr = schur.sample_schur_process_batch(3, 2, P, np.random.default_rng(6), 200)
    stats.write_curve_archive(archive, arr)
    out = {
        "double": contours.integrate_double(lambda z, w: np.exp(z) / (z * w), circle, circle),
        "rho1": kernels.rho1_geo(1, P, 3, 1, tol=1e-9),
        "rho2": kernels.rho_k_geo([(0, 1, 0), (1, 1, 2)], P, 3, tol=1e-9),
        "limit": kernels.kernel_limit_bulk(0.8, 0.2, 1.2, -0.3, ScalingConstantsBulk(0.5),
                                           tol=1e-9).as_matrix(),
        "pf": pfaffian.pfaffian(A - A.T),
        "schur": arr,
        "top": lpp.sample_top_curves(20, 10, ModelParams(0.5, 1.4),
                                     np.random.default_rng(7), 30),
        "chain": interacting.sample_interacting_ensemble_mcmc(
            1, [1, 0], None, ModelParams(0.5, 0.8), steps=10,
            rng=np.random.default_rng(8), replicas=50),
        "archive": archive.read_bytes(),
        "cli": workloads.run_cli(["partition-fn", "--out", str(tmp_path / tag),
                                  "--set", "T1=3", "--set", "gap=1"]),
        "cli_file": None,
    }
    out["cli_file"] = (tmp_path / tag / "partition_fn.json").read_bytes()
    return out


def test_wrapped_calls_return_identical_results(tmp_path):
    plain = calls(tmp_path, "plain")
    tracer = tracing.Tracer()
    tracer.install(halfspace_lpp)
    try:
        traced = calls(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert plain.keys() == traced.keys()
    for key in plain:
        a, b = plain[key], traced[key]
        if isinstance(a, bytes):
            assert a == b, key
        else:
            np.testing.assert_array_equal(np.asarray(a, dtype=object),
                                          np.asarray(b, dtype=object), err_msg=key)
    names = {s[0] for s in tracer.spans}
    assert {"integrate_double", "Contour.nodes", "kernel_geo", "pfaffian",
            "RSKTableau.insert_counts", "InteractingEnsembleChain.run",
            "write_curve_archive", "cmd_partition_fn", "main"} <= names
    # the CLI reaches its command through the COMMANDS table
    main = next(i for i, s in enumerate(tracer.spans) if s[0] == "main")
    assert any(s[0] == "cmd_partition_fn" and s[4] == main for s in tracer.spans)


def test_wrapped_at_every_lookup_name_and_restored():
    orig = contours.integrate_double
    assert kernels.integrate_double is orig
    tracer = tracing.Tracer()
    tracer.install(halfspace_lpp)
    try:
        assert contours.integrate_double is not orig
        assert kernels.integrate_double is contours.integrate_double
        assert schur.sample_weights_batch is lpp.sample_weights_batch
    finally:
        tracer.uninstall()
    assert contours.integrate_double is orig and kernels.integrate_double is orig
    assert not hasattr(contours.Contour.nodes, "__wrapped__")


def test_self_times_and_metrics(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(halfspace_lpp)
    try:
        calls(tmp_path, "m")
    finally:
        tracer.uninstall()
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    assert all(st >= -1e-9 for st in selfs)
    top = sum(s[3] - s[2] for s in spans if s[4] < 0)
    assert math.isclose(sum(selfs), top, rel_tol=1e-9)
    m = tracing.layer_metrics(spans, 1)
    names = {name for name, _ in tracing.PER_LAYER_METRICS}
    assert names - {"trace.overhead_s", "process.cpu_s"} <= set(m)
    assert m["pfaffian.calls"] == 2 and m["pfaffian.max_n"] == 6
    assert m["kernels.doubles_per_value"] == 6
    assert m["contours.double_pairs"] > 0 and m["lpp.rsk_cells"] > 0


def test_spans_written_to_a_new_directory_and_overhead(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(halfspace_lpp)
    try:
        calls(tmp_path, "w")
    finally:
        tracer.uninstall()
    path = tmp_path / "runs" / "not-yet" / "trace.json"
    tracer.write(path)
    assert len(json.loads(path.read_text())["spans"]) == len(tracer.spans)
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["contours.double_calls"] > 0
    costs = tracing.wrapper_costs(calls=2000, repeats=3)
    assert all(c > 0 for c in costs)
    assert tracer.integrand_calls > 0 and tracer.hook_s > 0
    top = sum(s[3] - s[2] for s in tracer.spans if s[4] < 0)
    assert 0 < tracing.overhead_seconds(tracer, 1, costs) < top
