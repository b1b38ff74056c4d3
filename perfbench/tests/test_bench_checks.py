"""Each output check of the benchmark passes on the program's output and
fails on a deliberately wrong one."""

import numpy as np
import pytest

import checks
import reference
import workloads
from halfspace_lpp import lpp, schur, stats
from halfspace_lpp.model import ModelParams

SEED = 3


def run_ops(wl, names):
    ops = dict(wl.operations())
    return {name: ops[name]() for name in names}


@pytest.fixture
def pointwise(tmp_path):
    return workloads.KernelPointwise(SEED, tmp_path)


def test_limit_kernel_check_catches_shifted_k12(pointwise):
    res = run_ops(pointwise, ["limit_bulk_1", "limit_from_hs_1"])
    refs = pointwise.references()
    assert pointwise.check(res, refs) == []
    res["limit_bulk_1"].k12 += 1e-3
    assert any("conjugated" in p for p in pointwise.check(res, refs))


def test_tail_sum_check_catches_shifted_k12(tmp_path):
    wl = workloads.KernelTailSums(SEED, tmp_path)
    res = run_ops(wl, ["tail_bulk_c1.3", "diag_bulk_c1.3"])
    assert wl.check(res, {}) == []
    k12, err = res["diag_bulk_c1.3"]
    res["diag_bulk_c1.3"] = (k12 + 1e-3, err)
    assert any("direct sum" in p for p in wl.check(res, {}))


def test_threshold_check_needs_a_fall_resolved_by_the_errors(tmp_path):
    wl = workloads.KernelTailSums(SEED, tmp_path)
    res = run_ops(wl, ["threshold_N100", "threshold_N400"])
    assert wl.check(res, {}) == []
    val, err = res["threshold_N400"]
    res["threshold_N400"] = (val, 5e-2)  # a fall hidden in the returned error
    assert any("not resolved" in p for p in wl.check(res, {}))
    res["threshold_N400"] = (val + 2e-2, err)  # the N=400 count moved away from 1
    assert any("not resolved" in p for p in wl.check(res, {}))


def test_exact_correlation_check_catches_rho1_off_by_1e4(pointwise):
    (j, x) = pointwise.inputs["rho1"][0]
    name = f"rho1_{j}_{x}"
    res = run_ops(pointwise, [name])
    refs = pointwise.references()
    assert pointwise.check(res, refs) == []
    val, err = res[name]
    res[name] = (val + 1e-4, err)
    assert any(f"rho1({j},{x})" in p for p in pointwise.check(res, refs))


def test_enumeration_missing_mass_is_below_the_tested_error():
    table = reference.load()
    assert table["missing_mass"] < 1e-4 / 10


def test_ensemble_check_catches_swapped_curves():
    arr = schur.sample_schur_process_batch(3, 4, ModelParams(0.4, 0.7),
                                           np.random.default_rng(0), 500)
    assert checks.ensemble("schur", arr) == []
    swapped = arr[:, [1, 0, 2], :]
    assert checks.ensemble("schur", swapped)


def test_g1_check_catches_swapped_curves():
    N, M = 6, 5
    W = lpp.sample_weights_batch(N + M, N, ModelParams(0.5, 1.4),
                                 np.random.default_rng(1), 4)
    lam = lpp.lambda_process_batch(W, N, M, max_curves=2)
    tables = [lpp.lpp_g1_grid(w) for w in W]
    assert checks.top_curve_is_g1("lpp", lam, tables, N) == []
    assert checks.top_curve_is_g1("lpp", lam[:, ::-1, :], tables, N)


def test_archive_check_catches_one_altered_entry(tmp_path):
    arr = schur.sample_schur_process_batch(3, 2, ModelParams(0.4, 0.7),
                                           np.random.default_rng(2), 50)
    path = tmp_path / "curves.csv"
    stats.write_curve_archive(path, arr)
    assert checks.same_array("archive", checks.parse_curve_archive(path), arr) == []
    lines = path.read_text().splitlines()
    sample, index, time, value = lines[7].split(",")
    lines[7] = ",".join([sample, index, time, str(int(value) + 1)])
    path.write_text("\n".join(lines) + "\n")
    assert checks.same_array("archive", checks.parse_curve_archive(path), arr) == [
        "archive: 1 entries differ"]


def test_sampled_correlation_check_catches_wrong_probability():
    assert checks.binomial("rho1", 2000, 10000, 0.2) == []
    assert checks.binomial("rho1", 2000, 10000, 0.17)


def test_chi_square_check_catches_wrong_law():
    rng = np.random.default_rng(4)
    counts = np.bincount(rng.integers(0, 10, size=6000), minlength=10)
    assert checks.chi_square("uniform", counts, [600] * 10) == []
    assert checks.chi_square("uniform", counts, [900] + [5100 / 9] * 9)


def test_strictly_falling():
    assert checks.strictly_falling("e", [3.0, 2.0, 1.0]) == []
    assert checks.strictly_falling("e", [3.0, 2.0, 2.5])
