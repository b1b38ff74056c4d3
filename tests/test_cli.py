import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from halfspace_lpp import cli, kernels
from halfspace_lpp.model import ModelParams


def run(args):
    return cli.main(args)


def test_config_resolution(tmp_path, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"q": 0.4, "samples": 7}))
    monkeypatch.setenv("HSLPP_C", "0.9")
    cfg = cli.load_config(str(cfgfile), ["samples=9", "tag=hello"])
    assert cfg["q"] == 0.4
    assert cfg["c"] == 0.9      # env beats file default
    assert cfg["samples"] == 9  # flag beats env and file
    assert cfg["tag"] == "hello"
    h1 = cli.config_hash(cfg)
    assert h1 == cli.config_hash(dict(cfg))


def test_zero_sample_config_clean_exit(tmp_path):
    rc = run([
        "simulate-lpp", "--out", str(tmp_path), "--set", "samples=0",
        "--set", "N=6", "--set", "M=3",
    ])
    assert rc == 0
    assert (tmp_path / "lpp_curves.csv").exists()
    assert (tmp_path / "simulate_lpp_manifest.json").exists()


def test_fixed_seed_byte_identical_archives(tmp_path):
    a1 = tmp_path / "a"
    a2 = tmp_path / "b"
    for out in (a1, a2):
        rc = run([
            "simulate-lpp", "--out", str(out), "--seed", "77",
            "--set", "N=8", "--set", "M=4", "--set", "samples=5",
            "--set", "q=0.5", "--set", "c=1.2",
        ])
        assert rc == 0
    b1 = (a1 / "lpp_curves.csv").read_bytes()
    b2 = (a2 / "lpp_curves.csv").read_bytes()
    assert b1 == b2


def test_simulate_schur_and_manifest(tmp_path):
    rc = run([
        "simulate-schur", "--out", str(tmp_path), "--seed", "3",
        "--set", "N=3", "--set", "M=2", "--set", "samples=20",
    ])
    assert rc == 0
    man = json.loads((tmp_path / "simulate_schur_manifest.json").read_text())
    assert man["seed"] == 3
    assert man["config_hash"]
    assert man["wall_clock_s"] >= 0.0


def test_partition_fn_command(tmp_path):
    rc = run([
        "partition-fn", "--out", str(tmp_path), "--set", "q=0.5",
        "--set", "c=0.8", "--set", "T1=1", "--set", "gap=1",
    ])
    assert rc == 0
    rec = json.loads((tmp_path / "partition_fn.json").read_text())
    assert rec["series"] == pytest.approx(13.0 / 6.0, abs=1e-8)
    assert rec["rel_dev"] < 1e-8
    assert rec["contour_im"] == 0.0


def test_env_reaches_an_optional_key(tmp_path, monkeypatch):
    # gap is not in DEFAULTS; HSLPP_GAP must still reach partition-fn
    monkeypatch.setenv("HSLPP_GAP", "3")
    rc = run(["partition-fn", "--out", str(tmp_path), "--set", "T1=1"])
    assert rc == 0
    rec = json.loads((tmp_path / "partition_fn.json").read_text())
    assert rec["y"] == [3, 0]
    assert "gap" not in cli.load_config(None, [], env={})


def test_config_keys_read_are_listed_and_listed_keys_read():
    # every key cli.py reads from a config is in DEFAULTS or OPTIONAL_KEYS,
    # so an HSLPP_<KEY> variable reaches it, and every listed key is read
    tree = ast.parse(Path(cli.__file__).read_text())
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg"
                and isinstance(node.ctx, ast.Load) and isinstance(node.slice, ast.Constant)):
            read.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and getattr(node.func.value, "id", None) == "cfg"):
            read.add(node.args[0].value)
    listed = set(cli.DEFAULTS) | set(cli.OPTIONAL_KEYS)
    assert read <= listed, f"read but not listed: {sorted(read - listed)}"
    assert listed <= read, f"listed but never read: {sorted(listed - read)}"


# per regime: the --set items and one point [s, x, t, y]
KERNEL_EVAL_REGIMES = {
    "hs_limit": ([], [1.0, 0.0, 1.0, 0.0]),
    "bulk_limit": ([], [1.0, 0.0, 1.5, 0.3]),
    "bulk": (["c=1.3", "N=50"], [1.0, 0.0, 1.5, 0.3]),
    "edge": (["c=1.4", "N=64"], [0.5, 0.1, 1.0, -0.2]),
    "geo": (["q=0.4", "c=0.7", "N=3"], [1, 0, 2, 2]),
}


def test_kernel_eval_records(tmp_path):
    for regime, (sets, point) in KERNEL_EVAL_REGIMES.items():
        out = tmp_path / regime
        argv = ["kernel-eval", "--out", str(out), "--set", f"regime={regime}",
                "--set", f"points={json.dumps([point])}", "--tol", "1e-7"]
        for item in sets:
            argv += ["--set", item]
        assert run(argv) == 0, regime
        recs = json.loads((out / "kernel_values.json").read_text())
        assert [r["entry"] for r in recs] == ["k11", "k12", "k21", "k22"], regime
        for r in recs:
            assert set(r) >= {"regime", "params", "points", "tol", "value_re",
                              "value_im", "err"}
            assert r["regime"] == regime and r["points"] == point
            assert r["value_im"] == 0.0 and math.isfinite(r["value_re"])


@pytest.mark.parametrize("s, x, t, y", [(1, 0, 2, 2), (2, 2, 1, 0), (1, 1, 2, 1)])
def test_kernel_eval_geo_orders_the_slices_by_time(tmp_path, s, x, t, y):
    # geo points are [M_u, x, M_v, y]: the earlier time is the earlier slice
    P = ModelParams(0.4, 0.7)
    rc = run(["kernel-eval", "--out", str(tmp_path), "--set", "regime=geo",
              "--set", "q=0.4", "--set", "c=0.7", "--set", "N=3", "--tol", "1e-9",
              "--set", f"points={json.dumps([[s, x, t, y]])}"])
    assert rc == 0
    recs = json.loads((tmp_path / "kernel_values.json").read_text())
    kv = kernels.kernel_geo(int(s > t), x, int(s < t), y, P, 3, s, t, tol=1e-9)
    assert [r["value_re"] for r in recs] == [kv.k11, kv.k12, kv.k21, kv.k22]


def test_gibbs_verify_command(tmp_path):
    rc = run([
        "gibbs-verify", "--out", str(tmp_path), "--seed", "11",
        "--set", "q=0.3", "--set", "c=0.6", "--set", "N=2", "--set", "M=1",
        "--set", "samples=40000",
    ])
    assert rc == 0


def test_pinned_origin_command(tmp_path):
    rc = run([
        "pinned-origin", "--out", str(tmp_path), "--seed", "5",
        "--set", "q=0.5", "--set", "c=0.3", "--set", "samples=20000",
        "--set", "T_sweep=[50,200]",
    ])
    assert rc == 0
    man = json.loads((tmp_path / "pinned_origin_manifest.json").read_text())
    assert "gap_tv" in man["checks"]


def test_kernel_converge_table(tmp_path):
    rc = run([
        "kernel-converge", "--out", str(tmp_path), "--set", "regime=bulk",
        "--set", "q=0.5", "--set", "c=0.8", "--set", "N_sweep=[30,60]",
        "--set", "points=[[1.0, 0.0, 1.5, 0.3]]", "--tol", "1e-6",
    ])
    assert rc == 0
    rows = json.loads((tmp_path / "kernel_converge.json").read_text())
    assert len(rows) == 2
    assert {"err_I11", "err_I12", "err_I22", "err_R12", "err_R22"} <= set(rows[0])


def test_kernel_converge_lists_failing_nesting_conditions(tmp_path):
    rc = run([
        "kernel-converge", "--out", str(tmp_path), "--set", "regime=bulk",
        "--set", "q=0.5", "--set", "c=0.8", "--set", "N_sweep=[50]",
        "--tol", "1e-6",
    ])
    assert rc == 0
    man = json.loads((tmp_path / "kernel_converge_manifest.json").read_text())
    assert "c_inside_gamma_minus" in man["checks"]["failing_nesting_conditions"]["50"]


def test_verify_all_filtered(tmp_path):
    rc = run([
        "verify-all", "--out", str(tmp_path), "--set",
        'checks=["rsk_oracle", "phase_diagnostics"]',
    ])
    assert rc == 0
    man = json.loads((tmp_path / "verify_all_manifest.json").read_text())
    assert set(man["checks"]) == {"rsk_oracle", "phase_diagnostics"}
    assert all(v["passed"] for v in man["checks"].values())


def test_brownian_limit_small_run(tmp_path):
    rc = run([
        "brownian-limit", "--out", str(tmp_path), "--seed", "9",
        "--set", "q=0.5", "--set", "c=1.4", "--set", "N=64",
        "--set", "samples=400", "--set", "t_grid=[0.0, 1.0, 9.5]",
    ])
    man = json.loads((tmp_path / "brownian_limit_manifest.json").read_text())
    # t = 9.5 >= kappa_bar = 8 must be flagged out of window
    assert man["checks"]["skipped_out_of_window"] == [9.5]
    assert "var_ratio_t0" in man["checks"]


def test_brownian_limit_window_is_zero_to_kappa_bar(tmp_path):
    base = ["brownian-limit", "--seed", "9", "--set", "q=0.5", "--set", "c=1.4",
            "--set", "N=20", "--set", "samples=200"]
    run(base + ["--out", str(tmp_path / "neg"), "--set", "t_grid=[-1.0, 2.0]"])
    man = json.loads((tmp_path / "neg" / "brownian_limit_manifest.json").read_text())
    assert man["checks"]["skipped_out_of_window"] == [-1.0]
    assert [k for k in man["checks"] if k.startswith("var_ratio")] == ["var_ratio_t2"]
    # kappa_bar = 8 at q = 0.5, c = 1.4: refused before any curve is sampled
    with pytest.raises(ValueError, match="kappa_bar = 8"):
        run(base + ["--out", str(tmp_path / "past"), "--set", "t_grid=[9.0]"])
    assert not (tmp_path / "past").exists()


def test_manifest_config_has_no_jobs(tmp_path):
    rc = run(["partition-fn", "--out", str(tmp_path), "--set", "T1=3"])
    assert rc == 0
    man = json.loads((tmp_path / "partition_fn_manifest.json").read_text())
    assert "jobs" not in man["config"]
    with pytest.raises(SystemExit):
        run(["partition-fn", "--out", str(tmp_path), "--jobs", "2"])


def test_env_values_parse_like_set_flags():
    env = {"HSLPP_N": "", "HSLPP_Q": "true", "HSLPP_C": "null", "HSLPP_OUT": "runs2"}
    cfg = cli.load_config(None, [], env=env)
    assert cfg["N"] == cli.DEFAULTS["N"]
    assert cfg["q"] is True
    assert cfg["c"] is None
    assert cfg["out"] == "runs2"


# SHA-256 of the archives these runs wrote before the sampler layer moved to
# prefix-sum RSK rows and in-place geometric draws; a fixed (config, seed)
# must keep writing the same bytes.
PINNED_ARCHIVES = {
    ("simulate-lpp", "lpp_curves.csv"):
        "0c83da26e204a2fcc03d82b7ae650bf58e967719bd33e9175a1aeb581800424f",
    ("simulate-lpp", "lpp_scaled.csv"):
        "8e47ba2cef724aff7309ed3153a2974be433f9aaecc952fca93d70b9735ffe5c",
    ("simulate-schur", "schur_curves.csv"):
        "41cc210f78bd091427706287eb9f6d49f9793e1f80f1ec9efc41db1044c2f399",
}


def test_fixed_seed_archives_keep_their_digests(tmp_path):
    sets = {
        "simulate-lpp": ["N=20", "M=30", "samples=50", "n_curves=2", "q=0.5", "c=1.2"],
        "simulate-schur": ["N=3", "M=2", "samples=2000", "q=0.5", "c=0.8"],
    }
    for command, kv in sets.items():
        argv = [command, "--out", str(tmp_path / command), "--seed", "4242"]
        for item in kv:
            argv += ["--set", item]
        assert run(argv) == 0
    for (command, name), digest in PINNED_ARCHIVES.items():
        data = (tmp_path / command / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of a cold start; the package never loads it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, halfspace_lpp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
    # the chi^2 checks take the tail from scipy.special and integrate the
    # Bessel bins by Gauss-Legendre: neither scipy.stats nor scipy.integrate
    code = ("import sys, numpy as np; from halfspace_lpp import acceptance as a\n"
            "for fn in (a.check_monotone_coupling, a.check_continuum_samplers):\n"
            "    assert fn(np.random.default_rng(1)).passed\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
