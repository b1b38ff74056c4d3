"""Benchmark of halfspace_lpp: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy.  The run repeats whole rounds
of the workload's operations until S seconds have passed (at least one
round), checks every round's outputs, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s as the median
over rounds, setup_s as the median of fresh-interpreter set-ups taken
before and after the rounds, peak_rss_mb).  With --trace 1 every round is
traced, and the metrics are the per-layer ones of tracing.py; the spans are
written to .perfbench_runs/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("kernel-pointwise", "kernel-tail-sums", "ensemble-sampling")
SETUP_PROBES = 3  # fresh-interpreter set-ups before the rounds, and as many after
BLAS_THREADS = "1"  # one BLAS thread: steadier timings on a shared machine


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import and input generation once, print it, exit")
    return ap.parse_args(argv)


def sources():
    """ROOT/src, or exit (code 1, no result) when the checkout lacks it."""
    src = ROOT / "src"
    if not (src / "halfspace_lpp" / "__init__.py").is_file():
        raise SystemExit(f"no halfspace_lpp sources under {src}")
    return src


def import_program():
    """Import halfspace_lpp with all its modules from ROOT/src."""
    src = sources()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import halfspace_lpp
    import halfspace_lpp.cli  # noqa: F401  (imports every module but pfaffian)
    import halfspace_lpp.pfaffian  # noqa: F401
    if Path(halfspace_lpp.__file__).resolve().parent != src / "halfspace_lpp":
        raise SystemExit(f"halfspace_lpp imported from {halfspace_lpp.__file__}, not {src}")
    return halfspace_lpp


def setup_probe(args):
    t0 = time.perf_counter()
    import_program()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, RUNS / "probe")
    print(repr(time.perf_counter() - t0))
    return 0


def setup_seconds(args):
    """Set-up times of SETUP_PROBES fresh interpreters: import plus input
    generation."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cpu_seconds():
    t = os.times()
    return t.user + t.system


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sources()
    if args.setup_probe:
        return setup_probe(args)

    RUNS.mkdir(parents=True, exist_ok=True)
    setups = [] if args.trace else setup_seconds(args)
    package = import_program()
    import tracing
    import workloads

    outdir = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, outdir)
    ops = wl.operations()
    refs = wl.references()

    attempted = failed = 0
    problems = []
    walls, cpus = [], []

    def one_round():
        nonlocal attempted, failed
        c0 = cpu_seconds()
        wall, failures = wl.run_round(ops)
        cpus.append(cpu_seconds() - c0)
        attempted += len(ops)
        failed += len(failures)
        for f in failures:
            print(f"failed operation: {f}", file=sys.stderr)
        try:
            problems.extend(wl.check(wl.results, refs))
        except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable output
            problems.append(f"checking raised {type(exc).__name__}: {exc}")
        return wall

    if args.trace:
        costs = tracing.wrapper_costs()
        tracer = tracing.Tracer()
        tracer.install(package)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        walls.append(one_round())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setups += setup_seconds(args)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        tracer.uninstall()
        spans_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        values = tracing.layer_metrics(tracer.spans, len(walls))
        values["trace.overhead_s"] = tracing.overhead_seconds(tracer, len(walls), costs)
        values["process.cpu_s"] = statistics.median(cpus)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_METRICS}
        print(f"{len(walls)} traced rounds; spans in {spans_path}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        print(f"{len(walls)} rounds: wall_s {[round(w, 3) for w in walls]}, "
              f"set-ups {[round(t, 3) for t in setups]}", file=sys.stderr)
    slowest = sorted(wl.seconds.items(), key=lambda kv: -kv[1])[:8]
    print("slowest operations of the last round: "
          + ", ".join(f"{k} {v:.2f}s" for k, v in slowest), file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
