"""Benchmark entry point.

    python3 perfbench/run.py --workload cohomology|algebra|pinch|cli
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own
single-threaded process (worker.py) with `src` on PYTHONPATH.  With
--trace 0 the last stdout line holds the end-to-end metrics; with --trace 1
a separate traced process gives the per-layer metrics.  Run outputs and
trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cohomology", "algebra", "pinch", "cli")
SETUPS = 5          # set-up is measured in this many processes; the median is reported
FRONT_END_REPS = 5
COUNTS = ("linalg.rank.calls", "linalg.rank.cells", "linalg.rank.nnz", "linalg.rref.calls",
          "linalg.rref.cells", "cohomology.differential.calls", "cohomology.differential.entries",
          "cohomology.differential.cells", "curvature.frame.calls", "curvature.tensor.calls",
          "curvature.samples")


def child_env():
    env = dict(os.environ)
    env.pop("LIE_SBE_CATALOG", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(args, workdir, setup_only=False, timeout=170):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall(cmd):
    t = time.perf_counter()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t


def front_end():
    """Interpreter start alone, and `import lie_sbe` on top of it."""
    bare = statistics.median(wall([sys.executable, "-c", "pass"]) for _ in range(FRONT_END_REPS))
    full = statistics.median(wall([sys.executable, "-c", "import lie_sbe"]) for _ in range(FRONT_END_REPS))
    return bare, full - bare


def end_to_end_metrics(setups, rep):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (rep["ops_per_s"], "1/s"),
        "op_p50_s": (rep["op_p50_s"], "s"),
        "op_p90_s": (rep["op_p90_s"], "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }


def layer_metrics(rep, interpreter_s, import_s):
    layers, counts = rep["layers"], rep["counts"]
    metrics = {name + ".self_s": (value, "s") for name, value in layers.items()}
    for key in COUNTS:
        metrics[key] = (counts.get(key, 0), "count")
    calls = counts.get("cohomology.differential.calls", 0)
    metrics["cohomology.differential.reuse"] = (
        counts.get("cohomology.differential.reused", 0) / calls if calls else 0.0, "ratio")
    metrics["cli.interpreter_s"] = (interpreter_s, "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.stdout_bytes"] = (rep.get("stdout_bytes", 0), "B")
    # every traced second is either some layer's self time or unattributed
    metrics["bench.unattributed_s"] = (rep["timed_s"] - sum(layers.values()), "s")
    metrics["bench.traced_wall_s"] = (rep["timed_s"], "s")
    return metrics


def untraced(args, workdir):
    setups = [worker(args, workdir, setup_only=True, timeout=60)["setup_s"] for _ in range(SETUPS - 1)]
    rep = worker(args, workdir)
    return rep, end_to_end_metrics(setups + [rep["setup_s"]], rep)


def traced(args, workdir):
    interpreter_s, import_s = front_end()
    rep = worker(args, workdir)
    return rep, layer_metrics(rep, interpreter_s, import_s)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lie_sbe", "__init__.py")):
        print("error: no lie_sbe sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out", "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        rep, metrics = (traced if args.trace else untraced)(args, workdir)
    finally:
        shutil.rmtree(os.path.join(workdir, "catalog"), ignore_errors=True)
        if not os.listdir(workdir):
            os.rmdir(workdir)
    print(json.dumps({
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
