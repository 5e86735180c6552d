"""Steadiness check: run one workload k times, each with its own seed.

    python3 perfbench/steady.py --workload W [--runs 10] [--seed0 1]

For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the quartile spread and the largest deviation
from the median, both as shares of the median and next to the metric's
bound in BENCHMARK.json.  It also prints the failed share of every run,
which must be the same in all of them.  Raw results are appended as JSON
lines to perfbench/out/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    """(median, q1, q3, quartile spread / median, max |v - median| / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, max(abs(v - med) for v in values) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "steady-%s.jsonl" % args.workload)
    results = []
    for seed in range(args.seed0, args.seed0 + args.runs):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("run with seed %d exited with %d" % (seed, proc.returncode))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        results.append(res)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(res) + "\n")
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, res["correct"], res["attempted"], res["failed"]), flush=True)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed share: %s%s" % (", ".join("%.6f" % s for s in shares),
                                  "" if len(shares) == 1 else "  <- differs between runs"))
    print("%-12s %12s %12s %12s %8s %8s %6s" % ("metric", "median", "q1", "q3", "iqr/med",
                                                "maxdev", "bound"))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, spread, dev = summarize(values)
        flag = "" if spread <= bound / 3 else "  <- spread above a third of the bound"
        print("%-12s %12.6g %12.6g %12.6g %8.4f %8.4f %6.3f%s" % (name, med, q1, q3, spread, dev, bound, flag))
    return 0 if all(r["correct"] for r in results) and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
