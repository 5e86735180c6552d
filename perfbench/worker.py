"""One workload in one single-threaded process, closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --workdir DIR --t0 MONOTONIC [--setup-only]

run.py starts it with `src` on PYTHONPATH and passes its own monotonic clock
reading just before the start as --t0, so set-up time counts interpreter
start.  The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_op(op):
    t = time.perf_counter()
    try:
        out, err = op.call(), None
    except Exception as e:          # the op is counted as failed and checked below
        out, err = None, "".join(traceback.format_exception_only(type(e), e)).strip()
    return out, err, time.perf_counter() - t


def check_round(wl, r, results, tally):
    """Check round r's (out, err) pairs into tally."""
    ops = wl.round(r)
    for op, (out, err) in zip(ops, results):
        if err is None and op.kind == "cli":
            tally["stdout_bytes"] += len(out[1].encode())
        problem = err or op.check(out)
        if problem:
            tally["failed"] += 1
            if op.fault is None or op.fault.symptom not in problem:
                tally["correct"] = False
                print("FAILED %s: %s" % (op.label, problem), file=sys.stderr, flush=True)
    problem = wl.check_round([(op, out, err) for op, (out, err) in zip(ops, results)])
    if problem:
        tally["correct"] = False
        print("FAILED round %d: %s" % (r, problem), file=sys.stderr, flush=True)


def warmup_problems(wl, results):
    """Failures among the warm-up outputs; warm-up ops have no known fault."""
    problems = []
    for op, (out, err) in zip(wl.warmup(), results):
        problem = err or op.check(out)
        if problem:
            problems.append("%s: %s" % (op.label, problem))
    return problems


class Checker:
    """Checks the warm-up and every round in a forked copy of this process.

    It is forked before the warm-up.  The copy rebuilds the warm-up and each
    round from the seed, so only outputs cross the pipe.  No check then
    allocates in the measured process: its heap, its garbage collector, its
    set-up time and its peak RSS see the program alone.  The measured process
    waits while the copy checks, so the two never run at once.
    """

    def __init__(self, wl):
        self.conn, child = multiprocessing.Pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            self.conn.close()
            code = 1
            try:
                tally = {"failed": 0, "correct": True, "stdout_bytes": 0}
                while True:
                    msg = child.recv()
                    if msg is None:
                        break
                    if msg[0] is None:
                        child.send(warmup_problems(wl, msg[1]))
                    else:
                        check_round(wl, msg[0], msg[1], tally)
                        child.send(True)
                child.send(tally)
                code = 0
            finally:
                sys.stderr.flush()
                os._exit(code)
        child.close()

    def check(self, r, results):
        """Check round r; r = None checks the warm-up and returns its failures."""
        self.conn.send((r, results))
        return self.conn.recv()

    def close(self):
        try:
            self.conn.send(None)
            return self.conn.recv()
        finally:
            os.waitpid(self.pid, 0)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import lie_sbe
    import workloads

    src = os.path.dirname(os.path.dirname(lie_sbe.__file__))
    wl = workloads.make(args.workload, args.seed, src, args.workdir, in_process=bool(args.trace))
    checker = Checker(wl)
    try:
        warm = [run_op(op)[:2] for op in wl.warmup()]
        ops = wl.round(0)
        setup_s = time.monotonic() - args.t0
        problems = checker.check(None, warm)
        if problems:
            raise SystemExit("warm-up failed: %s" % "; ".join(problems))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        times = []
        r = 0
        while True:
            if tracer is not None:
                tracer.install(lie_sbe)
            results = []
            for op in ops:
                if tracer is not None:
                    tracer.op_id = len(times)
                out, err, dt = run_op(op)
                results.append((out, err))
                times.append(dt)
            if tracer is not None:
                tracer.uninstall()
            timed = sum(times)
            if timed >= args.seconds:
                break
            checker.check(r, results)
            r += 1
            ops = wl.round(r)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        checker.check(r, results)
    finally:
        tally = checker.close()

    report = {
        "setup_s": setup_s,
        "attempted": len(times),
        "failed": tally["failed"],
        "correct": tally["correct"],
        "timed_s": timed,
        "rounds": r + 1,
        "ops_per_s": len(times) / timed,
        "op_p50_s": statistics.median(times),
        "op_p90_s": percentile(times, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["counts"] = tracer.all_counts()
        report["stdout_bytes"] = tally["stdout_bytes"] / (r + 1)
        tracer.save(os.path.join(args.workdir, "trace-%s-seed%d.npz" % (args.workload, args.seed)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
