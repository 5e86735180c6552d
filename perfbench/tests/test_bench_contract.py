"""The printed metric names match BENCHMARK.json; the inputs are whole
rounds of fixed make-up; a tree without the sources is refused."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_end_to_end_names_match():
    rep = {"ops_per_s": 1.0, "op_p50_s": 1.0, "op_p90_s": 1.0, "peak_rss_mb": 1.0}
    metrics = run.end_to_end_metrics([1.0, 2.0, 3.0], rep)
    assert metrics["setup_s"][0] == 2.0
    assert {n: u for n, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_names_match_and_add_up():
    layers = {g: 0.5 for g in spans.GROUPS}
    rep = {"layers": layers, "counts": {"cohomology.differential.calls": 4,
                                        "cohomology.differential.reused": 1}, "timed_s": 20.0}
    metrics = run.layer_metrics(rep, 0.1, 0.2)
    assert {n: u for n, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["cohomology.differential.reuse"][0] == 0.25
    selfs = sum(v for n, (v, _) in metrics.items() if n.endswith(".self_s"))
    assert selfs + metrics["bench.unattributed_s"][0] == metrics["bench.traced_wall_s"][0]


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", ["cohomology", "algebra", "pinch", "cli"])
def test_rounds_have_fixed_make_up(name, tmp_path):
    def make_up(seed, r):
        wl = workloads.make(name, seed, "src", str(tmp_path))
        return sorted((op.kind, op.label, op.fault is not None) for op in wl.round(r))
    assert make_up(1, 0) == make_up(2, 3)
    faults = [label for _, label, fault in make_up(1, 0) if fault]
    expected = {"pinch": 6, "cli": 2}.get(name, 0)
    assert len(faults) == expected


def test_a_fresh_op_checks_out(tmp_path):
    wl = workloads.make("cohomology", 5, "src", str(tmp_path))
    op = next(op for op in wl.round(0) if op.label == "h_adj l_6_7 q=1")
    assert op.check(op.call()) is None
    assert op.check(op.call() + 1) is not None


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pinch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_known_fault_is_excused_only_by_its_symptom():
    import worker

    class OneOp:
        def __init__(self, op):
            self.op = op

        def round(self, r):
            return [self.op]

        def check_round(self, results):
            return None

    fault = workloads.Fault("cause", "uneven real parts")
    op = workloads.Op("pinching", "x", lambda: None, lambda out: None, fault)
    for err, correct in (("PreconditionError: uneven real parts", True), ("TypeError: boom", False)):
        tally = {"failed": 0, "correct": True, "stdout_bytes": 0}
        worker.check_round(OneOp(op), 0, [(None, err)], tally)
        assert (tally["failed"], tally["correct"]) == (1, correct)
