"""Span bookkeeping: self times, installation across namespaces, totals."""

import time

import numpy as np

import lie_sbe
import spans
from lie_sbe import cohomology, linalg


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3];  root > child [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    selfs = spans.self_times(start, end, parent)
    assert list(selfs) == [3.0, 2.0, 1.0, 4.0]
    assert selfs.sum() == 10.0              # self times add up to the root's span


def test_groups_name_every_span():
    assert spans.group_of("linalg.rank") == "linalg.rank"
    assert spans.group_of("linalg.nullspace") == "linalg.other"
    assert spans.group_of("cohomology.Differential.dense") == "cohomology.dense"
    assert spans.group_of("curvature.sectional") == "curvature.sampling"
    assert spans.group_of("cli.cmd_check") == "cli.run"
    assert spans.group_of("heintze.classify_hyperbolic") == "heintze"
    for name in ("linalg.rank", "cohomology.other", "buildings", "jsonio", "schemas.validate"):
        assert name in spans.GROUPS


def test_install_catches_names_bound_by_from_import():
    tracer = spans.Tracer()
    original = linalg.rank
    law = lie_sbe.catalog("heis(3)")
    tracer.install(lie_sbe)
    try:
        assert cohomology.rank is linalg.rank is not original   # `from .linalg import rank`
        t = time.perf_counter()
        lie_sbe.betti_numbers(law)
        wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    assert linalg.rank is original and cohomology.rank is original
    assert not hasattr(linalg.frac, "__wrapped__")          # one span per matrix entry would swamp it
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "cohomology.betti_numbers" and tracer.parent[0] == -1
    counts = tracer.all_counts()
    assert names.count("linalg.rank") == counts["linalg.rank.calls"] == 4
    assert counts["cohomology.differential.calls"] == 4 and counts["curvature.tensor.calls"] == 0
    totals = tracer.layer_totals()
    root = tracer.end[0] - tracer.start[0]
    selfs = spans.self_times(tracer.start, tracer.end, tracer.parent)
    counting = sum(s for s, i in zip(selfs, tracer.name) if tracer.names[i] == spans.COUNTING)
    assert names.count(spans.COUNTING) == names.count("linalg.rank") + 4    # + 4 differentials
    # counting spans are siblings of the span they count and belong to no layer
    assert all(names[p] != "linalg.rank" for p, n in zip(tracer.parent, names) if n == spans.COUNTING)
    assert counting > 0 and abs(sum(totals.values()) + counting - root) < 1e-9
    assert root <= wall
    assert totals["linalg.rank"] > 0 and totals["cohomology.other"] > 0
    assert all(p < i for i, p in enumerate(tracer.parent))
    assert set(np.asarray(tracer.op)) == {-1}
