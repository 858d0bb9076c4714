"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import plan  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)

import bncurve  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- spans ----------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(3.0)
        clock.now += 0.5

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    with tracer.span("op"):
        clock.now += 4.0
        traced_middle()
        traced_leaf(1.0)

    assert tracer.self_s("op") == pytest.approx(4.0)
    assert tracer.self_s("middle") == pytest.approx(1.5)
    assert tracer.self_s("leaf") == pytest.approx(6.0)
    assert tracer.calls("leaf") == 3
    # calls of one name are folded per parent: leaf under middle, leaf under op
    leaves = [n for n in tracer.nodes if n.name == "leaf"]
    assert sorted((n.count, n.total) for n in leaves) == [(1, 1.0), (2, 5.0)]
    parents = {tracer.nodes[n.parent].name for n in leaves}
    assert parents == {"middle", "op"}


def test_generator_span_excludes_consumer_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def produce():
        for k in range(3):
            clock.now += 1.0
            yield k

    with tracer.span("op"):
        for _ in tracer.wrap("gen", produce)():
            clock.now += 10.0

    assert tracer.self_s("gen") == pytest.approx(3.0)
    assert tracer.self_s("op") == pytest.approx(30.0)
    assert tracer.counter("gen", "items") == 3
    assert tracer.calls("gen") == 1


def test_instrument_patches_every_binding_and_restores():
    original = bncurve.chain.propagate
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert bncurve.curve.propagate is bncurve.chain.propagate is bncurve.propagate
        assert bncurve.curve.propagate is not original
        graph = bncurve.build_bn_curve(2)
    assert bncurve.curve.propagate is original and bncurve.propagate is original
    assert tracer.calls("chain.propagate") == graph.nu
    assert tracer.calls("curve.build_bn_curve") == 1
    assert tracer.calls("curve.is_connected") >= 1
    assert tracer.counter("curve.build_bn_curve", "nodes") == graph.delta


# -- seeded inputs ----------------------------------------------------------------


def _pairs(p):
    return [q[:2] for op in p["ops"] if op["kind"] == "intersect" for q in op["queries"]]


def test_same_seed_same_queries_and_other_seed_other_queries():
    first, again, other = (plan.make_plan("curve-large", s) for s in (7, 7, 8))
    assert first == again
    assert _pairs(first) != _pairs(other)
    assert first["order_seed"] != other["order_seed"]
    queries = [q for op in first["ops"] if op["kind"] == "intersect" for q in op["queries"]]
    assert len(queries) == plan.QUERIES
    assert sum(q[2] is not None for q in queries) >= plan.QUERIES // 2


def test_oracle_matches_library_graph():
    a = 3
    graph = bncurve.build_bn_curve(a)
    labels = {c.label: (c.sequence, c.marked) for c in graph.components}
    adjacency = {c: set() for c in labels.values()}
    for n in graph.nodes:
        x, y = labels[n.x.label], labels[n.y.label]
        adjacency[x].add(y)
        adjacency[y].add(x)
        assert plan.meet(x, y) == (n.x.label, n.x_offset, n.y.label, n.y_offset)
    for comp, nbrs in adjacency.items():
        assert set(plan.neighbors(comp)) == nbrs
    assert (len(labels), len(graph.nodes)) == (plan.nu(a), plan.delta(a))


def test_hook_length_count_matches_enumeration():
    for a, m in [(1, 2), (3, 2), (2, 3), (2, 4), (3, 3)]:
        assert plan.ballot_count(a, m) == sum(1 for _ in bncurve.enumerate_ballot(a, m))


# -- output checks ----------------------------------------------------------------


def _op(name):
    return next(op for ops in plan.WORKLOADS.values() for op in ops if op["name"] == name)


def _expected():
    with open(worker.EXPECTED_PATH) as fh:
        return json.load(fh)


def _stats():
    return {"steps": 0, "oracle_steps": 0}


def test_intact_gonality_output_passes():
    _, _, problems, _ = worker.execute(_op("gonality5"), _expected(), _stats())
    assert problems == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rc, text: (rc, text.replace("gonality = 6", "gonality = 7")),
        lambda rc, text: (rc, text[:-1]),
        lambda rc, text: (2, text),
    ],
    ids=["wrong-value", "truncated", "exit-code"],
)
def test_corrupted_cli_output_counts_as_failed(monkeypatch, corrupt):
    real = worker.run_cli
    monkeypatch.setattr(worker, "run_cli", lambda argv: corrupt(*real(argv)))
    p = {"ops": [_op("gonality5")], "order_seed": 1}
    res = worker.run_passes(p, 0)
    assert (res["attempted"], res["failed"]) == (1, 1)


def test_crashing_op_counts_as_failed(monkeypatch):
    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(worker, "run_cli", boom)
    res = worker.run_passes({"ops": [_op("gonality5")], "order_seed": 1}, 0)
    assert (res["attempted"], res["failed"]) == (1, 1)


def test_semantic_checks_catch_wrong_counts_without_digests():
    text = bncurve.export_graph(bncurve.build_bn_curve(3), "json")
    assert worker.check_text(["curve_json", 3], text, _stats()) == []
    wrong = text.replace(f'"delta": "{plan.delta(3)}"', f'"delta": "{plan.delta(3) + 1}"')
    assert worker.check_text(["curve_json", 3], wrong, _stats())
    dot = bncurve.export_graph(bncurve.build_bn_curve(3), "dot")
    assert worker.check_text(["curve_dot", 3], dot, _stats()) == []
    dropped = "\n".join(line for line in dot.split("\n") if " -- " not in line or "0/1" not in line)
    assert worker.check_text(["curve_dot", 3], dropped, _stats())


def test_wrong_intersect_answer_counts_per_query():
    queries = plan.make_queries(random.Random(3), a=3, n=6)
    op = {"kind": "intersect", "name": "intersect", "a": 3, "role": "items",
          "queries": json.loads(json.dumps(queries))}
    _, items, problems, _ = worker.execute(op, {}, _stats())
    assert (items, problems) == (6, [])
    hit = next(q for q in op["queries"] if q[2] is not None)
    hit[2][1] += 1
    miss = next(q for q in op["queries"] if q[2] is None)
    miss[2] = hit[2]
    _, _, problems, _ = worker.execute(op, {}, _stats())
    assert len(problems) == 2
    graph_json = bncurve.export_graph(bncurve.build_bn_curve(3), "json")
    assert len(worker.check_against_graph([op], graph_json)) == 2


def test_wrong_enumeration_counts_as_failed(monkeypatch):
    op = _op("enumerate_3_5")
    real = worker.run_enumerate
    monkeypatch.setattr(worker, "run_enumerate", lambda op: real(op)[1:])
    _, _, problems, _ = worker.execute(op, _expected(), _stats())
    assert problems


# -- the metric list ------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(plan.WORKLOADS)

    res = {"pass_s": [1.0], "main_s": [1.0], "op_s": {"x": [1.0]}, "op_items": {"x": 2},
           "scale": 1.0, "rss_mb": 1.0, "attempted": 1, "failed": 0}
    p = {"ops": [{"name": "x", "role": "items"}]}
    e2e = run.end_to_end(p, res, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}

    layers = worker.layer_metrics(spans.Tracer(), 1, _stats())
    layers.update(worker.scaling_placeholders())
    names = {k: u for k, (_, u) in layers.items()}
    names.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == names
