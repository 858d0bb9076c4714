"""One benchmark worker: a fresh interpreter that imports bncurve from the
checkout's src/ and drives it in-process, one op at a time.

    python3 -I perfbench/worker.py --setup           # print the import time
    python3 -I perfbench/worker.py --run < plan.json  # run a plan, print JSON
    python3 -I perfbench/worker.py --record          # print expected outputs

Ops are CLI commands (``bncurve.cli.main(argv)`` with stdout captured),
batches of ``intersect`` queries and ``enumerate_ballot`` shapes.  Every
output is checked; a wrong or missing output, a nonzero exit code or an
exception counts as a failed op.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import sys
import time
import tracemalloc
from array import array
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import plan as plan_mod  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
clock = time.perf_counter

# Timings are scaled to a reference speed.  On a shared host the same op
# takes up to 40% longer in busy periods than in quiet ones.  A fixed slice
# of integer arithmetic plus random reads over a 32 MB buffer (past L2, into
# the shared L3) is timed between ops and drifts with the host, so each run
# reports time * REF_S / (median slice time in that run).  The slice
# allocates nothing the garbage collector tracks, so the program's heap
# cannot slow it.
REF_S = 0.027  # median slice time on an idle 2-core x86-64 VM, CPython 3.11
CALIBRATION_EVERY_S = 0.2
_INT_STEPS = 100_000
_BUFFER = bytearray(32 << 20)
_READS = array("l", random.Random(0).choices(range(len(_BUFFER)), k=60_000))


def calibrate() -> float:
    """Seconds taken by one fixed calibration slice."""
    start = clock()
    s = 0
    for k in range(_INT_STEPS):
        s = (s + k * k) % 1000003
    for i in _READS:
        s += _BUFFER[i]
    return clock() - start


def speed_scale(samples) -> float:
    """Factor turning this process's seconds into reference seconds."""
    return REF_S / statistics.median(samples)


# spans whose self time, and whose call count, a traced run reports
SELF_TIMED = [
    "combinatorics.enumerate_ballot",
    "combinatorics.is_admissible",
    "chain.all_components",
    "chain.propagate",
    "chain.render_tables",
    "chain.exhaustive_bound_search",
    "curve.build_bn_curve",
    "curve.is_connected",
    "curve.export_graph",
    "curve.intersect",
    "curve.component_profile",
    "gonality.build_w14_circuit",
    "gonality.exclude_degree",
    "gonality.verify_cover",
    "gonality.verify_double_cover",
    "selfcheck.run_selftest",
    "cli.main",
]
CALL_COUNTED = [
    "combinatorics.is_admissible",
    "chain.propagate",
    "curve.is_connected",
    "curve.intersect",
    "curve.component_profile",
    "gonality.lin_equiv",
]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, trace_stats) -> dict:
    """Per-pass figures from the spans of `passes` identical passes."""
    per_pass = lambda v: v // passes if v % passes == 0 else v / passes  # noqa: E731
    m = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (tracer.self_s(name) / passes, "s")
    for name in CALL_COUNTED:
        m[f"{name}.calls"] = (per_pass(tracer.calls(name)), "count")
    m["combinatorics.words"] = (
        per_pass(tracer.counter("combinatorics.enumerate_ballot", "items")), "count")
    m["chain.bound_search.pass_ratio"] = (_ratio(
        tracer.counter("chain.exhaustive_bound_search", "passing"),
        tracer.counter("chain.exhaustive_bound_search", "classes")), "ratio")
    m["curve.export_bytes"] = (
        per_pass(tracer.counter("curve.export_graph", "bytes")), "bytes")
    m["curve.intersect.hit_ratio"] = (_ratio(
        tracer.counter("curve.intersect", "hits"),
        tracer.calls("curve.intersect")), "ratio")
    m["curve.components"] = (
        per_pass(tracer.counter("curve.build_bn_curve", "components")), "count")
    m["curve.nodes"] = (
        per_pass(tracer.counter("curve.build_bn_curve", "nodes")), "count")
    m["gonality.oracle_step_ratio"] = (
        _ratio(trace_stats["oracle_steps"], trace_stats["steps"]), "ratio")
    return m


# -- ops ----------------------------------------------------------------------


def run_cli(argv):
    import bncurve.cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = bncurve.cli.main(argv)
    return rc, out.getvalue()


def run_intersect(op):
    import bncurve

    chain = bncurve.ChainSpec.rho_one(op["a"])
    make, intersect = bncurve.BNComponentId, bncurve.intersect
    return [
        intersect(chain, make(tuple(xs), xm), make(tuple(ys), ym))
        for (xs, xm), (ys, ym), _ in op["queries"]
    ]


def run_enumerate(op):
    import bncurve

    return [w.symbols for w in bncurve.enumerate_ballot(op["a"], op["m"])]


def digest(text: str):
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def words_digest(words):
    data = bytes(s for w in words for s in w)
    return {"sha256": hashlib.sha256(data).hexdigest(), "words": len(words)}


# -- checks: each returns a list of problems, empty when the output is right --

HEADER = re.compile(r'"nu": "(\d+)",\s*"delta": "(\d+)",\s*"genus": "(\d+)"')
NODE = re.compile(
    r'"x": "([^"]+)",\s*"x_offset": (\d+),\s*"y": "([^"]+)",\s*"y_offset": (\d+)')


def check_text(check, text, stats):
    kind, *params = check
    problems = []
    if kind == "curve_json":
        a = params[0]
        head = HEADER.search(text[:400])
        want = (plan_mod.nu(a), plan_mod.delta(a), plan_mod.genus(a))
        if head is None or tuple(map(int, head.groups())) != want:
            problems.append(f"curve a={a}: header does not give nu, delta, genus {want}")
    elif kind == "curve_dot":
        a = params[0]
        edges = text.count(" -- ")
        comps = text.count("\n") - edges - 2
        if (comps, edges) != (plan_mod.nu(a), plan_mod.delta(a)):
            problems.append(f"dot a={a}: {comps} components, {edges} nodes")
    elif kind in ("tables_csv", "tables_text"):
        g = params[0]
        lines = text.splitlines()
        header = lines[0].split("," if kind == "tables_csv" else None) if lines else []
        if len(lines) != g + 1 or len(header) - 1 != plan_mod.nu((g - 1) // 2):
            problems.append(f"tables g={g}: {len(lines)} rows, {len(header)} columns")
    elif kind == "selftest":
        lines = text.splitlines()
        if len(lines) != 10 or not all(line.startswith("[PASS] ") for line in lines):
            problems.append("selftest: not ten passing criteria")
    elif kind == "gonality5":
        body, _, last = text.rstrip("\n").rpartition("\n")
        if last != "gonality = 6" or json.loads(body).get("gonality") != 6:
            problems.append("gonality5: gonality is not 6")
    elif kind == "degree":
        payload = json.loads(text)
        if params[0] == 6:
            if payload.get("passed") is not True:
                problems.append("degree 6: cover verification did not pass")
        else:
            steps = payload.get("steps", [])
            if not steps or any(s["verdict"] != "ok" for s in steps):
                problems.append(f"degree {params[0]}: exclusion trace not ok")
            stats["steps"] += len(steps)
            stats["oracle_steps"] += sum(1 for s in steps if s["oracle_calls"])
    else:
        raise ValueError(f"unknown check {kind!r}")
    return problems


def node_tuple(node):
    if node is None:
        return None
    return (node.x.label, node.x_offset, node.y.label, node.y_offset)


def check_queries(op, results):
    return [
        f"intersect {plan_mod.label(x)} {plan_mod.label(y)}: got {got}, want {want}"
        for (x, y, want), got in zip(op["queries"], map(node_tuple, results))
        if (None if want is None else tuple(want)) != got
    ]


def check_against_graph(ops, text):
    """Every query's expected answer must agree with the node set of the
    built curve, read from its JSON export."""
    nodes = {(m[1], int(m[2]), m[3], int(m[4])) for m in NODE.finditer(text)}
    pairs = {(n[0], n[2]) for n in nodes} | {(n[2], n[0]) for n in nodes}
    problems = []
    for op in ops:
        for x, y, want in op["queries"]:
            lx, ly = plan_mod.label(x), plan_mod.label(y)
            agrees = tuple(want) in nodes if want else (lx, ly) not in pairs
            if not agrees:
                problems.append(f"query {lx} {ly}: expected {want} disagrees with graph")
    return problems


# -- the pass loop --------------------------------------------------------------


def execute(op, expected, stats):
    """Run one op; return (seconds, items done, problems, stdout or None).
    Items are CLI calls, intersect queries or enumerated words."""
    kind = op["kind"]
    if kind == "cli":
        start = clock()
        rc, text = run_cli(op["argv"])
        elapsed = clock() - start
        problems = [] if rc == 0 else [f"{op['name']}: exit code {rc}"]
        if digest(text) != expected[op["name"]]:
            problems.append(f"{op['name']}: stdout differs from the recorded output")
        problems += check_text(op["check"], text, stats)
        return elapsed, 1, problems, text
    if kind == "intersect":
        start = clock()
        results = run_intersect(op)
        elapsed = clock() - start
        return elapsed, len(results), check_queries(op, results), None
    if kind == "enumerate":
        start = clock()
        words = run_enumerate(op)
        elapsed = clock() - start
        a, m = op["a"], op["m"]
        problems = []
        if len(words) != plan_mod.ballot_count(a, m):
            problems.append(f"enumerate ({a},{m}): {len(words)} words")
        if any(u >= v for u, v in zip(words, words[1:])):
            problems.append(f"enumerate ({a},{m}): not strictly increasing")
        if words_digest(words) != expected[op["name"]]:
            problems.append(f"enumerate ({a},{m}): words differ from the recorded ones")
        return elapsed, len(words), problems, None
    raise ValueError(f"unknown op kind {kind!r}")


def attempts(op) -> int:
    """Ops counted by one execution: one per intersect query, else one."""
    return len(op["queries"]) if op["kind"] == "intersect" else 1


def run_passes(plan, seconds, tracer=None):
    """Repeat passes over the plan's ops, each pass in a fresh seeded order,
    while another pass of the mean length so far ends within `seconds` (at
    least one pass).  The heap is collected before each op, untimed, so no
    op pays for its predecessor's garbage.  Times come back in reference
    seconds."""
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    rng = random.Random(plan["order_seed"])
    ops = plan["ops"]
    queries = [op for op in ops if op["kind"] == "intersect"]
    res = {"attempted": 0, "failed": 0, "problems": [], "pass_s": [], "op_s": {},
           "main_s": [], "op_items": {}, "calibration_s": []}
    stats = {"steps": 0, "oracle_steps": 0}
    graph_checked = False
    begin = clock()
    calibrated = begin - CALIBRATION_EVERY_S
    while True:
        order = list(ops)
        rng.shuffle(order)
        res["pass_s"].append(0.0)
        for op in order:
            gc.collect()
            try:
                if tracer is None:
                    elapsed, items, problems, text = execute(op, expected, stats)
                else:
                    with tracer.span("op." + op["name"]):
                        elapsed, items, problems, text = execute(op, expected, stats)
                failed = min(len(problems), attempts(op))
            except Exception as exc:  # a crashing op is a failed op
                elapsed, items, text = 0.0, 0, None
                problems = [f"{op['name']}: {type(exc).__name__}: {exc}"]
                failed = attempts(op)
            res["attempted"] += attempts(op)
            res["failed"] += failed
            res["problems"] += problems[:5]
            res["op_s"].setdefault(op["name"], []).append(elapsed)
            res["pass_s"][-1] += elapsed
            if clock() - calibrated >= CALIBRATION_EVERY_S:
                res["calibration_s"].append(calibrate())
                calibrated = clock()
            if op["role"] == "main":
                res["main_s"].append(elapsed)
            if op["role"] == "items":
                res["op_items"][op["name"]] = items
            if queries and text is not None and not problems and not graph_checked \
                    and op["check"] == ["curve_json", plan_mod.QUERY_A]:
                graph_problems = check_against_graph(queries, text)
                res["failed"] += len(graph_problems)
                res["problems"] += graph_problems[:5]
                graph_checked = True
        passes = len(res["pass_s"])
        if (clock() - begin) * (passes + 1) / passes > seconds:
            break
    if queries and not graph_checked:
        res["failed"] += 1
        res["problems"].append("intersect answers never checked against a built graph")
    res["trace_stats"] = {k: v // len(res["pass_s"]) for k, v in stats.items()}
    res["problems"] = res["problems"][:20]
    scale = res["scale"] = speed_scale(res["calibration_s"])
    res["pass_s"] = [t * scale for t in res["pass_s"]]
    res["main_s"] = [t * scale for t in res["main_s"]]
    res["op_s"] = {name: [t * scale for t in ts] for name, ts in res["op_s"].items()}
    return res


def scaling_placeholders():
    """The scaling metrics, reported as 0 on workloads that do not run it."""
    out = {}
    for a in plan_mod.SCALING_A:
        out[f"curve.build_bn_curve.self_s.a{a}"] = (0.0, "s")
        out[f"chain.propagate.self_s.a{a}"] = (0.0, "s")
        out[f"curve.build_bn_curve.peak_mb.a{a}"] = (0.0, "MB")
    return out


def scaling():
    """build_bn_curve and propagate self time, and tracemalloc peak, per a."""
    import bncurve.curve

    out = {}
    for a in plan_mod.SCALING_A:
        tracer = Tracer()
        with instrument(tracer):
            bncurve.curve.build_bn_curve(a, max_a=a)
        out[f"curve.build_bn_curve.self_s.a{a}"] = (tracer.self_s("curve.build_bn_curve"), "s")
        out[f"chain.propagate.self_s.a{a}"] = (tracer.self_s("chain.propagate"), "s")
        gc.collect()
        tracemalloc.start()
        try:
            bncurve.curve.build_bn_curve(a, max_a=a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"curve.build_bn_curve.peak_mb.a{a}"] = (peak / 2**20, "MB")
    return out


def import_bncurve() -> float:
    start = clock()
    import bncurve
    import bncurve.cli  # noqa: F401

    elapsed = clock() - start
    if not os.path.abspath(bncurve.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bncurve imported from {bncurve.__file__}, not from {SRC}")
    return elapsed


def main(argv):
    if argv == ["--setup"]:
        import_s = import_bncurve()
        print(repr(import_s * speed_scale([calibrate() for _ in range(3)])))
        return 0
    if argv == ["--record"]:
        import_bncurve()
        expected = {}
        for ops in plan_mod.WORKLOADS.values():
            for op in ops:
                if op["kind"] == "cli":
                    expected[op["name"]] = digest(run_cli(op["argv"])[1])
                else:
                    expected[op["name"]] = words_digest(run_enumerate(op))
        print(json.dumps(expected, indent=2, sort_keys=True))
        return 0
    if argv != ["--run"]:
        print(__doc__, file=sys.stderr)
        return 1
    plan = json.load(sys.stdin)
    import_bncurve()
    if not plan["trace"]:
        res = run_passes(plan, plan["seconds"])
    else:
        tracer = Tracer()
        with instrument(tracer):
            res = run_passes(plan, plan["seconds"], tracer)
        layers = layer_metrics(tracer, len(res["pass_s"]), res["trace_stats"])
        layers.update(scaling() if plan["scaling"] else scaling_placeholders())
        res["layers"] = {
            name: (value * res["scale"] if unit == "s" else value, unit)
            for name, (value, unit) in layers.items()
        }
        with open(plan["trace_out"], "w") as fh:
            json.dump({"workload": plan["workload"], "passes": len(res["pass_s"]),
                       "spans": tracer.to_json()}, fh)
    # the calibration buffers stay resident for the whole run
    own = len(_BUFFER) + _READS.itemsize * len(_READS)
    res["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - own / 2**20
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
