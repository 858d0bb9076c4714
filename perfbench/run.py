"""bncurve benchmark: drive bncurve the way a user does and check every output.

    python3 perfbench/run.py --workload curve-large --seed 1 --seconds 20 --trace 0

One closed loop with a single client: each run starts fresh interpreters
(perfbench/worker.py) that call ``bncurve.cli.main(argv)`` and the public API
in-process, one op at a time, repeating passes over the workload's ops for
their share of `--seconds`.  No threads, one worker process at a time.

--trace 0 prints the end-to-end metrics, measured without tracing by three
workers in turn whose samples are pooled.
--trace 1 gives half the time to an untraced worker and half to a traced one,
prints the per-layer metrics (spans recorded around calls into each module's
public functions) and the tracing overhead, and writes the span tree to
.perfbench/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import plan as plan_mod  # noqa: E402

SETUP_PROBES = 7
WORKERS = 3
RUN_BUDGET_S = 170


def python_worker(args, deadline, stdin=None) -> str:
    """Run worker.py in a fresh isolated interpreter; return its last line."""
    proc = subprocess.run(
        [sys.executable, "-I", WORKER, *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return lines[-1]


def measure_setup(deadline) -> float:
    """Median time to import bncurve and bncurve.cli in a fresh interpreter.
    The first probe writes the bytecode caches and is not counted."""
    python_worker(["--setup"], deadline)
    return statistics.median(
        float(python_worker(["--setup"], deadline)) for _ in range(SETUP_PROBES)
    )


def run_worker(plan, seconds, trace, deadline, trace_out=None) -> dict:
    payload = dict(plan, seconds=seconds, trace=trace, trace_out=trace_out)
    return json.loads(python_worker(["--run"], deadline, json.dumps(payload)))


def run_workers(plan, seconds, deadline) -> dict:
    """WORKERS fresh workers in turn, seconds/WORKERS each, samples pooled:
    much of the noise is fixed per process (heap layout), so several
    processes per run steady the medians."""
    runs = [run_worker(plan, seconds / WORKERS, False, deadline) for _ in range(WORKERS)]
    pooled = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "pass_s": [t for r in runs for t in r["pass_s"]],
        "main_s": [t for r in runs for t in r["main_s"]],
        "op_s": {},
        "op_items": {},
        "rss_mb": max(r["rss_mb"] for r in runs),
        "scales": [r["scale"] for r in runs],
    }
    for r in runs:
        pooled["op_items"].update(r["op_items"])
        for name, times in r["op_s"].items():
            pooled["op_s"].setdefault(name, []).extend(times)
    return pooled


def median_wall(res) -> float:
    return statistics.median(res["pass_s"])


def items_per_s(plan, res) -> float:
    """Items (intersect queries, gonality5 commands, enumerated words) per
    second over one pass with every items op at its median time."""
    items = seconds = 0.0
    for op in plan["ops"]:
        if op["role"] == "items":
            items += res["op_items"][op["name"]]
            seconds += statistics.median(res["op_s"][op["name"]])
    return items / seconds


def end_to_end(plan, res, setup_s) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median_wall(res), "s"),
        "main_op_s": (statistics.median(res["main_s"]), "s"),
        "items_per_s": (items_per_s(plan, res), "1/s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
        "ok_ratio": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
    }


def high_percentile(n):
    """The highest percentile with at least ten samples above it, if any."""
    return None if n <= 10 else 100 * (n - 10) // n


def print_ops(plan, res):
    """One line per op: median, sample count and the high percentile."""
    reports = {op["name"]: op.get("report") for op in plan["ops"]}
    for name, times in sorted(res["op_s"].items()):
        times = sorted(times)
        line = f"  {reports[name] or name + '_s':<24} {statistics.median(times):.6f} s  n={len(times)}"
        q = high_percentile(len(times))
        if q:
            line += f"  p{q}={times[len(times) * q // 100]:.6f} s"
        print(line)
    print("  speed scale per worker " + " ".join(f"{s:.4f}" for s in res["scales"]))


def print_scaling(metrics):
    """The curve-large scaling table, with the step factor of build self time."""
    rows = [a for a in plan_mod.SCALING_A if metrics[f"curve.build_bn_curve.peak_mb.a{a}"][0]]
    if not rows:
        return
    print("  scaling        build self_s  propagate self_s  peak_mb")
    prev = None
    for a in rows:
        build = metrics[f"curve.build_bn_curve.self_s.a{a}"][0]
        prop = metrics[f"chain.propagate.self_s.a{a}"][0]
        peak = metrics[f"curve.build_bn_curve.peak_mb.a{a}"][0]
        step = f"  x{build / prev:.2f}" if prev else ""
        print(f"  a={a:<12} {build:12.4f}  {prop:16.4f}  {peak:7.1f}{step}")
        prev = build


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bncurve", "__init__.py")):
        print(f"error: no bncurve sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    plan = plan_mod.make_plan(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    try:
        if not args.trace:
            setup_s = measure_setup(deadline)
            res = run_workers(plan, args.seconds, deadline)
            metrics = end_to_end(plan, res, setup_s)
            runs = [res]
            print_ops(plan, res)
            fails = res["failed"] / res["attempted"]
            print(f"  {plan_mod.ITEMS[args.workload]:<24} {metrics['items_per_s'][0]:.1f} 1/s")
            print(f"  {'fail_ratio':<24} {fails:.6f}  ({res['failed']}/{res['attempted']})")
        else:
            out_dir = os.path.join(ROOT, ".perfbench")
            os.makedirs(out_dir, exist_ok=True)
            trace_out = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
            base = run_worker(plan, args.seconds / 2, False, deadline)
            traced = run_worker(plan, args.seconds / 2, True, deadline, trace_out)
            metrics = {k: tuple(v) for k, v in traced["layers"].items()}
            metrics["trace.wall_s"] = (median_wall(traced), "s")
            metrics["trace.overhead_s"] = (median_wall(traced) - median_wall(base), "s")
            runs = [base, traced]
            print_scaling(metrics)
            print(f"  spans written to {os.path.relpath(trace_out, ROOT)}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for problem in [p for r in runs for p in r["problems"]]:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
