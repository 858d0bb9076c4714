"""Spans around calls into bncurve's public functions, recorded from outside.

A span is kept per calling context: calls with the same name under the same
parent span are folded into one node holding a call count, the total time
and the time covered by child spans.  A node's self time is its total minus
that child time.  Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, counters added from the call's result)
TARGETS = [
    ("bncurve.combinatorics", "enumerate_ballot", "combinatorics.enumerate_ballot", None),
    ("bncurve.combinatorics", "is_admissible", "combinatorics.is_admissible", None),
    ("bncurve.chain", "all_components", "chain.all_components", None),
    ("bncurve.chain", "propagate", "chain.propagate", None),
    ("bncurve.chain", "render_tables", "chain.render_tables", None),
    (
        "bncurve.chain",
        "exhaustive_bound_search",
        "chain.exhaustive_bound_search",
        lambda args, kwargs, result: {"classes": 2 ** args[0], "passing": len(result)},
    ),
    (
        "bncurve.curve",
        "build_bn_curve",
        "curve.build_bn_curve",
        lambda args, kwargs, result: {"components": result.nu, "nodes": result.delta},
    ),
    ("bncurve.curve", "BNCurveGraph.is_connected", "curve.is_connected", None),
    (
        "bncurve.curve",
        "export_graph",
        "curve.export_graph",
        lambda args, kwargs, result: {"bytes": len(result.encode())},
    ),
    (
        "bncurve.curve",
        "intersect",
        "curve.intersect",
        lambda args, kwargs, result: {"hits": result is not None},
    ),
    ("bncurve.curve", "component_profile", "curve.component_profile", None),
    ("bncurve.gonality", "build_w14_circuit", "gonality.build_w14_circuit", None),
    ("bncurve.gonality", "exclude_degree", "gonality.exclude_degree", None),
    ("bncurve.gonality", "verify_cover", "gonality.verify_cover", None),
    ("bncurve.gonality", "verify_double_cover", "gonality.verify_double_cover", None),
    ("bncurve.gonality", "lin_equiv", "gonality.lin_equiv", None),
    ("bncurve.selfcheck", "run_selftest", "selfcheck.run_selftest", None),
    ("bncurve.cli", "main", "cli.main", None),
]


class Node:
    """All calls of one name under one parent node."""

    __slots__ = ("id", "parent", "name", "count", "total", "child", "counters")

    def __init__(self, id, parent, name):
        self.id = id
        self.parent = parent
        self.name = name
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.counters = {}

    @property
    def self_s(self) -> float:
        return self.total - self.child

    def to_json(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_s,
            "counters": self.counters,
        }


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.nodes = [Node(0, None, "root")]
        self._index = {}
        # one frame per open span: [node, time covered by its children]
        self._stack = [[self.nodes[0], 0.0]]

    def _child(self, name) -> Node:
        parent = self._stack[-1][0].id
        node = self._index.get((parent, name))
        if node is None:
            node = Node(len(self.nodes), parent, name)
            self.nodes.append(node)
            self._index[(parent, name)] = node
        return node

    def _open(self, node):
        frame = [node, 0.0]
        self._stack.append(frame)
        return frame, self.clock()

    def _close(self, frame, start):
        elapsed = self.clock() - start
        self._stack.pop()
        node = frame[0]
        node.total += elapsed
        node.child += frame[1]
        self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, name):
        node = self._child(name)
        node.count += 1
        frame, start = self._open(node)
        try:
            yield node
        finally:
            self._close(frame, start)

    def wrap(self, name, fn, counters=None):
        """A stand-in for `fn` that records a span per call.  A generator
        function's span covers only the time spent producing items, and
        counts them under "items"."""
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                node = tracer._child(name)
                node.count += 1
                items = fn(*args, **kwargs)
                while True:
                    frame, start = tracer._open(node)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame, start)
                    node.counters["items"] = node.counters.get("items", 0) + 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = tracer._child(name)
            node.count += 1
            frame, start = tracer._open(node)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start)
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    node.counters[key] = node.counters.get(key, 0) + value
            return result

        return traced

    # -- aggregates over every calling context --------------------------------

    def self_s(self, name) -> float:
        return sum(n.self_s for n in self.nodes if n.name == name)

    def calls(self, name) -> int:
        return sum(n.count for n in self.nodes if n.name == name)

    def counter(self, name, key) -> int:
        return sum(n.counters.get(key, 0) for n in self.nodes if n.name == name)

    def to_json(self):
        return [n.to_json() for n in self.nodes]


def _resolve(module, dotted):
    owner = importlib.import_module(module)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrument(tracer: Tracer):
    """Replace each target at its defining attribute and at every bncurve
    module binding that imported it, restoring all of them on exit."""
    resolved = [(_resolve(module, dotted), name, counters)
                for module, dotted, name, counters in TARGETS]
    modules = [m for n, m in list(sys.modules.items())
               if n == "bncurve" or n.startswith("bncurve.")]
    patched = []
    try:
        for (owner, attr), name, counters in resolved:
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, counters)
            places = [(owner, attr)] + [
                (mod, key)
                for mod in modules
                for key, value in vars(mod).items()
                if value is original and mod is not owner
            ]
            for obj, key in places:
                setattr(obj, key, wrapped)
                patched.append((obj, key, original))
        yield tracer
    finally:
        for obj, key, original in reversed(patched):
            setattr(obj, key, original)
