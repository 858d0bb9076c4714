"""The degenerate Brill-Noether curve as an abstract nodal curve.

Components are the (ballot sequence, marked index) pairs from the chain
model; two components meet exactly when their bundle tuples agree at every
position where both are pinned.  The node then sits, on each component, at
the bundle offset the other component pins its free slot to.  From the graph
we count nodes, compute the arithmetic genus, and compare against the closed
formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .chain import BNComponentId, ChainSpec, all_components, propagate
from .combinatorics import catalan

DEFAULT_MAX_A = 6


@dataclass(frozen=True)
class IntersectionNode:
    """A node joining components x and y; x_offset is the pinned bundle
    offset of the node point on x, symmetrically for y.  Endpoints are stored
    with x.sort_key() < y.sort_key()."""

    x: BNComponentId
    x_offset: int
    y: BNComponentId
    y_offset: int

    def __post_init__(self):
        if self.x == self.y:
            raise ValueError("a node joins two distinct components")
        if self.x.sort_key() > self.y.sort_key():
            raise ValueError("endpoints must be canonically ordered")

    def offset_on(self, comp: BNComponentId) -> int:
        if comp == self.x:
            return self.x_offset
        if comp == self.y:
            return self.y_offset
        raise ValueError(f"{comp} is not an endpoint of this node")


@dataclass(frozen=True)
class BNCurveGraph:
    """The Brill-Noether curve of a genus 2a+1 chain: elliptic components
    plus intersection nodes."""

    a: int
    components: tuple[BNComponentId, ...]
    nodes: tuple[IntersectionNode, ...]

    @property
    def g(self) -> int:
        return 2 * self.a + 1

    @property
    def d(self) -> int:
        return self.a + 2

    @property
    def nu(self) -> int:
        return len(self.components)

    @property
    def delta(self) -> int:
        return len(self.nodes)

    def is_connected(self) -> bool:
        return self._connected

    # The graph is frozen, so connectivity and the per-component profiles are
    # computed once per graph, on first use.

    @cached_property
    def _connected(self) -> bool:
        index = {c: i for i, c in enumerate(self.components)}
        parent = list(range(len(index)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        roots = len(parent)
        for node in self.nodes:
            rx, ry = find(index[node.x]), find(index[node.y])
            if rx != ry:
                parent[rx] = ry
                roots -= 1
        return roots == 1

    @cached_property
    def _profiles(self) -> dict[BNComponentId, list[tuple[BNComponentId, int]]]:
        profiles = {c: [] for c in self.components}
        for node in self.nodes:
            profiles[node.x].append((node.y, node.x_offset))
            profiles[node.y].append((node.x, node.y_offset))
        return profiles


def _meet_key(offsets: tuple, slot: int) -> tuple:
    """The offset tuple with the 1-based `slot` also blanked to None.

    This is the one definition of "two components meet": x and y meet iff
    _meet_key(bx, y.marked) == _meet_key(by, x.marked), i.e. their offsets
    agree everywhere away from the two marked slots, which is everywhere both
    are pinned.
    """
    return offsets[: slot - 1] + (None,) + offsets[slot:]


def _offsets(chain: ChainSpec, comp: BNComponentId) -> tuple:
    """Bundle offsets of comp along the chain, None on its marked slot."""
    return tuple([b.u for b in propagate(chain, comp)[1]])


def intersect(
    chain: ChainSpec, x: BNComponentId, y: BNComponentId
) -> IntersectionNode | None:
    """Node between x and y, or None.

    They meet iff the bundle tuples agree wherever both are pinned (see
    :func:`_meet_key`); the free slot of each is then pinned by the other,
    yielding the node offsets.
    """
    if x == y:
        raise ValueError("intersect needs two distinct components")
    bx = _offsets(chain, x)
    by = _offsets(chain, y)
    if _meet_key(bx, y.marked) != _meet_key(by, x.marked):
        return None
    if x.marked == y.marked:
        # same free slot, all pinned entries equal: same component (excluded
        # above) -- cannot happen for distinct admissible sequences.
        raise AssertionError("distinct components with identical bundle tuples")
    if x.sort_key() > y.sort_key():
        x, y, bx, by = y, x, by, bx
    return IntersectionNode(
        x=x,
        x_offset=by[x.marked - 1],
        y=y,
        y_offset=bx[y.marked - 1],
    )


def build_bn_curve(a: int, *, max_a: int = DEFAULT_MAX_A) -> BNCurveGraph:
    """Build the full curve graph from an index on the meet key.

    A node joins x and y with x.marked < y.marked exactly when
    _meet_key(bx, y.marked) == _meet_key(by, x.marked).  So every component
    files its key under each slot after its own marked one, then looks up its
    key under each slot before it; every hit is a node, found once.  Guarded
    at a <= max_a; pass a larger max_a to override.
    """
    if a < 1:
        raise ValueError("a must be positive")
    if a > max_a:
        raise ValueError(
            f"a={a} exceeds the guard max_a={max_a}; pass max_a explicitly to override"
        )
    chain = ChainSpec.rho_one(a)
    # ordered (sequence lex, marked), so index order is sort_key order
    components = all_components(chain)
    offsets = [_offsets(chain, c) for c in components]

    bucket: dict[tuple, list[int]] = {}
    for ix, comp in enumerate(components):
        us = offsets[ix]
        for slot in range(comp.marked + 1, chain.g + 1):
            bucket.setdefault(_meet_key(us, slot), []).append(ix)
    pairs = []
    for iy, comp in enumerate(components):
        us = offsets[iy]
        for slot in range(1, comp.marked):
            for ix in bucket.get(_meet_key(us, slot), ()):
                pairs.append((ix, iy) if ix < iy else (iy, ix))
    del bucket  # free the index before the nodes are allocated
    pairs.sort()

    nodes = []
    for ix, iy in pairs:
        x, y = components[ix], components[iy]
        nodes.append(
            IntersectionNode(
                x=x,
                x_offset=offsets[iy][x.marked - 1],
                y=y,
                y_offset=offsets[ix][y.marked - 1],
            )
        )
    graph = BNCurveGraph(a=a, components=tuple(components), nodes=tuple(nodes))
    if not graph.is_connected():
        raise AssertionError("Brill-Noether curve graph came out disconnected")
    return graph


def delta_closed(a: int) -> int:
    """Closed-form node count 2((2a+1) c_a - c_{a+1})."""
    if a < 1:
        raise ValueError("a must be positive")
    return 2 * ((2 * a + 1) * catalan(a) - catalan(a + 1))


def genus_closed(a: int) -> int:
    """Closed-form genus 1 + 2a(2a+1)/(a+2) * c_a; the division is exact."""
    if a < 1:
        raise ValueError("a must be positive")
    num = 2 * a * (2 * a + 1) * catalan(a)
    if num % (a + 2):
        raise ArithmeticError("genus formula did not divide exactly")
    return 1 + num // (a + 2)


def genus_from_graph(graph: BNCurveGraph) -> int:
    """Arithmetic genus sum(g_i) + delta - nu + 1 of the nodal curve.

    Every component is elliptic, so this is delta + 1."""
    if not graph.is_connected():
        raise ValueError("genus formula requires a connected curve")
    return graph.nu * 1 + graph.delta - graph.nu + 1


def eh_formula(g: int, r: int, d: int) -> Fraction:
    """The published determinantal genus formula, evaluated exactly as
    printed: 1 + (g-d+r)/(g-d+2r+1) * prod_{i=0}^r i!/(g-d+r+i)! * g!.

    Reported as a cross-check only; see the discrepancy flag in the CLI.
    """
    value = Fraction(g - d + r, g - d + 2 * r + 1)
    for i in range(r + 1):
        value *= Fraction(factorial(i), factorial(g - d + r + i))
    return 1 + value * factorial(g)


def component_profile(
    graph: BNCurveGraph, comp: BNComponentId
) -> list[tuple[BNComponentId, int]]:
    """All (neighbor, offset-on-comp) pairs at nodes through comp, in node
    order."""
    profile = graph._profiles.get(comp)
    if profile is None:
        raise ValueError(f"{comp} is not a component of the graph")
    return list(profile)


def export_graph(graph: BNCurveGraph, fmt: str) -> str:
    """Serialize the graph as DOT or JSON, deterministically.

    Components appear in (sequence lex, marked) order; counts in JSON are
    decimal strings.
    """
    if fmt == "json":
        payload = {
            "a": graph.a,
            "g": graph.g,
            "d": graph.d,
            "nu": str(graph.nu),
            "delta": str(graph.delta),
            "genus": str(genus_from_graph(graph)),
            "components": [
                {
                    "id": c.label,
                    "sequence": list(c.sequence),
                    "marked": c.marked,
                }
                for c in graph.components
            ],
            "nodes": [
                {
                    "x": n.x.label,
                    "x_offset": n.x_offset,
                    "y": n.y.label,
                    "y_offset": n.y_offset,
                }
                for n in graph.nodes
            ],
        }
        # a freshly built tree has no cycles to guard against
        return json.dumps(payload, indent=2, check_circular=False) + "\n"
    if fmt == "dot":
        lines = ["graph bn_curve {"]
        for c in graph.components:
            lines.append(f'  "{c.label}" [label="{c.label}"];')
        for n in graph.nodes:
            lines.append(
                f'  "{n.x.label}" -- "{n.y.label}" '
                f'[label="{n.x_offset}/{n.y_offset}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format: {fmt!r}")
