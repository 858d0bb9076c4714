"""The degenerate Brill-Noether curve as an abstract nodal curve.

Components are the (ballot sequence, marked index) pairs from the chain
model; two components meet exactly when their bundle tuples agree at every
position where both are pinned.  The node then sits, on each component, at
the bundle offset the other component pins its free slot to.  From the graph
we count nodes, compute the arithmetic genus, and compare against the closed
formulas.

The meet rule is local.  Components x = (s, i) and y = (t, j) with i < j
meet exactly when one of these holds:

* t = s and j = i + 1;
* right after slot i, s reads a maximal run c^r (r >= 1) and then e = 3 - c,
  t = head.e.c^r.tail is s with that e moved to the front of the run, and
  j = i + r + 1.  t is then a ballot word unless e = 2 and head holds as
  many 2s as 1s, in which case there is no such component.

Proof sketch, from the walk in :func:`bncurve.chain.propagate`.  Both walks
start at (0, 1).  Before slot i both read a symbol from the same state
(u1, u2), and u1 < u2, so equal offsets force equal symbols: the heads agree.
At slot i, x is marked (both orders step up) while y reads a symbol, so the
states differ by one in a single coordinate.  Inside the window (i, j) the
offsets must agree, and the only way is for both walks to read the symbol c
whose offset is the coordinate they share; that keeps the difference, and
it means y read e = 3 - c at slot i.  Every walk ends at (a+1, a+2), and
agreement after slot j would again keep any difference, so the states must
meet at slot j, where y is marked; that forces x to read e there, after
which the tails agree as the heads did.  r = 0 is the first case.  So every
component has at most two forward neighbours (:func:`_forward_meets`), and
this rule, checked node for node against a pair scan of the offsets, is the
one definition of "meet" that :func:`intersect` and :func:`build_bn_curve`
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
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


def _forward_meets(seq: tuple, i: int):
    """Yield (t, j), j > i, for every component (t, j) that meets (seq, i).

    The local rule of the module docstring: (seq, i + 1) when i is not the
    last slot, and, when right after slot i seq reads a maximal run c^r
    followed by e = 3 - c, the sequence with that e moved to the front of the
    run, marked at i + r + 1, if it is a ballot word.
    """
    n = len(seq)
    if i > n:
        return
    yield seq, i + 1
    p = i - 1  # sequence position read right after slot i
    c = seq[p]
    q = p + 1
    while q < n and seq[q] == c:
        q += 1
    if q == n:
        return
    # moving a 2 to the front keeps the ballot property iff the head has
    # more 1s than 2s
    if c == 2 or 2 * seq[:p].count(1) > p:
        yield seq[:p] + (3 - c,) + seq[p:q] + seq[q + 1 :], q + 2


def intersect(
    chain: ChainSpec, x: BNComponentId, y: BNComponentId
) -> IntersectionNode | None:
    """Node between x and y, or None.

    They meet iff the one of larger marked index is among the (at most two)
    forward neighbours that the local rule of the module docstring gives the
    other (:func:`_forward_meets`).  Only on a hit are the offsets walked:
    each component's free slot is pinned by the other, which yields the node
    offsets.  Raises ValueError for x == y, a chain that is
    not of the rho = 1 shape, or a sequence whose length is not g - 1.
    """
    if x == y:
        raise ValueError("intersect needs two distinct components")
    chain.a  # validates the rho=1 shape
    for comp in (x, y):
        if len(comp.sequence) != chain.g - 1:
            raise ValueError(
                f"sequence length {len(comp.sequence)} != g-1 = {chain.g - 1}"
            )
    lo, hi = (x, y) if x.marked < y.marked else (y, x)
    if (hi.sequence, hi.marked) not in _forward_meets(lo.sequence, lo.marked):
        return None
    if x.sort_key() > y.sort_key():
        x, y = y, x
    bx = propagate(chain, x)[1]
    by = propagate(chain, y)[1]
    return IntersectionNode(
        x=x,
        x_offset=by[x.marked - 1],
        y=y,
        y_offset=bx[y.marked - 1],
    )


def build_bn_curve(a: int, *, max_a: int = DEFAULT_MAX_A) -> BNCurveGraph:
    """Build the full curve graph from the local meet rule.

    Each component (s, i) meets at most two components of larger marked
    index, both given by :func:`_forward_meets`: (s, i + 1), and, when s
    reads a maximal run c^r and then e = 3 - c right after slot i, s with
    that e moved to the front of the run, marked at i + r + 1, if that is a
    ballot word (the module docstring has the proof sketch).  So every node
    is found once, from its endpoint of smaller marked index.  Nodes are ordered by their
    endpoints' component order; their offsets are read from one
    :func:`propagate` walk per component.  Guarded at a <= max_a; pass a
    larger max_a to override.
    """
    if a < 1:
        raise ValueError("a must be positive")
    if a > max_a:
        raise ValueError(
            f"a={a} exceeds the guard max_a={max_a}; pass max_a explicitly to override"
        )
    chain = ChainSpec.rho_one(a)
    g = chain.g
    # ordered (sequence lex, marked), so index order is sort_key order and
    # the component (t, j) sits at index (rank of t) * g + j - 1
    components = all_components(chain)
    offsets = [propagate(chain, c)[1] for c in components]
    rank = {c.sequence: k for k, c in enumerate(components[::g])}

    pairs = []
    for ix, comp in enumerate(components):
        for t, j in _forward_meets(comp.sequence, comp.marked):
            iy = rank[t] * g + j - 1
            pairs.append((ix, iy) if ix < iy else (iy, ix))
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

    Reported as a cross-check only: it disagrees with the chain computation
    (6 and 2 where the chain gives 11 and 3) because the printed formula
    drops the factor (r+1); see :func:`eh_formula_corrected`.
    """
    value = Fraction(g - d + r, g - d + 2 * r + 1)
    for i in range(r + 1):
        value *= Fraction(factorial(i), factorial(g - d + r + i))
    return 1 + value * factorial(g)


def eh_formula_corrected(g: int, r: int, d: int) -> Fraction:
    """The genus formula with the factor (r+1) the printed version drops:
    1 + (r+1)(g-d+r)/(g-d+2r+1) * prod_{i=0}^r i!/(g-d+r+i)! * g!.

    For the rho = 1 chain (g, r, d) = (2a+1, 1, a+2) this reduces to
    1 + 2a(2a+1)c_a/(a+2) = :func:`genus_closed`, the genus of the graph.
    """
    return 1 + (r + 1) * (eh_formula(g, r, d) - 1)


def component_profile(
    graph: BNCurveGraph, comp: BNComponentId
) -> list[tuple[BNComponentId, int]]:
    """All (neighbor, offset-on-comp) pairs at nodes through comp, in node
    order."""
    profile = graph._profiles.get(comp)
    if profile is None:
        raise ValueError(f"{comp} is not a component of the graph")
    return list(profile)


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of already-encoded items, laid out as json.dumps(...,
    indent=2) lays it out when its opening bracket sits on a line indented
    by `indent`."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def export_graph(graph: BNCurveGraph, fmt: str) -> str:
    """Serialize the graph as DOT or JSON, deterministically.

    Components appear in (sequence lex, marked) order; counts in JSON are
    decimal strings.  The JSON text is byte for byte what
    ``json.dumps(payload, indent=2) + "\n"`` gives for the payload
    {a, g, d, nu, delta, genus, components: [{id, sequence, marked}],
    nodes: [{x, x_offset, y, y_offset}]}, written with string joins because
    json.dumps falls back to its pure-Python encoder whenever it indents.
    """
    if fmt == "json":
        enc = encode_basestring_ascii
        genus = genus_from_graph(graph)
        sequences: dict[tuple, str] = {}  # every sequence labels g components
        components = []
        for c in graph.components:
            seq = sequences.get(c.sequence)
            if seq is None:
                seq = sequences[c.sequence] = _json_array(
                    [str(v) for v in c.sequence], "      "
                )
            components.append(
                f'{{\n      "id": {enc(c.label)},\n      "sequence": {seq},'
                f'\n      "marked": {c.marked}\n    }}'
            )
        nodes = [
            f'{{\n      "x": {enc(n.x.label)},\n      "x_offset": {n.x_offset},'
            f'\n      "y": {enc(n.y.label)},\n      "y_offset": {n.y_offset}\n    }}'
            for n in graph.nodes
        ]
        return (
            f'{{\n  "a": {graph.a},\n  "g": {graph.g},\n  "d": {graph.d},'
            f'\n  "nu": {enc(str(graph.nu))},\n  "delta": {enc(str(graph.delta))},'
            f'\n  "genus": {enc(str(genus))},'
            f'\n  "components": {_json_array(components, "  ")},'
            f'\n  "nodes": {_json_array(nodes, "  ")}\n}}\n'
        )
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
