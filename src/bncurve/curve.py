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

Two more nodal-curve rules are defined here once, for this graph and the
genus-5 covers of :mod:`bncurve.gonality` alike: :func:`arithmetic_genus`
(genus_from_graph, TargetTree.genus, CoverData.source_genus) and the
union-find :func:`edges_connect` (BNCurveGraph.is_connected,
TargetTree.is_tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .chain import BNComponentId, ChainSpec, all_components, propagate
from .combinatorics import _unchecked, catalan

DEFAULT_MAX_A = 6
CURVE_SIZE_BUDGET = 10**7


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


# builds nodes whose endpoints are already distinct and in sort_key order
_node = _unchecked(IntersectionNode)


@dataclass(frozen=True)
class BNCurveGraph:
    """The Brill-Noether curve of a genus 2a+1 chain: elliptic components
    plus intersection nodes.

    The nodes are one flat tuple of ints, four per node: (x index, x_offset,
    y index, y_offset), each index into `components` and x index < y index.
    A tuple keeps the graph immutable and hashable, which its cached
    connectivity and profiles rely on.  `nodes` builds the IntersectionNode
    records from it on first use.  Raises ValueError for a table whose length
    is not a multiple of 4, a row whose x index is not below its y index, or
    an index outside 0..nu-1.
    """

    a: int
    components: tuple[BNComponentId, ...]
    node_table: tuple[int, ...]

    def __post_init__(self):
        table, nu = self.node_table, len(self.components)
        if len(table) % 4:
            raise ValueError("a node table holds four ints per node")
        for ix, iy in zip(table[0::4], table[2::4]):
            if not 0 <= ix < iy < nu:
                raise ValueError(
                    f"node ({ix}, {iy}) needs 0 <= x index < y index < {nu}"
                )

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
        return len(self.node_table) // 4

    def is_connected(self) -> bool:
        return self._connected

    # The graph is frozen, so connectivity, the per-component profiles and
    # the node records are computed once per graph, on first use.

    @cached_property
    def _connected(self) -> bool:
        table = self.node_table
        return edges_connect(range(self.nu), zip(table[0::4], table[2::4]))

    @cached_property
    def _profiles(self) -> dict[BNComponentId, list[tuple[BNComponentId, int]]]:
        comps = self.components
        profiles = [[] for _ in comps]
        rows = iter(self.node_table)
        for ix, x_offset, iy, y_offset in zip(rows, rows, rows, rows):
            profiles[ix].append((comps[iy], x_offset))
            profiles[iy].append((comps[ix], y_offset))
        return dict(zip(comps, profiles))

    @cached_property
    def nodes(self) -> tuple[IntersectionNode, ...]:
        """The node table as IntersectionNode records, in table order, built
        by the public constructor."""
        comps = self.components
        rows = iter(self.node_table)
        return tuple(
            IntersectionNode(comps[ix], x_offset, comps[iy], y_offset)
            for ix, x_offset, iy, y_offset in zip(rows, rows, rows, rows)
        )


# builds graphs whose node table is valid by construction
_graph = _unchecked(BNCurveGraph)


def edges_connect(vertices, edges) -> bool:
    """True when the edges, pairs of vertices, join every vertex into one
    piece (union-find); an edge with an unknown end, or no vertex, gives
    False."""
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(index)))
    roots = len(parent)
    for u, v in edges:
        iu, iv = index.get(u), index.get(v)
        if iu is None or iv is None:
            return False
        # find both roots, halving each path on the way up
        while parent[iu] != iu:
            parent[iu] = parent[parent[iu]]
            iu = parent[iu]
        while parent[iv] != iv:
            parent[iv] = parent[parent[iv]]
            iv = parent[iv]
        if iu != iv:
            parent[iu] = iv
            roots -= 1
    return roots == 1


def arithmetic_genus(genera, delta: int) -> int:
    """Arithmetic genus sum(g_i) + delta - nu + 1 of a connected nodal curve
    with component genera g_1..g_nu and delta nodes."""
    return sum(genera) + delta - len(genera) + 1


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
    offsets.  The node skips the constructor's re-check, made here first.
    Raises ValueError for x == y, a chain that is not of the rho = 1 shape,
    or a sequence whose length is not g - 1.
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
    bx = propagate(chain, x)
    by = propagate(chain, y)
    return _node(x=x, x_offset=by[x.marked - 1], y=y, y_offset=bx[y.marked - 1])


def build_bn_curve(a: int, *, max_a: int = DEFAULT_MAX_A) -> BNCurveGraph:
    """Build the full curve graph from the local meet rule.

    Each component (s, i) meets at most two components of larger marked
    index, both given by :func:`_forward_meets`: (s, i + 1), and, when s
    reads a maximal run c^r and then e = 3 - c right after slot i, s with
    that e moved to the front of the run, marked at i + r + 1, if that is a
    ballot word (the module docstring has the proof sketch).  So every node
    is found once, from its endpoint of smaller marked index, as an index
    pair ix < iy.  The pairs are sorted, and each becomes the node table row
    (ix, offset on ix, iy, offset on iy), read from the :func:`propagate`
    offsets of each component: component k is marked at k % g + 1, so its
    node point is the other's entry k % g.  That is nu propagate calls but
    catalan(a) walks, since the components come in (sequence, marked) order
    and propagate keeps the last word's walk.  No IntersectionNode is built;
    the graph, valid by construction, is built by
    :func:`bncurve.combinatorics._unchecked`, without the table re-check.

    Raises ValueError, before any enumeration, for a < 1, when nu + delta
    would exceed CURVE_SIZE_BUDGET, which max_a cannot lift (a <= 11 fits,
    a >= 12 does not), and for a > max_a (a guard; pass a larger max_a, the
    CLI's --max-a, to override).
    """
    if a < 1:
        raise ValueError("a must be positive")
    cat, cat_next = 1, 1
    for k in range(1, a + 1):  # cat = catalan(k), stopped once over budget
        cat, cat_next = cat_next, cat_next * (4 * k + 2) // (k + 2)
        # nu + delta = (2k+1) c_k + 2((2k+1) c_k - c_{k+1})
        if 3 * (2 * k + 1) * cat - 2 * cat_next > CURVE_SIZE_BUDGET:
            raise ValueError(
                f"the a={a} curve has more than {CURVE_SIZE_BUDGET} "
                "components and nodes"
            )
    if a > max_a:
        raise ValueError(
            f"a={a} exceeds the guard max_a={max_a}; "
            "pass --max-a (max_a= in Python) to override"
        )
    chain = ChainSpec.rho_one(a)
    g = chain.g
    # ordered (sequence lex, marked), so index order is sort_key order and
    # the component (t, j) sits at index (rank of t) * g + j - 1
    components = all_components(chain)
    offsets = [propagate(chain, c) for c in components]
    rank = {c.sequence: k for k, c in enumerate(components[::g])}

    pairs = []
    for ix, comp in enumerate(components):
        for t, j in _forward_meets(comp.sequence, comp.marked):
            iy = rank[t] * g + j - 1
            pairs.append((ix, iy) if ix < iy else (iy, ix))
    pairs.sort()

    table = []
    for ix, iy in pairs:
        table += (ix, offsets[iy][ix % g], iy, offsets[ix][iy % g])
    del pairs, offsets
    graph = _graph(a=a, components=tuple(components), node_table=tuple(table))
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
    """:func:`arithmetic_genus` of the nodal curve.

    Every component is elliptic, so this is delta + 1."""
    if not graph.is_connected():
        raise ValueError("genus formula requires a connected curve")
    return arithmetic_genus([1] * graph.nu, graph.delta)


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


def _json_array(items: list[str], indent: str) -> list[str]:
    """The pieces of a JSON array of already-encoded items, laid out as
    json.dumps(..., indent=2) lays it out when its opening bracket sits on a
    line indented by `indent`.  The caller joins them with the rest of its
    text, so the items are copied once, into that text."""
    if not items:
        return ["[]"]
    inner = "\n" + indent + "  "
    sep = "," + inner
    pieces = []
    for item in items:
        pieces += (sep, item)
    pieces[0] = "[" + inner
    pieces.append("\n" + indent + "]")
    return pieces


def export_graph(graph: BNCurveGraph, fmt: str) -> str:
    """Serialize the graph as DOT or JSON, deterministically.

    Components appear in (sequence lex, marked) order; counts in JSON are
    decimal strings.  The JSON text is byte for byte what
    ``json.dumps(payload, indent=2) + "\n"`` gives for the payload
    {a, g, d, nu, delta, genus, components: [{id, sequence, marked}],
    nodes: [{x, x_offset, y, y_offset}]}, written with string joins because
    json.dumps falls back to its pure-Python encoder whenever it indents.
    Nodes are read from the node table, each end's label by its index.
    """
    if fmt not in ("json", "dot"):
        raise ValueError(f"unknown export format: {fmt!r}")
    # A label holds only the digits 1 and 2, "|" and the decimal marked
    # index, and a count only digits, so none needs JSON escaping: each is
    # written between quotes as it is.
    labels = [c.label for c in graph.components]
    rows = iter(graph.node_table)
    rows = zip(rows, rows, rows, rows)
    if fmt == "json":
        genus = genus_from_graph(graph)
        sequences: dict[tuple, str] = {}  # every sequence labels g components
        components = []
        for c, label in zip(graph.components, labels):
            seq = sequences.get(c.sequence)
            if seq is None:
                seq = sequences[c.sequence] = "".join(
                    _json_array([str(v) for v in c.sequence], "      ")
                )
            components.append(
                f'{{\n      "id": "{label}",\n      "sequence": {seq},'
                f'\n      "marked": {c.marked}\n    }}'
            )
        nodes = [
            f'{{\n      "x": "{labels[ix]}",\n      "x_offset": {x_offset},'
            f'\n      "y": "{labels[iy]}",\n      "y_offset": {y_offset}\n    }}'
            for ix, x_offset, iy, y_offset in rows
        ]
        return "".join(
            [
                f'{{\n  "a": {graph.a},\n  "g": {graph.g},\n  "d": {graph.d},'
                f'\n  "nu": "{graph.nu}",\n  "delta": "{graph.delta}",'
                f'\n  "genus": "{genus}",\n  "components": ',
                *_json_array(components, "  "),
                ',\n  "nodes": ',
                *_json_array(nodes, "  "),
                "\n}\n",
            ]
        )
    lines = ["graph bn_curve {"]
    for label in labels:
        lines.append(f'  "{label}" [label="{label}"];')
    for ix, x_offset, iy, y_offset in rows:
        lines.append(
            f'  "{labels[ix]}" -- "{labels[iy]}" '
            f'[label="{x_offset}/{y_offset}"];'
        )
    lines += ["}", ""]  # the empty last line ends the text with a newline
    return "\n".join(lines)
