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
component has at most two forward neighbours, and this rule, checked node
for node against a pair scan of the offsets, is the one definition of
"meet": the move, with its ballot condition and the target's marked slot,
is :func:`_moved`.  :func:`intersect` reads it one pair at a time: the two
forward neighbours have different marked indices, so j fixes which one
(t, j) can be, (s, i + 1) when j = i + 1 and the move of the run
s[i-1:j-2] when j >= i + 2, and it tests that one candidate.
:func:`_word_nodes` counts each word's nodes from a scan of its runs,
read as a proof, with no graph at all.

:func:`_node_rows` is the one producer of the node table.  It yields the
table a word at a time, each node from the word that holds its smaller
index, so the rows come out in order with no graph and no global sort,
only each word's own.  Moving a 2 forward keeps the head and then raises
a 1 to a 2, so it lands on a higher word; moving a 1 forward lands on a
lower one.  So a word t keeps its own 2-moves, and takes each 1-move
that lands on it as a backward candidate: t reads head.1.2^R.tail, and
the candidate s = head.2^r.1.2^(R-r).tail, r = 1..R, gives t when its 1
moves to the front of its run of 2s.  Every 1-move of every word is one
such candidate of its target, so no node is missed or found twice; a
candidate is kept when it is a ballot word, r at most the height of
head.  The rows build no neighbour word: the rank of each target is
read off a table of ballot numbers (:func:`_ballot_table`), as the rank
of t changed at the few positions the move touches, and the offsets off
t's runs.  A count per word of the rows that land on it from lower
words checks those ranks and proves connectivity: it must equal the
length from the word's first 2 to its last 1, which is positive for
every word but 1^a 2^a.  :func:`build_bn_curve` joins the rows into its
graph, and checks the offsets of every row against the :func:`propagate`
walk and its connectivity with the union-find.  The `curve` command lays
the rows out through the export's own layout (:func:`_curve_pieces`),
with no BNCurveGraph, no :func:`propagate` and no union-find.  So
:func:`_moved` is the meet rule that :func:`intersect` reads, and the
rows are the same rule counted a word at a time; the tests check the
rows against rows built from :func:`_moved` and a rank dict.

Two more nodal-curve rules are defined here once, for this graph and the
genus-5 covers of :mod:`bncurve.gonality` alike: :func:`arithmetic_genus`
(genus_from_graph, TargetTree.genus, CoverData.source_genus) and the
union-find :func:`edges_connect` over the ints 0..n-1
(BNCurveGraph.is_connected on component indices, TargetTree.is_tree on its
names mapped to ints).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from math import comb, factorial
from operator import attrgetter, eq

from .chain import (
    DEFAULT_MAX_A,
    BNComponentId,
    ChainSpec,
    _digits,
    _lay_out,
    _slot_offset,
    all_components,
    propagate,
)
from .combinatorics import _unchecked, catalan, enumerate_ballot

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
    records from it on first use.  Raises ValueError for an a that
    :meth:`ChainSpec.rho_one` refuses, a component whose word length is not
    2a, a component listed twice, a table whose length is not a multiple of
    4, an entry that is not a plain int (a bool, a float or an int subclass
    prints differently from its int twin), a row whose x index is not below
    its y index, or an index outside 0..nu-1.
    """

    a: int
    components: tuple[BNComponentId, ...]
    node_table: tuple[int, ...]

    def __post_init__(self):
        ChainSpec.rho_one(self.a)  # refuses an a that is not an int >= 1
        table, nu = self.node_table, len(self.components)
        for comp in self.components:
            if len(comp.sequence) != 2 * self.a:
                raise ValueError(f"component {comp.label} is not of a = {self.a}")
        if len(set(self.components)) != nu:
            raise ValueError("a component is listed twice")
        if len(table) % 4:
            raise ValueError("a node table holds four ints per node")
        for v in table:
            if type(v) is not int:
                raise ValueError(f"node table entry {v!r} is not an int")
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
        return edges_connect(self.nu, zip(table[0::4], table[2::4]))

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
        by the public constructor, each row's ends put in sort_key order."""
        comps = self.components
        rows = iter(self.node_table)
        nodes = []
        for ix, x_offset, iy, y_offset in zip(rows, rows, rows, rows):
            if comps[iy].sort_key() < comps[ix].sort_key():
                ix, x_offset, iy, y_offset = iy, y_offset, ix, x_offset
            nodes.append(IntersectionNode(comps[ix], x_offset, comps[iy], y_offset))
        return tuple(nodes)


# builds graphs whose node table is valid by construction
_graph = _unchecked(BNCurveGraph)


def edges_connect(n: int, edges) -> bool:
    """True when the edges, pairs of ints in 0..n-1, join all n vertices
    into one piece; n = 0 gives False.

    A union-find over the list of parents, halving each path on the way up
    to its root.  The ends are list indices, so the caller keeps them in
    range: BNCurveGraph's constructor rejects an index outside 0..nu-1, and
    TargetTree.is_tree maps its names to ints and gives False for an
    unknown side.
    """
    parent = list(range(n))
    roots = n
    for u, v in edges:
        # each assignment goes left to right: parent[u] first, then u
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            roots -= 1
    return roots == 1


def arithmetic_genus(genera, delta: int) -> int:
    """Arithmetic genus sum(g_i) + delta - nu + 1 of a connected nodal curve
    with component genera g_1..g_nu and delta nodes."""
    return sum(genera) + delta - len(genera) + 1


def _moved(seq: tuple, p: int, q: int) -> tuple[tuple, int] | None:
    """The move of the meet rule: (t, q + 2), where t is seq with the symbol
    e = seq[q] moved to position p, the front of the run seq[p:q] of the
    other symbol, or None when t is not a ballot word.

    Moving a 1 forward keeps the ballot property; moving a 2 to position p
    keeps it iff the head seq[:p] holds more 1s than 2s.  (seq, p + 1) then
    meets (t, q + 2), by the rule of the module docstring with i = p + 1 and
    r = q - p.
    """
    if seq[q] == 2 and 2 * seq[:p].count(1) <= p:
        return None
    return seq[:p] + seq[q : q + 1] + seq[p:q] + seq[q + 1 :], q + 2


def _word_nodes(seq: tuple) -> int:
    """The number of nodes whose endpoint of smaller marked index lies on
    the word seq, of length g - 1 = 2a: g - 1 + 2a - D - R, where D is the
    length of seq's final run of 2s and R its number of returns to height
    0 (the height of a prefix is its count of 1s less its count of 2s).

    Proof from :func:`_moved`.  A node's endpoint of smaller marked index
    is some (seq, i), and by the rule of the module docstring (seq, i)
    meets at most two components of larger marked index: (seq, i + 1), for
    each of the g - 1 slots i < g, and the move of the run read right after
    slot i.  That run is seq[p:q] with p = i - 1, so every slot of every
    run but the last has a move to ask :func:`_moved` for, 2a - D slots in
    all, and the last run has none.  Moving a 1 forward keeps the ballot
    property.  Moving the 2 that ends a run of 1s seq[start:q] to position
    p keeps it iff seq[:p] has positive height, and that height is the
    height of seq[:start] plus p - start; so the move fails only at the
    first slot of a run of 1s that starts at height 0.  Those runs are the
    first run and the one after each return to 0 but the last, R in all.

    D and R are each distributed over the Dyck words as the ballot numbers
    b(a, k) = k/(2a-k) C(2a-k, a).  For R: a word with R = k is k primes
    1 w 2 in a row, and b(a, k) is the coefficient of x^a in (x c(x))^k,
    where c is the Catalan series.  For D: the mirror, s reversed with 1
    and 2 swapped, permutes the Dyck words and sends the final run of 2s
    to the first run of 1s, the height of the first peak; and Deutsch's
    involution ("An involution on Dyck paths and its consequences",
    Discrete Math. 204, 1999) shows that height distributed as R.  So
    sum(D) = sum(R) = sum_k k b(a, k) = 3a c_a / (a + 2), and the counts
    add up to 4a c_a - 6a c_a / (a + 2) = :func:`delta_closed`.
    TestWordNodes (tests/test_curve.py) checks each step: the count,
    test_equals_the_nodes_of_each_word; the mirror and Deutsch's
    equidistribution, test_mirror_sends_the_final_run_to_the_first_peak;
    the ballot numbers, test_final_run_and_returns_are_each_ballot_distributed;
    the sum, in exact integers for a < 400,
    test_ballot_numbers_sum_to_delta_closed_far_past_enumeration.
    """
    a = len(seq) // 2
    final = seq[::-1].index(1)  # D: seq ends in 2s and holds a 1
    # R: seq[:2j] is at height 0 iff it holds j 1s and j 2s, so sums to 3j
    returns = sum(
        map(eq, islice(accumulate(seq), 1, None, 2), range(3, 3 * a + 1, 3))
    )
    return 4 * a - final - returns


def _ballot_table(n: int) -> list[list[int]]:
    """The ballot numbers a rank reads, for words of length n: entry
    [pos][h] counts the ballot words that read a 1 at pos after a prefix of
    height h (its count of 1s less its count of 2s), f(n - pos - 1, h + 1),
    where f(L, m) = C(L, (L - m)/2) - C(L, (L - m)/2 - 1) is the number of
    walks of L steps of +-1 from height m down to 0 that never dip below 0
    (the reflection principle), and 0 when L - m is odd or negative.  A
    prefix of a ballot word of length n is at most n/2 high, so h runs over
    0..n/2.  Made once per :func:`_node_rows` call and not kept."""
    table = []
    for pos in range(n):
        length = n - pos - 1
        row = []
        for h in range(n // 2 + 1):
            down = length - h - 1  # the steps past the h + 1 the walk falls
            if down < 0 or down % 2:
                row.append(0)
            else:
                k = down // 2
                row.append(comb(length, k) - (comb(length, k - 1) if k else 0))
        table.append(row)
    return table


def _node_rows(chain: ChainSpec):
    """Yield (t, rows) for each ballot word t of the chain, in lex order,
    where rows are the node rows whose smaller index lies on t, four ints
    per node (x index, x_offset, y index, y_offset) in (x index, y index)
    order: joined in turn, they are the :func:`build_bn_curve` node table.
    Words are bytes, and component (t, i) has index k * g + i - 1, k the
    rank of t.

    The rows of t, of rank k, are its g - 1 path edges; its 2-moves, which
    land above k: in each run of 1s t[start:q] followed by a 2, each slot
    p where t[:p] has positive height (the ballot condition of
    :func:`_moved`) meets (t', q + 2) at (t, p + 1), t' being t with that
    2 moved to p; and its backward candidates (the module docstring): for
    the 1 at p in front of a run of 2s, each s = t[:p] + 2^r + 1 +
    t[p + r + 1:], which ranks above k and whose 1 moves back onto t,
    meets (t, p + r + 2) at (s, p + 1) when it is a ballot word, that is
    for r up to the height of t[:p].

    No target is built: its rank is read off :func:`_ballot_table`, F.
    The rank of a ballot word w is the sum of F[pos][height of w[:pos]]
    over the positions pos of its 2s, since the words below w are those
    that first differ from it by a 1 where it reads a 2, and they number
    the ballot completions of that prefix.  A 2-move changes the terms of
    two positions alone: it adds the 2 at p, from the height h_p of
    t[:p], and takes away the 2 at q, from the height h_q = h_p + q - p;
    the prefixes past q hold the same counts.  So t' has rank
    k + F[p][h_p] - F[q][h_q].  Likewise t's 2s at p + 1..p + r, from the
    heights h_p + 1..h_p + 2 - r, become s's 2s at p..p + r - 1, from the
    heights h_p..h_p + 1 - r, so each r adds one pair of F reads to the
    rank of the candidate r - 1.

    The offsets are read as :func:`intersect` reads them, W_t[i - 1] on the
    lower end (s, i) and W_s[j - 2] + 1 on the higher one (t, j), all from
    t's own runs: the walk entry W_t[p] is #2s in t[:p] along a run of 1s
    and 1 + #1s in t[:p] along a run of 2s.  A 2-move puts a 2 at p behind
    t's head, so W_t'[p] = 1 + #1s in t[:p]; a candidate s reads its 1 at
    p + r after r more 2s than t, so W_s[p + r] = W_t[p] + r.

    The arithmetic ranks are checked, and connectivity proved, by a count
    per word of the rows that land on it from lower words.  Those rows
    are the word's 1-moves, each found as a backward candidate of its
    target, and the 2-moves of lower words onto it.  Where a run of 2s of
    length A is followed by a run of 1s of length B, the word has A
    1-moves, one from each slot of the run of 2s, and is the target of B
    2-moves, the last 2 of the run moved back behind 1..B of the 1s (a
    2-move leaves its 2 right in front of a 1, and moving a 2 later keeps
    a word ballot).  So the count is the sum of A + B, the length from the
    word's first 2 to its last 1, and 0 only for the first word 1^a 2^a.
    When a word comes up with another count, the build's AssertionError
    is raised; with none, every word after the first meets a lower word,
    and by induction the curve is connected.  A rank read off F indexes
    the word list, so before the first row the words are counted against
    F[0][0], the number of all ballot words, and the same AssertionError
    is raised when they differ.
    """
    g, n = chain.g, chain.g - 1
    words = [bytes(w.symbols) for w in enumerate_ballot(chain.a)]
    passed = _ballot_table(n)
    if len(words) != passed[0][0]:
        raise AssertionError(
            f"the ballot words ({len(words)}) and the ballot numbers "
            f"({passed[0][0]}) disagree"
        )
    landed = [0] * len(words)  # rows that land on each word from lower words
    for k, t in enumerate(words):
        if landed[k] != t.rindex(1) + 1 - t.index(2):
            if not landed[k]:
                raise AssertionError("Brill-Noether curve graph came out disconnected")
            raise AssertionError("node rows that land on a word differ from its runs")
        base = k * g
        rows = []  # (x index, y index, x_offset, y_offset), sorted below
        ones = twos = 0  # #1s and #2s in t[:start]
        start = 0
        while start < n:
            # the run of 1s t[start:q], then the run of 2s t[q:end]
            q = t.index(2, start)
            end = t.find(1, q)
            if end < 0:
                end = n
            w1, w2 = twos, 1 + ones + q - start  # W along each run
            hq = ones - twos + q - start  # the height of t[:q]
            lift = k - passed[q][hq]  # the rank of a 2-move less F[p][h_p]
            hp = hq - q + start
            for p in range(start, q):
                ix = base + p
                rows.append((ix, ix + 1, w1, w1 + 1))
                if hp:
                    kt = lift + passed[p][hp]
                    rows.append((ix, kt * g + q + 1, 1 + w1 + hp, w2 + 1))
                    landed[kt] += 1
                hp += 1
            for ix in range(base + q, base + end):
                rows.append((ix, ix + 1, w2, w2 + 1))
            # the 1 in front of the run of 2s sits at q - 1, from height
            # hq - 1, and ks is the rank of the candidate of r 2s
            ks = k
            for r in range(1, min(end - q, hq - 1) + 1):
                ks += passed[q + r - 2][hq - r] - passed[q + r - 1][hq + 1 - r]
                rows.append((base + q + r, ks * g + q - 1, w1 + r + 1, w1))
                landed[ks] += 1
            ones += q - start
            twos += end - q
            start = end
        rows.sort()
        table = [0] * (4 * len(rows))
        table[0::4], table[2::4], table[1::4], table[3::4] = zip(*rows)
        yield t, table


def intersect(
    chain: ChainSpec, x: BNComponentId, y: BNComponentId
) -> IntersectionNode | None:
    """Node between x and y, or None.

    With lo = (s, i) and hi = (t, j) the pair ordered so that i < j, j fixes
    the one forward neighbour of lo that hi can be, by the local rule of the
    module docstring: for j = i + 1 it is (s, j), so t must be s; for
    j >= i + 2 it is the move of the run s[i-1:j-2], so that must be one
    maximal run, s[j-2] the other symbol, and :func:`_moved` of
    (s, i - 1, j - 2) must be (t, j).  The move is built only when the run
    check passes.  On a hit nothing is walked: each component's free slot
    is pinned by the other, and the pinned entries are read at those two
    slots alone.  Slot i of hi comes before its marked slot, so the node
    sits at W_t[i-1] on lo; slot j of lo comes after its marked slot, so the
    node sits at W_s[j-2] + 1 on hi (the shift identity of
    :func:`bncurve.chain.propagate`), each counted by
    :func:`bncurve.chain._slot_offset`.  The node skips the constructor's
    re-check, made here first.  Raises ValueError for x == y, a chain that
    is not of the rho = 1 shape, or a sequence whose length is not g - 1.
    """
    # ids that differ in `marked` are unequal without a sequence compare
    if x.marked == y.marked and x == y:
        raise ValueError("intersect needs two distinct components")
    chain.a  # validates the rho=1 shape
    n = chain.g - 1
    for comp in (x, y):
        if len(comp.sequence) != n:
            raise ValueError(f"sequence length {len(comp.sequence)} != g-1 = {n}")
    lo, hi = (x, y) if x.marked < y.marked else (y, x)
    s, i, t, j = lo.sequence, lo.marked, hi.sequence, hi.marked
    q = j - 2  # the move's symbol s[q] sits right after the run s[i-1:q]
    if q < i:
        # j = i + 1, whose one candidate is (s, j), or j = i, where t != s
        # since x != y
        if t != s:
            return None
    # the symbols are 1 and 2, so s[q] is the other symbol of a maximal
    # run exactly when it does not occur in it
    elif s[q] in s[i - 1 : q] or _moved(s, i - 1, q) != (t, j):
        return None
    lo_offset, hi_offset = _slot_offset(t, i - 1), _slot_offset(s, q) + 1
    # i < j, so lo.sort_key() < hi.sort_key() exactly when s <= t
    if s <= t:
        return _node(lo, lo_offset, hi, hi_offset)
    return _node(hi, hi_offset, lo, lo_offset)


def _curve_chain(a: int, max_a: int) -> ChainSpec:
    """The chain of the a curve, after the refusals that
    :func:`build_bn_curve` documents, made in that order and before any
    enumeration; the `curve` command makes them through here too."""
    chain = ChainSpec.rho_one(a)  # refuses a that is not an int >= 1
    # nu + delta of the a = k curve for each k <= a; the range is lazy, so
    # a huge a stops at the first k over budget
    if any(
        (2 * k + 1) * catalan(k) + delta_closed(k) > CURVE_SIZE_BUDGET
        for k in range(1, a + 1)
    ):
        raise ValueError(
            f"the a={a} curve has more than {CURVE_SIZE_BUDGET} "
            "components and nodes"
        )
    if a > max_a:
        raise ValueError(
            f"a={a} exceeds the guard max_a={max_a}; "
            "pass --max-a (max_a= in Python) to override"
        )
    return chain


def build_bn_curve(a: int, *, max_a: int = DEFAULT_MAX_A) -> BNCurveGraph:
    """Build the full curve graph from the local meet rule.

    The node table is the rows of :func:`_node_rows`, joined in order, the
    table the `curve` command lays out.  Component (t, j) sits at index
    (rank of t) * g + j - 1, so the components are those of
    :func:`all_components`, in (sequence lex, marked) order.

    The rows count their offsets off each word's runs, and their target
    ranks off ballot numbers, which their landing counts check; the build
    checks the offsets against the walk: the :func:`propagate` offsets of
    each component (component k is marked at k % g + 1, so its node point
    is the other's entry k % g) must give both offsets of every row.  That
    is nu propagate calls but catalan(a) walks, since the components come
    in (sequence, marked) order and propagate keeps the last word's walk.
    No IntersectionNode is built; the graph, valid by construction, is built
    by :func:`bncurve.combinatorics._unchecked`, without the table
    re-check.  Its connectivity, which the rows prove by their landing
    counts, is checked again by the int union-find :func:`edges_connect`.
    Each check raises AssertionError when it fails.

    Raises ValueError, before any enumeration, for an a that is not an int
    >= 1, when nu + delta would exceed CURVE_SIZE_BUDGET, which max_a
    cannot lift (a <= 11 fits, a >= 12 does not), and for a > max_a (a
    guard; pass a larger max_a, the CLI's --max-a, to override).
    """
    chain = _curve_chain(a, max_a)
    g = chain.g
    components = all_components(chain)
    offsets = [propagate(chain, c) for c in components]
    table = []
    for _, word_rows in _node_rows(chain):
        table += word_rows
    rows = iter(table)
    for ix, x_offset, iy, y_offset in zip(rows, rows, rows, rows):
        if x_offset != offsets[iy][ix % g] or y_offset != offsets[ix][iy % g]:
            raise AssertionError("node offsets differ from the propagate walk")
    del offsets  # freed before the table is copied into the graph
    graph = _graph(a=a, components=tuple(components), node_table=tuple(table))
    if not graph.is_connected():
        raise AssertionError("Brill-Noether curve graph came out disconnected")
    return graph


def delta_closed(a: int) -> int:
    """Closed-form node count 2((2a+1) c_a - c_{a+1})."""
    ChainSpec.rho_one(a)  # refuses an a that is not an int >= 1
    return 2 * ((2 * a + 1) * catalan(a) - catalan(a + 1))


def genus_closed(a: int) -> int:
    """Closed-form genus 1 + 2 C(2a+1, a-1), with no division.

    The genus is delta + 1, and the nodes sort by their gap, |x_offset -
    y_offset|: a path edge of :func:`_node_rows` has gap 1, and a move over
    r symbols (:func:`_moved`, q - p = r) has gap r + 1.  Gap 1 holds the
    (g - 1) c_a = 2 C(2a, a-1) path edges.  Gap k >= 2 holds the 1-moves
    over k - 1 2s, one per factor 2^(k-1) 1 of a Dyck word, which the Dyck
    words of semilength a read C(2a+1-k, a-k) times in all (a ballot
    count; at k = 1 it counts their a c_a 1s), and as many 2-moves over
    k - 1 1s, which the mirror, s reversed with 1 and 2 swapped, sends one
    to one onto the 1-moves.  So gap k holds 2 C(2a+1-k, a-k) nodes, for
    k = 1..a, and the hockey stick sums them: with j = a - k, the sum of
    C(a+1+j, j) over j = 0..a-1 is C(2a+1, a-1), by Pascal's rule
    C(n, j-1) + C(n, j) = C(n+1, j) applied a - 1 times from
    C(a+1, 0) = C(a+2, 0).  So delta = 2 C(2a+1, a-1), which shares no
    arithmetic with the Catalan form of :func:`delta_closed`.
    tests/test_curve.py checks the gap classes node for node, and the
    palindrome of the offsets, for a <= 9 in
    test_gap_classes_are_binomial_and_offsets_a_palindrome, and the sum
    against :func:`delta_closed` in exact integers for a < 400 in
    test_ballot_numbers_sum_to_delta_closed_far_past_enumeration.
    """
    ChainSpec.rho_one(a)  # refuses an a that is not an int >= 1
    return 1 + 2 * comb(2 * a + 1, a - 1)


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
    from fractions import Fraction  # loaded here: most callers never evaluate it

    value = Fraction(g - d + r, g - d + 2 * r + 1)
    for i in range(r + 1):
        value *= Fraction(factorial(i), factorial(g - d + r + i))
    return 1 + value * factorial(g)


def eh_formula_corrected(g: int, r: int, d: int) -> Fraction:
    """The genus formula with the factor (r+1) the printed version drops:
    1 + (r+1)(g-d+r)/(g-d+2r+1) * prod_{i=0}^r i!/(g-d+r+i)! * g!.

    For the rho = 1 chain (g, r, d) = (2a+1, 1, a+2) this reduces to
    1 + 2a(2a+1)c_a/(a+2), which is 1 + 2 C(2a+1, a-1) =
    :func:`genus_closed`, the genus of the graph, since
    C(2a+1, a-1) = (2a+1)! / ((a-1)! (a+2)!) = a(2a+1) c_a / (a+2).
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


def _json_array(indent: str, lead: str, n: int, *columns) -> list[str]:
    """The pieces of a JSON array of n already-encoded items, laid out as
    json.dumps(..., indent=2) lays it out when its opening bracket sits on a
    line indented by `indent`.  Item k is `lead` followed by piece k of each
    column, as :func:`_lay_out` places them."""
    if not n:
        return ["[]"]
    inner = "\n" + indent + "  "
    close = "\n" + indent + "]"
    pieces = _lay_out(("," + inner + lead,) + (None,) * len(columns), n, *columns)
    pieces[0] = "[" + inner + lead
    pieces.append(close)
    return pieces


class _Texts(dict):
    """A table of field texts made once per distinct value: the text of a
    key is made by `make` on its first lookup and kept, so a column is
    read through the table with no pass to find its values first."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _json_pieces(
    a: int, genus: int, labels: list, spelled, marks, table
) -> list[str]:
    """The pieces of the JSON export, in order, of a curve of the given a
    and genus: its components, in index order, have the given labels,
    sequences spelled by their :func:`_digits` and marked indices, and its
    nodes are the rows of `table`, four ints per node as in
    BNCurveGraph.node_table.  Between two fields sits one constant string,
    and each field is read from a table made once per export: the labels,
    one text per distinct sequence (with the key before it), one tail per
    distinct marked index (with the record's close), one text per distinct
    offset on each side (with the key after it).  A sequence's array is one
    join of its digits, between the strings of the array [1, 2] (a word is
    never empty), keyed by the digit string, whose hash a str keeps."""
    start, _, sep, _, end = _json_array("      ", "", 2, "12")
    start = '",\n      "sequence": ' + start
    seq_text = _Texts(lambda digits: start + sep.join(digits) + end)
    marked_text = _Texts(',\n      "marked": {}\n    }}'.format)
    x_text = _Texts('",\n      "x_offset": {},\n      "y": "'.format)
    y_text = _Texts('",\n      "y_offset": {}\n    }}'.format)
    nu, delta = len(labels), len(table) // 4
    components = _json_array(
        "  ",
        '{\n      "id": "',
        nu,
        labels,
        map(seq_text.__getitem__, spelled),
        map(marked_text.__getitem__, marks),
    )
    components[0] = (
        f'{{\n  "a": {a},\n  "g": {2 * a + 1},\n  "d": {a + 2},'
        f'\n  "nu": "{nu}",\n  "delta": "{delta}",'
        f'\n  "genus": "{genus}",\n  "components": '
    ) + components[0]
    pieces = _json_array(
        "  ",
        '{\n      "x": "',
        delta,
        map(labels.__getitem__, islice(table, 0, None, 4)),
        map(x_text.__getitem__, islice(table, 1, None, 4)),
        map(labels.__getitem__, islice(table, 2, None, 4)),
        map(y_text.__getitem__, islice(table, 3, None, 4)),
    )
    pieces[0] = ',\n  "nodes": ' + pieces[0]
    pieces.append("\n}\n")
    # The node pieces, the longer list from a = 2 on, take the component
    # pieces in front: in the benchmark's a = 8 worker that left max RSS
    # about 1 MB lower than growing the component list by the nodes.
    pieces[:0] = components
    return pieces


def _dot_pieces(labels: list, table) -> list[str]:
    """The pieces of the DOT export, in order, of a curve whose components,
    in index order, have the given labels and whose nodes are the rows of
    `table`, four ints per node: constant strings between the labels, and
    each node's edge label "x_offset/y_offset" as two texts, each read from
    a table made once per distinct offset on its side.  Two int-keyed
    tables cost less than one keyed by the offset pairs."""
    x_text = _Texts('" [label="{}/'.format)
    y_text = _Texts('{}"];'.format)
    pieces = _lay_out(
        ('\n  "', None, '" -- "', None, None, None),
        len(table) // 4,
        map(labels.__getitem__, islice(table, 0, None, 4)),
        map(labels.__getitem__, islice(table, 2, None, 4)),
        map(x_text.__getitem__, islice(table, 1, None, 4)),
        map(y_text.__getitem__, islice(table, 3, None, 4)),
    )
    pieces.append("\n}\n")
    # the header goes in front, as in _json_pieces, so no node list is copied
    pieces[:0] = ["graph bn_curve {"] + _lay_out(
        ('\n  "', None, '" [label="', None, '"];'), len(labels), labels, labels
    )
    return pieces


def export_graph(graph: BNCurveGraph, fmt: str) -> str:
    """Serialize the graph as DOT or JSON, deterministically.

    Components appear in the graph's order, which is (sequence lex, marked)
    for :func:`build_bn_curve`'s graphs; counts in JSON are decimal strings.
    The JSON text is byte for byte ``json.dumps(payload, indent=2) + "\n"``
    of the payload {a, g, d, nu, delta, genus, components: [{id, sequence,
    marked}], nodes: [{x, x_offset, y, y_offset}]}, written with string
    joins because json.dumps falls back to its pure-Python encoder whenever
    it indents.  Nodes are read from the node table, each end's label by
    its index.  Labels are spelled as the `curve` command spells them, not
    read from the ids: a :func:`_digits` text made once per distinct
    sequence (looked up once per run of ids that share its tuple, as a
    word's ids do) and an "|i" text made once per marked index.  The JSON
    sequence column is read by that same digit text.

    Each layout is one private function that returns the piece list of its
    text (:func:`_json_pieces`, :func:`_dot_pieces`), which the `curve`
    command's stream (:func:`_curve_pieces`) shares; the text is the
    list's one join.  The list holds references to constant layout strings
    and to field texts made once per export, so no string but a label is
    built per component, none per node, and the join is the only copy.
    """
    if fmt not in ("json", "dot"):
        raise ValueError(f"unknown export format: {fmt!r}")
    # A label holds only the digits 1 and 2, "|" and the decimal marked
    # index, and a count only digits, so none needs JSON escaping: each is
    # written between quotes as it is.
    comps = graph.components
    digits, marks = _Texts(_digits), _Texts("|{}".format)
    labels, spelled, seq = [], [], None
    for c in comps:
        if c.sequence is not seq:  # a word's ids share one tuple
            seq, text = c.sequence, digits[c.sequence]
        labels.append(text + marks[c.marked])
        spelled.append(text)
    if fmt == "dot":
        return "".join(_dot_pieces(labels, graph.node_table))
    return "".join(
        _json_pieces(
            graph.a,
            genus_from_graph(graph),
            labels,
            spelled,
            map(attrgetter("marked"), comps),
            graph.node_table,
        )
    )


def _curve_pieces(a: int, fmt: str, max_a: int) -> list[str]:
    """The pieces of the `curve` command's export of the a curve in fmt,
    "json" or "dot": those of ``export_graph(build_bn_curve(a,
    max_a=max_a), fmt)``, laid out from the rows of :func:`_node_rows` with
    no graph.  The genus is :func:`arithmetic_genus` of the rows' counts,
    which the JSON header prints; it is checked against
    :func:`genus_closed` before any piece is laid out, and a mismatch
    raises AssertionError.  Raises what :func:`build_bn_curve` raises, its
    refusals first, before any enumeration, but for its offset check: the
    offsets are written as the rows count them, with no :func:`propagate`.

    The node table is one flat list of the rows in order, and each label
    is a word's digits and a marked index's "|i", made once per component.
    """
    chain = _curve_chain(a, max_a)
    marks = ["|" + str(i) for i in range(1, chain.g + 1)]
    spelled, labels, table = [], [], []
    for word, rows in _node_rows(chain):
        digits = _digits(word)
        spelled.append(digits)
        labels += [digits + mark for mark in marks]
        table += rows
    genus = arithmetic_genus([1] * len(labels), len(table) // 4)
    closed = genus_closed(a)
    if genus != closed:
        raise AssertionError(
            f"consistency failure: graph genus {genus} != closed form {closed}"
        )
    if fmt == "dot":
        return _dot_pieces(labels, table)
    sequences = (digits for digits in spelled for _ in marks)
    marked = list(range(1, chain.g + 1)) * len(spelled)
    return _json_pieces(a, genus, labels, sequences, marked, table)
