import json
import runpy
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import accumulate, groupby
from math import comb
from pathlib import Path

import pytest

import bncurve.curve as curve_module
from bncurve.chain import BNComponentId, ChainSpec, _walk, all_components, propagate
from bncurve.combinatorics import catalan, enumerate_ballot
from bncurve.curve import (
    CURVE_SIZE_BUDGET,
    BNCurveGraph,
    IntersectionNode,
    _ballot_table,
    _moved,
    _node_rows,
    _word_nodes,
    build_bn_curve,
    component_profile,
    delta_closed,
    edges_connect,
    eh_formula,
    eh_formula_corrected,
    export_graph,
    genus_closed,
    genus_from_graph,
    intersect,
)

# perfbench/plan.py, run from source so that nothing is written under
# perfbench/: its meet rule and `neighbors` import nothing from bncurve
ROOT = Path(__file__).resolve().parents[1]
PLAN = runpy.run_path(str(ROOT / "perfbench" / "plan.py"))

C1P = BNComponentId((1, 2, 1, 2), 1)
C2P = BNComponentId((1, 2, 1, 2), 2)
C4PP = BNComponentId((1, 1, 2, 2), 4)


def naive_nodes(a):
    """Oracle: quadratic pair scan over propagate's offset tuples, without
    intersect.  Two components meet iff their offsets agree wherever both are
    pinned; the node sits on each at the offset the other pins its free slot
    to.  Returns (x label, y label, x offset, y offset) rows in component
    order."""
    chain = ChainSpec.rho_one(a)
    comps = all_components(chain)
    offsets = [propagate(chain, c) for c in comps]
    nodes = []
    for i, x in enumerate(comps):
        for j in range(i + 1, len(comps)):
            y, bx, by = comps[j], offsets[i], offsets[j]
            if all(u is None or v is None or u == v for u, v in zip(bx, by)):
                nodes.append(
                    (x.label, y.label, by[x.marked - 1], bx[y.marked - 1])
                )
    return nodes


def meet_key_nodes(a):
    """Oracle: the meet-key bucket index that built the graph before the
    local rule.  x and y with x.marked < y.marked meet iff their offset
    tuples, each with the other's marked slot also blanked, are equal.  Every
    component files that key under each slot after its marked one and looks
    its own key up under each slot before it.  Returns (x label, y label,
    x offset, y offset) rows in component order."""
    chain = ChainSpec.rho_one(a)
    comps = all_components(chain)
    offsets = [propagate(chain, c) for c in comps]

    def meet_key(us, slot):
        return us[: slot - 1] + (None,) + us[slot:]

    bucket = {}
    for ix, comp in enumerate(comps):
        for slot in range(comp.marked + 1, chain.g + 1):
            bucket.setdefault(meet_key(offsets[ix], slot), []).append(ix)
    pairs = []
    for iy, comp in enumerate(comps):
        for slot in range(1, comp.marked):
            for ix in bucket.get(meet_key(offsets[iy], slot), ()):
                pairs.append((min(ix, iy), max(ix, iy)))
    return [
        (
            comps[i].label,
            comps[j].label,
            offsets[j][comps[i].marked - 1],
            offsets[i][comps[j].marked - 1],
        )
        for i, j in sorted(pairs)
    ]


def forward_meets(seq, i):
    """Oracle: yield (t, j), j > i, for every component (t, j) that meets
    (seq, i), one component at a time, by the local rule of the curve module
    docstring: (seq, i + 1) when i is not the last slot, and, when right
    after slot i seq reads a maximal run c^r followed by e = 3 - c, the
    `_moved` component, if any."""
    n = len(seq)
    if i > n:
        return
    yield seq, i + 1
    p = i - 1  # sequence position read right after slot i
    q = p + 1
    while q < n and seq[q] == seq[p]:
        q += 1
    if q < n:
        moved = _moved(seq, p, q)
        if moved is not None:
            yield moved


def reference_rows(graph):
    """Each node table row as (x label, x_offset, y label, y_offset), each
    end's label read by its index, as the export reads it.  This needs no
    IntersectionNode, whose constructor refuses a row whose ends are out of
    sort_key order, as they are in a graph whose components are listed in
    another order."""
    labels = [c.label for c in graph.components]
    return [(labels[ix], xo, labels[iy], yo) for ix, xo, iy, yo in table_rows(graph)]


def reference_payload(graph):
    """The object export_graph's JSON text encodes."""
    return {
        "a": graph.a,
        "g": graph.g,
        "d": graph.d,
        "nu": str(graph.nu),
        "delta": str(graph.delta),
        "genus": str(genus_from_graph(graph)),
        "components": [
            {"id": c.label, "sequence": list(c.sequence), "marked": c.marked}
            for c in graph.components
        ],
        "nodes": [
            {"x": x, "x_offset": x_offset, "y": y, "y_offset": y_offset}
            for x, x_offset, y, y_offset in reference_rows(graph)
        ],
    }


def reference_json(graph):
    """export_graph's JSON as json.dumps itself lays it out."""
    return json.dumps(reference_payload(graph), indent=2) + "\n"


def reference_dot(graph):
    """export_graph's DOT text, written one line per component and node."""
    lines = ["graph bn_curve {"]
    lines += [f'  "{c.label}" [label="{c.label}"];' for c in graph.components]
    lines += [
        f'  "{x}" -- "{y}" [label="{x_offset}/{y_offset}"];'
        for x, x_offset, y, y_offset in reference_rows(graph)
    ]
    return "\n".join(lines + ["}"]) + "\n"


def reordered_graph(graph, order):
    """The same curve with its components listed in another order, order[k]
    being the old index of the new component k: each row's ends are
    renamed, swapped where needed to keep x index below y index, and the
    rows sorted again."""
    new = {old: k for k, old in enumerate(order)}
    rows = sorted(
        (new[ix], x_offset, new[iy], y_offset)
        if new[ix] < new[iy]
        else (new[iy], y_offset, new[ix], x_offset)
        for ix, x_offset, iy, y_offset in table_rows(graph)
    )
    return BNCurveGraph(
        graph.a,
        tuple(graph.components[old] for old in order),
        tuple(v for row in rows for v in row),
    )


def table_rows(graph):
    """The node table as (x index, x_offset, y index, y_offset) rows."""
    t = graph.node_table
    return list(zip(t[0::4], t[1::4], t[2::4], t[3::4]))


def node_row(node):
    return (node.x.label, node.y.label, node.x_offset, node.y_offset)


class TestIntersect:
    def test_c2_meets_c1_at_offset_1(self):
        chain = ChainSpec.rho_one(2)
        node = intersect(chain, C2P, C1P)
        assert node is not None
        assert (node.y, node.y_offset) == (C2P, 1)  # the point P+3Q

    def test_c2_meets_c4_doubleprime_at_offset_0(self):
        chain = ChainSpec.rho_one(2)
        node = intersect(chain, C2P, C4PP)
        assert node is not None
        # C4PP's sequence sorts first, so C4PP is x
        assert (node.y, node.y_offset) == (C2P, 0)  # the point 4Q
        assert (node.x, node.x_offset) == (C4PP, 2)  # the point 2P+2Q

    def test_non_intersecting_pair(self):
        chain = ChainSpec.rho_one(1)
        x = BNComponentId((1, 2), 1)
        y = BNComponentId((1, 2), 3)
        assert intersect(chain, x, y) is None

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_agrees_with_naive_scan_on_every_pair(self, a):
        chain = ChainSpec.rho_one(a)
        comps = all_components(chain)
        expected = {frozenset(row[:2]): row for row in naive_nodes(a)}
        for x in comps:
            for y in comps:
                if x == y:
                    continue
                node = intersect(chain, x, y)
                got = None if node is None else node_row(node)
                assert got == expected.get(frozenset((x.label, y.label)))
                if node is not None:
                    public = IntersectionNode(
                        node.x, node.x_offset, node.y, node.y_offset
                    )
                    assert node == public
                    assert vars(node).keys() == vars(public).keys()

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_a_hit_walks_nothing(self, a):
        chain = ChainSpec.rho_one(a)
        by_label = {c.label: c for c in all_components(chain)}
        nodes = naive_nodes(a)
        _walk.cache_clear()
        for x, y, x_offset, y_offset in nodes:
            x, y = by_label[x], by_label[y]
            for pair in ((x, y), (y, x)):
                node = intersect(chain, *pair)
                assert (node.x_offset, node.y_offset) == (x_offset, y_offset)
        assert _walk.cache_info().misses == 0

    def test_same_component_rejected(self):
        chain = ChainSpec.rho_one(1)
        with pytest.raises(ValueError):
            intersect(chain, C1P, C1P)

    @pytest.mark.parametrize("x,y", [(C1P, C2P), (C1P, C4PP), (C4PP, C2P)])
    def test_sequence_length_must_fit_chain(self, x, y):
        # the a=2 components have length 4; the a=1 chain needs length 2,
        # the a=3 chain length 6
        for a in (1, 3):
            with pytest.raises(ValueError):
                intersect(ChainSpec.rho_one(a), x, y)

    def test_one_component_of_wrong_length(self):
        chain = ChainSpec.rho_one(2)
        short = BNComponentId((1, 2), 1)
        with pytest.raises(ValueError):
            intersect(chain, C1P, short)
        with pytest.raises(ValueError):
            intersect(chain, short, C2P)

    def test_chain_shape_rejected(self):
        with pytest.raises(ValueError):
            intersect(ChainSpec(g=5, d=3), C1P, C2P)


class TestBuild:
    @pytest.mark.parametrize("a,nu,delta", [(1, 3, 2), (2, 10, 10), (3, 35, 42)])
    def test_counts(self, a, nu, delta):
        graph = build_bn_curve(a)
        assert graph.nu == nu
        assert graph.delta == delta

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_matches_naive_scan(self, a):
        graph = build_bn_curve(a)
        assert [node_row(n) for n in graph.nodes] == naive_nodes(a)

    @pytest.mark.parametrize("a", [6, 7, 8])
    def test_matches_meet_key_index(self, a):
        graph = build_bn_curve(a, max_a=a)
        assert [node_row(n) for n in graph.nodes] == meet_key_nodes(a)

    @pytest.mark.parametrize("a", range(1, 7))
    def test_nodes_pass_the_public_constructor(self, a):
        nodes = build_bn_curve(a).nodes
        public = [IntersectionNode(n.x, n.x_offset, n.y, n.y_offset) for n in nodes]
        assert list(nodes) == public
        names = {f.name for f in fields(IntersectionNode)}
        assert all(set(vars(n)) == names for n in nodes)
        # and are stored as compactly as the public constructor's
        assert sys.getsizeof(vars(nodes[-1])) == sys.getsizeof(vars(public[-1]))

    @pytest.mark.parametrize("a", range(1, 7))
    def test_nu_propagate_calls_and_one_walk_per_word(self, monkeypatch, a):
        called = []

        def counted(chain, comp, _original=propagate):
            called.append(comp)
            return _original(chain, comp)

        monkeypatch.setattr(curve_module, "propagate", counted)
        _walk.cache_clear()
        graph = build_bn_curve(a)
        assert len(called) == graph.nu == (2 * a + 1) * catalan(a)
        assert _walk.cache_info().misses == catalan(a)

    @pytest.mark.parametrize("column", [1, 3])
    @pytest.mark.parametrize("kind", ["path", "forward", "backward"])
    def test_an_offset_slip_in_the_rows_fails_the_build(self, monkeypatch, kind, column):
        # the rows count their offsets off each word's runs; the build
        # checks every one against the propagate walk.  Each kind of row
        # counts its offsets its own way: a path edge joins two slots of
        # one word, a 2-move meets a higher word at a higher marked slot,
        # and a backward candidate meets it at a lower one.  Only the
        # first row of the kind slips.
        g = ChainSpec.rho_one(3).g

        def row_kind(ix, iy):
            if ix // g == iy // g:
                return "path"
            return "forward" if iy % g > ix % g else "backward"

        def slipped(chain, _original=_node_rows):
            done = False
            for word, table in _original(chain):
                for r in range(0, len(table), 4):
                    if not done and row_kind(table[r], table[r + 2]) == kind:
                        table[r + column] += 1
                        done = True
                yield word, table

        monkeypatch.setattr(curve_module, "_node_rows", slipped)
        with pytest.raises(AssertionError, match="node offsets differ"):
            build_bn_curve(3)

    def test_edges_connect(self):
        assert edges_connect(3, [(0, 1), (2, 1)])
        assert edges_connect(1, [])
        assert edges_connect(2, [(1, 1), (0, 1)])  # a loop joins nothing
        assert not edges_connect(4, [(0, 1), (2, 3), (1, 0)])  # split graph
        assert not edges_connect(2, [])
        assert not edges_connect(0, [])  # no vertex
        # a path joined front to back leaves 0 at the foot of a long chain,
        # which the last edge's find climbs and halves
        n = 200
        path = [(k, k + 1) for k in range(n - 1)]
        assert edges_connect(n, path + [(0, n - 1)])
        assert not edges_connect(n, path[:-1] + [(0, n - 2)])

    @pytest.mark.parametrize("a", range(1, 8))
    def test_pairs_are_the_forward_meets(self, a):
        # the per-word scan finds, as index pairs, exactly the meets that
        # forward_meets gives component by component
        graph = build_bn_curve(a, max_a=a)
        index = {(c.sequence, c.marked): k for k, c in enumerate(graph.components)}
        expected = sorted(
            (min(ix, iy), max(ix, iy))
            for ix, c in enumerate(graph.components)
            for iy in (index[m] for m in forward_meets(c.sequence, c.marked))
        )
        assert [row[::2] for row in table_rows(graph)] == expected

    def test_connected(self):
        for a in (1, 2, 3):
            assert build_bn_curve(a).is_connected()

    def test_disconnected_graph_is_caught(self):
        graph = build_bn_curve(2)
        c1 = graph.components.index(C1P)
        cut = BNCurveGraph(
            a=2,
            components=graph.components,
            node_table=tuple(
                v for row in table_rows(graph) if c1 not in row[::2] for v in row
            ),
        )
        assert graph.is_connected()
        assert cut.is_connected() is False
        with pytest.raises(ValueError):
            genus_from_graph(cut)
        with pytest.raises(ValueError):
            export_graph(cut, "json")

    def test_guard(self):
        with pytest.raises(ValueError):
            build_bn_curve(7)
        build_bn_curve(3, max_a=3)

    def test_size_budget_refuses_before_enumerating(self, monkeypatch):
        def enumerated(chain):
            raise RuntimeError("enumerated")

        monkeypatch.setattr(curve_module, "all_components", enumerated)
        # max_a does not lift the budget, and a huge a is refused at once
        for a in (12, 13, 10**9):
            for max_a in (6, a):
                with pytest.raises(ValueError, match="components and nodes"):
                    build_bn_curve(a, max_a=max_a)
        for a in (1, 11):
            with pytest.raises(RuntimeError, match="enumerated"):
                build_bn_curve(a, max_a=a)

    @pytest.mark.parametrize("a", [True, False, 2.0, 0, -1])
    def test_a_that_is_not_an_int_at_least_1_is_refused_before_enumerating(
        self, monkeypatch, a
    ):
        def enumerated(chain):
            raise RuntimeError("enumerated")

        monkeypatch.setattr(curve_module, "all_components", enumerated)
        with pytest.raises(ValueError, match="a must be an int >= 1"):
            build_bn_curve(a)

    def test_size_budget_is_nu_plus_delta(self):
        def size(a):
            return (2 * a + 1) * catalan(a) + delta_closed(a)

        assert (size(11), size(12)) == (3_640_210, 14_115_100)
        assert size(11) <= CURVE_SIZE_BUDGET < size(12)

    def test_adjacency_law(self):
        # same sequence, neighboring marked components always meet
        for a in (1, 2, 3):
            chain = ChainSpec.rho_one(a)
            graph = build_bn_curve(a)
            node_pairs = {frozenset((n.x, n.y)) for n in graph.nodes}
            count = 0
            for comp in graph.components:
                if comp.marked < chain.g:
                    nxt = BNComponentId(comp.sequence, comp.marked + 1)
                    assert frozenset((comp, nxt)) in node_pairs
                    count += 1
            assert count == (chain.g - 1) * catalan(a)

    def test_nonadjacent_node_count(self):
        for a in (1, 2, 3, 4):
            graph = build_bn_curve(a)
            adjacent = sum(
                1
                for n in graph.nodes
                if n.x.sequence == n.y.sequence
                and abs(n.x.marked - n.y.marked) == 1
            )
            nonadjacent = graph.delta - adjacent
            expected = 2 * (
                (a - 1) * catalan(a)
                - sum(catalan(k) * catalan(a - k) for k in range(1, a))
            )
            assert nonadjacent == expected


class TestClosedForms:
    def test_examples(self):
        assert delta_closed(2) == 10 and genus_closed(2) == 11
        assert delta_closed(1) == 2 and genus_closed(1) == 3
        assert delta_closed(4) == 2 * (9 * 14 - 42) == 168
        assert genus_closed(4) == 169

    def test_genus_is_delta_plus_one(self):
        for a in range(1, 9):
            assert genus_closed(a) == delta_closed(a) + 1

    def test_genus_from_graph(self):
        for a, genus in [(1, 3), (2, 11), (3, 43)]:
            assert genus_from_graph(build_bn_curve(a)) == genus


class TestEhFormula:
    def test_values(self):
        assert eh_formula(5, 1, 4) == 6
        assert eh_formula(3, 1, 3) == 2
        # evaluated verbatim; reported, no correctness claim attached
        assert eh_formula(4, 1, 3) == Fraction(2)

    def test_discrepancy_against_chain_computation(self):
        assert eh_formula(5, 1, 4) != genus_closed(2) == 11
        assert eh_formula(3, 1, 3) != genus_closed(1) == 3

    def test_missing_r_plus_one_factor(self):
        # with the factor (r+1) = 2 the formula is the chain genus
        assert eh_formula_corrected(5, 1, 4) == 11
        assert eh_formula_corrected(3, 1, 3) == 3
        for a in range(1, 200):
            g, d = 2 * a + 1, a + 2
            printed = eh_formula(g, 1, d)
            assert 1 + 2 * (printed - 1) == eh_formula_corrected(g, 1, d)
            assert eh_formula_corrected(g, 1, d) == genus_closed(a) != printed


class TestProfiles:
    def test_c2_prime_profile(self):
        graph = build_bn_curve(2)
        profile = component_profile(graph, C2P)
        by_neighbor = {nbr: off for nbr, off in profile}
        assert set(by_neighbor) == {
            C1P,
            BNComponentId((1, 2, 1, 2), 3),
            C4PP,
        }
        assert sorted(by_neighbor.values()) == [0, 1, 2]

    def test_chain_end_component(self):
        graph = build_bn_curve(2)
        profile = component_profile(graph, C1P)
        assert [nbr for nbr, _ in profile] == [C2P]

    def test_at_most_four_distinct_offsets(self):
        for a in range(1, 6):
            graph = build_bn_curve(a)
            for comp in graph.components:
                offsets = [off for _, off in component_profile(graph, comp)]
                assert len(offsets) <= 4
                assert len(set(offsets)) == len(offsets)

    def test_no_triple_points(self):
        # no two nodes share a (component, offset) endpoint
        for a in range(1, 6):
            graph = build_bn_curve(a)
            endpoints = []
            for n in graph.nodes:
                endpoints += [(n.x, n.x_offset), (n.y, n.y_offset)]
            assert len(endpoints) == len(set(endpoints))


class TestExport:
    def test_dot_a1(self):
        dot = export_graph(build_bn_curve(1), "dot")
        assert dot.count("[label=") == 3 + 2  # 3 vertices, 2 edges
        assert dot.startswith("graph bn_curve {")

    def test_json_a2(self):
        payload = json.loads(export_graph(build_bn_curve(2), "json"))
        assert payload["nu"] == "10" and payload["delta"] == "10"
        assert payload["genus"] == "11"
        assert len(payload["components"]) == 10
        assert len(payload["nodes"]) == 10
        assert payload["components"][0] == {
            "id": "1122|1",
            "sequence": [1, 1, 2, 2],
            "marked": 1,
        }

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_json_matches_json_dumps(self, a):
        graph = build_bn_curve(a)
        assert export_graph(graph, "json") == reference_json(graph)

    def test_json_empty_lists(self):
        # one a = 1 component and no nodes: the node list must render as [];
        # a >= 1, so no sequence list is empty
        graph = BNCurveGraph(
            a=1, components=(BNComponentId((1, 2), 1),), node_table=()
        )
        text = export_graph(graph, "json")
        assert text == reference_json(graph)
        assert '"nodes": []' in text and '"sequence": []' not in text

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_dot_matches_the_node_records(self, a):
        graph = build_bn_curve(a)
        assert export_graph(graph, "dot") == reference_dot(graph)
        assert reference_rows(graph) == [
            (n.x.label, n.x_offset, n.y.label, n.y_offset) for n in graph.nodes
        ]

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("order", ["reversed", "marked first"])
    def test_components_in_another_order_export_by_their_table(self, order, fmt):
        built = build_bn_curve(3)
        index = range(built.nu)
        if order == "reversed":
            # the first g components are marked g, ..., 1
            index = index[::-1]
        else:
            # the first g components are all marked 1
            index = sorted(index, key=lambda k: built.components[k].marked)
        graph = reordered_graph(built, index)
        reference = reference_json if fmt == "json" else reference_dot
        assert export_graph(graph, fmt) == reference(graph)
        assert export_graph(graph, fmt) != export_graph(built, fmt)
        assert genus_from_graph(graph) == genus_from_graph(built)
        # the node records orient each row's ends by sort_key, so they are
        # the built graph's nodes
        nodes = [
            {(n.x.label, n.x_offset, n.y.label, n.y_offset) for n in g.nodes}
            for g in (graph, built)
        ]
        assert nodes[0] == nodes[1]

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_leaves_each_id_holding_its_two_fields(self, fmt):
        # the build stores no label on its ids and the export spells its own
        graph = build_bn_curve(3)
        text = export_graph(graph, fmt)
        assert all(set(vars(c)) == {"sequence", "marked"} for c in graph.components)
        reference = reference_json if fmt == "json" else reference_dot
        assert text == reference(graph)

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_offsets_outside_0_to_d_export_as_given(self, fmt):
        built = build_bn_curve(2)
        table = list(built.node_table)
        # the constructor checks the offsets' type, not their range
        table[1], table[3], table[7] = -1, 10**6, -1
        graph = BNCurveGraph(2, built.components, tuple(table))
        reference = reference_json if fmt == "json" else reference_dot
        text = export_graph(graph, fmt)
        assert text == reference(graph)
        assert ("-1" in text) and ("1000000" in text)

    def test_json_peak_memory_is_bounded_by_its_text(self):
        # the piece list holds references, not one string per record: the
        # traced peak, text included, stays under 1.6 times the text (the
        # per-record design peaked at about 2.5 times)
        graph = build_bn_curve(6)
        tracemalloc.start()
        try:
            text = export_graph(graph, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * len(text)

    def test_json_round_trips_a7(self):
        graph = build_bn_curve(7, max_a=7)
        assert json.loads(export_graph(graph, "json")) == reference_payload(graph)

    def test_deterministic(self):
        g1, g2 = build_bn_curve(2), build_bn_curve(2)
        for fmt in ("json", "dot"):
            assert export_graph(g1, fmt) == export_graph(g2, fmt)

    def test_unknown_format(self):
        graph = build_bn_curve(1)
        with pytest.raises(ValueError):
            export_graph(graph, "")


class TestNodeTable:
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_rows_are_the_nodes(self, a):
        graph = build_bn_curve(a)
        index = {c: k for k, c in enumerate(graph.components)}
        assert table_rows(graph) == [
            (index[n.x], n.x_offset, index[n.y], n.y_offset) for n in graph.nodes
        ]
        pairs = [row[::2] for row in table_rows(graph)]
        assert pairs == sorted(pairs)
        assert graph.delta == len(graph.nodes)

    def test_hand_built_table_equals_the_built_graph(self):
        graph = build_bn_curve(2)
        again = BNCurveGraph(2, graph.components, graph.node_table)
        assert again == graph and hash(again) == hash(graph)

    @pytest.mark.parametrize(
        "table",
        [
            (0, 1, 1),  # length not a multiple of 4
            (0, 1, 1, 0, 2),
            (1, 0, 0, 1),  # x index above y index
            (3, 0, 3, 1),  # x index equal to y index
            # an index below 0 would wrap round the union-find's list
            (-1, 0, 0, 1),  # index below 0
            (0, 0, 10, 1),  # index at nu
            (0, 1, 1, 0, 4, 0, 12, 1),
            # an entry that is not a plain int: an offset True would export
            # as the text of the offset 1 before it, None is not JSON
            (0, 1, 1, True),
            (0, 1.0, 1, 0),
            (0, 0, 1, None),
            (True, 0, 2, 1),  # index
        ],
    )
    def test_malformed_table_is_rejected(self, table):
        components = build_bn_curve(2).components
        with pytest.raises(ValueError):
            BNCurveGraph(a=2, components=components, node_table=table)

    def test_graph_that_contradicts_itself_is_rejected(self):
        # a = 2 words under a = 3, whose export would claim g = 7 and d = 5
        g2 = build_bn_curve(2)
        with pytest.raises(ValueError, match="is not of a = 3"):
            BNCurveGraph(3, g2.components, g2.node_table)
        # one component listed twice, which component_profile would answer
        # with one of its two rows
        c = build_bn_curve(1).components[0]
        with pytest.raises(ValueError, match="listed twice"):
            BNCurveGraph(1, (c, c), (0, 1, 1, 2))

    def test_no_node_record_is_built_until_asked(self, monkeypatch, capsys):
        from bncurve.cli import main

        expected = {}
        for fmt in ("json", "dot"):
            main(["curve", "--a", "4", "--format", fmt])
            expected[fmt] = capsys.readouterr().out

        def refused(*args, **kwargs):
            raise RuntimeError("an IntersectionNode was built")

        monkeypatch.setattr(IntersectionNode, "__post_init__", refused)
        monkeypatch.setattr(curve_module, "_node", refused)
        for fmt in ("json", "dot"):
            assert main(["curve", "--a", "4", "--format", fmt]) == 0
            assert capsys.readouterr().out == expected[fmt]
        graph = build_bn_curve(4)
        assert genus_from_graph(graph) == genus_closed(4)
        assert len(component_profile(graph, graph.components[0])) == 1
        with pytest.raises(RuntimeError, match="IntersectionNode"):
            graph.nodes


def final_run(word):
    """D: the length of the word's final run of 2s."""
    return len(word) - len(bytes(word).rstrip(b"\x02"))


def returns(word):
    """R: how many nonempty prefixes are at height 0, the height being the
    count of 1s less the count of 2s."""
    return list(accumulate(map((0, 1, -1).__getitem__, word))).count(0)


def ballot_number(a, k):
    """b(a, k) = k/(2a-k) C(2a-k, a), 1 <= k <= a; the division is exact."""
    numerator = k * comb(2 * a - k, a)
    assert numerator % (2 * a - k) == 0
    return numerator // (2 * a - k)


class TestWordNodes:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_equals_the_nodes_of_each_word(self, a):
        # each node counted on the word of its endpoint of smaller marked
        # index; component k is marked at k % g + 1
        graph = build_bn_curve(a, max_a=a)
        g = graph.g
        counts = [0] * graph.nu
        for ix, _, iy, _ in table_rows(graph):
            counts[(ix if ix % g < iy % g else iy) // g] += 1
        words = [c.sequence for c in graph.components[::g]]
        assert [_word_nodes(s) for s in words] == counts[: len(words)]
        assert counts[len(words):] == [0] * (graph.nu - len(words))

    def test_examples(self):
        # g - 1 + 2a - D - R
        assert _word_nodes((1, 2)) == 2 + 2 - 1 - 1
        assert _word_nodes((1, 1, 2, 2)) == 4 + 4 - 2 - 1
        assert _word_nodes((1, 2, 1, 2)) == 4 + 4 - 1 - 2
        assert _word_nodes((1, 1, 2, 1, 2, 2)) == 6 + 6 - 2 - 1

    @pytest.mark.parametrize("a", range(1, 13))
    def test_sums_to_delta_closed_from_words_alone(self, a):
        # no graph: c_12 = 208,012 words at a = 12
        words = [w.symbols for w in enumerate_ballot(a)]
        assert 3 * a * catalan(a) % (a + 2) == 0
        third = 3 * a * catalan(a) // (a + 2)
        assert sum(map(final_run, words)) == sum(map(returns, words)) == third
        assert sum(map(_word_nodes, words)) == delta_closed(a)

    @pytest.mark.parametrize("a", range(1, 11))
    def test_mirror_sends_the_final_run_to_the_first_peak(self, a):
        # s reversed with 1 <-> 2 permutes the words and turns D into the
        # first run of 1s, whose length Deutsch's involution distributes as R
        words = [w.symbols for w in enumerate_ballot(a)]
        mirrors = [tuple(3 - v for v in reversed(s)) for s in words]
        assert sorted(mirrors) == words
        first_peak = [s.index(2) for s in mirrors]
        assert first_peak == list(map(final_run, words))
        assert Counter(first_peak) == Counter(map(returns, words))

    @pytest.mark.parametrize("a", range(1, 11))
    def test_final_run_and_returns_are_each_ballot_distributed(self, a):
        # the Dyck words with D = k, and those with R = k, number b(a, k)
        words = [w.symbols for w in enumerate_ballot(a)]
        expected = {k: ballot_number(a, k) for k in range(1, a + 1)}
        assert Counter(map(final_run, words)) == expected
        assert Counter(map(returns, words)) == expected

    @pytest.mark.parametrize("a", range(1, 10))
    def test_gap_classes_are_binomial_and_offsets_a_palindrome(self, a):
        # the rows alone, no graph: gap k = |x_offset - y_offset| holds
        # 2 C(2a+1-k, a-k) nodes, and an offset u on a node end occurs as
        # often as d - u
        gaps, offsets = Counter(), Counter()
        for _, table in _node_rows(ChainSpec.rho_one(a)):
            gaps.update(map(abs, map(int.__sub__, table[1::4], table[3::4])))
            offsets.update(table[1::4])
            offsets.update(table[3::4])
        assert gaps == {k: 2 * comb(2 * a + 1 - k, a - k) for k in range(1, a + 1)}
        assert offsets == {a + 2 - u: n for u, n in offsets.items()}

    def test_ballot_numbers_sum_to_delta_closed_far_past_enumeration(self):
        # exact integers, no words: each word has g - 1 + 2a = 4a slots less
        # D + R, and D and R each have mean 3a / (a + 2); and the gap
        # classes sum, by the hockey stick, to genus_closed's one binomial
        for a in range(1, 400):
            b = [ballot_number(a, k) for k in range(1, a + 1)]
            moment = sum(k * n for k, n in enumerate(b, start=1))
            assert sum(b) == catalan(a)
            assert (a + 2) * moment == 3 * a * catalan(a)
            assert 4 * a * catalan(a) - 2 * moment == delta_closed(a)
            gaps = [2 * comb(2 * a + 1 - k, a - k) for k in range(1, a + 1)]
            assert sum(gaps) == 2 * comb(2 * a + 1, a - 1) == delta_closed(a)
            assert delta_closed(a) + 1 == genus_closed(a)


class TestMirror:
    """Chain reversal: component k goes to g + 1 - k and P swaps with Q, so
    (s, i) goes to (s reversed with 1 <-> 2, g + 1 - i) and each node offset
    u to d - u."""

    @staticmethod
    def mirror(graph):
        g = graph.g
        words = [c.sequence for c in graph.components[::g]]
        rank = {s: k for k, s in enumerate(words)}
        return [
            rank[tuple(3 - v for v in reversed(words[k // g]))] * g + g - 1 - k % g
            for k in range(graph.nu)
        ]

    @pytest.mark.parametrize("a", range(1, 9))
    def test_maps_the_node_table_onto_itself(self, a):
        graph = build_bn_curve(a, max_a=a)
        image, d = self.mirror(graph), graph.d
        rows = table_rows(graph)
        mirrored = []
        for ix, x_offset, iy, y_offset in rows:
            jx, jy = image[ix], image[iy]
            row = (jx, d - x_offset, jy, d - y_offset)
            mirrored.append(row if jx < jy else row[2:] + row[:2])
            assert mirrored[-1] != (ix, x_offset, iy, y_offset)  # no fixed node
        assert sorted(mirrored) == sorted(rows)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_fixed_components_are_the_symmetric_words(self, a):
        graph = build_bn_curve(a, max_a=a)
        fixed = [k for k, m in enumerate(self.mirror(graph)) if k == m]
        assert len(fixed) == comb(a, a // 2)
        assert {graph.components[k].marked for k in fixed} == {a + 1}


def stream_rows(a):
    """The words and the (x index, x_offset, y index, y_offset) rows of
    :func:`_node_rows` for the a curve, in the order it yields them."""
    words, rows = [], []
    for word, table in _node_rows(ChainSpec.rho_one(a)):
        words.append(word)
        rows += zip(table[0::4], table[1::4], table[2::4], table[3::4])
    return words, rows


class TestNodeRows:
    """The curve a word at a time from the meet rule, which the `curve`
    command lays out with no graph."""

    @pytest.mark.parametrize("a", range(1, 5))
    def test_neighbour_sets_are_the_library_free_search(self, a):
        words, rows = stream_rows(a)
        comps = [(tuple(w), i) for w in words for i in range(1, 2 * a + 2)]
        found = {comp: set() for comp in comps}
        for ix, _, iy, _ in rows:
            found[comps[ix]].add(comps[iy])
            found[comps[iy]].add(comps[ix])
        for comp in comps:
            assert set(PLAN["neighbors"](comp)) == found[comp]

    def test_mirror_maps_the_rows_onto_themselves_past_the_built_graphs(self):
        # TestMirror's rule, (s, i) -> (s reversed with 1 <-> 2, g + 1 - i)
        # and u -> d - u, in one pass over the a = 9 rows, past DEFAULT_MAX_A
        # and past the a <= 8 graphs TestMirror builds
        a = 9
        chain = ChainSpec.rho_one(a)
        g, d = chain.g, chain.d
        words = [bytes(w.symbols) for w in enumerate_ballot(a)]
        rank = {w: k for k, w in enumerate(words)}
        image = [rank[bytes(3 - v for v in reversed(w))] for w in words]
        seen, mirrored = set(), set()
        for _, table in _node_rows(chain):
            rows = iter(table)
            for ix, x_offset, iy, y_offset in zip(rows, rows, rows, rows):
                seen.add((ix, x_offset, iy, y_offset))
                jx = image[ix // g] * g + g - 1 - ix % g
                jy = image[iy // g] * g + g - 1 - iy % g
                row = (jx, d - x_offset, jy, d - y_offset)
                mirrored.add(row if jx < jy else row[2:] + row[:2])
        assert len(seen) == delta_closed(a)
        assert mirrored == seen

    def test_every_word_after_the_first_is_reached_from_a_lower_word(self):
        # the connectivity proof: every word s but 1^a 2^a holds a 1 right
        # after a 2, and moving that 1 to the front of its run of 2s gives
        # a lower ballot word t, whose rows meet s
        for a in range(1, 9):
            words, rows = stream_rows(a)
            g = 2 * a + 1
            rank = {w: k for k, w in enumerate(words)}
            meets = {(ix // g, iy // g) for ix, _, iy, _ in rows}
            for s in words[1:]:
                q = s.index(b"\x02\x01") + 1
                p = len(s[:q].rstrip(b"\x02"))  # the front of its run of 2s
                t, _ = _moved(s, p, q)
                assert rank[t] < rank[s] and (rank[t], rank[s]) in meets


def moved_rows(chain):
    """Oracle: the rows of :func:`_node_rows`, word by word, from the
    targets themselves: each 2-move's target built by :func:`_moved` and
    each backward candidate as a word, both ranked by a dict of the words'
    bytes, each candidate kept when the dict knows it and :func:`_moved`
    maps it back onto t.  The offsets are read off t's runs as the rows
    read them."""
    g, n = chain.g, chain.g - 1
    words = [bytes(w.symbols) for w in enumerate_ballot(chain.a)]
    rank = {t: k for k, t in enumerate(words)}
    for k, t in enumerate(words):
        base, rows = k * g, []
        ones = twos = start = 0
        while start < n:
            q = t.index(2, start)
            end = t.find(1, q)
            if end < 0:
                end = n
            w1, w2 = twos, 1 + ones + q - start
            for p in range(start, q):
                rows.append((base + p, base + p + 1, w1, w1 + 1))
                moved = _moved(t, p, q)
                if moved is not None:
                    target, j = moved
                    ix, iy = base + p, rank[target] * g + j - 1
                    rows.append((ix, iy, 1 + ones + p - start, w2 + 1))
            rows += [(ix, ix + 1, w2, w2 + 1) for ix in range(base + q, base + end)]
            p = q - 1
            for r in range(1, end - q + 1):
                s = t[:p] + t[q : q + r] + t[p:q] + t[q + r :]
                if s not in rank:
                    break
                if _moved(s, p, p + r) == (t, p + r + 2):
                    rows.append((base + q + r, rank[s] * g + p, w1 + r + 1, w1))
            ones, twos, start = ones + q - start, twos + end - q, end
        rows.sort()
        yield t, [v for ix, iy, xo, yo in rows for v in (ix, xo, iy, yo)]


class TestRanks:
    """The rows rank each target off :func:`_ballot_table` with no word
    built, and count the rows that land on each word."""

    @pytest.mark.parametrize("a", range(1, 9))
    def test_a_word_ranks_at_the_table_entries_of_its_2s(self, a):
        table = _ballot_table(2 * a)
        for k, word in enumerate(enumerate_ballot(a)):
            heights = accumulate((1 if v == 1 else -1 for v in word.symbols), initial=0)
            assert k == sum(
                table[pos][h]
                for pos, (v, h) in enumerate(zip(word.symbols, heights))
                if v == 2
            )

    @pytest.mark.parametrize("a", range(1, 10))
    def test_rows_equal_those_of_moved_and_a_rank_dict(self, a):
        chain = ChainSpec.rho_one(a)
        for got, want in zip(_node_rows(chain), moved_rows(chain), strict=True):
            assert got == want

    @pytest.mark.parametrize("a", range(1, 10))
    def test_rows_landing_on_a_word_are_its_1_moves_and_reverse_2_moves(self, a):
        # where a run of 2s of length A is followed by a run of 1s of
        # length B, A rows and B rows land, from lower words
        g = 2 * a + 1
        words, rows = stream_rows(a)
        across = [(ix // g, iy // g) for ix, _, iy, _ in rows if ix // g != iy // g]
        assert all(kx < ky for kx, ky in across)
        landed = Counter(ky for _, ky in across)
        for k, word in enumerate(words):
            # the runs alternate 1s, 2s, ..., so each run of 2s but the last
            # sits at an odd place, followed by a run of 1s
            runs = [len(list(run)) for _, run in groupby(word)]
            expected = sum(runs[i] + runs[i + 1] for i in range(1, len(runs) - 1, 2))
            assert landed[k] == expected

