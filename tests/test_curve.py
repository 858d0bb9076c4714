import json
from fractions import Fraction

import pytest

from bncurve.chain import BNComponentId, ChainSpec, all_components, propagate
from bncurve.combinatorics import catalan
from bncurve.curve import (
    BNCurveGraph,
    build_bn_curve,
    component_profile,
    delta_closed,
    eh_formula,
    eh_formula_corrected,
    export_graph,
    genus_closed,
    genus_from_graph,
    intersect,
)

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
    offsets = [propagate(chain, c)[1] for c in comps]
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
    offsets = [tuple(propagate(chain, c)[1]) for c in comps]

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
            {
                "x": n.x.label,
                "x_offset": n.x_offset,
                "y": n.y.label,
                "y_offset": n.y_offset,
            }
            for n in graph.nodes
        ],
    }


def reference_json(graph):
    """export_graph's JSON as json.dumps itself lays it out."""
    return json.dumps(reference_payload(graph), indent=2) + "\n"


def node_row(node):
    return (node.x.label, node.y.label, node.x_offset, node.y_offset)


class TestIntersect:
    def test_c2_meets_c1_at_offset_1(self):
        chain = ChainSpec.rho_one(2)
        node = intersect(chain, C2P, C1P)
        assert node is not None
        assert node.offset_on(C2P) == 1  # the point P+3Q

    def test_c2_meets_c4_doubleprime_at_offset_0(self):
        chain = ChainSpec.rho_one(2)
        node = intersect(chain, C2P, C4PP)
        assert node is not None
        assert node.offset_on(C2P) == 0  # the point 4Q
        assert node.offset_on(C4PP) == 2  # the point 2P+2Q

    def test_non_intersecting_pair(self):
        chain = ChainSpec.rho_one(1)
        x = BNComponentId((1, 2), 1)
        y = BNComponentId((1, 2), 3)
        assert intersect(chain, x, y) is None

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
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

    @pytest.mark.parametrize("a", [6, 7])
    def test_matches_meet_key_index(self, a):
        graph = build_bn_curve(a, max_a=a)
        assert [node_row(n) for n in graph.nodes] == meet_key_nodes(a)

    def test_connected(self):
        for a in (1, 2, 3):
            assert build_bn_curve(a).is_connected()

    def test_disconnected_graph_is_caught(self):
        graph = build_bn_curve(2)
        cut = BNCurveGraph(
            a=2,
            components=graph.components,
            nodes=tuple(n for n in graph.nodes if C1P not in (n.x, n.y)),
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
        # one component with an empty sequence and no nodes: both lists
        # must render as []
        graph = BNCurveGraph(a=0, components=(BNComponentId((), 1),), nodes=())
        text = export_graph(graph, "json")
        assert text == reference_json(graph)
        assert '"sequence": []' in text and '"nodes": []' in text

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
