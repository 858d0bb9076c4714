import json
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from bncurve.chain import BNComponentId
from bncurve.curve import build_bn_curve, component_profile
from bncurve.gonality import (
    CIRCUIT_ORDER,
    SEQ_DOUBLE_PRIME,
    SEQ_PRIME,
    Divisor,
    OracleCall,
    Point,
    ProofTrace,
    TargetNode,
    TargetTree,
    TraceStep,
    VerificationReport,
    build_degree6_cover,
    build_double_cover,
    build_w14_circuit,
    circuit_degree_bound,
    component_name,
    exclude_degree,
    gonality,
    lin_equiv,
    max_ramified_nodes,
    riemann_hurwitz,
    verify_cover,
    verify_double_cover,
)


@pytest.fixture(scope="module")
def circuit():
    return build_w14_circuit()


class TestOracle:
    def test_defining_relations(self, circuit):
        x = circuit.point("C'2", "X")
        y = circuit.point("C'2", "Y")
        z = circuit.point("C'2", "Z")
        assert lin_equiv(Divisor.of((x, 2)), Divisor.of(y, z))
        assert not lin_equiv(Divisor.of((x, 2)), Divisor.of((y, 2)))
        assert not lin_equiv(Divisor.of((x, 2)), Divisor.of((z, 2)))
        assert not lin_equiv(Divisor.of((y, 2)), Divisor.of((z, 2)))

    def test_degree_mismatch(self, circuit):
        y = circuit.point("C'2", "Y")
        assert not lin_equiv(Divisor.of(y), Divisor.of((y, 2)))

    def test_mixed_components_rejected(self, circuit):
        y1 = circuit.point("C'2", "Y")
        y2 = circuit.point("C'3", "Y")
        with pytest.raises(ValueError):
            lin_equiv(Divisor.of(y1), Divisor.of(y2))

    def test_zero_multiplicity_adds_no_term(self, circuit):
        x = circuit.point("C'2", "X")
        y = circuit.point("C'2", "Y")
        d = Divisor.of((x, 0), y)
        assert d == Divisor.of(y)
        assert str(d) == "C'2: Y[C'2]" and d.degree == 1
        with pytest.raises(ValueError, match="need at least one marked point"):
            Divisor.of((x, 0))

    def test_equivalence_relation_laws(self, circuit):
        x = circuit.point("C'4", "X")
        y = circuit.point("C'4", "Y")
        z = circuit.point("C'4", "Z")
        divisors = [
            Divisor.of((x, 2)),
            Divisor.of(y, z),
            Divisor.of((y, 2)),
            Divisor.of((x, 1), (y, 1)),
            Divisor.of((z, 2)),
        ]
        for d in divisors:
            assert lin_equiv(d, d)
        for d1 in divisors:
            for d2 in divisors:
                assert lin_equiv(d1, d2) == lin_equiv(d2, d1)
        for d1 in divisors:
            for d2 in divisors:
                for d3 in divisors:
                    if lin_equiv(d1, d2) and lin_equiv(d2, d3):
                        assert lin_equiv(d1, d3)

    def test_only_relation_is_2x_eq_y_plus_z(self, circuit):
        # exhaustive over effective divisors supported on {X, Y, Z} of equal
        # degree <= 4: equivalence holds iff the multiplicity difference is
        # an integer multiple of (2, -1, -1)
        x = circuit.point("C''2", "X")
        y = circuit.point("C''2", "Y")
        z = circuit.point("C''2", "Z")

        def divisor(mults):
            return Divisor.of(*zip((x, y, z), mults))

        shapes = [
            (i, j, k)
            for i in range(5)
            for j in range(5)
            for k in range(5)
            if 1 <= i + j + k <= 4
        ]
        for m1 in shapes:
            for m2 in shapes:
                if sum(m1) != sum(m2):
                    continue
                diff = tuple(u - v for u, v in zip(m1, m2))
                expected = (
                    diff[0] % 2 == 0
                    and diff[1] == -diff[0] // 2
                    and diff[2] == -diff[0] // 2
                )
                assert lin_equiv(divisor(m1), divisor(m2)) == expected

    @pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(1), 1.0, True])
    def test_point_coefficients_must_be_ints(self, coeff):
        with pytest.raises(ValueError, match="not an int"):
            Point.make("P", "C'2", p=coeff)
        assert Point.make("P", "C'2", p=1, q=-2).vector == (("p", 1), ("q", -2))

    def test_agrees_with_a_rational_model(self, circuit):
        # an independent model of each circuit component: node classes y, z,
        # the tail point (y+z)/2 and a fresh point p, in exact rationals;
        # every pair of effective divisors of degree <= 3 on those points
        # must get the same verdict from the oracle and from the model
        half = Fraction(1, 2)
        model = {
            "Y": {"y": Fraction(1)},
            "Z": {"z": Fraction(1)},
            "X": {"y": half, "z": half},
            "P": {"p": Fraction(1)},
        }

        def model_class(roles):
            total = {}
            for role in roles:
                for sym, c in model[role].items():
                    total[sym] = total.get(sym, 0) + c
            return {sym: c for sym, c in total.items() if c}

        for comp in CIRCUIT_ORDER:
            points = {
                **circuit.points[comp],
                "P": Point.make(f"P[{comp}]", comp, **{f"p_{comp}": 1}),
            }
            multisets = [
                roles
                for deg in range(1, 4)
                for roles in combinations_with_replacement(sorted(points), deg)
            ]
            equivalent = 0
            for r1 in multisets:
                d1 = Divisor.of(*(points[r] for r in r1))
                for r2 in multisets:
                    d2 = Divisor.of(*(points[r] for r in r2))
                    expected = len(r1) == len(r2) and (
                        model_class(r1) == model_class(r2)
                    )
                    assert lin_equiv(d1, d2) == expected, (comp, r1, r2)
                    equivalent += expected and r1 != r2
            # where there is an X: 2X ~ Y + Z and 2X + W ~ Y + Z + W for
            # W = X, Y, Z, P, each pair counted both ways
            assert equivalent == (10 if "X" in points else 0)


def role_offsets(circuit, comp):
    """role -> bundle offset on comp of the node at that role point, read
    from component_profile."""
    (cid,) = [c for c in circuit.graph.components if component_name(c) == comp]
    prof = {
        component_name(nbr): off
        for nbr, off in component_profile(circuit.graph, cid)
    }
    role_of = {point: role for role, point in circuit.points[comp].items()}
    return {role_of[p]: prof[nbr] for nbr, p in circuit.facing[comp].items()}


def a2_graph_with_c1_node(edit):
    """The a = 2 graph with its C'1-C'2 node replaced by edit(node, side),
    side being "x" or "y", whichever end of the node is C'2; the edited
    nodes are written back as node table rows."""
    graph = build_bn_curve(2)
    index = {c: k for k, c in enumerate(graph.components)}
    table = []
    for node in graph.nodes:
        ends = (component_name(node.x), component_name(node.y))
        if sorted(ends) == ["C'1", "C'2"]:
            node = edit(node, "x" if ends[0] == "C'2" else "y")
        table += (index[node.x], node.x_offset, index[node.y], node.y_offset)
    return replace(graph, node_table=tuple(table))


class TestCircuit:
    def test_structure(self, circuit):
        assert CIRCUIT_ORDER == ("C'2", "C'3", "C'4", "C''2", "C''3", "C''4")
        assert circuit.tail_of == {
            "C'2": "C'1",
            "C'4": "C'5",
            "C''2": "C''1",
            "C''4": "C''5",
        }
        # each tail meets only its host, at its attachment point N[t]
        assert {t: list(circuit.facing[t]) for t in circuit.tail_of.values()} == {
            t: [c] for c, t in circuit.tail_of.items()
        }
        assert circuit.facing["C'1"]["C'2"].name == "N[C'1]"
        # the cycle closes: n6 joins C''4 and C'2
        assert circuit.node_point(6, "C''4") == circuit.facing["C''4"]["C'2"]
        assert circuit.node_point(6, "C'2") == circuit.point("C'2", "Z")
        with pytest.raises(ValueError):
            circuit.node_point(6, "C'3")
        for k in (0, 7, "n6"):
            with pytest.raises(KeyError):
                circuit.node_point(k, "C'2")

    def test_component_naming_roundtrip(self, circuit):
        names = list(CIRCUIT_ORDER) + list(circuit.tail_of.values())
        assert len(names) == 10
        assert sorted(map(component_name, circuit.graph.components)) == sorted(names)
        for i in range(1, 6):
            assert component_name(BNComponentId(SEQ_PRIME, i)) == f"C'{i}"
            assert component_name(BNComponentId(SEQ_DOUBLE_PRIME, i)) == f"C''{i}"

    def test_facing_holds_both_points_of_every_node(self, circuit):
        # the 10 nodes of the graph give 20 distinct points, each on its own
        # end of the node, and facing holds no other
        ends = [(component_name(n.x), component_name(n.y)) for n in circuit.graph.nodes]
        points = [circuit.facing[c1][c2] for e in ends for c1, c2 in (e, e[::-1])]
        assert [p.component for p in points] == [c for e in ends for c in e]
        assert len(set(points)) == sum(map(len, circuit.facing.values())) == 20

    def test_c2_prime_offsets(self, circuit):
        assert role_offsets(circuit, "C'2") == {"Y": 2, "Z": 0, "X": 1}

    def test_offset_relation_on_three_valent(self, circuit):
        for comp in circuit.tail_of:
            off = role_offsets(circuit, comp)
            assert 2 * off["X"] == off["Y"] + off["Z"]

    def test_two_valent_have_no_x(self, circuit):
        for comp in ("C'3", "C''3"):
            assert set(circuit.points[comp]) == {"Y", "Z"}

    def test_matches_curve_graph(self, circuit):
        assert circuit.graph.nu == 10 and circuit.graph.delta == 10

    def test_moved_tail_offset_is_caught(self, monkeypatch):
        def move(node, side):
            key = f"{side}_offset"
            return replace(node, **{key: getattr(node, key) + 1})

        graph = a2_graph_with_c1_node(move)
        monkeypatch.setattr(
            sys.modules["bncurve.gonality"], "build_bn_curve", lambda a: graph
        )
        with pytest.raises(AssertionError):
            build_w14_circuit()

    def test_reattached_tail_is_caught(self, monkeypatch):
        def reattach(node, side):
            return replace(node, **{side: BNComponentId(SEQ_PRIME, 3)})

        graph = a2_graph_with_c1_node(reattach)
        monkeypatch.setattr(
            sys.modules["bncurve.gonality"], "build_bn_curve", lambda a: graph
        )
        with pytest.raises(AssertionError):
            build_w14_circuit()


class TestDegreeBound:
    def test_values(self):
        assert circuit_degree_bound(0) == 6
        assert circuit_degree_bound(3) == 3
        assert circuit_degree_bound(2) == 4
        with pytest.raises(ValueError):
            circuit_degree_bound(7)

    def test_max_ramified_nodes(self, circuit):
        bound, trace = max_ramified_nodes(circuit)
        assert bound == 3
        assert trace.ok
        calls = trace.steps[0].oracle_calls
        assert len(calls) == 6  # one 2Y vs 2Z refutation per circuit component
        assert all(not c.result for c in calls)


class TestExclusion:
    @pytest.mark.parametrize("deg", [1, 2, 3, 4, 5])
    def test_trace_ok_and_nonempty(self, circuit, deg):
        trace = exclude_degree(deg, circuit)
        assert trace.ok
        assert trace.steps
        assert trace.conclusion == f"no admissible cover of degree {deg}"

    def test_degree3_leaf_contradictions(self, circuit):
        trace = exclude_degree(3, circuit)
        # 2 triples x 6 leaves, each with a refuting oracle call
        leaf_steps = [s for s in trace.steps if "leaf" in s.claim]
        assert len(leaf_steps) == 12
        for step in leaf_steps:
            assert step.oracle_calls and not step.oracle_calls[-1].result

    def test_degree4_tail_steps(self, circuit):
        trace = exclude_degree(4, circuit)
        tail_steps = [s for s in trace.steps if "adds one" in s.claim]
        assert len(tail_steps) == 15  # all node pairs
        for step in tail_steps:
            assert len(step.oracle_calls) >= 2  # at least two pencilled comps

    def test_degree5_uses_single_node_scenarios(self, circuit):
        trace = exclude_degree(5, circuit)
        tail_steps = [s for s in trace.steps if "adds one" in s.claim]
        assert len(tail_steps) == 15 + 6

    def test_every_genericity_step_is_oracle_backed(self, circuit):
        for deg in range(1, 6):
            trace = exclude_degree(deg, circuit)
            assert any(s.oracle_calls for s in trace.steps)
            for s in trace.steps:
                for call in s.oracle_calls:
                    assert call.result is False

    def test_serializes_to_json(self, circuit):
        payload = json.loads(exclude_degree(3, circuit).dumps())
        assert payload["subject"] == "no admissible cover of degree 3"
        assert all("verdict" in s for s in payload["steps"])

    def test_out_of_range(self, circuit):
        with pytest.raises(ValueError):
            exclude_degree(6, circuit)
        with pytest.raises(ValueError):
            exclude_degree(0, circuit)


class TestTargetTree:
    def test_path_is_a_tree(self):
        nodes = (TargetNode("ab", ("A", "B")), TargetNode("bc", ("B", "C")))
        tree = TargetTree(("A", "B", "C"), nodes)
        assert tree.is_tree()
        assert tree.genus == 0

    def test_three_cycle_is_not_a_tree(self):
        sides = [("A", "B"), ("B", "C"), ("A", "C")]
        nodes = tuple(TargetNode(f"n{k}", pair) for k, pair in enumerate(sides))
        cycle = TargetTree(("A", "B", "C"), nodes)
        assert not cycle.is_tree()
        assert cycle.genus == 1

    def test_node_on_an_unknown_component_is_not_a_tree(self):
        nodes = (TargetNode("ab", ("A", "B")), TargetNode("bd", ("B", "D")))
        assert not TargetTree(("A", "B", "C"), nodes).is_tree()

    @pytest.mark.parametrize("sides", [("A", "Z"), ("Z", "A"), ("Z", "Z")])
    def test_unknown_side_is_not_a_tree_even_when_the_count_fits(self, sides):
        # one node for two components, as a tree has, but a side that is
        # not a component never reaches the union-find
        assert TargetTree(("A", "B"), (TargetNode("ab", ("A", "B")),)).is_tree()
        assert not TargetTree(("A", "B"), (TargetNode("az", sides),)).is_tree()

    def test_self_loop_with_one_node_too_few_is_not_a_tree(self):
        # V - 1 nodes, but the loop at A leaves C unreached
        nodes = (TargetNode("aa", ("A", "A")), TargetNode("ab", ("A", "B")))
        assert not TargetTree(("A", "B", "C"), nodes).is_tree()


class TestDegree6Cover:
    def test_target_is_read_off_the_placements(self, circuit):
        cover = build_degree6_cover(circuit)
        target = cover.target
        assert target.components == ("R1", "R2", "R'1", "R'5", "R''1", "R''5")
        side = {m.source: m.target for m in cover.maps}
        expected = {"n0": {"R1", "R2"}}
        for prime in ("'", "''"):
            for i, host in ((1, 2), (5, 4)):  # the tail C'i hangs off C'(i±1)
                expected[f"m{prime}{i}"] = {side[f"C{prime}{host}"], f"R{prime}{i}"}
        assert {n.name: set(n.sides) for n in target.nodes} == expected
        assert [n.name for n in target.nodes][0] == "n0"
        assert target.is_tree() and target.genus == 0

    def test_component_census(self, circuit):
        cover = build_degree6_cover(circuit)
        elliptic = [m for m in cover.maps if m.genus == 1]
        rational = [m for m in cover.maps if m.genus == 0]
        assert len(elliptic) == 10 and len(rational) == 16

    def test_degree_six_over_every_target(self, circuit):
        cover = build_degree6_cover(circuit)
        for comp in cover.target.components:
            assert sum(m.degree for m in cover.maps if m.target == comp) == 6

    def test_tail_fiber_is_twice_x(self, circuit):
        cover = build_degree6_cover(circuit)
        (m,) = [m for m in cover.maps if m.source == "C'2"]
        x = circuit.point("C'2", "X")
        yz = Divisor.of(circuit.point("C'2", "Y"), circuit.point("C'2", "Z"))
        fib = m.fiber("m'1")
        assert fib.multiplicity(x) == 2
        assert lin_equiv(fib, yz)

    def test_verifies(self, circuit):
        report = verify_cover(build_degree6_cover(circuit))
        assert report.passed, report.first_failure

    def test_perturbed_ramification_index_fails(self, circuit):
        cover = build_degree6_cover(circuit)
        nodes = list(cover.source_nodes)
        for i, node in enumerate(nodes):
            if node.name == "x[C'2]":
                (c1, p1, e1), (c2, p2, e2) = node.branches
                nodes[i] = replace(node, branches=((c1, p1, e1), (c2, p2, 1)))
                break
        bad = replace(cover, source_nodes=tuple(nodes))
        report = verify_cover(bad)
        assert not report.passed
        assert any(
            "(iii)" in name and not ok for name, ok, _ in report.checks
        )

    def test_wrong_tail_fiber_fails_lin_equiv(self, circuit):
        cover = build_degree6_cover(circuit)
        y = circuit.point("C'2", "Y")
        maps = list(cover.maps)
        for i, m in enumerate(maps):
            if m.source == "C'2":
                fibers = [
                    (n, Divisor.of((y, 2)) if n == "m'1" else f)
                    for n, f in m.node_fibers
                ]
                maps[i] = replace(m, node_fibers=tuple(fibers))
                break
        bad = replace(cover, maps=tuple(maps))
        report = verify_cover(bad)
        assert not report.passed
        assert any(
            "linearly" in name and not ok for name, ok, _ in report.checks
        )

    def test_report_serializes(self, circuit):
        payload = json.loads(verify_cover(build_degree6_cover(circuit)).dumps())
        assert payload["passed"] is True
        assert payload["checks"]


class TestDoubleCover:
    def test_verifies(self, circuit):
        cover = build_double_cover(circuit)
        report = verify_cover(cover)
        assert report.passed, report.first_failure
        assert verify_double_cover(cover).checks == report.checks

    def test_target_shape(self, circuit):
        cover = build_double_cover(circuit)
        assert len(cover.target.components) == 5
        assert len(cover.target.nodes) == 5
        assert len(cover.source_nodes) == 10

    def test_quotient_is_read_off_the_graph(self, circuit):
        cover = build_double_cover(circuit)
        target = cover.target
        assert target.components == ("C1", "C2", "C3", "C4", "C5")
        assert all(target.genus_of(c) == 1 for c in target.components)
        assert sorted(n.sides for n in target.nodes) == [
            ("C1", "C2"),
            ("C2", "C3"),
            ("C2", "C4"),
            ("C3", "C4"),
            ("C4", "C5"),
        ]
        assert target.genus == 6
        assert cover.source_genus == 11
        # etale of degree 2: 2g_source - 2 = 2(2g_target - 2)
        assert riemann_hurwitz(cover.source_genus, target.genus, 2) == 0

    def test_every_target_component_has_two_degree1_sheets(self, circuit):
        cover = build_double_cover(circuit)
        for comp in cover.target.components:
            ms = [m for m in cover.maps if m.target == comp]
            assert len(ms) == 2
            assert all(m.degree == 1 for m in ms)

    def test_swap_must_act_freely_on_the_nodes(self, circuit):
        # C'1 re-attached to C'3 while C''1 stays on C''2: the swap sends the
        # C''1-C''2 node to a C'1-C'2 node the graph no longer has
        def reattach(node, side):
            return replace(node, **{side: BNComponentId(SEQ_PRIME, 3)})

        graph = a2_graph_with_c1_node(reattach)
        with pytest.raises(AssertionError, match="sheet swap"):
            build_double_cover(replace(circuit, graph=graph))

    def test_perturbed_attachment_fails(self, circuit):
        cover = build_double_cover(circuit)
        nodes = list(cover.source_nodes)
        # send the cycle node n1 (C'2-C'3) over the C1-C2 node
        assert nodes[0].name == "n1"
        nodes[0] = replace(nodes[0], target_node="C1-C2")
        report = verify_cover(replace(cover, source_nodes=tuple(nodes)))
        assert not report.passed
        assert report.first_failure[0] == "(i) n1 over a target node"

    def test_ramified_node_fails(self, circuit):
        cover = build_double_cover(circuit)
        nodes = list(cover.source_nodes)
        (c1, p1, _), (c2, p2, _) = nodes[0].branches
        nodes[0] = replace(nodes[0], branches=((c1, p1, 2), (c2, p2, 2)))
        report = verify_cover(replace(cover, source_nodes=tuple(nodes)))
        assert not report.passed
        assert not dict((n, ok) for n, ok, _ in report.checks)[
            f"(i) {c1}: fiber over C2-C3 consists of nodes"
        ]

    def test_genus_zero_sheet_fails(self, circuit):
        # a rational sheet over an elliptic Ci needs Riemann-Hurwitz total
        # 2*0 - 2 - 1*(2*1 - 2) = -2, which no ramification count gives
        cover = build_double_cover(circuit)
        maps = list(cover.maps)
        maps[0] = replace(maps[0], genus=0)
        report = verify_cover(replace(cover, maps=tuple(maps)))
        assert not report.passed
        assert report.first_failure == (
            f"{maps[0].source}: Riemann-Hurwitz ramification total",
            "nodes 0 + smooth 0 != -2",
        )


@pytest.mark.parametrize("build", [build_degree6_cover, build_double_cover])
def test_source_component_without_map_is_a_failed_check(circuit, build):
    cover = build(circuit)
    maps = tuple(m for m in cover.maps if m.source != "C'1")
    report = verify_cover(replace(cover, maps=maps))
    assert not report.passed
    checks = {name: (ok, detail) for name, ok, detail in report.checks}
    ok, detail = checks["(i) x[C'2] over a target node"]
    assert not ok and "no map for C'1" in detail
    assert not checks["x[C'2]: branch N[C'1] on C'1 sits in the fiber"][0]


def test_fiber_on_another_component_is_a_failed_check(circuit):
    # C'2's fiber over m'1 declared on C'3: compared, not raised on
    cover = build_degree6_cover(circuit)
    wrong = Divisor.of((circuit.point("C'3", "Y"), 2))
    maps = [
        replace(
            m,
            node_fibers=tuple(
                (n, wrong if n == "m'1" else f) for n, f in m.node_fibers
            ),
        )
        if m.source == "C'2"
        else m
        for m in cover.maps
    ]
    report = verify_cover(replace(cover, maps=tuple(maps)))
    checks = {name: ok for name, ok, _ in report.checks}
    assert not checks["C'2: fiber degree over m'1"]
    assert not checks["C'2: node fibers 0 and 1 linearly equivalent"]


def with_c2_map(cover, **changes):
    maps = tuple(
        replace(m, **changes) if m.source == "C'2" else m for m in cover.maps
    )
    return replace(cover, maps=maps)


def with_c2_fiber(cover, node_name, fiber):
    (m,) = [m for m in cover.maps if m.source == "C'2"]
    fibers = tuple(
        (n, fiber if n == node_name else f) for n, f in m.node_fibers
    )
    return with_c2_map(cover, node_fibers=fibers)


class TestVerifyCoverBranches:
    """Each mutation of the degree-6 cover fails the named check with the
    given detail."""

    def failed(self, cover, name):
        report = verify_cover(cover)
        assert not report.passed
        ok, detail = {n: (ok, d) for n, ok, d in report.checks}[name]
        assert not ok
        return detail

    def test_source_node_over_an_unknown_target_node(self, circuit):
        cover = build_degree6_cover(circuit)
        nodes = list(cover.source_nodes)
        assert nodes[0].name == "n1"
        nodes[0] = replace(nodes[0], target_node="nowhere")
        bad = replace(cover, source_nodes=tuple(nodes))
        detail = self.failed(bad, "(i) n1 over a target node")
        assert detail == "nowhere is not a target node"

    def test_stray_point_in_a_node_fiber(self, circuit):
        cover = build_degree6_cover(circuit)
        stray = Point.make("S[C'2]", "C'2", s=1)
        fiber = Divisor.of(circuit.point("C'2", "Y"), stray)
        bad = with_c2_fiber(cover, "n0", fiber)
        detail = self.failed(bad, "(i) C'2: fiber over n0 consists of nodes")
        assert detail == "S[C'2] is not a source-node branch"

    def test_fiber_multiplicity_below_the_ramification_index(self, circuit):
        cover = build_degree6_cover(circuit)
        bad = with_c2_fiber(cover, "m'1", Divisor.of(circuit.point("C'2", "X")))
        detail = self.failed(bad, "(i) C'2: fiber over m'1 consists of nodes")
        assert detail == (
            "X[C'2] has fiber multiplicity 1 but ramification index 2"
        )

    def test_elliptic_map_of_degree_three_with_three_fibers(self, circuit):
        cover = build_degree6_cover(circuit)
        (m,) = [m for m in cover.maps if m.source == "C'2"]
        assert len(m.node_fibers) == 3
        bad = with_c2_map(cover, degree=3)
        self.failed(bad, "C'2: pencil membership in modeled range")


def test_extra_ramification_is_the_riemann_hurwitz_remainder(circuit):
    # a degree-2 elliptic map onto a rational curve ramifies 2d = 4 times,
    # less one at a doubled node point (X, or the tail node N); degree-1
    # maps, rational fillers and the etale sheets alike, ramify nowhere
    degree6 = build_degree6_cover(circuit)
    doubled = set(circuit.tail_of) | set(circuit.tail_of.values())
    assert {m.source: m.extra_ramification for m in degree6.maps} == {
        m.source: 3 if m.source in doubled else 4 if m.genus else 0
        for m in degree6.maps
    }
    double = build_double_cover(circuit)
    assert {m.extra_ramification for m in double.maps} == {0}


class TestGonality:
    def test_value_and_certificates(self):
        result = gonality()
        assert result.value == 6
        assert len(result.lower_certificate) == 5
        assert all(t.ok for t in result.lower_certificate)
        assert result.upper_certificate.passed
        assert result.double_cover.passed

    def test_empty_exclusion_trace_is_rejected(self, monkeypatch):
        def empty_trace(deg, circuit=None):
            return ProofTrace(subject=f"no admissible cover of degree {deg}")

        monkeypatch.setattr(
            sys.modules["bncurve.gonality"], "exclude_degree", empty_trace
        )
        with pytest.raises(AssertionError, match="exclusion trace failed"):
            gonality()

    def test_failing_double_cover_is_rejected(self, monkeypatch):
        failing = VerificationReport()
        failing.record("forced failure", False)
        monkeypatch.setattr(
            sys.modules["bncurve.gonality"],
            "verify_double_cover",
            lambda cover=None: failing,
        )
        with pytest.raises(AssertionError, match="double cover failed"):
            gonality()


def trace_layout(trace):
    """The JSON layout of a proof trace, written out by hand."""
    return {
        "subject": trace.subject,
        "steps": [
            {
                "claim": s.claim,
                "oracle_calls": [
                    {"lin_equiv": list(c.lin_equiv), "result": c.result}
                    for c in s.oracle_calls
                ],
                "verdict": s.verdict,
            }
            for s in trace.steps
        ],
        "conclusion": trace.conclusion,
    }


def report_layout(report):
    """The JSON layout of a verification report, written out by hand."""
    return {
        "passed": report.passed,
        "checks": [
            {"check": n, "ok": ok, "detail": d} for n, ok, d in report.checks
        ],
    }


class TestSerializers:
    @pytest.mark.parametrize("deg", [1, 2, 3, 4, 5])
    def test_trace_dumps_the_layout(self, circuit, deg):
        trace = exclude_degree(deg, circuit)
        assert any(s.oracle_calls for s in trace.steps)
        assert trace.dumps() == json.dumps(trace_layout(trace), indent=2)

    @pytest.mark.parametrize("build", [build_degree6_cover, build_double_cover])
    def test_report_dumps_the_layout(self, circuit, build):
        report = verify_cover(build(circuit))
        assert report.checks
        assert report.dumps() == json.dumps(report_layout(report), indent=2)

    def test_strings_are_escaped_as_json_dumps_escapes_them(self):
        odd = 'quote " backslash \\ newline \n tab \t control \x01 é ′'
        trace = ProofTrace(
            subject=odd,
            steps=[
                TraceStep(claim=odd),
                TraceStep(
                    claim="two calls",
                    oracle_calls=[
                        OracleCall((odd, "C'2: X[C'2]"), True),
                        OracleCall(("", odd), False),
                    ],
                    verdict=odd,
                ),
            ],
            conclusion=odd,
        )
        assert trace.steps[0].oracle_calls == []
        expected = json.dumps(trace, default=vars, indent=2)
        assert "\\u2032" in expected and "\\u00e9" in expected
        assert trace.dumps() == expected
        assert ProofTrace("").dumps() == json.dumps(
            ProofTrace(""), default=vars, indent=2
        )
        report = VerificationReport()
        assert report.dumps() == json.dumps(
            report_layout(report), default=vars, indent=2
        )
        report.record(odd, True, odd)
        report.record("", False)
        assert report.dumps() == json.dumps(
            report_layout(report), default=vars, indent=2
        )

    def test_failed_step_and_check_keep_the_layout(self, circuit):
        trace = exclude_degree(1, circuit)
        trace.steps[0].verdict = "forced failure"
        assert trace.dumps() == json.dumps(trace_layout(trace), indent=2)
        report = VerificationReport()
        report.record("forced failure", False, "detail")
        assert json.loads(report.dumps()) == {
            "passed": False,
            "checks": [{"check": "forced failure", "ok": False, "detail": "detail"}],
        }
