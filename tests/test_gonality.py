import json
import sys
from dataclasses import replace

import pytest

from bncurve.curve import build_bn_curve, component_profile
from bncurve.gonality import (
    CIRCUIT_ORDER,
    Divisor,
    ProofTrace,
    VerificationReport,
    build_degree6_cover,
    build_double_cover,
    build_w14_circuit,
    circuit_degree_bound,
    component_id,
    component_name,
    exclude_degree,
    gonality,
    lin_equiv,
    max_ramified_nodes,
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

    def test_free_slots_absorb_class(self, circuit):
        y = circuit.point("C'2", "Y")
        z = circuit.point("C'2", "Z")
        free_pair = Divisor.of((y, 0), free=2)
        assert lin_equiv(free_pair, Divisor.of((y, 2)))
        assert lin_equiv(free_pair, Divisor.of(y, z))

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
            terms = [(p, m) for p, m in zip((x, y, z), mults) if m]
            return Divisor.of(*terms) if terms else None

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


def role_offsets(circuit, comp):
    """role -> bundle offset on comp of the node at that role point, read
    from component_profile."""
    prof = {
        component_name(nbr): off
        for nbr, off in component_profile(circuit.graph, component_id(comp))
    }
    role_of = {point: role for role, point in circuit.points[comp].items()}
    return {role_of[p]: prof[nbr] for nbr, p in circuit.facing[comp].items()}


def a2_graph_with_c1_node(edit):
    """The a = 2 graph with its C'1-C'2 node replaced by edit(node, side),
    side being "x" or "y", whichever end of the node is C'2."""
    graph = build_bn_curve(2)
    nodes = []
    for node in graph.nodes:
        ends = (component_name(node.x), component_name(node.y))
        if sorted(ends) == ["C'1", "C'2"]:
            node = edit(node, "x" if ends[0] == "C'2" else "y")
        nodes.append(node)
    return replace(graph, nodes=tuple(nodes))


class TestCircuit:
    def test_structure(self, circuit):
        assert CIRCUIT_ORDER == ("C'2", "C'3", "C'4", "C''2", "C''3", "C''4")
        assert circuit.tail_of == {
            "C'2": "C'1",
            "C'4": "C'5",
            "C''2": "C''1",
            "C''4": "C''5",
        }
        assert set(circuit.tail_node) == set(circuit.tail_of.values())
        # the cycle closes: n6 joins C''4 and C'2
        assert circuit.node_point("n6", "C''4") == circuit.facing["C''4"]["C'2"]
        assert circuit.node_point("n6", "C'2") == circuit.point("C'2", "Z")
        with pytest.raises(ValueError):
            circuit.node_point("n6", "C'3")
        for name in ("n0", "n7", "x[C'2]"):
            with pytest.raises(KeyError):
                circuit.node_point(name, "C'2")

    def test_component_naming_roundtrip(self, circuit):
        names = list(CIRCUIT_ORDER) + list(circuit.tail_of.values())
        assert len(names) == 10
        for name in names:
            assert component_name(component_id(name)) == name

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
            return replace(node, **{side: component_id("C'3")})

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

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exclude_degree(6)
        with pytest.raises(ValueError):
            exclude_degree(0)


class TestDegree6Cover:
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
        m = cover.map_of("C'2")
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
        report = verify_double_cover(build_double_cover(circuit))
        assert report.passed, report.first_failure

    def test_target_shape(self, circuit):
        cover = build_double_cover(circuit)
        assert len(cover.target.components) == 5
        assert len(cover.target.nodes) == 5
        assert len(cover.source_nodes) == 10

    def test_every_target_component_has_two_degree1_sheets(self, circuit):
        cover = build_double_cover(circuit)
        for comp in cover.target.components:
            ms = [m for m in cover.maps if m.target == comp]
            assert len(ms) == 2
            assert all(m.degree == 1 for m in ms)

    def test_perturbed_attachment_fails(self, circuit):
        cover = build_double_cover(circuit)
        nodes = list(cover.source_nodes)
        # send one cycle node to the wrong target node: preimage counts break
        moved = replace(nodes[0], target_node="x_12")
        nodes[0] = moved
        bad = replace(cover, source_nodes=tuple(nodes))
        report = verify_double_cover(bad)
        assert not report.passed

    def test_genus_zero_sheet_fails(self, circuit):
        # the source genus is read off the cover: a rational sheet drops it
        # to 10, so the cover is no longer etale onto the genus-6 target
        cover = build_double_cover(circuit)
        maps = list(cover.maps)
        maps[0] = replace(maps[0], genus=0)
        report = verify_double_cover(replace(cover, maps=tuple(maps)))
        assert not report.passed
        assert report.first_failure == ("source genus 11", "got 10")


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

    def test_serializes(self):
        payload = gonality().to_json()
        assert payload["gonality"] == 6
        assert len(payload["lower_certificate"]) == 5
        assert payload["double_cover"]["passed"] is True
