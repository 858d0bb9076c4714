"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion recomputes its invariant from frozen expected values rather
than delegating to the library's own selfcheck module, so a wiring fault in
one cannot mask the other.  Run with `pytest -s tests/test_acceptance.py` to
see the per-criterion lines interleaved.
"""

import json
import time
from contextlib import contextmanager
from itertools import permutations

from bncurve.chain import (
    ChainSpec,
    all_components,
    bundle_name,
    component_tables,
    exhaustive_bound_search,
    limit_series_census,
    propagate,
    rho,
)
from bncurve.combinatorics import catalan, enumerate_ballot, generalized_catalan
from bncurve.curve import (
    build_bn_curve,
    component_profile,
    eh_formula,
    export_graph,
    genus_closed,
    genus_from_graph,
)
from bncurve.gonality import (
    build_degree6_cover,
    build_double_cover,
    build_w14_circuit,
    exclude_degree,
    gonality,
    lin_equiv,
    verify_cover,
    verify_double_cover,
)
from bncurve.gonality import Divisor

GOLDEN_TABLES_G5 = {
    ((1, 2, 1, 2), 1): ("L", "P+3Q", "3P+Q", "2P+2Q", "4P"),
    ((1, 2, 1, 2), 2): ("4Q", "L", "3P+Q", "2P+2Q", "4P"),
    ((1, 2, 1, 2), 3): ("4Q", "2P+2Q", "L", "2P+2Q", "4P"),
    ((1, 2, 1, 2), 4): ("4Q", "2P+2Q", "P+3Q", "L", "4P"),
    ((1, 2, 1, 2), 5): ("4Q", "2P+2Q", "P+3Q", "3P+Q", "L"),
    ((1, 1, 2, 2), 1): ("L", "P+3Q", "P+3Q", "4P", "4P"),
    ((1, 1, 2, 2), 2): ("4Q", "L", "P+3Q", "4P", "4P"),
    ((1, 1, 2, 2), 3): ("4Q", "4Q", "L", "4P", "4P"),
    ((1, 1, 2, 2), 4): ("4Q", "4Q", "3P+Q", "L", "4P"),
    ((1, 1, 2, 2), 5): ("4Q", "4Q", "3P+Q", "3P+Q", "L"),
}


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def pair_scan_delta(a):
    """Brute-force quadratic pair scan over precomputed bundle tuples."""
    chain = ChainSpec.rho_one(a)
    comps = all_components(chain)
    tuples = [tuple(propagate(chain, c)[1]) for c in comps]
    delta = 0
    for i, ti in enumerate(tuples):
        for tj in tuples[i + 1:]:
            if all(u is None or v is None or u == v for u, v in zip(ti, tj)):
                delta += 1
    return delta


def test_01_component_count():
    with criterion(1, "component count"):
        start = time.perf_counter()
        for a in range(1, 9):
            census = limit_series_census(2 * a + 1, 1, a + 2)
            assert census.kind == "curve"
            assert census.count == (2 * a + 1) * catalan(a)
        assert limit_series_census(5, 1, 4).count == 10
        assert time.perf_counter() - start < 1.0


def test_02_node_count():
    with criterion(2, "node count"):
        start = time.perf_counter()
        for a in range(1, 7):
            delta = pair_scan_delta(a)
            closed = 2 * ((2 * a + 1) * catalan(a) - catalan(a + 1))
            presimplified = 2 * (
                (a - 1) * catalan(a)
                - sum(catalan(k) * catalan(a - k) for k in range(1, a))
            ) + 2 * a * catalan(a)
            assert delta == closed == presimplified
        assert time.perf_counter() - start < 120.0


def test_03_genus():
    with criterion(3, "genus"):
        for a in range(1, 7):
            graph = build_bn_curve(a)
            closed = 1 + 2 * a * (2 * a + 1) * catalan(a) // (a + 2)
            assert genus_from_graph(graph) == graph.delta + 1 == closed
        assert genus_closed(2) == 11


def test_04_formula_discrepancy():
    with criterion(4, "published-formula discrepancy"):
        assert eh_formula(5, 1, 4) == 6
        assert eh_formula(3, 1, 3) == 2
        assert genus_closed(2) == 11 != eh_formula(5, 1, 4)
        assert genus_closed(1) == 3 != eh_formula(3, 1, 3)


def test_05_castelnuovo_counts():
    with criterion(5, "Castelnuovo counts"):
        start = time.perf_counter()
        for bound, r in [(8, 1), (4, 2), (3, 3)]:
            for a in range(1, bound + 1):
                enumerated = sum(1 for _ in enumerate_ballot(a, r + 1))
                assert enumerated == generalized_catalan(a, r + 1)
        assert generalized_catalan(2, 3) == 5
        assert time.perf_counter() - start < 30.0


def test_06_table_fidelity():
    with criterion(6, "table fidelity"):
        chain = ChainSpec.rho_one(2)
        rendered = {
            (comp.sequence, comp.marked): tuple(
                bundle_name(u, chain.d) for u in offsets
            )
            for comp, offsets in component_tables(chain).items()
        }
        assert rendered == GOLDEN_TABLES_G5
        assert rendered[((1, 2, 1, 2), 2)] == (
            "4Q", "L", "3P+Q", "2P+2Q", "4P",
        )


def test_07_nodal_properties():
    with criterion(7, "nodal properties"):
        for a in range(1, 6):
            g = 2 * a + 1
            graph = build_bn_curve(a)
            adjacency = 0
            for comp in graph.components:
                profile = component_profile(graph, comp)
                offsets = [off for _, off in profile]
                assert len(profile) <= 4
                assert len(set(offsets)) == len(offsets)
                for nbr, _ in profile:
                    if (
                        nbr.sequence == comp.sequence
                        and nbr.marked == comp.marked + 1
                    ):
                        adjacency += 1
            assert adjacency == (g - 1) * catalan(a)


def test_08_brill_noether_emptiness():
    with criterion(8, "Brill-Noether emptiness"):
        tested = 0
        for g in range(2, 10):
            for r in range(1, g + 1):
                for d in range(1, 2 * g + 1):
                    if rho(g, r, d) >= 0:
                        continue
                    tested += 1
                    assert exhaustive_bound_search(g, r, d) == []
        assert tested > 0


def test_09_gonality_pipeline():
    with criterion(9, "gonality pipeline"):
        start = time.perf_counter()
        circuit = build_w14_circuit()
        for deg in range(1, 6):
            trace = exclude_degree(deg, circuit)
            assert trace.ok and trace.steps
            assert any(call for s in trace.steps for call in s.oracle_calls)
        report = verify_cover(build_degree6_cover(circuit))
        assert report.passed, report.first_failure
        double = build_double_cover(circuit)
        dreport = verify_double_cover(double)
        assert dreport.passed, dreport.first_failure
        # target graph genus 6 and etale Riemann-Hurwitz to source genus 11
        target = double.target
        target_genus = (
            sum(1 for _ in target.components)  # elliptic components
            + len(target.nodes)
            - len(target.components)
            + 1
        )
        assert target_genus == 6
        assert 2 * 11 - 2 == 2 * (2 * target_genus - 2)
        assert gonality().value == 6
        assert time.perf_counter() - start < 5.0


def test_10_property_suite():
    with criterion(10, "property suite"):
        # Catalan recursion
        for a in range(13):
            assert catalan(a + 1) == sum(
                catalan(k) * catalan(a - k) for k in range(a + 1)
            )
        # injectivity of sequence -> bundle tuple
        for a in (1, 2, 3, 4):
            chain = ChainSpec.rho_one(a)
            seen = set()
            for comp in all_components(chain):
                key = tuple(propagate(chain, comp)[1])
                assert key not in seen
                seen.add(key)
        # oracle equivalence-relation laws on a circuit component
        circuit = build_w14_circuit()
        x = circuit.point("C'2", "X")
        y = circuit.point("C'2", "Y")
        z = circuit.point("C'2", "Z")
        ds = [Divisor.of((x, 2)), Divisor.of(y, z), Divisor.of((y, 2))]
        for d1 in ds:
            assert lin_equiv(d1, d1)
            for d2 in ds:
                assert lin_equiv(d1, d2) == lin_equiv(d2, d1)
        # brute-force ballot oracle at (2, 3)
        count = sum(
            1
            for word in set(permutations([1, 1, 2, 2, 3, 3]))
            if all(
                word[:i].count(s) >= word[:i].count(s + 1)
                for i in range(1, 7)
                for s in (1, 2)
            )
        )
        assert count == generalized_catalan(2, 3)
        # export determinism
        graph = build_bn_curve(2)
        for fmt in ("json", "dot"):
            assert export_graph(graph, fmt) == export_graph(graph, fmt)
        payload = json.loads(export_graph(graph, "json"))
        assert payload["nu"] == "10"
