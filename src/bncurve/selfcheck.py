"""Self-contained consistency checks backing the CLI selftest.

Each check recomputes an invariant two ways (closed formula vs direct
enumeration, graph scan vs recursion, ...) and reports pass/fail.  The same
criteria are exercised, independently, by the test suite.
"""

from __future__ import annotations

from itertools import permutations
from math import inf

from .chain import ChainSpec, component_tables, exhaustive_bound_search, rho
from .chain import bundle_name, limit_series_census
from .combinatorics import catalan, enumerate_ballot, generalized_catalan
from .curve import (
    build_bn_curve,
    component_profile,
    delta_closed,
    eh_formula,
    eh_formula_corrected,
    export_graph,
    genus_closed,
    genus_from_graph,
)
from .gonality import gonality

# the two a = 2 tables, columns keyed (sequence, marked), rows components 1..5
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


def check_component_count(max_a: int = 8):
    for a in range(1, max_a + 1):
        census = limit_series_census(2 * a + 1, 1, a + 2)
        if census.kind != "curve" or census.count != (2 * a + 1) * catalan(a):
            return False, f"a={a}: census {census}"
    return True, f"nu = (2a+1)*c_a for a <= {max_a}"


def check_node_count(max_a: int = 6):
    for a in range(1, max_a + 1):
        graph = build_bn_curve(a)
        presimplified = 2 * (
            (a - 1) * catalan(a)
            - sum(catalan(k) * catalan(a - k) for k in range(1, a))
        ) + 2 * a * catalan(a)
        if graph.delta != delta_closed(a) or graph.delta != presimplified:
            return False, (
                f"a={a}: scan {graph.delta}, closed {delta_closed(a)}, "
                f"pre-simplification {presimplified}"
            )
    return True, f"delta matches both closed forms for a <= {max_a}"


def check_genus(max_a: int = 6):
    for a in range(1, max_a + 1):
        graph = build_bn_curve(a)
        g1 = genus_from_graph(graph)
        if g1 != graph.delta + 1 or g1 != genus_closed(a):
            return False, f"a={a}: graph {g1}, closed {genus_closed(a)}"
    return True, f"graph genus = delta+1 = closed form for a <= {max_a}"


def check_eh_discrepancy():
    ok = (
        eh_formula(5, 1, 4) == 6
        and genus_closed(2) == 11
        and eh_formula(3, 1, 3) == 2
        and genus_closed(1) == 3
        and eh_formula_corrected(5, 1, 4) == 11
        and eh_formula_corrected(3, 1, 3) == 3
    )
    return ok, (
        "published formula gives 6 and 2 where the chain computation "
        "gives 11 and 3 (discrepancy reproduced, flagged, not resolved)"
    )


def check_castelnuovo(max_a: int = 8):
    shapes = [(min(max_a, 8), 1), (min(max_a, 4), 2), (min(max_a, 3), 3)]
    for bound, r in shapes:
        for a in range(1, bound + 1):
            n = sum(1 for _ in enumerate_ballot(a, r + 1))
            if n != generalized_catalan(a, r + 1):
                return False, f"(a={a}, r={r}): {n} enumerated"
    return True, "enumeration cardinality = product formula on all shapes"


def check_table_fidelity():
    chain = ChainSpec.rho_one(2)
    tables = component_tables(chain)
    rendered = {
        (comp.sequence, comp.marked): tuple(bundle_name(u, chain.d) for u in us)
        for comp, us in tables.items()
    }
    if rendered != GOLDEN_TABLES_G5:
        return False, "g=5 tables differ from the golden tables"
    return True, "g=5, d=4 tables reproduced entry-for-entry"


def check_nodal_properties(max_a: int = 5):
    for a in range(1, max_a + 1):
        graph = build_bn_curve(a)
        adjacency = 0
        for comp in graph.components:
            profile = component_profile(graph, comp)
            offsets = [off for _, off in profile]
            if len(profile) > 4 or len(set(offsets)) != len(offsets):
                return False, f"a={a}: bad profile on {comp.label}"
            for nbr, _ in profile:
                if nbr.sequence == comp.sequence and abs(
                    nbr.marked - comp.marked
                ) == 1:
                    adjacency += 1
        if adjacency != 2 * 2 * a * catalan(a):  # counted from both ends
            return False, f"a={a}: adjacency node count off"
    return True, f"profiles <= 4, distinct offsets, (g-1)c_a adjacency, a <= {max_a}"


def check_bn_emptiness(max_g: int = 9):
    tested = 0
    for g in range(2, max_g + 1):
        for r in range(1, g + 1):
            for d in range(1, 2 * g + 1):
                if rho(g, r, d) >= 0:
                    continue
                tested += 1
                if exhaustive_bound_search(g, r, d):
                    return False, f"(g={g}, r={r}, d={d}): configuration found"
    return True, f"{tested} negative-rho shapes searched, all empty"


def check_gonality():
    try:
        result = gonality()
    except AssertionError as exc:
        return False, str(exc)
    if result.value != 6:
        return False, "gonality aggregate != 6"
    if not result.double_cover.passed:
        return False, "double cover failed verification"
    return True, "degrees 1..5 excluded, degree-6 cover and double cover verified"


def check_properties(max_a: int = 6):
    # Catalan recursion
    for a in range(0, 13):
        if catalan(a + 1) != sum(
            catalan(k) * catalan(a - k) for k in range(a + 1)
        ):
            return False, f"catalan recursion fails at a={a}"
        if a >= 1 and generalized_catalan(a, 2) != catalan(a):
            return False, f"specialization fails at a={a}"
    # ballot permutation oracle on a small shape
    n = 0
    for word in set(permutations([1, 1, 2, 2, 3, 3])):
        counts = [0, 0, 0, 0]
        ok = True
        for s in word:
            counts[s] += 1
            if s > 1 and counts[s] > counts[s - 1]:
                ok = False
                break
        n += ok
    if n != generalized_catalan(2, 3):
        return False, "brute-force ballot count disagrees at (2, 3)"
    # export determinism
    graph = build_bn_curve(min(max_a, 3))
    for fmt in ("json", "dot"):
        if export_graph(graph, fmt) != export_graph(graph, fmt):
            return False, f"{fmt} export is not deterministic"
    return True, "recursion, specialization, ballot oracle, export determinism"


# (name, check, cap): a check with a cap takes the size bound min(max_a, cap)
# when selftest is given --max-a; cap None means the check takes no bound
ALL_CHECKS = [
    ("component count nu = (2a+1) c_a", check_component_count, inf),
    ("node count delta, both forms", check_node_count, 6),
    ("genus, graph vs closed form", check_genus, 6),
    ("published-formula discrepancy flagged", check_eh_discrepancy, None),
    ("Castelnuovo counts vs enumeration", check_castelnuovo, inf),
    ("g=5 table fidelity", check_table_fidelity, None),
    ("nodal properties", check_nodal_properties, 5),
    ("Brill-Noether emptiness, rho < 0", check_bn_emptiness, None),
    ("gonality pipeline", check_gonality, None),
    ("property suite", check_properties, 6),
]


def run_selftest(max_a: int | None = None, report=print) -> bool:
    """Run every check, print one line per criterion, return overall pass."""
    all_ok = True
    for name, check, cap in ALL_CHECKS:
        if max_a is None or cap is None:
            ok, detail = check()
        else:
            ok, detail = check(min(max_a, cap))
        all_ok &= ok
        report(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
