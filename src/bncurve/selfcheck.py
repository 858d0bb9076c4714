"""Self-contained consistency checks backing the CLI selftest.

Each check recomputes an invariant two ways (closed formula vs direct
enumeration, graph scan vs recursion, ...) and reports pass/fail.  The same
criteria are exercised, independently, by the test suite.
"""

from __future__ import annotations

import json
from itertools import permutations

from .chain import ChainSpec, exhaustive_bound_search, rho
from .chain import limit_series_census, render_tables
from .combinatorics import catalan, enumerate_ballot, generalized_catalan
from .curve import (
    _word_nodes,
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


def check_component_count(graphs):
    for a in range(1, 9):
        census = limit_series_census(2 * a + 1, 1, a + 2)
        # generalized_catalan(a, 2), not the catalan(a) the census multiplies,
        # so a slip in catalan cannot pass on both sides
        expected = (2 * a + 1) * generalized_catalan(a, 2)
        if census.kind != "curve" or census.count != expected:
            return False, f"a={a}: census {census}"
        if a <= len(graphs) and graphs[a - 1].nu != census.count:
            return False, f"a={a}: census {census.count}, graph {graphs[a - 1].nu}"
    return True, "nu = (2a+1)*c_a for a <= 8"


def check_node_count(graphs):
    for a, graph in enumerate(graphs, start=1):
        presimplified = 2 * (
            (a - 1) * catalan(a)
            - sum(catalan(k) * catalan(a - k) for k in range(1, a))
        ) + 2 * a * catalan(a)
        # the third form, from the words alone: each word's own node count
        per_word = sum(_word_nodes(w.symbols) for w in enumerate_ballot(a))
        if not graph.delta == delta_closed(a) == presimplified == per_word:
            return False, (
                f"a={a}: scan {graph.delta}, closed {delta_closed(a)}, "
                f"pre-simplification {presimplified}, per word {per_word}"
            )
    return True, f"delta matches both closed forms for a <= {len(graphs)}"


def check_genus(graphs):
    for a, graph in enumerate(graphs, start=1):
        g1 = genus_from_graph(graph)
        if g1 != graph.delta + 1 or g1 != genus_closed(a):
            return False, f"a={a}: graph {g1}, closed {genus_closed(a)}"
    return True, f"graph genus = delta+1 = closed form for a <= {len(graphs)}"


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


def check_castelnuovo():
    for bound, r in [(8, 1), (4, 2), (3, 3)]:
        for a in range(1, bound + 1):
            n = sum(1 for _ in enumerate_ballot(a, r + 1))
            if n != generalized_catalan(a, r + 1):
                return False, f"(a={a}, r={r}): {n} enumerated"
    return True, "enumeration cardinality = product formula on all shapes"


def check_table_fidelity():
    # the CSV that `tables --g 5 --d 4 --format csv` prints, read back into
    # columns keyed by their labels digits|i parsed to (sequence, marked); an
    # unparsed label leaves its column out, so the tables differ
    lines = [
        line.split(",")
        for line in render_tables(ChainSpec.rho_one(2), "csv").splitlines()
    ]
    rendered = {}
    for label, *cells in list(zip(*lines))[1:]:
        digits, _, marked = label.partition("|")
        if digits.isdecimal() and marked.isdecimal():
            rendered[tuple(map(int, digits)), int(marked)] = tuple(cells)
    if rendered != GOLDEN_TABLES_G5 or len(set(map(len, lines))) > 1:
        return False, "g=5 tables differ from the golden tables"
    return True, "g=5, d=4 tables reproduced entry-for-entry"


def check_nodal_properties(graphs):
    # each node of the a <= 4 graphs against intersect, which tests one
    # pair at a time by _moved where the build's rows come a word at a time
    # from _node_rows, and whose offsets _slot_offset counts at one slot
    # each; a = 4 is the first curve with a run of three
    for graph in graphs[:4]:
        chain, comps = ChainSpec.rho_one(graph.a), graph.components
        rows = iter(graph.node_table)
        for ix, x_offset, iy, y_offset in zip(rows, rows, rows, rows):
            x, y = comps[ix], comps[iy]
            node = intersect(chain, x, y)
            if node is None or (node.x_offset, node.y_offset) != (x_offset, y_offset):
                return False, (
                    f"a={graph.a}: node {x.label} - {y.label} at "
                    f"{x_offset}/{y_offset}, not where intersect puts it"
                )
    for a, graph in enumerate(graphs, start=1):
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
    return True, (
        f"profiles <= 4, distinct offsets, (g-1)c_a adjacency, a <= {len(graphs)}"
    )


def check_bn_emptiness():
    tested = 0
    for g in range(2, 10):
        for r in range(1, g + 1):
            for d in range(1, 2 * g + 1):
                if rho(g, r, d) >= 0:
                    continue
                tested += 1
                if exhaustive_bound_search(g, r, d):
                    return False, f"(g={g}, r={r}, d={d}): configuration found"
    return True, f"{tested} negative-rho shapes searched, all empty"


def check_gonality():
    gonality()  # raises AssertionError when a certificate fails
    return True, "degrees 1..5 excluded, degree-6 cover and double cover verified"


def check_properties(graphs):
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
    # export determinism: a second, separately built graph exports the same
    # bytes, and the JSON is what json.dumps writes for its own payload
    graph = graphs[-1]
    again = build_bn_curve(graph.a)
    for fmt in ("json", "dot"):
        if export_graph(graph, fmt) != export_graph(again, fmt):
            return False, f"{fmt} export differs between two builds"
    text = export_graph(graph, "json")
    if text != json.dumps(json.loads(text), indent=2) + "\n":
        return False, "json export is not json.dumps(payload, indent=2)"
    return True, "recursion, specialization, ballot oracle, export determinism"


def run_selftest() -> bool:
    """Run every check, print one line per criterion, return overall pass.

    The checks form one table of (name, check, graphs read), each bound on
    a written once, in the check itself.  The curve graphs for a = 1..6
    are built once, up front, into one list that the graph checks read
    prefixes of; the list lives until the run ends.  A check that raises
    fails with the exception's type and text, and so does every graph check
    when the build raises; the lines after it still print."""
    try:
        graphs, build_error = [build_bn_curve(a) for a in range(1, 7)], None
    except Exception as exc:
        graphs, build_error = [], exc
    # the third column is how many of the graphs the check reads, from
    # a = 1, and passes as its one argument; None for no graph
    checks = [
        ("component count nu = (2a+1) c_a", check_component_count, 6),
        ("node count delta, both forms", check_node_count, 6),
        ("genus, graph vs closed form", check_genus, 6),
        ("published-formula discrepancy flagged", check_eh_discrepancy, None),
        ("Castelnuovo counts vs enumeration", check_castelnuovo, None),
        ("g=5 table fidelity", check_table_fidelity, None),
        ("nodal properties", check_nodal_properties, 5),
        ("Brill-Noether emptiness, rho < 0", check_bn_emptiness, None),
        ("gonality pipeline", check_gonality, None),
        ("property suite", check_properties, 3),
    ]
    all_ok = True
    for name, check, reads in checks:
        try:
            if reads is not None and build_error is not None:
                raise build_error
            ok, detail = check() if reads is None else check(graphs[:reads])
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
