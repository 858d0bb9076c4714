"""Invariants of the Brill-Noether curve as the chain grows.

Builds the nodal curve graph for a = 1..5 and compares the node count and
genus with the closed formulas.  Also explains the discrepancy between the
published genus formula and the chain computation: evaluated as printed it
gives 6 and 2 where the chain gives 11 and 3, and with the factor (r+1) of
the classical formula for a one-dimensional W^r_d it agrees.
"""

from bncurve import (
    build_bn_curve,
    component_profile,
    delta_closed,
    eh_formula,
    eh_formula_corrected,
    export_graph,
    genus_closed,
    genus_from_graph,
)
from bncurve.chain import BNComponentId

print(f"{'a':>3} {'nu':>6} {'delta':>6} {'genus':>6} {'closed':>6}")
for a in range(1, 6):
    graph = build_bn_curve(a)
    print(
        f"{a:>3} {graph.nu:>6} {graph.delta:>6} "
        f"{genus_from_graph(graph):>6} {genus_closed(a):>6}"
    )
    assert graph.delta == delta_closed(a)

print()
print("published genus formula vs chain computation:")
for a in (1, 2):
    g, d = 2 * a + 1, a + 2
    print(
        f"  (g={g}, r=1, d={d}): as printed {eh_formula(g, 1, d)} (DISCREPANT), "
        f"with (r+1) {eh_formula_corrected(g, 1, d)}, chain {genus_closed(a)}"
    )
    assert eh_formula_corrected(g, 1, d) == genus_closed(a) != eh_formula(g, 1, d)

print()
print("neighborhood of component 1212|2 in the a=2 curve:")
graph = build_bn_curve(2)
comp = BNComponentId((1, 2, 1, 2), 2)
for nbr, offset in component_profile(graph, comp):
    print(f"  meets {nbr.label} at offset {offset}")

print()
print("DOT export of the a=1 curve (3 components, 2 nodes):")
print(export_graph(build_bn_curve(1), "dot"))
