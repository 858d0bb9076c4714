"""Exact combinatorics of the degenerate Brill-Noether curve on a chain of
elliptic curves: Catalan counts, component tables, the nodal curve graph with
its node and genus formulas, and the genus-5 gonality case analysis."""

from .combinatorics import (
    BallotSequence,
    catalan,
    enumerate_ballot,
    generalized_catalan,
    is_admissible,
)
from .chain import (
    BNComponentId,
    Census,
    ChainSpec,
    UnsupportedShapeError,
    all_components,
    bn_bound_check,
    bundle_name,
    component_tables,
    limit_series_census,
    propagate,
    render_tables,
    rho,
)
from .curve import (
    BNCurveGraph,
    IntersectionNode,
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
from .gonality import (
    CircuitGraph,
    CoverData,
    Divisor,
    GonalityResult,
    Point,
    ProofTrace,
    VerificationReport,
    build_degree6_cover,
    build_double_cover,
    build_w14_circuit,
    circuit_degree_bound,
    exclude_degree,
    gonality,
    lin_equiv,
    max_ramified_nodes,
    verify_cover,
    verify_double_cover,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
