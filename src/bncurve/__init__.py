"""Exact combinatorics of the degenerate Brill-Noether curve on a chain of
elliptic curves: Catalan counts, the per-component bundle tables (rendered
by `render_tables`, their one builder), the nodal curve graph with its node
and genus formulas, and the genus-5 gonality case analysis.

The gonality certificate layer, the module `bncurve.gonality`, is not
imported with the package: the 17 names re-exported from it are bound on
first access, and of the CLI commands only `gonality5` and `selftest` load
it.  In every import order `bncurve.gonality` is the function `gonality()`;
`importlib.import_module("bncurve.gonality")` gives the module."""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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
    bundle_name,
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

# the names re-exported from bncurve.gonality, bound by __getattr__
_GONALITY = (
    "CircuitGraph",
    "CoverData",
    "Divisor",
    "GonalityResult",
    "Point",
    "ProofTrace",
    "VerificationReport",
    "build_degree6_cover",
    "build_double_cover",
    "build_w14_circuit",
    "circuit_degree_bound",
    "exclude_degree",
    "gonality",
    "lin_equiv",
    "max_ramified_nodes",
    "verify_cover",
    "verify_double_cover",
)

# the public names, the submodules chain, combinatorics and curve among them
__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_GONALITY))
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _GONALITY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.gonality"), name)
    globals()[name] = value
    return value


def __dir__():
    # every public name, bound yet or not, the submodules loaded so far and
    # the dunders; not the private helpers or these two hooks
    names = {*globals(), *_GONALITY} - {"__getattr__", "__dir__"}
    return [name for name in names if name.startswith("__") or not name.startswith("_")]


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule bncurve.gonality binds it here, in any
        # import order; the package's `gonality` stays the function
        if name == "gonality" and isinstance(value, _ModuleType):
            value = value.gonality
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
