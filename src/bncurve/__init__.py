"""Exact combinatorics of the degenerate Brill-Noether curve on a chain of
elliptic curves: Catalan counts, the per-component bundle tables (rendered
by `render_tables`, their one builder), the nodal curve graph with its node
and genus formulas, and the genus-5 gonality case analysis.

`import bncurve` loads only `combinatorics` and `chain`.  The curve graph,
the module `bncurve.curve` (which loads `fractions` when `eh_formula` is
first evaluated), and the gonality certificate layer, the module
`bncurve.gonality`, are not imported with the package: the submodule
`curve`, the 11 names re-exported from it and the 17 from `gonality` are
bound on first access, or as soon as anything imports their module.  Of the
CLI commands, `curve`, `gonality5` and `selftest` load `bncurve.curve`,
only `curve` and `selftest` load `fractions`, and only `gonality5` and
`selftest` load the certificate layer; `catalan`, `castelnuovo`, `census`
and `tables` load none of them.  In every import order `bncurve.gonality`
is the function `gonality()`; `importlib.import_module("bncurve.gonality")`
gives the module."""

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

# each name bound on first access, by __getattr__, with the submodule it
# comes from, the submodule curve among them: the curve graph and the
# gonality certificate layer load only where they are used
_LAZY = {
    **dict.fromkeys(
        (
            "curve",
            "BNCurveGraph",
            "IntersectionNode",
            "build_bn_curve",
            "component_profile",
            "delta_closed",
            "eh_formula",
            "eh_formula_corrected",
            "export_graph",
            "genus_closed",
            "genus_from_graph",
            "intersect",
        ),
        "curve",
    ),
    **dict.fromkeys(
        (
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
        ),
        "gonality",
    ),
}

# the public names, the submodules chain, combinatorics and curve among them
__all__ = sorted({name for name in dir() if not name.startswith("_")} | _LAZY.keys())
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing the submodule binds it here, and every name of _LAZY it
    # re-exports with it (see _Package)
    _import_module(f"{__name__}.{_LAZY[name]}")
    return globals()[name]


def __dir__():
    # every public name, bound yet or not, the submodules loaded so far and
    # the dunders; not the private helpers or these two hooks
    names = {*globals(), *_LAZY} - {"__getattr__", "__dir__"}
    return [name for name in names if name.startswith("__") or not name.startswith("_")]


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each submodule here once it has run, in
        # any import order.  For curve and gonality that binds every name
        # they re-export, before any caller can patch them here; the
        # submodule's own name is the module unless the module defines that
        # name too, as bncurve.gonality defines the function gonality()
        if _LAZY.get(name) == name and isinstance(value, _ModuleType):
            for lazy, module in _LAZY.items():
                if module == name:
                    super().__setattr__(lazy, getattr(value, lazy, value))
        else:
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
