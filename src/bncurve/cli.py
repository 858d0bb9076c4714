"""Command-line entry point.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
invalid input, 2 internal consistency failure.  All numeric output is exact
decimal text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chain import ChainSpec, UnsupportedShapeError, limit_series_census, render_tables
from .combinatorics import catalan
from .curve import DEFAULT_MAX_A, build_bn_curve, eh_formula, export_graph
from .curve import eh_formula_corrected, genus_closed, genus_from_graph
from .gonality import (
    build_degree6_cover,
    build_w14_circuit,
    exclude_degree,
    gonality,
    verify_cover,
)
from .selfcheck import run_selftest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bncurve",
        description="Exact invariants of the degenerate Brill-Noether curve "
        "on a chain of elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalan", help="the a-th Catalan number")
    p.add_argument("--a", type=int, required=True)

    p = sub.add_parser(
        "castelnuovo",
        help="number of series of rank r on the rho = 0 chain (generalized "
        "Catalan number)",
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("census", help="classify W^r_d on a chain of genus g")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("tables", help="per-component bundle tables")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")

    p = sub.add_parser(
        "curve", help="build the nodal Brill-Noether curve and export it"
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument(
        "--max-a",
        type=int,
        default=None,
        help=f"override the size guard on --a (default {DEFAULT_MAX_A})",
    )

    p = sub.add_parser("gonality5", help="the genus-5 gonality pipeline")
    p.add_argument(
        "--degree",
        type=int,
        default=None,
        help="run a single exclusion (1..5) or cover verification (6)",
    )

    p = sub.add_parser("selftest", help="run the full acceptance checks")
    p.add_argument("--max-a", type=int, default=None)

    return parser


def _cmd_catalan(args) -> int:
    print(catalan(args.a))
    return 0


def _cmd_castelnuovo(args) -> int:
    a, r = args.a, args.r
    census = limit_series_census(a * (r + 1), r, r * (a + 1))
    print(census.count)
    return 0


def _cmd_census(args) -> int:
    census = limit_series_census(args.g, args.r, args.d)
    if census.kind == "empty":
        print("empty")
    elif census.kind == "finite":
        print(f"finite {census.count}")
    else:
        print(f"curve {census.count}")
    return 0


def _cmd_tables(args) -> int:
    chain = ChainSpec(g=args.g, d=args.d)
    sys.stdout.write(render_tables(chain, args.format))
    return 0


def _cmd_curve(args) -> int:
    kwargs = {} if args.max_a is None else {"max_a": args.max_a}
    graph = build_bn_curve(args.a, **kwargs)
    closed = genus_closed(args.a)
    graph_genus = genus_from_graph(graph)
    if graph_genus != closed:
        print(
            f"consistency failure: graph genus {graph_genus} != closed form "
            f"{closed}",
            file=sys.stderr,
        )
        return 2
    eh = eh_formula(graph.g, 1, graph.d)
    eh_r1 = eh_formula_corrected(graph.g, 1, graph.d)
    flag = "DISCREPANT" if eh != closed else "agrees"
    flag_r1 = "DISCREPANT" if eh_r1 != closed else "agrees"
    print(
        f"published genus formula as printed gives {eh} vs chain computation "
        f"{closed} ({flag}); with the (r+1) factor it gives {eh_r1} ({flag_r1})",
        file=sys.stderr,
    )
    sys.stdout.write(export_graph(graph, args.format))
    return 0


def _cmd_gonality5(args) -> int:
    if args.degree is not None:
        if 1 <= args.degree <= 5:
            trace = exclude_degree(args.degree)
            print(trace.dumps())
            return 0 if trace.ok else 2
        if args.degree == 6:
            report = verify_cover(build_degree6_cover())
            print(report.dumps())
            return 0 if report.passed else 2
        print("--degree must be between 1 and 6", file=sys.stderr)
        return 1
    result = gonality()
    summary = {
        "gonality": result.value,
        "excluded_degrees": [t.subject for t in result.lower_certificate],
        "degree6_cover_checks": len(result.upper_certificate.checks),
        "double_cover_passed": result.double_cover.passed,
    }
    print(json.dumps(summary, indent=2))
    print(f"gonality = {result.value}")
    return 0


def _cmd_selftest(args) -> int:
    ok = run_selftest(max_a=args.max_a)
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    handlers = {
        "catalan": _cmd_catalan,
        "castelnuovo": _cmd_castelnuovo,
        "census": _cmd_census,
        "tables": _cmd_tables,
        "curve": _cmd_curve,
        "gonality5": _cmd_gonality5,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (UnsupportedShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
