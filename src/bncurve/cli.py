"""Command-line entry point.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
invalid input, including input over a size budget checked before any work
(more than `chain.TABLE_CELL_BUDGET` table cells, a curve with more than
`curve.CURVE_SIZE_BUDGET` components and nodes, or a `catalan`,
`castelnuovo` or `census` count with more digits than the interpreter
prints), 2 any other failure.  Errors are reported in one line on
stderr, usage errors too (argparse alone prints a usage block and exits
2).  A reader that closes stdout early (as `bncurve selftest | head -1`
does) ends the command with exit 1 and nothing on stderr.  All numeric
output is exact decimal text.

`curve` holds no graph: it lays its export out a ballot word at a time
from the meet rule (`curve._curve_pieces`), with the refusals of
`build_bn_curve` first and the same bytes as `export_graph` of the built
graph.  That call checks the genus it counts from the rows against the
closed form, so a failure raises before a byte is written and leaves
stdout empty; the command then writes the pieces a slice of about 1 MiB
at a time, with no join of the whole text.

`main(argv)` may be called many times in one process, as the benchmark
worker and the test suite do.  The argparse parser is built on the first
call, not at import, and reused by every later one.

Each command loads what it uses on its first call, and nothing at import.
`curve`, `gonality5` and `selftest` load the curve graph, `bncurve.curve`;
`curve` and `selftest` load `fractions` with the published genus formula;
only `gonality5` and `selftest` load the gonality certificate layer
(`bncurve.gonality`, `bncurve.selfcheck` and `json`).  `catalan`,
`castelnuovo`, `census` and `tables` run on `combinatorics` and `chain`
alone and never import any of these.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from functools import cache

from .chain import DEFAULT_MAX_A, ChainSpec, _refuse_unprintable
from .chain import limit_series_census, render_tables
from .combinatorics import catalan


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, where
    argparse's own print a usage block and exit 2, so that `main` reports
    them as it does any invalid input.  Subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: it costs more than most
    commands.  Sharing it is safe because `parse_args` leaves the parser as
    it found it; each call fills a new namespace, and usage and help text
    are formatted when they are printed."""
    parser = _Parser(
        prog="bncurve",
        description="Exact invariants of the degenerate Brill-Noether curve "
        "on a chain of elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalan", help="the a-th Catalan number")
    p.set_defaults(run=_cmd_catalan)
    p.add_argument("--a", type=int, required=True)

    p = sub.add_parser(
        "castelnuovo",
        help="number of series of rank r on the rho = 0 chain (generalized "
        "Catalan number)",
    )
    p.set_defaults(run=_cmd_castelnuovo)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("census", help="classify W^r_d on a chain of genus g")
    p.set_defaults(run=_cmd_census)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("tables", help="per-component bundle tables")
    p.set_defaults(run=_cmd_tables)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")

    p = sub.add_parser(
        "curve", help="build the nodal Brill-Noether curve and export it"
    )
    p.set_defaults(run=_cmd_curve)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument(
        "--max-a",
        type=int,
        default=DEFAULT_MAX_A,
        help="override the size guard on --a (default %(default)s)",
    )

    p = sub.add_parser("gonality5", help="the genus-5 gonality pipeline")
    p.set_defaults(run=_cmd_gonality5)
    p.add_argument(
        "--degree",
        type=int,
        choices=range(1, 7),
        default=None,
        help="run a single exclusion (1..5) or cover verification (6)",
    )

    p = sub.add_parser("selftest", help="run the full acceptance checks")
    p.set_defaults(run=_cmd_selftest)

    return parser


_SLICE = 1 << 20  # characters encoded and written at a time, at most
_BATCH = _SLICE // 64  # pieces joined at a time


def _slices(pieces: list):
    """The text of the pieces, in order, in slices of at most _SLICE
    characters.  _BATCH pieces are joined at a time, each join in one
    call, and a text longer than _SLICE is cut, so no copy of the whole
    text is made: the curve's pieces, a few dozen characters each, give
    slices of about half a slice, and a table's text is cut into slices."""
    for start in range(0, len(pieces), _BATCH):
        text = "".join(pieces[start : start + _BATCH])
        for cut in range(0, len(text), _SLICE):
            yield text[cut : cut + _SLICE]


def _write_stdout(pieces: list) -> None:
    """Write the text of the pieces, a list of str, to stdout in full.

    A stdout with no buffer (a StringIO) keeps the whole text, so it takes
    it in one write of one join.  Otherwise the text is written a slice at
    a time (:func:`_slices`), each slice encoded by one incremental
    encoder, which a last call with `final=True` flushes, so the encoded
    copy never holds more than one slice, and a stateful codec (utf-16 and
    its BOM) writes what one `encode` of the whole text would.
    Unbuffered (`python -u`), the text layer drops the rest of a short raw
    write, so each slice's bytes are fed to stdout.buffer until all are
    taken; a reader that has gone away then raises BrokenPipeError."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write("".join(pieces))
        return
    sys.stdout.flush()
    encode = codecs.getincrementalencoder(sys.stdout.encoding)(sys.stdout.errors).encode

    def put(data):
        data = memoryview(data)
        while data:
            data = data[buffer.write(data) :]

    for text in _slices(pieces):
        put(encode(text))
    put(encode("", True))


def _cmd_catalan(args) -> int:
    # catalan(a) = generalized_catalan(a, 2); catalan itself rejects a < 0
    _refuse_unprintable(args.a, 2)
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
    _write_stdout([render_tables(chain, args.format)])
    return 0


def _cmd_curve(args) -> int:
    from .curve import _curve_pieces, eh_formula, eh_formula_corrected
    from .curve import genus_closed

    pieces = _curve_pieces(args.a, args.format, args.max_a)
    closed = genus_closed(args.a)
    chain = ChainSpec.rho_one(args.a)
    eh = eh_formula(chain.g, 1, chain.d)
    eh_r1 = eh_formula_corrected(chain.g, 1, chain.d)
    flag = "DISCREPANT" if eh != closed else "agrees"
    flag_r1 = "DISCREPANT" if eh_r1 != closed else "agrees"
    print(
        f"published genus formula as printed gives {eh} vs chain computation "
        f"{closed} ({flag}); with the (r+1) factor it gives {eh_r1} ({flag_r1})",
        file=sys.stderr,
    )
    _write_stdout(pieces)
    return 0


def _cmd_gonality5(args) -> int:
    import json

    from .gonality import build_degree6_cover, build_w14_circuit, exclude_degree
    from .gonality import gonality, verify_cover

    if args.degree is not None:
        circuit = build_w14_circuit()
        if args.degree <= 5:
            trace = exclude_degree(args.degree, circuit)
            print(trace.dumps())
            return 0 if trace.ok else 2
        report = verify_cover(build_degree6_cover(circuit))
        print(report.dumps())
        return 0 if report.passed else 2
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
    from .selfcheck import run_selftest

    return 0 if run_selftest() else 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # --help, which argparse prints and exits 0 after
        return 1 if exc.code else 0
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again (the Python docs' idiom)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal failure: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
