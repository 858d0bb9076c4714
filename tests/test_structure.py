"""The private names that one module of the package imports from another,
the options that each CLI subcommand takes, and the arguments of every
`_unchecked` call.

Each such pair is a helper that two modules know, so a new one arrives only
as a reviewed edit to SHARED_PRIVATE_NAMES; each option is a knob that the
CLI documents and tests, so a new one arrives only as a reviewed edit to
CLI_OPTIONS; and an `_unchecked` builder stores a record's fields and
nothing else, so a knob for more arrives only as a reviewed edit here.
"""

import argparse
import ast
from pathlib import Path

from bncurve import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "bncurve"

# (importing module, module.name) for each `from .module import _name`
SHARED_PRIVATE_NAMES = {
    ("chain", "combinatorics._check_shape"),
    ("chain", "combinatorics._unchecked"),
    ("cli", "chain._refuse_unprintable"),
    ("cli", "curve._curve_pieces"),
    ("curve", "chain._digits"),
    ("curve", "chain._lay_out"),
    ("curve", "chain._slot_offset"),
    ("curve", "combinatorics._unchecked"),
    ("selfcheck", "curve._word_nodes"),
}


def test_private_names_shared_between_modules_are_the_recorded_ones():
    shared = {
        (path.stem, f"{node.module}.{alias.name}")
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert shared == SHARED_PRIVATE_NAMES


# the option strings of the top-level parser and of each subcommand, less
# -h/--help: 13 in all
CLI_OPTIONS = {
    "bncurve": set(),
    "catalan": {"--a"},
    "castelnuovo": {"--a", "--r"},
    "census": {"--g", "--r", "--d"},
    "tables": {"--g", "--d", "--format"},
    "curve": {"--a", "--format", "--max-a"},
    "gonality5": {"--degree"},
    "selftest": set(),
}


def test_cli_options_are_the_recorded_ones():
    parser = cli._build_parser()
    (sub,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        name: {s for action in p._actions for s in action.option_strings}
        - {"-h", "--help"}
        for name, p in [("bncurve", parser), *sub.choices.items()]
    }
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 13


def test_unchecked_calls_pass_only_the_class():
    calls = [
        (path.stem, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "_unchecked" in (getattr(node.func, n, None) for n in ("id", "attr"))
    ]
    assert calls
    for module, call in calls:
        # one argument, the class: no extra field names, keywords or *args
        args = [type(arg) for arg in call.args] + call.keywords
        assert args == [ast.Name], f"{module}: {ast.unparse(call)}"
