"""The private names that one module of the package imports from another.

Each such pair is a helper that two modules know, so a new one arrives only
as a reviewed edit to SHARED_PRIVATE_NAMES.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bncurve"

# (importing module, module.name) for each `from .module import _name`
SHARED_PRIVATE_NAMES = {
    ("chain", "combinatorics._unchecked"),
    ("cli", "chain._refuse_unprintable"),
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
