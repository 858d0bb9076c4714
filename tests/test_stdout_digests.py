"""The CLI prints byte-for-byte what the benchmark recorded.

perfbench/expected.json holds the sha256 and byte length of the stdout of
`selftest`, `gonality5`, `gonality5 --degree 1..6`, the g=17 csv and g=15
text tables, the a=7 DOT export and the a=8 JSON export; this test reruns
each through `bncurve.cli.main`, with the argv the benchmark uses, and
compares stdout.  It only reads that file.
"""

import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from bncurve.cli import main

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

COMMANDS = {
    "selftest": ["selftest"],
    "gonality5": ["gonality5"],
    **{
        f"gonality5_degree{k}": ["gonality5", "--degree", str(k)]
        for k in range(1, 7)
    },
    "tables_g17_csv": ["tables", "--g", "17", "--d", "10", "--format", "csv"],
    "tables_g15_text": ["tables", "--g", "15", "--d", "9", "--format", "text"],
    "curve_a7_dot": ["curve", "--a", "7", "--max-a", "7", "--format", "dot"],
    "curve_a8_json": ["curve", "--a", "8", "--max-a", "8", "--format", "json"],
}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_recorded_digest(expected, name):
    out = StringIO()
    with redirect_stdout(out):
        assert main(COMMANDS[name]) == 0
    data = out.getvalue().encode()
    assert {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    } == expected[name]
