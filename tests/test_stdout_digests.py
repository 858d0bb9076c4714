"""The certificate commands print byte-for-byte what the benchmark recorded.

perfbench/expected.json holds the sha256 and byte length of the stdout of
`selftest`, `gonality5` and `gonality5 --degree 1..6`; this test reruns each
through `bncurve.cli.main` and compares.  It only reads that file.
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
