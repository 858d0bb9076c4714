"""The CLI prints byte-for-byte, and enumerate_ballot yields word for word,
what the benchmark recorded.

perfbench/expected.json holds the sha256 and byte length of the stdout of
`selftest`, `gonality5`, `gonality5 --degree 1..6`, the g=17 csv and g=15
text tables, the a=7 DOT export and the a=8 JSON export; this test reruns
each through `bncurve.cli.main`, with the argv the benchmark uses, and
compares stdout.  The a=8 export and the g=17 csv tables also run as a
subprocess writing to a pipe, buffered and unbuffered, and the a=8 export
once more with PYTHONIOENCODING=utf-16.  The file also holds, for each
`enumerate_ballot(a, m)` shape the benchmark runs, the word count and the
sha256 of the words' symbols concatenated as bytes; this test recomputes
both.  It only reads that file.  Each command and enumeration also runs
under `python -O`, which strips `assert` statements, and must give the
same digest there: no result relies on an `assert`.
"""

import codecs
import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from bncurve.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "perfbench" / "expected.json"

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
ENUM_SHAPES = {
    f"enumerate_{a}_{m}": (a, m) for a, m in [(10, 2), (6, 3), (4, 4), (3, 5)]
}
# the benchmark's words digest of enumerate_ballot(a, m), left in `digest`
WORDS_DIGEST = """
import hashlib
from bncurve.combinatorics import enumerate_ballot
words = [w.symbols for w in enumerate_ballot(a, m)]
data = bytes(s for w in words for s in w)
digest = {"sha256": hashlib.sha256(data).hexdigest(), "words": len(words)}
"""


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_recorded_digest(expected, name):
    out = StringIO()
    with redirect_stdout(out):
        assert main(COMMANDS[name]) == 0
    assert digest(out.getvalue().encode()) == expected[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_optimized_stdout_matches_recorded_digest(expected, name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bncurve", *COMMANDS[name]],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert digest(proc.stdout) == expected[name]


def words_digest_script(name):
    a, m = ENUM_SHAPES[name]
    return f"a, m = {a}, {m}\n" + WORDS_DIGEST


@pytest.mark.parametrize("name", sorted(ENUM_SHAPES))
def test_enumeration_matches_recorded_digest(expected, name):
    scope = {}
    exec(words_digest_script(name), scope)
    assert scope["digest"] == expected[name]


@pytest.mark.parametrize("name", sorted(ENUM_SHAPES))
def test_optimized_enumeration_matches_recorded_digest(expected, name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = words_digest_script(name) + "import json\nprint(json.dumps(digest))\n"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected[name]


def test_every_recorded_entry_is_checked(expected):
    assert set(expected) == set(COMMANDS) | set(ENUM_SHAPES)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", ["curve_a8_json", "tables_g17_csv"])
def test_real_stdout_matches_recorded_digest(expected, name, unbuffered):
    # through a pipe, not a StringIO: the text is encoded and written a
    # slice at a time, to a buffered stream or, unbuffered, to the raw file
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.run(
        [sys.executable, "-m", "bncurve", *COMMANDS[name]],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert digest(proc.stdout) == expected[name]


def test_stateful_encoding_writes_one_bom():
    # the 11 MB a=8 export crosses many slice boundaries; utf-16 writes its
    # BOM once, on the first slice, as one encode of the whole text would
    out = StringIO()
    with redirect_stdout(out):
        assert main(COMMANDS["curve_a8_json"]) == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": "utf-16"}
    proc = subprocess.run(
        [sys.executable, "-m", "bncurve", *COMMANDS["curve_a8_json"]],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(codecs.BOM_UTF16)
    assert proc.stdout.count(codecs.BOM_UTF16) == 1
    assert proc.stdout.decode("utf-16") == out.getvalue()
