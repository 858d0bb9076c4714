"""Every selftest line can fail: a table of model mutations, each with the
selftest lines that must read [FAIL] under it.

Each row patches one model function where its callers look it up, runs
`run_selftest()` in-process and reads the printed lines.  A mutation is a
plausible slip in the model, not one written to trip a given line, so a row
whose lines keep passing has found a check that cannot fail.
"""

import re
import sys

import pytest

from bncurve.selfcheck import run_selftest

# the modules by name: the package binds `bncurve.gonality` to the function
chain = sys.modules["bncurve.chain"]
curve = sys.modules["bncurve.curve"]
gonality = sys.modules["bncurve.gonality"]
_moved, _walk = curve._moved, chain._walk


def moved_one_slot_later(seq, p, q):
    moved = _moved(seq, p, q)
    return None if moved is None else (moved[0], moved[1] + 1)


def moved_without_runs_of_three(seq, p, q):
    # the run c^r read right after slot p + 1 has r = q - p
    return None if q - p >= 3 else _moved(seq, p, q)


def walk_with_first_shifted_entry_off_by_one(sequence):
    walk, shifted = _walk(sequence)
    return walk, (shifted[0] + 1, *shifted[1:])


MUTATIONS = [
    pytest.param(
        curve,
        "_moved",
        moved_one_slot_later,
        {"nodal properties", "gonality pipeline"},
        id="_moved marks one slot later",
    ),
    pytest.param(
        curve,
        "_moved",
        moved_without_runs_of_three,
        {"node count delta, both forms", "genus, graph vs closed form"},
        id="_moved drops runs of length >= 3",
    ),
    pytest.param(
        chain,
        "_walk",
        walk_with_first_shifted_entry_off_by_one,
        {"g=5 table fidelity", "nodal properties", "gonality pipeline"},
        id="_walk shifted entry off by one",
    ),
    pytest.param(
        gonality,
        "lin_equiv",
        lambda d1, d2: False,
        {"gonality pipeline"},
        id="lin_equiv always False",
    ),
]


@pytest.mark.parametrize("module,name,mutant,failing", MUTATIONS)
def test_mutation_fails_its_selftest_lines(
    monkeypatch, capsys, module, name, mutant, failing
):
    monkeypatch.setattr(module, name, mutant)
    # each run starts and ends with an empty walk cache, so no row reads a
    # walk that an earlier test or row left there
    _walk.cache_clear()
    try:
        ok = run_selftest()
    finally:
        _walk.cache_clear()
    lines = re.findall(r"^\[(PASS|FAIL)\] ([^:]+):", capsys.readouterr().out, re.M)
    assert len(lines) == 10
    assert not ok
    assert failing <= {line for status, line in lines if status == "FAIL"}
