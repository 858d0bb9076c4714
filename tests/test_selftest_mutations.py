"""Every selftest line can fail: a table of model mutations, each with the
selftest lines that must read [FAIL] under it.

Each row patches one model function where its callers look it up (in the
modules it names, or in every module of the package that binds it), runs
`run_selftest()` in-process and reads the printed lines.  A mutation is a
plausible slip in the model, not one written to trip a given line, so a row
whose lines keep passing has found a check that cannot fail.
"""

import re
import sys

import pytest

# the cli and selfcheck, which imports curve and gonality, load every module
# of the package, so every_binding below sees each binding of a patched name
import bncurve.cli  # noqa: F401
from bncurve.selfcheck import run_selftest

# the modules by name: the package binds `bncurve.gonality` to the function
combinatorics = sys.modules["bncurve.combinatorics"]
chain = sys.modules["bncurve.chain"]
curve = sys.modules["bncurve.curve"]
gonality = sys.modules["bncurve.gonality"]
selfcheck = sys.modules["bncurve.selfcheck"]
_moved, _walk, _node_rows = curve._moved, chain._walk, curve._node_rows
_ballot_table = curve._ballot_table
_catalan, _export_graph = combinatorics.catalan, curve.export_graph
_generalized_catalan = combinatorics.generalized_catalan
_enumerate_ballot = combinatorics.enumerate_ballot


def every_binding(function):
    """Every module of the package that binds `function` under its name."""
    return tuple(
        module
        for name, module in sorted(sys.modules.items())
        if (name == "bncurve" or name.startswith("bncurve."))
        and getattr(module, function.__name__, None) is function
    )


def moved_one_slot_later(seq, p, q):
    moved = _moved(seq, p, q)
    return None if moved is None else (moved[0], moved[1] + 1)


def moved_without_runs_of_three(seq, p, q):
    # the run c^r read right after slot p + 1 has r = q - p
    return None if q - p >= 3 else _moved(seq, p, q)


def walk_with_first_shifted_entry_off_by_one(sequence):
    walk, shifted = _walk(sequence)
    return walk, (shifted[0] + 1, *shifted[1:])


def walk_with_first_entry_off_by_one(sequence):
    walk, shifted = _walk(sequence)
    return (walk[0] + 1, *walk[1:]), shifted


def generalized_catalan_33_one_too_large(a, m):
    return _generalized_catalan(a, m) + ((a, m) == (3, 3))


def json_export_without_its_last_newline(graph, fmt):
    text = _export_graph(graph, fmt)
    return text[:-1] if fmt == "json" else text


def catalan_7_one_too_large(a):
    return _catalan(a) + (a == 7)


def catalan_3_one_too_large(a):
    return _catalan(a) + (a == 3)


def node_rows_with_backward_y_offset_off_by_one(chain):
    # a backward row joins (t, j) to (s, i) on a higher word s, i < j, so
    # its x slot lies after its y slot; the build's propagate check then
    # raises AssertionError, which fails every check that reads graphs
    g = chain.g
    for word, table in _node_rows(chain):
        for k in range(0, len(table), 4):
            if table[k] % g > table[k + 2] % g:
                table[k + 3] += 1
        yield word, table


def ballot_table_with_an_entry_one_too_small(n):
    # entry [1][1], which each word that starts 11 reads for a 2-move from
    # slot 2 or a backward candidate at slot 3; the rows then land on other
    # words, and the build's landing count raises AssertionError, which
    # fails every check that reads graphs
    table = _ballot_table(n)
    table[1][1] -= 1
    return table


def enumerate_ballot_losing_a_word(a, m=2):
    # the second word of each m = 2 shape with a >= 2; the up-front graph
    # build's rows then find fewer words than the ballot numbers count and
    # raise AssertionError, which fails every check that reads graphs
    for k, word in enumerate(_enumerate_ballot(a, m)):
        if not (a >= 2 and m == 2 and k == 1):
            yield word


MUTATIONS = [
    pytest.param(
        (curve,),
        "_moved",
        moved_one_slot_later,
        {"nodal properties"},
        id="_moved marks one slot later",
    ),
    pytest.param(
        (curve,),
        "_moved",
        moved_without_runs_of_three,
        {"nodal properties"},
        id="_moved drops runs of length >= 3",
    ),
    pytest.param(
        (chain,),
        "_walk",
        walk_with_first_shifted_entry_off_by_one,
        {"nodal properties", "gonality pipeline"},
        id="_walk shifted entry off by one",
    ),
    pytest.param(
        # the tables read each word's walk alone, shifted by index; the
        # build checks its rows against it through propagate and raises
        # AssertionError, and intersect counts instead
        (chain,),
        "_walk",
        walk_with_first_entry_off_by_one,
        {
            "component count nu = (2a+1) c_a",
            "node count delta, both forms",
            "genus, graph vs closed form",
            "g=5 table fidelity",
            "nodal properties",
            "gonality pipeline",
            "property suite",
        },
        id="_walk entry off by one",
    ),
    pytest.param(
        (gonality,),
        "lin_equiv",
        lambda d1, d2: False,
        {"gonality pipeline"},
        id="lin_equiv always False",
    ),
    pytest.param(
        (selfcheck,),
        "generalized_catalan",
        generalized_catalan_33_one_too_large,
        {"Castelnuovo counts vs enumeration"},
        id="generalized_catalan(3, 3) one too large",
    ),
    pytest.param(
        (selfcheck,),
        "eh_formula_corrected",
        curve.eh_formula,
        {"published-formula discrepancy flagged"},
        id="eh_formula_corrected is eh_formula",
    ),
    pytest.param(
        (selfcheck,),
        "export_graph",
        json_export_without_its_last_newline,
        {"property suite"},
        id="json export drops its last newline",
    ),
    pytest.param(
        (curve,),
        "_node_rows",
        node_rows_with_backward_y_offset_off_by_one,
        {
            "component count nu = (2a+1) c_a",
            "node count delta, both forms",
            "genus, graph vs closed form",
            "nodal properties",
            "gonality pipeline",
            "property suite",
        },
        id="_node_rows backward row's y offset off by one",
    ),
    pytest.param(
        (curve,),
        "_ballot_table",
        ballot_table_with_an_entry_one_too_small,
        {
            "component count nu = (2a+1) c_a",
            "node count delta, both forms",
            "genus, graph vs closed form",
            "nodal properties",
            "gonality pipeline",
            "property suite",
        },
        id="ballot-number table entry off by one",
    ),
    pytest.param(
        every_binding(_catalan),
        "catalan",
        catalan_7_one_too_large,
        {
            "component count nu = (2a+1) c_a",
            "node count delta, both forms",
            "property suite",
        },
        id="catalan(7) one too large",
    ),
    pytest.param(
        every_binding(_catalan),
        "catalan",
        catalan_3_one_too_large,
        {
            "component count nu = (2a+1) c_a",
            "node count delta, both forms",
            "nodal properties",
            "property suite",
        },
        id="catalan(3) one too large",
    ),
    pytest.param(
        every_binding(_enumerate_ballot),
        "enumerate_ballot",
        enumerate_ballot_losing_a_word,
        {
            "component count nu = (2a+1) c_a",
            "node count delta, both forms",
            "genus, graph vs closed form",
            "Castelnuovo counts vs enumeration",
            "g=5 table fidelity",
            "nodal properties",
            "gonality pipeline",
            "property suite",
        },
        id="enumerate_ballot loses the second word of each m = 2 shape with a >= 2",
    ),
]


@pytest.mark.parametrize("modules,name,mutant,failing", MUTATIONS)
def test_mutation_fails_its_selftest_lines(
    monkeypatch, capsys, modules, name, mutant, failing
):
    for module in modules:
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


def test_every_line_but_the_rho_negative_search_has_a_failing_row(capsys):
    # the one known exception: exhaustive_bound_search builds only the
    # subsets of size at most rho, so for rho < 0 it returns [] without
    # looking, and no slip in the model can flip that line
    run_selftest()
    lines = re.findall(r"^\[PASS\] ([^:]+):", capsys.readouterr().out, re.M)
    assert len(lines) == 10
    failing = set().union(*(row.values[3] for row in MUTATIONS))
    assert failing == set(lines) - {"Brill-Noether emptiness, rho < 0"}
