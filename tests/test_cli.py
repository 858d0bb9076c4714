import dataclasses
import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import bncurve.selfcheck  # noqa: F401 (read through sys.modules below)
from bncurve.cli import main
from bncurve.combinatorics import catalan
from bncurve.gonality import VerificationReport


class TestCatalan:
    def test_value(self, capsys):
        assert main(["catalan", "--a", "5"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_negative_is_invalid_input(self, capsys):
        assert main(["catalan", "--a", "-1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_counts_near_the_digit_limit_are_computed(self, monkeypatch, capsys):
        # catalan(a) has 4300 digits at a=7152, 4301 at a=7153 and 4302 at
        # a=7154; only the last is clearly over a 4300-digit limit
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        computed = []

        def counted(a):
            computed.append(a)
            return catalan(a)

        monkeypatch.setattr(sys.modules["bncurve.cli"], "catalan", counted)
        assert main(["catalan", "--a", "7152"]) == 0
        assert capsys.readouterr().out == f"{catalan(7152)}\n"
        main(["catalan", "--a", "7153"])
        assert computed == [7152, 7153]
        capsys.readouterr()
        assert main(["catalan", "--a", "7154"]) == 1
        err = capsys.readouterr().err
        assert "at least 4301 digits" in err and len(err.splitlines()) == 1
        assert computed == [7152, 7153]
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        main(["catalan", "--a", "7154"])
        assert computed == [7152, 7153, 7154]


class TestCastelnuovo:
    def test_rank_one(self, capsys):
        assert main(["castelnuovo", "--a", "2", "--r", "1"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_rank_two(self, capsys):
        assert main(["castelnuovo", "--a", "2", "--r", "2"]) == 0
        assert capsys.readouterr().out.strip() == "5"


class TestCensus:
    @pytest.mark.parametrize(
        "g,r,d,expected",
        [
            (3, 1, 2, "empty"),
            (4, 1, 3, "finite 2"),
            (5, 1, 4, "curve 10"),
        ],
    )
    def test_kinds(self, capsys, g, r, d, expected):
        assert main(["census", "--g", str(g), "--r", str(r), "--d", str(d)]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_unmodeled_shape(self, capsys):
        assert main(["census", "--g", "6", "--r", "1", "--d", "5"]) == 1
        assert "error" in capsys.readouterr().err


class TestTables:
    def test_text_g5(self, capsys):
        assert main(["tables", "--g", "5", "--d", "4", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "1212|2" in out and "P+3Q" in out and "L" in out

    def test_csv_header(self, capsys):
        assert main(["tables", "--g", "3", "--d", "3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "C_i,12|1,12|2,12|3"


class TestCurve:
    def test_json_a2(self, capsys):
        assert main(["curve", "--a", "2"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["nu"] == "10"
        assert payload["delta"] == "10"
        assert payload["genus"] == "11"
        assert "DISCREPANT" in captured.err
        assert "with the (r+1) factor it gives 11 (agrees)" in captured.err

    def test_dot(self, capsys):
        assert main(["curve", "--a", "1", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("graph bn_curve {")

    def test_guard_respected(self, capsys):
        assert main(["curve", "--a", "7"]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        # one line, naming the flag a CLI user passes
        assert err.count("\n") == 1 and "--max-a" in err

    @pytest.mark.parametrize("a", ["12", "1000000000"])
    @pytest.mark.parametrize("lifted", [False, True])
    def test_size_budget_exits_1_before_enumerating(
        self, monkeypatch, capsys, a, lifted
    ):
        def enumerated(*args):
            raise RuntimeError("enumerated")

        for name in ("all_components", "enumerate_ballot"):
            monkeypatch.setattr(sys.modules["bncurve.curve"], name, enumerated)
        argv = ["curve", "--a", a] + (["--max-a", a] if lifted else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # one line, and no hint at --max-a, which cannot lift the budget
        assert captured.err.count("\n") == 1 and "components and nodes" in captured.err
        assert "--max-a" not in captured.err

    def test_deterministic(self, capsys):
        main(["curve", "--a", "2"])
        first = capsys.readouterr().out
        main(["curve", "--a", "2"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("a", range(1, 9))
    def test_stdout_is_the_export_of_the_built_graph(self, capsys, a, fmt):
        from bncurve.curve import build_bn_curve, export_graph

        argv = ["curve", "--a", str(a), "--max-a", str(a), "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == export_graph(build_bn_curve(a, max_a=a), fmt)

    def test_writes_the_curve_with_no_graph(self, monkeypatch, capsys):
        # the graph build, the walks of propagate, the component ids and the
        # union-find all refuse to run, in every module that binds them
        def refused(*args, **kwargs):
            raise RuntimeError("the graph path ran")

        for original in (
            sys.modules["bncurve.curve"].build_bn_curve,
            sys.modules["bncurve.chain"].propagate,
            sys.modules["bncurve.chain"].all_components,
            sys.modules["bncurve.curve"].edges_connect,
        ):
            for name, module in list(sys.modules.items()):
                if name.startswith("bncurve") and getattr(
                    module, original.__name__, None
                ) is original:
                    monkeypatch.setattr(module, original.__name__, refused)
        assert main(["curve", "--a", "8", "--max-a", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["nu"], payload["delta"]) == ("24310", "38896")


def curve_exits_2(capsys, a):
    """`main(["curve", "--a", a])` exits 2 with nothing on stdout and one
    line on stderr, returned."""
    assert main(["curve", "--a", str(a)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return captured.err


def curve_without_rows(monkeypatch, capsys, a, drops):
    """`curve_exits_2` with the rows of `curve._node_rows` for which
    drops(word, ix, iy) holds left out of its table, after the rows' own
    landing check; ix and iy are the row's two component indices."""
    module = sys.modules["bncurve.curve"]
    original = module._node_rows

    def rows_dropped(chain):
        for word, table in original(chain):
            kept = []
            for k in range(0, len(table), 4):
                if not drops(word, table[k], table[k + 2]):
                    kept += table[k : k + 4]
            yield word, kept

    monkeypatch.setattr(module, "_node_rows", rows_dropped)
    return curve_exits_2(capsys, a)


def curve_with_table_slip(monkeypatch, capsys, a, pos, h, slip):
    """`curve_exits_2` with entry [pos][h] of `curve._ballot_table`, the
    ballot numbers the rows read their target ranks off, moved by slip."""
    module = sys.modules["bncurve.curve"]
    original = module._ballot_table

    def slipped(n):
        table = original(n)
        table[pos][h] += slip
        return table

    monkeypatch.setattr(module, "_ballot_table", slipped)
    return curve_exits_2(capsys, a)


def test_rows_missing_every_2_move_exit_2(monkeypatch, capsys):
    # a 2-move joins a word to a higher word at a higher marked slot; with
    # them gone, the genus falls short of the closed form
    g = 7

    def forward(word, ix, iy):
        return ix // g != iy // g and iy % g > ix % g

    err = curve_without_rows(monkeypatch, capsys, 3, forward)
    assert err.startswith(
        "internal failure: AssertionError('consistency failure: graph genus "
    )


def test_a_dropped_backward_row_exits_2(monkeypatch, capsys):
    # 121212 moves either of its last two 1s forward; the move of the first
    # is the backward row of (112212, 4), index 2 * 7 + 3, onto (121212, 2),
    # index 4 * 7 + 1, and with that row gone the genus is one short
    err = curve_without_rows(
        monkeypatch, capsys, 3, lambda word, ix, iy: (ix, iy) == (17, 29)
    )
    assert err == (
        "internal failure: AssertionError('consistency failure: graph genus "
        "42 != closed form 43')\n"
    )


def test_an_unreached_word_exits_2_as_disconnected(monkeypatch, capsys):
    # 1122's 2-move and backward candidate both read 1212's rank as
    # 0 + F[1][1] - F[2][2] = 1; with F[1][1] one too small they land on
    # 1122 itself, and 1212 comes up with no row from a lower word
    err = curve_with_table_slip(monkeypatch, capsys, 2, 1, 1, -1)
    assert err == (
        "internal failure: AssertionError('Brill-Noether curve graph came out "
        "disconnected')\n"
    )


def test_a_lost_ballot_word_stops_the_rows_before_the_first(monkeypatch, capsys):
    # 1212 goes missing, so 1122's 2-move would read rank 1 past the one
    # word left; the rows first count the words against F[0][0] = c_2
    module = sys.modules["bncurve.curve"]
    original = module.enumerate_ballot
    monkeypatch.setattr(
        module,
        "enumerate_ballot",
        lambda a: (w for w in original(a) if w.symbols != (1, 2, 1, 2)),
    )
    err = curve_exits_2(capsys, 2)
    assert err == (
        "internal failure: AssertionError('the ballot words (1) and the ballot "
        "numbers (2) disagree')\n"
    )


def test_a_ballot_table_slip_exits_2_before_any_byte(monkeypatch, capsys):
    # at a = 3 the slipped ranks land on other words, so a word comes up
    # with more or fewer rows landed on it than its runs count
    err = curve_with_table_slip(monkeypatch, capsys, 3, 1, 1, -1)
    assert err == (
        "internal failure: AssertionError('node rows that land on a word "
        "differ from its runs')\n"
    )


class TestGonality5:
    def test_full_pipeline(self, capsys):
        assert main(["gonality5"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("gonality = 6")
        summary = json.loads(out[: out.rindex("gonality = 6")])
        assert summary["gonality"] == 6
        assert len(summary["excluded_degrees"]) == 5
        assert summary["double_cover_passed"] is True

    def test_single_exclusion(self, capsys):
        assert main(["gonality5", "--degree", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subject"] == "no admissible cover of degree 3"

    def test_cover_verification(self, capsys):
        assert main(["gonality5", "--degree", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_out_of_range_degree(self, capsys):
        # argparse refuses it against choices=range(1, 7), in one line
        for degree in ("0", "7"):
            assert main(["gonality5", "--degree", degree]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith(
                f"error: argument --degree: invalid choice: {degree} "
            )

    def test_failing_double_cover_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(
            sys.modules["bncurve.gonality"], "verify_double_cover", failing_report
        )
        assert main(["gonality5"]) == 2
        assert "double cover failed verification" in capsys.readouterr().err


def failing_report(cover=None):
    """A stand-in for `verify_double_cover` whose one check fails."""
    report = VerificationReport()
    report.record("forced failure", False)
    return report


@pytest.mark.parametrize("argv", [["gonality5"], ["selftest"]])
def test_certificates_build_the_circuit_once(monkeypatch, capsys, argv):
    # counted at the certificate layer's own bindings; selftest's other
    # checks build their graphs through bncurve.selfcheck
    module = sys.modules["bncurve.gonality"]
    calls = []
    for name in ("build_bn_curve", "build_w14_circuit"):

        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append((_name, args))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert main(argv) == 0
    assert sorted(calls) == [("build_bn_curve", (2,)), ("build_w14_circuit", ())]


class TestSelftest:
    def test_all_criteria_pass(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        assert all(line.startswith("[PASS] ") for line in lines)

    def test_component_count_compares_each_graph_with_the_census(
        self, monkeypatch, capsys
    ):
        module = sys.modules["bncurve.selfcheck"]

        def a1_graph_for_a2(a, _original=module.build_bn_curve):
            # a connected curve graph, with 3 components where a = 2 has 10
            return _original(1 if a == 2 else a)

        monkeypatch.setattr(module, "build_bn_curve", a1_graph_for_a2)
        assert main(["selftest"]) == 2
        lines = capsys.readouterr().out.splitlines()
        (line,) = [s for s in lines if "component count" in s]
        assert line == "[FAIL] component count nu = (2a+1) c_a: a=2: census 10, graph 3"

    def test_node_count_compares_the_per_word_counts(self, monkeypatch, capsys):
        module = sys.modules["bncurve.selfcheck"]

        def one_short_on_1122(seq, _original=module._word_nodes):
            return _original(seq) - (seq == (1, 1, 2, 2))

        monkeypatch.setattr(module, "_word_nodes", one_short_on_1122)
        assert main(["selftest"]) == 2
        lines = capsys.readouterr().out.splitlines()
        (line,) = [s for s in lines if "node count" in s]
        assert line == (
            "[FAIL] node count delta, both forms: a=2: scan 10, closed 10, "
            "pre-simplification 10, per word 9"
        )

    def test_nodal_properties_compares_the_small_nodes_with_intersect(
        self, monkeypatch, capsys
    ):
        module = sys.modules["bncurve.selfcheck"]

        def one_node_moved(chain, x, y, _original=module.intersect):
            node = _original(chain, x, y)
            if (x.label, y.label) == ("1122|1", "1122|2"):
                return dataclasses.replace(node, y_offset=node.y_offset + 1)
            return node

        monkeypatch.setattr(module, "intersect", one_node_moved)
        assert main(["selftest"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [s for s in lines if s.startswith("[FAIL]")] == [
            "[FAIL] nodal properties: a=2: node 1122|1 - 1122|2 at 0/1, "
            "not where intersect puts it"
        ]

    def test_max_a_bounds_the_graphs_built(self, monkeypatch, capsys):
        from bncurve.chain import DEFAULT_MAX_A

        module = sys.modules["bncurve.selfcheck"]
        calls = []

        def recorded(a, _original=module.build_bn_curve, **kwargs):
            calls.append((a, kwargs))
            return _original(a, **kwargs)

        monkeypatch.setattr(module, "build_bn_curve", recorded)
        assert main(["selftest"]) == 0
        # every build stays under the default guard, which it does not lift
        assert all(kwargs == {} for _, kwargs in calls)
        assert max(a for a, _ in calls) == DEFAULT_MAX_A
        capsys.readouterr()

        # a guard one below the largest graph refuses that build, so every
        # graph check fails with the guard's error and the rest still pass
        def guarded(a, _original=module.build_bn_curve):
            return _original(a, max_a=DEFAULT_MAX_A - 1)

        monkeypatch.setattr(module, "build_bn_curve", guarded)
        assert main(["selftest"]) == 2
        lines = capsys.readouterr().out.splitlines()
        failed = [s for s in lines if s.startswith("[FAIL]")]
        assert len(failed) == 5 and len(lines) == 10
        assert all(
            f"ValueError: a={DEFAULT_MAX_A} exceeds the guard" in s for s in failed
        )

    def test_each_graph_is_built_once_and_dropped_after_use(
        self, monkeypatch, capsys
    ):
        module = sys.modules["bncurve.selfcheck"]
        built = []

        def counted(a, _original=module.build_bn_curve):
            graph = _original(a)
            built.append((a, weakref.ref(graph)))
            return graph

        monkeypatch.setattr(module, "build_bn_curve", counted)
        assert main(["selftest"]) == 0
        first = capsys.readouterr().out
        # the property suite builds a second a = 3 graph to compare exports
        assert [a for a, _ in built] == [1, 2, 3, 4, 5, 6, 3]
        # a second run builds afresh and prints the same lines
        assert main(["selftest"]) == 0
        assert capsys.readouterr().out == first
        assert [a for a, _ in built] == [1, 2, 3, 4, 5, 6, 3] * 2
        gc.collect()
        assert all(ref() is None for _, ref in built)

    def test_property_suite_catches_a_misindented_json_export(self, monkeypatch):
        module = sys.modules["bncurve.selfcheck"]
        graphs = [module.build_bn_curve(a) for a in (1, 2, 3)]
        assert module.check_properties(graphs)[0] is True

        def reindented(graph, fmt, _original=module.export_graph):
            # the same bytes for every build, but indented by 4
            text = _original(graph, fmt)
            if fmt == "json":
                return json.dumps(json.loads(text), indent=4) + "\n"
            return text

        monkeypatch.setattr(module, "export_graph", reindented)
        assert module.check_properties(graphs) == (
            False, "json export is not json.dumps(payload, indent=2)"
        )

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_property_suite_catches_an_export_that_differs_between_builds(
        self, monkeypatch, fmt
    ):
        module = sys.modules["bncurve.selfcheck"]
        graphs = [module.build_bn_curve(a) for a in (1, 2, 3)]

        def drifting(graph, form, _original=module.export_graph):
            # any graph but the one passed in, so the suite's own second
            # build, exports one line more
            text = _original(graph, form)
            return text + "\n" if form == fmt and graph is not graphs[-1] else text

        monkeypatch.setattr(module, "export_graph", drifting)
        assert module.check_properties(graphs) == (
            False, f"{fmt} export differs between two builds"
        )

    def test_table_fidelity_catches_two_swapped_cells(self, monkeypatch, capsys):
        module = sys.modules["bncurve.selfcheck"]

        def swapped(chain, fmt, _original=module.render_tables):
            # on the line of chain component 2, "P+3Q" under 1122|1 and "L"
            # under 1122|2 trade places
            lines = [line.split(",") for line in _original(chain, fmt).splitlines()]
            lines[2][1], lines[2][2] = lines[2][2], lines[2][1]
            return "\n".join(",".join(line) for line in lines) + "\n"

        monkeypatch.setattr(module, "render_tables", swapped)
        assert module.check_table_fidelity() == (
            False, "g=5 tables differ from the golden tables"
        )
        assert main(["selftest"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] g=5 table fidelity: g=5 tables differ" in out


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["catalan"]) == 1

    def test_shared_parser_answers_as_a_fresh_one(self, monkeypatch, capsys):
        # one process, one parser: usage errors and help exits leave nothing
        # behind, so each call exits and prints as it does with a parser
        # built for it alone
        argvs = [
            [],
            ["frobnicate"],
            ["catalan"],
            ["--help"],
            ["curve", "--help"],
            ["catalan", "--a", "5"],
            ["gonality5", "--degree", "3"],
        ]
        cli = sys.modules["bncurve.cli"]
        cli._build_parser.cache_clear()
        shared = [(main(argv), *capsys.readouterr()) for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [(main(argv), *capsys.readouterr()) for argv in argvs]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 1, 1, 0, 0, 0, 0]

    def test_importing_the_cli_builds_no_parser(self):
        # the parser is built by the first main, so import time is unchanged
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import bncurve.cli; "
            "print(bncurve.cli._build_parser.cache_info().currsize)"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


@pytest.mark.parametrize("piece", [None, 1000, 999_983])
@pytest.mark.parametrize("encoding", ["utf-8", "utf-16"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_stdout_slices_encode_as_the_whole_text(monkeypatch, encoding, extra, piece):
    # around two slices: one short, exactly two (the final encode is then
    # of an empty slice), one over; a non-ASCII character sits on the seam.
    # The text comes as one piece, longer than a slice, or cut into pieces
    # of a length that divides the slice or that does not.
    cli = sys.modules["bncurve.cli"]
    text = "a" * (cli._SLICE - 1) + "é" + "b" * (cli._SLICE + extra)
    pieces = [text] if piece is None else [
        text[start : start + piece] for start in range(0, len(text), piece)
    ]
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding=encoding))
    cli._write_stdout(pieces)
    sys.stdout.flush()
    assert raw.getvalue() == text.encode(encoding)


def test_arithmetic_error_exits_2(monkeypatch, capsys):
    def fails(a):
        raise ArithmeticError("closed form did not divide exactly")

    monkeypatch.setattr(sys.modules["bncurve.curve"], "genus_closed", fails)
    assert main(["curve", "--a", "1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert "did not divide exactly" in err


def test_a_graph_genus_off_the_closed_form_exits_2_in_one_line(monkeypatch, capsys):
    module = sys.modules["bncurve.curve"]
    closed = module.genus_closed
    monkeypatch.setattr(module, "genus_closed", lambda a: closed(a) + 1)
    assert main(["curve", "--a", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal failure: AssertionError('consistency failure: graph genus "
        "11 != closed form 12')\n"
    )


def selftest_with(monkeypatch, capsys, original, mutant):
    """`main(["selftest"])` with `original` replaced by `mutant` in every
    module of the package that binds it: it exits 2 with nothing on stderr
    and ten lines on stdout, returned as (status, name, detail)."""
    for name, module in list(sys.modules.items()):
        if name.startswith("bncurve") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, mutant)
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = re.findall(r"^\[(PASS|FAIL)\] ([^:]+): (.*)$", captured.out, re.M)
    assert len(lines) == 10 == len(captured.out.splitlines())
    return lines


def test_a_lost_ballot_word_exits_2_in_one_line(monkeypatch, capsys):
    # the second word of every m = 2 shape with a >= 2 goes missing, so in
    # the up-front curve build the a = 2 rows find one word where the
    # ballot numbers count two, as `curve --a 2` does: each check that
    # reads the graphs fails with that error in its one line
    original = sys.modules["bncurve.combinatorics"].enumerate_ballot

    def one_word_lost(a, m=2):
        for k, word in enumerate(original(a, m)):
            if not (a >= 2 and m == 2 and k == 1):
                yield word

    lines = selftest_with(monkeypatch, capsys, original, one_word_lost)
    assert {
        "component count nu = (2a+1) c_a",
        "node count delta, both forms",
        "genus, graph vs closed form",
        "nodal properties",
        "property suite",
    } <= {name for status, name, detail in lines
          if (status, detail) == (
              "FAIL",
              "AssertionError: the ballot words (1) and the ballot numbers "
              "(2) disagree",
          )}


def test_a_check_that_raises_fails_its_line_and_the_rest_print(monkeypatch, capsys):
    # generalized_catalan(3, 3) raises its inexact-division error, so
    # check_castelnuovo raises at (a, r) = (3, 2): its line fails with the
    # error, and the five lines after it print and pass
    original = sys.modules["bncurve.combinatorics"].generalized_catalan

    def raises_at_3_3(a, m):
        if (a, m) == (3, 3):
            raise ArithmeticError("generalized Catalan formula did not divide exactly")
        return original(a, m)

    lines = selftest_with(monkeypatch, capsys, original, raises_at_3_3)
    k = [name for _, name, _ in lines].index("Castelnuovo counts vs enumeration")
    assert lines[k][::2] == (
        "FAIL", "ArithmeticError: generalized Catalan formula did not divide exactly"
    )
    assert [status for status, _, _ in lines[k + 1 :]] == ["PASS"] * 5


def test_a_failing_double_cover_fails_only_the_gonality_line(monkeypatch, capsys):
    original = sys.modules["bncurve.gonality"].verify_double_cover
    lines = selftest_with(monkeypatch, capsys, original, failing_report)
    failed = [(name, detail) for status, name, detail in lines if status == "FAIL"]
    assert len(failed) == 1 and failed[0][0] == "gonality pipeline"
    assert failed[0][1].startswith(
        "AssertionError: double cover failed verification: "
    )


# each command with a library name it calls and the module it reads that name
# from as it runs (curve, gonality5 and selftest import theirs when called); the
# cached parser holds the _cmd_* handlers themselves, so the name is patched
LIBRARY_CALLS = [
    (["catalan", "--a", "5"], "cli", "catalan"),
    (["castelnuovo", "--a", "2", "--r", "1"], "cli", "limit_series_census"),
    (["census", "--g", "5", "--r", "1", "--d", "4"], "cli", "limit_series_census"),
    (["tables", "--g", "5", "--d", "4"], "cli", "render_tables"),
    (["curve", "--a", "2"], "curve", "_curve_pieces"),
    (["gonality5"], "gonality", "gonality"),
    (["gonality5", "--degree", "3"], "gonality", "build_w14_circuit"),
    (["selftest"], "selfcheck", "run_selftest"),
]


@pytest.mark.parametrize("error", [KeyError, OSError])
@pytest.mark.parametrize(
    "argv,module,name",
    LIBRARY_CALLS,
    ids=[" ".join(argv) for argv, _, _ in LIBRARY_CALLS],
)
def test_any_other_failure_exits_2_in_one_line(
    monkeypatch, capsys, argv, module, name, error
):
    def fails(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(sys.modules[f"bncurve.{module}"], name, fails)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal failure: {error('injected')!r}\n"


# hostile argv: each exits with a documented code within seconds, with at
# most one line on stderr and never a traceback, and, where a row gives a
# pattern, prints a stdout that matches it.  Each row runs in its own
# interpreter under a timeout, so a hang fails its row instead of the suite;
# the int-to-str digit limit is pinned to CPython's default.
HOSTILE = [
    (["tables", "--g", "2001", "--d", "1002"], {1}, None),  # over the cell budget
    (["tables", "--g", "31", "--d", "17"], {1}, None),
    (["tables", "--g", "23", "--d", "13"], {1}, None),
    (["tables", "--g", "3", "--d", "100000000"], {1}, None),  # not rho=1
    (["tables", "--g", "100000001", "--d", "50000002"], {1}, None),
    (["castelnuovo", "--a", "3000", "--r", "50"], {0, 1}, None),  # 4300-digit cap
    (["castelnuovo", "--a", "2", "--r", "3000"], {0}, r"[1-9]\d{1801}\n"),
    (["castelnuovo", "--a", "1", "--r", "100000"], {0}, r"1\n"),
    (["castelnuovo", "--a", "1", "--r", "10000000"], {0}, r"1\n"),
    (["census", "--g", "14293", "--r", "1", "--d", "7148"], {1}, None),  # 4301 digits
    (["catalan", "--a", "1000000"], {1}, None),
    (["catalan", "--a", "100000"], {1}, None),
    (["curve", "--a", "0"], {1}, None),
    (["gonality5", "--degree", "7"], {1}, None),
    # usage errors: argparse's own would print a usage block and exit 2
    ([], {1}, ""),
    (["frobnicate"], {1}, ""),
    (["catalan"], {1}, ""),
    (["catalan", "--a", "x"], {1}, ""),
    (["curve", "--a", "2", "--format", "xml"], {1}, ""),
    (["selftest", "--max-a", "3"], {1}, ""),  # selftest takes no option
    (["selftest", "--max-a", "0"], {1}, ""),
    (["selftest", "--max-a", "-3"], {1}, ""),
    (["selftest", "--max-a", "100000"], {1}, ""),
]
# the exact stderr line of a refused input, where it is pinned
HOSTILE_STDERR = {
    "curve --a 0": "error: a must be an int >= 1 and m an int >= 2, not a=0, m=2\n",
}
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv,codes,stdout", HOSTILE, ids=[" ".join(argv) for argv, _, _ in HOSTILE]
)
def test_hostile_argv_exits_with_a_documented_code(argv, codes, stdout):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONINTMAXSTRDIGITS": "4300"}
    proc = subprocess.run(
        [sys.executable, "-m", "bncurve", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert proc.returncode in codes, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) <= 1
    if proc.returncode == 1:  # a refused input says so in the one form
        assert proc.stderr.startswith("error: "), proc.stderr
    if stdout is not None:
        assert re.fullmatch(stdout, proc.stdout)
    assert proc.stderr == HOSTILE_STDERR.get(" ".join(argv), proc.stderr)


@pytest.mark.parametrize(
    "argv,unbuffered",
    [
        (["selftest"], "1"),
        (["curve", "--a", "6"], ""),
        (["curve", "--a", "6"], "1"),
        (["tables", "--g", "15", "--d", "9"], "1"),
    ],
    ids=["selftest", "curve --a 6", "curve --a 6 unbuffered", "tables unbuffered"],
)
def test_reader_closing_stdout_early_gets_no_traceback(argv, unbuffered):
    # unbuffered, selftest writes each line as its check ends; buffered, the
    # a=6 export is written in chunks until the pipe is full; unbuffered, the
    # a=6 export and the g=15 tables are each one write that the closed pipe
    # cuts short.  Either way the child is still writing when the reader
    # goes away after the first line.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "bncurve", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    try:
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=30) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and err.count("\n") <= 1
