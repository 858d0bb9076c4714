import json
import sys

import pytest

from bncurve.cli import main
from bncurve.gonality import VerificationReport


class TestCatalan:
    def test_value(self, capsys):
        assert main(["catalan", "--a", "5"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_negative_is_invalid_input(self, capsys):
        assert main(["catalan", "--a", "-1"]) == 1
        assert "error" in capsys.readouterr().err


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
        assert "error" in capsys.readouterr().err

    def test_deterministic(self, capsys):
        main(["curve", "--a", "2"])
        first = capsys.readouterr().out
        main(["curve", "--a", "2"])
        assert capsys.readouterr().out == first


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
        assert main(["gonality5", "--degree", "7"]) == 1

    def test_failing_double_cover_exits_2(self, monkeypatch, capsys):
        failing = VerificationReport()
        failing.record("forced failure", False)
        monkeypatch.setattr(
            sys.modules["bncurve.gonality"],
            "verify_double_cover",
            lambda cover=None: failing,
        )
        assert main(["gonality5"]) == 2
        assert "double cover failed verification" in capsys.readouterr().err


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

    def test_max_a_bounds_the_sized_checks(self, capsys):
        assert main(["selftest", "--max-a", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        sized = ("component count", "node count", "genus", "nodal properties")
        for prefix in sized:
            (line,) = [s for s in lines if s.startswith(f"[PASS] {prefix}")]
            assert line.endswith("a <= 3")


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["catalan"]) == 1
