import copy
import enum
import json
import pickle
import random
import re
import runpy
import sys
import tracemalloc
from dataclasses import fields, replace
from itertools import product
from math import comb, factorial
from pathlib import Path

import pytest

from bncurve.chain import (
    BNComponentId,
    Census,
    ChainSpec,
    UnsupportedShapeError,
    _digits,
    _slot_offset,
    _walk,
    all_components,
    bundle_name,
    exhaustive_bound_search,
    limit_series_census,
    propagate,
    render_tables,
    rho,
)
from bncurve.combinatorics import (
    catalan,
    enumerate_ballot,
    generalized_catalan,
    is_admissible,
)
from bncurve.curve import BNCurveGraph, build_bn_curve, export_graph, intersect

PLAN = Path(__file__).resolve().parents[1] / "perfbench" / "plan.py"


def rendered(chain, comp):
    return tuple(bundle_name(u, chain.d) for u in propagate(chain, comp))


def reference_render(chain, fmt):
    """The tables rendered cell by cell, each column the `propagate` walk of
    one `all_components` id: a header of labels, then one line per chain
    component, columns right-justified to their widest cell in the text
    format."""
    comps = all_components(chain)
    headers = ["C_i"] + [comp.label for comp in comps]
    rows = [
        [str(i)] + [bundle_name(u, chain.d) for u in row]
        for i, row in enumerate(zip(*(propagate(chain, c) for c in comps)), start=1)
    ]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [headers] + rows) + "\n"
    widths = [max(len(r[j]) for r in [headers] + rows) for j in range(len(headers))]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in [headers] + rows
    ]
    return "\n".join(lines) + "\n"


def csv_columns(chain):
    """The `render_tables` CSV read back into its columns, in order, each
    keyed by its label digits|i parsed to (sequence, marked)."""
    lines = [line.split(",") for line in render_tables(chain, "csv").splitlines()]
    assert {len(line) for line in lines} == {len(lines[0])}
    columns = {}
    for label, *cells in list(zip(*lines))[1:]:
        digits, marked = label.split("|")
        columns[tuple(map(int, digits)), int(marked)] = tuple(cells)
    assert len(columns) == len(lines[0]) - 1
    return columns


def counted_orders(comp):
    """(symbol, u1, u2) at each chain slot, None as the marked slot's
    symbol, with the entry vanishing orders from the counting identity:
    u1 counts the earlier slots not reading 1, u2 is one more than the
    count of those not reading 2 (the marked slot reads neither)."""
    symbols = list(comp.sequence)
    symbols.insert(comp.marked - 1, None)
    return [
        (
            sym,
            sum(s != 1 for s in symbols[:i]),
            1 + sum(s != 2 for s in symbols[:i]),
        )
        for i, sym in enumerate(symbols)
    ]


class TestRho:
    def test_examples(self):
        assert rho(5, 1, 4) == 1
        assert rho(4, 1, 3) == 0
        assert rho(3, 1, 2) == -1

    def test_rho_one_shape(self):
        for a in range(1, 9):
            assert rho(2 * a + 1, 1, a + 2) == 1

    def test_chain_a_exactly_on_the_rho_one_shape(self):
        for g in range(2, 41):
            for d in range(1, 2 * g + 3):
                chain = ChainSpec(g, d)
                if (g, d) == (2 * (d - 2) + 1, d):
                    assert chain.a == d - 2
                else:
                    with pytest.raises(UnsupportedShapeError):
                        chain.a

    def test_chain_a_checks_the_shape_once(self, monkeypatch):
        module = sys.modules["bncurve.chain"]
        checked = []

        def counted(g, r, d, _original=module.rho):
            checked.append((g, r, d))
            return _original(g, r, d)

        monkeypatch.setattr(module, "rho", counted)
        chain = ChainSpec.rho_one(3)
        assert [chain.a for _ in range(3)] == [3, 3, 3]
        assert checked == [(7, 1, 5)]
        # a raised exception is not cached: every access re-checks and raises
        checked.clear()
        bad = ChainSpec(g=5, d=3)
        for _ in range(3):
            with pytest.raises(UnsupportedShapeError):
                bad.a
        assert checked == [(5, 1, 3)] * 3


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: ChainSpec(5.0, 4), id="ChainSpec(5.0, 4)"),
        pytest.param(lambda: ChainSpec(5, True), id="ChainSpec(5, True)"),
        pytest.param(
            lambda: render_tables(ChainSpec(5.0, 4)),
            id="render_tables(ChainSpec(5.0, 4))",
        ),
        pytest.param(
            lambda: limit_series_census(5.0, 1, 4), id="limit_series_census(5.0, 1, 4)"
        ),
        pytest.param(lambda: rho(True, 1, 1), id="rho(True, 1, 1)"),
        pytest.param(lambda: rho(5, 1.0, 4), id="rho(5, 1.0, 4)"),
        pytest.param(lambda: catalan(2.0), id="catalan(2.0)"),
        pytest.param(lambda: catalan(True), id="catalan(True)"),
    ],
)
def test_chain_shapes_and_counts_refuse_what_is_not_a_plain_int(call):
    # a float raised TypeError from deep inside, and a bool passed as 1
    with pytest.raises(ValueError, match="int"):
        call()


class TestPropagate:
    def test_table_column_c1_prime(self):
        chain = ChainSpec.rho_one(2)
        comp = BNComponentId((1, 2, 1, 2), 1)
        assert rendered(chain, comp) == ("L", "P+3Q", "3P+Q", "2P+2Q", "4P")

    def test_table_column_c2_doubleprime(self):
        chain = ChainSpec.rho_one(2)
        comp = BNComponentId((1, 1, 2, 2), 2)
        assert rendered(chain, comp) == ("4Q", "L", "P+3Q", "4P", "4P")

    def test_small_chain(self):
        # hand-propagated: (0,1) -> choice 1 -> (0,2) -> choice 2 -> (1,2)
        chain = ChainSpec.rho_one(1)
        comp = BNComponentId((1, 2), 3)
        assert propagate(chain, comp) == (0, 2, None)

    def test_vanishing_monotone_and_bounded(self):
        # the range that propagate does not check: every validated
        # component keeps 0 <= u1 < u2 <= d, and neither order drops
        for a in range(1, 6):
            chain = ChainSpec.rho_one(a)
            for comp in all_components(chain):
                previous = (0, 1)
                for _, u1, u2 in counted_orders(comp):
                    assert 0 <= u1 < u2 <= chain.d
                    assert previous[0] <= u1 and previous[1] <= u2
                    previous = (u1, u2)

    def test_counting_identity(self):
        # each offset is the entry order that its slot's symbol picks
        for a in range(1, 6):
            chain = ChainSpec.rho_one(a)
            for comp in all_components(chain):
                offsets = propagate(chain, comp)
                assert len(offsets) == chain.g
                for u, (sym, u1, u2) in zip(offsets, counted_orders(comp)):
                    assert u == {None: None, 1: u1, 2: u2}[sym]

    def test_matches_the_benchmark_reference_walk(self):
        # perfbench/plan.py computes offsets independently of bncurve;
        # run_path executes it without writing bytecode
        reference = runpy.run_path(str(PLAN))["offsets"]
        checked = 0
        for a in range(1, 7):
            chain = ChainSpec.rho_one(a)
            for comp in all_components(chain):
                assert propagate(chain, comp) == tuple(
                    reference(comp.sequence, comp.marked)
                )
                checked += 1
        assert checked == 2352

    def test_matches_the_benchmark_reference_walk_in_shuffled_order(self):
        # the same check with the components asked for out of word order, so
        # that the one-word memo of _walk keeps dropping a word and walks it
        # again later
        reference = runpy.run_path(str(PLAN))["offsets"]
        rng = random.Random(15)
        checked = 0
        for a in range(1, 7):
            chain = ChainSpec.rho_one(a)
            comps = all_components(chain)
            rng.shuffle(comps)
            _walk.cache_clear()
            for comp in comps:
                assert propagate(chain, comp) == tuple(
                    reference(comp.sequence, comp.marked)
                )
                checked += 1
            if a > 1:
                assert _walk.cache_info().misses > catalan(a)
        assert checked == 2352

    def test_walk_memo_holds_one_word(self):
        assert _walk.cache_info().maxsize == 1

    @pytest.mark.parametrize("a", range(1, 8))
    def test_slot_offset_is_the_walk_at_every_slot(self, a):
        for seq in enumerate_ballot(a, 2):
            walk = _walk(seq.symbols)[0]
            assert [_slot_offset(seq.symbols, k) for k in range(2 * a)] == list(walk)

    def test_injectivity_of_sequence_to_tuple(self):
        for a in range(1, 6):
            chain = ChainSpec.rho_one(a)
            for marked in range(1, chain.g + 1):
                seen = {}
                for seq in enumerate_ballot(a, 2):
                    comp = BNComponentId(seq.symbols, marked)
                    key = propagate(chain, comp)
                    assert key not in seen
                    seen[key] = comp

    def test_malformed_sequence_rejected(self):
        chain = ChainSpec.rho_one(2)
        with pytest.raises(ValueError):
            propagate(chain, BNComponentId((1, 2), 1))


class TestDigits:
    @pytest.mark.parametrize("a", range(1, 9))
    def test_spells_every_ballot_word_as_its_tuple_and_its_bytes(self, a):
        for seq in enumerate_ballot(a, 2):
            spelled = "".join(map(str, seq.symbols))
            assert _digits(seq.symbols) == spelled
            assert _digits(bytes(seq.symbols)) == spelled

    def test_every_label_header_and_json_id_is_spelled_by_it(
        self, monkeypatch, capsys
    ):
        from bncurve.cli import main

        # a spelling that swaps 1 and 2, in every module that binds _digits
        def swapped(word):
            return "".join(str(3 - s) for s in word)

        bound = [
            name
            for name, module in list(sys.modules.items())
            if name.startswith("bncurve")
            and getattr(module, "_digits", None) is _digits
        ]
        assert "bncurve.chain" in bound and "bncurve.curve" in bound
        for name in bound:
            monkeypatch.setattr(sys.modules[name], "_digits", swapped)
        chain = ChainSpec.rho_one(2)
        components = [(c.sequence, c.marked) for c in all_components(chain)]
        expected = [swapped(s) + f"|{i}" for s, i in components]
        assert BNComponentId((1, 1, 2, 2), 3).label == "2211|3"
        assert [c.label for c in all_components(chain)] == expected
        header = render_tables(chain, "csv").split("\n")[0]
        assert header.split(",") == ["C_i", *expected]
        assert main(["curve", "--a", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in payload["components"]] == expected
        assert [c["sequence"] for c in payload["components"]] == [
            [3 - x for x in s] for s, _ in components
        ]


class TestComponentId:
    def test_rejects_inadmissible_input(self):
        BNComponentId((1, 2, 1, 2), 1)
        BNComponentId((1, 2, 1, 2), 5)
        for sequence, marked in [
            ((2, 1, 1, 2), 1),  # not a ballot word
            ((), 1),  # the empty word is no word: a >= 1
            ((1, 2, 1), 1),  # odd length
            ((1, 2, 1, 2), 0),
            ((1, 2, 1, 2), 6),  # n + 2
        ]:
            with pytest.raises(ValueError):
                BNComponentId(sequence, marked)

    @pytest.mark.parametrize("marked", [1.5, 1.0, True, False, "1", None])
    def test_rejects_a_marked_index_that_is_not_an_int(self, marked):
        with pytest.raises(ValueError, match="not an int"):
            BNComponentId((1, 2), marked)

    @pytest.mark.parametrize(
        "sequence",
        [("1", "2"), (1.0, 2.0), (None, 2), ("a", "b"), (1, 2.0), None, 5],
    )
    def test_rejects_symbols_that_are_not_ints(self, sequence):
        with pytest.raises(ValueError, match="not admissible"):
            BNComponentId(sequence, 1)

    @pytest.mark.parametrize(
        "sequence,shown",
        [
            (0, "0"),
            (4, "4"),
            (None, "None"),
            ("12", "('1', '2')"),
            ((1.0, 2), "(1.0, 2)"),
            ((1, 2, 1), "(1, 2, 1)"),  # odd length
            ([1, 2, 1], "(1, 2, 1)"),  # a list is shown as its tuple
            ((2, 1), "(2, 1)"),  # not a ballot word
            ((1, 1, 2, 3), "(1, 1, 2, 3)"),
            ((1, 256), "(1, 256)"),  # beyond a byte
        ],
    )
    def test_refusals_name_the_sequence(self, sequence, shown):
        with pytest.raises(ValueError, match=re.escape(f"sequence {shown} is not")):
            BNComponentId(sequence, 1)

    def test_symbols_are_stored_as_plain_ints(self):
        class Symbol(enum.IntEnum):
            ONE = 1
            TWO = 2

        twin = BNComponentId((1, 2), 1)
        for sequence in [(True, 2), (Symbol.ONE, Symbol.TWO), bytes((1, 2))]:
            comp = BNComponentId(sequence, 1)
            assert all(type(s) is int for s in comp.sequence)
            assert comp == twin and hash(comp) == hash(twin)
            assert (comp.label, repr(comp)) == ("12|1", repr(twin))

    def test_an_int_subclass_marked_index_is_stored_as_a_plain_int(self):
        class Mark(enum.IntEnum):
            ONE, TWO, THREE = 1, 2, 3

        twin = BNComponentId((1, 2), 2)
        comp = BNComponentId((1, 2), Mark.TWO)
        assert type(comp.marked) is int
        assert comp == twin and hash(comp) == hash(twin)
        assert (comp.label, repr(comp)) == ("12|2", repr(twin))
        for copied in (copy.copy(comp), pickle.loads(pickle.dumps(comp))):
            assert copied == twin and type(copied.marked) is int
        replaced = replace(twin, marked=Mark.THREE)
        assert replaced == BNComponentId((1, 2), 3) and type(replaced.marked) is int
        graph = build_bn_curve(1)
        hand = BNCurveGraph(
            a=1,
            components=tuple(
                BNComponentId(c.sequence, Mark(c.marked)) for c in graph.components
            ),
            node_table=graph.node_table,
        )
        assert hand == graph
        for fmt in ("json", "dot"):
            assert export_graph(hand, fmt) == export_graph(graph, fmt)

    @pytest.mark.parametrize(
        "marked, message",
        [
            (True, "marked index True is not an int"),
            (2.0, "marked index 2.0 is not an int"),
            (None, "marked index None is not an int"),
            (0, "marked index 0 out of range"),
            (4, "marked index 4 out of range"),
        ],
    )
    def test_marked_refusals_keep_their_messages(self, marked, message):
        class Mark(enum.IntEnum):
            ZERO, FOUR = 0, 4

        for value in [marked, Mark(marked)] if type(marked) is int else [marked]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                BNComponentId((1, 2), value)
        twin = BNComponentId((1, 2), 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(twin, marked=marked)

    def test_bool_symbols_export_as_their_int_twins(self):
        graph = build_bn_curve(1)
        hand = BNCurveGraph(
            a=1,
            components=tuple(
                BNComponentId((True, 2), c.marked) for c in graph.components
            ),
            node_table=graph.node_table,
        )
        for fmt in ("json", "dot"):
            assert export_graph(hand, fmt) == export_graph(graph, fmt)
        assert json.loads(export_graph(hand, "json"))["components"][0][
            "sequence"
        ] == [1, 2]

    def test_agrees_with_is_admissible_on_every_short_word(self):
        for n in range(8):
            for word in product(range(4), repeat=n):
                ok = n % 2 == 0 and is_admissible(word, n // 2, 2)
                try:
                    BNComponentId(word, 1)
                except ValueError:
                    assert not ok, word
                else:
                    assert ok, word

    def test_copies_and_replacements_pass_the_constructor(self):
        comp = BNComponentId([1, 1, 2, 2], 3)
        for twin in (
            copy.copy(comp),
            copy.deepcopy(comp),
            pickle.loads(pickle.dumps(comp)),
            replace(comp),
        ):
            assert twin == comp and vars(twin).keys() == vars(comp).keys()
        assert replace(comp, marked=5) == BNComponentId((1, 1, 2, 2), 5)
        with pytest.raises(ValueError, match="out of range"):
            replace(comp, marked=6)
        with pytest.raises(ValueError, match="not admissible"):
            replace(comp, sequence=(2, 2, 1, 1))

    @pytest.mark.parametrize("a", range(1, 7))
    def test_all_components_pass_the_public_constructor(self, a):
        comps = all_components(ChainSpec.rho_one(a))
        # each id holds its two fields and nothing else until its label is read
        assert all(set(vars(c)) == {"sequence", "marked"} for c in comps)
        public = [BNComponentId(c.sequence, c.marked) for c in comps]
        assert comps == public
        # the labels the property computes are the public ids' labels
        assert [c.label for c in comps] == [p.label for p in public]
        names = {f.name for f in fields(BNComponentId)} | {"label"}
        assert all(set(vars(c)) == names for c in comps)
        # and are stored as compactly as the public constructor's
        assert sys.getsizeof(vars(comps[-1])) == sys.getsizeof(vars(public[-1]))
        assert len(comps) == (2 * a + 1) * catalan(a)

    @pytest.mark.parametrize("a", range(1, 4))
    def test_list_built_ids_act_as_their_tuple_twins(self, a):
        chain = ChainSpec.rho_one(a)
        comps = all_components(chain)
        listed = [BNComponentId(list(c.sequence), c.marked) for c in comps]
        assert all(type(c.sequence) is tuple for c in listed)
        assert listed == comps
        assert [hash(c) for c in listed] == [hash(c) for c in comps]
        assert len(set(listed) | set(comps)) == len(comps)
        for x, lx in zip(comps, listed):
            assert propagate(chain, lx) == propagate(chain, x)
            for y, ly in zip(comps, listed):
                if x != y:
                    assert intersect(chain, lx, ly) == intersect(chain, x, y)


class TestComponentTables:
    def test_g5_has_ten_columns(self):
        assert len(csv_columns(ChainSpec.rho_one(2))) == 10

    def test_column_c2_prime(self):
        columns = csv_columns(ChainSpec.rho_one(2))
        assert columns[(1, 2, 1, 2), 2] == ("4Q", "L", "3P+Q", "2P+2Q", "4P")

    def test_column_c4_doubleprime(self):
        columns = csv_columns(ChainSpec.rho_one(2))
        assert columns[(1, 1, 2, 2), 4] == ("4Q", "4Q", "3P+Q", "L", "4P")

    def test_g3_has_three_columns(self):
        assert len(csv_columns(ChainSpec.rho_one(1))) == 3

    @pytest.mark.parametrize("a", range(1, 8))
    def test_rows_match_a_walk_per_component(self, a):
        chain = ChainSpec.rho_one(a)
        assert list(csv_columns(chain).items()) == [
            ((c.sequence, c.marked), rendered(chain, c))
            for c in all_components(chain)
        ]

    @pytest.mark.parametrize("a", range(1, 6))
    def test_one_walk_per_ballot_word(self, a):
        _walk.cache_clear()
        columns = csv_columns(ChainSpec.rho_one(a))
        assert _walk.cache_info().misses == catalan(a)
        assert len(columns) == (2 * a + 1) * catalan(a)

    def test_cell_budget_is_checked_before_enumerating(self, monkeypatch):
        def no_enumeration(a, m):
            raise AssertionError("enumerated")

        module = sys.modules["bncurve.chain"]
        monkeypatch.setattr(module, "enumerate_ballot", no_enumeration)
        # nu * g = 21^2 * catalan(10) = 7,407,036 cells fits the budget
        with pytest.raises(AssertionError, match="enumerated"):
            render_tables(ChainSpec(21, 12))
        for g in (23, 31, 2001):
            with pytest.raises(ValueError, match="cells"):
                render_tables(ChainSpec(g, (g - 1) // 2 + 2))

    def test_shape_and_budget_are_refused_before_any_work(self, monkeypatch):
        def refused(*args):
            raise AssertionError("worked")

        module = sys.modules["bncurve.chain"]
        monkeypatch.setattr(module, "bundle_name", refused)
        monkeypatch.setattr(module, "enumerate_ballot", refused)
        # d + 1 bundle names, or g column marks, would each take seconds
        with pytest.raises(UnsupportedShapeError):
            render_tables(ChainSpec(3, 100_000_000))
        with pytest.raises(ValueError, match="cells"):
            render_tables(ChainSpec(100_000_001, 50_000_002), "csv")
        with pytest.raises(AssertionError, match="worked"):
            render_tables(ChainSpec.rho_one(1))

    def test_render_formats(self):
        chain = ChainSpec.rho_one(1)
        text = render_tables(chain, "text")
        csv = render_tables(chain, "csv")
        assert "L" in text and "3Q" in text
        assert csv.splitlines()[0] == "C_i,12|1,12|2,12|3"
        with pytest.raises(ValueError):
            render_tables(chain, "yaml")

    def test_unknown_format_is_refused_before_building(self, monkeypatch):
        def no_walks(a, m):
            raise AssertionError("walked")

        module = sys.modules["bncurve.chain"]
        monkeypatch.setattr(module, "enumerate_ballot", no_walks)
        with pytest.raises(ValueError, match="unknown table format"):
            render_tables(ChainSpec(21, 12), "xml")
        with pytest.raises(AssertionError, match="walked"):
            render_tables(ChainSpec(21, 12), "csv")

    @pytest.mark.parametrize(
        "g, fmt",
        [(g, fmt) for g in range(3, 17, 2) for fmt in ("csv", "text")] + [(19, "csv")],
    )
    def test_render_equals_the_cell_by_cell_reference(self, g, fmt):
        chain = ChainSpec(g, (g - 1) // 2 + 2)
        assert render_tables(chain, fmt) == reference_render(chain, fmt)

    def test_text_peak_memory_is_bounded_by_its_text(self):
        # the piece list holds references to runs made once per line and
        # name: the traced peak, text included, stays under 1.6 times the
        # text (one string per cell group and per line peaked at about 2.3)
        chain = ChainSpec(15, 9)
        tracemalloc.start()
        try:
            text = render_tables(chain, "text")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * len(text)

    def test_every_name_fits_under_each_label(self):
        # text pads column (s, i) to its label's width, g + len(str(i)) >= 2a + 2
        for a in range(1, 300):
            assert max(len(bundle_name(u, a + 2)) for u in range(a + 3)) <= 2 * a + 2

    @pytest.mark.parametrize("a", range(1, 7))
    def test_render_builds_no_table_and_walks_once_per_word(self, monkeypatch, a):
        chain = ChainSpec.rho_one(a)
        expected = {fmt: reference_render(chain, fmt) for fmt in ("csv", "text")}
        module = sys.modules["bncurve.chain"]

        def refused(chain):
            raise AssertionError("built per-component records")

        monkeypatch.setattr(module, "all_components", refused)
        for fmt, text in expected.items():
            _walk.cache_clear()
            assert render_tables(chain, fmt) == text
            assert _walk.cache_info().misses == catalan(a)


class TestBundle:
    def test_render(self):
        assert bundle_name(0, 4) == "4Q"
        assert bundle_name(4, 4) == "4P"
        assert bundle_name(1, 4) == "P+3Q"
        assert bundle_name(None, 4) == "L"

    def test_fixed_range(self):
        with pytest.raises(ValueError):
            bundle_name(-1, 4)
        with pytest.raises(ValueError):
            bundle_name(5, 4)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_every_offset_names_its_divisor(self, d):
        # parse each name back into the coefficients of uP + (d-u)Q: terms
        # in P, Q order, no zero term; a lone term always writes its
        # coefficient, a sum drops unit ones
        for u in range(d + 1):
            terms = bundle_name(u, d).split("+")
            points = [term[-1] for term in terms]
            assert points == sorted(set(points))
            coeffs = {"P": 0, "Q": 0}
            for term in terms:
                digits, point = term[:-1], term[-1]
                assert point in coeffs
                assert digits if len(terms) == 1 else digits != "1"
                coeffs[point] = int(digits) if digits else 1
                assert coeffs[point] > 0
            assert (coeffs["P"], coeffs["Q"]) == (u, d - u)
        assert bundle_name(None, d) == "L"
        for u in (-1, d + 1):
            with pytest.raises(ValueError):
                bundle_name(u, d)


class TestBoundCheck:
    # The existence bound sum(eps_i) <= 2d - g - 2, with eps_i = 1 on a
    # component whose bundle is free (its offset None): 2d - g - 2 is
    # rho(g, 1, d), so 1 on every rho = 1 chain and 0 on a rho = 0 one.
    def test_propagate_outputs_satisfy_bound(self):
        for a in range(1, 6):
            chain = ChainSpec.rho_one(a)
            assert 2 * chain.d - chain.g - 2 == 1 == rho(chain.g, 1, chain.d)
            for comp in all_components(chain):
                assert propagate(chain, comp).count(None) == 1

    def test_rho_zero_forbids_free_components(self):
        chain = ChainSpec(g=4, d=3)
        assert 2 * chain.d - chain.g - 2 == 0 == rho(4, 1, 3)
        # no component carries a free bundle, so there is no propagate tuple
        assert limit_series_census(4, 1, 3).kind == "finite"
        with pytest.raises(UnsupportedShapeError):
            propagate(chain, BNComponentId((1, 2), 1))

    def test_negative_rho_empty_search(self):
        assert rho(3, 1, 2) == -1
        assert exhaustive_bound_search(3, 1, 2) == []

    def test_positive_rho_search_nonempty(self):
        assert exhaustive_bound_search(5, 1, 4)

    def test_search_matches_subset_walk(self):
        # reference: walk all 2^g free subsets and keep those within rho
        for g in range(1, 9):
            for r in range(1, g + 1):
                for d in range(1, 2 * g + 1):
                    bound = rho(g, r, d)
                    walk = {
                        (
                            tuple(i + 1 for i, f in enumerate(free) if f),
                            (r + 1) ** (g - sum(free)),
                        )
                        for free in product((False, True), repeat=g)
                        if sum(free) <= bound
                    }
                    found = exhaustive_bound_search(g, r, d)
                    assert len(found) == len(set(found))
                    assert set(found) == walk, (g, r, d)
                    assert sum(size for _, size in found) == sum(
                        comb(g, k) * (r + 1) ** (g - k)
                        for k in range(min(bound, g) + 1)
                    )


def tableaux(rows, cols):
    """Standard Young tableaux of a rows-by-cols rectangle, by the hook
    length formula: the ballot words with `rows` copies of `cols` symbols."""
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - i) + (cols - j) - 1
    return factorial(rows * cols) // hooks


def reference_census(g, r, d):
    """W^r_d on a genus-g chain, from the definitions: empty when rho < 0;
    finite, one point per ballot word, on the shape g = (r+1)a,
    d = r(a+1); a curve with g components per ballot word on the rank-1
    shape g = 2a+1, d = a+2; None for any other shape."""
    p = g - (r + 1) * (g - d + r)
    if p < 0:
        return Census("empty")
    for a in range(1, g + 1):
        if p == 0 and (g, d) == ((r + 1) * a, r * (a + 1)):
            return Census("finite", tableaux(a, r + 1))
        if p == 1 and r == 1 and (g, d) == (2 * a + 1, a + 2):
            return Census("curve", g * tableaux(a, 2))
    return None


class TestCensus:
    def test_matches_the_definitions(self):
        for g in range(0, 41):
            for r in range(1, 9):
                for d in range(0, 2 * g + 3):
                    try:
                        census = limit_series_census(g, r, d)
                    except UnsupportedShapeError:
                        census = None
                    assert census == reference_census(g, r, d), (g, r, d)

    def test_bad_shape(self):
        with pytest.raises(UnsupportedShapeError):
            limit_series_census(6, 1, 5)  # rho = 2
        with pytest.raises(UnsupportedShapeError):
            limit_series_census(4, 1, 4)  # rho = 2, not a modeled shape

    def test_finite(self):
        assert limit_series_census(4, 1, 3).count == 2
        assert limit_series_census(6, 2, 6).count == generalized_catalan(2, 3)

    def test_curve(self):
        census = limit_series_census(5, 1, 4)
        assert census.kind == "curve" and census.count == 10
        for a in range(1, 9):
            census = limit_series_census(2 * a + 1, 1, a + 2)
            assert census.count == (2 * a + 1) * catalan(a)

    def test_empty(self):
        assert limit_series_census(3, 1, 2).kind == "empty"
        assert limit_series_census(9, 2, 3).kind == "empty"

    def test_unprintable_count_is_refused_before_computing(self, monkeypatch):
        module = sys.modules["bncurve.chain"]
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)

        def not_computed(*args):
            raise AssertionError("computed")

        monkeypatch.setattr(module, "generalized_catalan", not_computed)
        monkeypatch.setattr(module, "catalan", not_computed)
        a = 5 * 10**399
        for g, r, d in [
            (153000, 50, 150050),  # castelnuovo --a 3000 --r 50
            (2000001, 1, 1000002),
            (2 * a + 1, 1, a + 2),
        ]:
            with pytest.raises(ValueError, match="can be printed"):
                limit_series_census(g, r, d)

    def test_counts_near_the_digit_limit_are_computed(self, monkeypatch):
        # (2a+1) catalan(a) has 4300 digits at a=7145, 4301 at a=7146 and
        # 4302 at a=7148; only the last is clearly over a 4300-digit limit
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        for a in (7145, 7146):
            count = limit_series_census(2 * a + 1, 1, a + 2).count
            assert count == (2 * a + 1) * catalan(a)
        with pytest.raises(ValueError, match="at least 4301 digits"):
            limit_series_census(2 * 7148 + 1, 1, 7150)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        count = limit_series_census(2 * 7148 + 1, 1, 7150).count
        assert count == (2 * 7148 + 1) * catalan(7148)
