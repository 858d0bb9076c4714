import ast
import copy
import enum
import math
import pickle
import re
import sys
from dataclasses import fields, replace
from itertools import islice, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bncurve import combinatorics
from bncurve.chain import ChainSpec, _is_dyck
from bncurve.combinatorics import (
    BallotSequence,
    catalan,
    enumerate_ballot,
    generalized_catalan,
    is_admissible,
    transpose,
)
from bncurve.curve import BNCurveGraph, build_bn_curve, delta_closed, genus_closed


def multiset_permutations(items):
    """Every distinct ordering of `items`, in lex order: step to the next
    lexicographic permutation until there is none (Knuth's Algorithm L)."""
    word = sorted(items)
    n = len(word)
    while True:
        yield tuple(word)
        j = n - 2
        while j >= 0 and word[j] >= word[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while word[j] >= word[k]:
            k -= 1
        word[j], word[k] = word[k], word[j]
        word[j + 1:] = word[:j:-1]


def ballot_words_brute(a, m):
    """Independent oracle: filter all multiset permutations by an inline
    prefix check."""
    good = []
    for word in multiset_permutations(
        [s for s in range(1, m + 1) for _ in range(a)]
    ):
        counts = [0] * (m + 1)
        ok = True
        for s in word:
            counts[s] += 1
            for t in range(2, m + 1):
                if counts[t] > counts[t - 1]:
                    ok = False
        if ok:
            good.append(word)
    return good


def test_multiset_permutations_match_itertools():
    from itertools import permutations

    for items in ([1, 1, 2, 2], [1, 2, 2, 3, 3], [1, 1, 1, 2, 3, 3], [2], []):
        assert list(multiset_permutations(items)) == sorted(
            set(permutations(items))
        )


class TestCatalan:
    def test_examples(self):
        assert catalan(0) == 1
        assert catalan(2) == 2
        assert catalan(5) == 42

    def test_sequence(self):
        assert [catalan(a) for a in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]

    def test_recursion(self):
        for a in range(13):
            assert catalan(a + 1) == sum(
                catalan(k) * catalan(a - k) for k in range(a + 1)
            )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestGeneralizedCatalan:
    def test_examples(self):
        assert generalized_catalan(2, 2) == 2
        assert generalized_catalan(1, 3) == 1
        # frozen from ballot_words_brute(2, 3)
        assert generalized_catalan(2, 3) == 5

    def test_specializes_to_catalan(self):
        for a in range(1, 13):
            assert generalized_catalan(a, 2) == catalan(a)

    @pytest.mark.parametrize(
        "a,m", [(a, m) for a in range(1, 5) for m in range(2, 5) if a * m <= 12]
    )
    def test_matches_brute_force(self, a, m):
        assert generalized_catalan(a, m) == len(ballot_words_brute(a, m))

    @pytest.mark.parametrize("a", range(1, 8))
    def test_matches_the_factorial_product(self, a):
        # the closed form as first written, m whole factorials on each side
        for m in range(2, 8):
            num, den = factorial(a * m), 1
            for i in range(m):
                num *= factorial(i)
                den *= factorial(a + i)
            assert generalized_catalan(a, m) == num // den

    @pytest.mark.parametrize("a,m", [(1, 9), (3, 4), (4, 3), (5, 5), (2, 30), (30, 2)])
    def test_matches_the_hook_length_count(self, a, m):
        # standard tableaux of the m x a rectangle; the cell in row i and
        # column j has hook length (a - j) + (m - i) - 1
        hooks = 1
        for i in range(m):
            for j in range(a):
                hooks *= (a - j) + (m - i) - 1
        assert generalized_catalan(a, m) == factorial(a * m) // hooks

    def test_product_runs_over_the_shorter_side(self, monkeypatch):
        factors = []

        def counted(n, k, _perm=math.perm):
            factors.append((n, k))
            return _perm(n, k)

        monkeypatch.setattr(math, "perm", counted)
        # one factor per row of the shorter side, whichever side that is
        for a, m in [(2, 50), (50, 2)]:
            factors.clear()
            generalized_catalan(a, m)
            assert factors == [(50, 50), (51, 50)]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generalized_catalan(0, 2)
        with pytest.raises(ValueError):
            generalized_catalan(2, 1)


def inline_admissible(word, a, m):
    """The ballot rule spelled out: a and m plain ints with a >= 1 and
    m >= 2, length a*m, every symbol an int in 1..m, no prefix holding more
    t than t - 1, and a copies of each symbol."""
    if type(a) is not int or type(m) is not int or a < 1 or m < 2:
        return False
    if len(word) != a * m or not all(type(s) is int and 1 <= s <= m for s in word):
        return False
    counts = [0] * (m + 1)
    for s in word:
        counts[s] += 1
        for t in range(2, m + 1):
            if counts[t] > counts[t - 1]:
                return False
    return all(counts[s] == a for s in range(1, m + 1))


class TestIsAdmissible:
    def test_examples(self):
        assert is_admissible((1, 2, 1, 2), 2, 2)
        assert not is_admissible((2, 1, 1, 2), 2, 2)
        assert not is_admissible((1, 1, 2, 2, 2, 1), 3, 2)

    def test_wrong_length_or_counts(self):
        assert not is_admissible((1, 2), 2, 2)
        assert not is_admissible((1, 1, 1, 2), 2, 2)
        assert not is_admissible((1, 1, 3, 3), 2, 2)

    @given(st.lists(st.integers(1, 3), min_size=0, max_size=9))
    def test_agrees_with_inline_check(self, word):
        assert is_admissible(word, 3, 3) == inline_admissible(word, 3, 3)

    @given(st.lists(st.sampled_from((1, 2, 1, 2, 1, 2, 0, 3, -1, 256)), max_size=14))
    def test_agrees_with_inline_check_at_m2(self, word):
        a = len(word) // 2
        assert is_admissible(word, a, 2) == inline_admissible(word, a, 2)

    @pytest.mark.parametrize("m,longest", [(2, 8), (3, 9)])
    def test_agrees_with_inline_check_on_every_short_word(self, m, longest):
        # every word over {0, 1, 2, 3}, so out-of-range symbols too; a is
        # the one that fits the length, when there is one
        admitted = 0
        for n in range(longest + 1):
            a = n // m
            for word in product(range(4), repeat=n):
                ok = inline_admissible(word, a, m)
                assert is_admissible(word, a, m) == ok, word
                admitted += ok
        # generalized_catalan(a, m) words per a >= 1; the empty word is none
        assert admitted == sum(
            generalized_catalan(a, m) for a in range(1, longest // m + 1)
        )

    @pytest.mark.parametrize(
        "word,a,m",
        [
            (("a", "b"), 1, 2),
            ((None, 2), 1, 2),
            ((1.0, 2.0), 1, 2),
            ((1, 2.0), 1, 2),
            (("1", "2"), 1, 2),
            ((1, 1, None, 2), 2, 2),
            ((1.0, 1.0, 2.0, 2.0), 2, 2),
            (("a", "b", "c"), 1, 3),
            ((None, 2, 3), 1, 3),
            ((1.0, 2.0, 3.0), 1, 3),
            ((1, 2, 3.0), 1, 3),
            (("1", 2, 3), 1, 3),
            (5, 1, 2),
            (None, 1, 2),
        ],
    )
    def test_non_int_symbols_are_refused(self, word, a, m):
        assert is_admissible(word, a, m) is False

    def test_m2_answers_as_the_former_bytes_path_on_odd_symbols(self):
        def bytes_path(symbols, a):
            # is_admissible's m = 2 branch before the count vector took
            # every m: the word as bytes, then the depth count
            symbols = tuple(symbols)
            if len(symbols) != a * 2:
                return False
            try:
                word = bytes(symbols)
            except (TypeError, ValueError):
                return False
            return _is_dyck(word)

        alphabet = (0, 1, 2, 3, True, False, 1.0, 2.0, "1", None, 256, -1)
        mismatches = [
            word
            for n in range(5)
            for word in product(alphabet, repeat=n)
            if is_admissible(word, n // 2, 2) != bytes_path(word, n // 2)
        ]
        assert mismatches == []

    def test_any_iterable_of_ints(self):
        assert is_admissible([1, 2, 1, 2], 2, 2)
        assert is_admissible(iter((1, 2, 3)), 1, 3)
        assert is_admissible(bytes((1, 1, 2, 2)), 2, 2)
        assert not is_admissible((1, 2, 3, 3), 2, 2)


class TestEnumerateBallot:
    def test_examples(self):
        assert [s.symbols for s in enumerate_ballot(1, 2)] == [(1, 2)]
        assert [s.symbols for s in enumerate_ballot(2, 2)] == [
            (1, 1, 2, 2),
            (1, 2, 1, 2),
        ]
        assert sum(1 for _ in enumerate_ballot(2, 3)) == 5

    @pytest.mark.parametrize(
        "a,m", [(a, m) for a in range(1, 10) for m in range(2, 7) if a * m <= 18]
    )
    def test_cardinality_matches_formula(self, a, m):
        assert sum(1 for _ in enumerate_ballot(a, m)) == generalized_catalan(a, m)

    def test_stream_is_strictly_lex_increasing_and_admissible(self):
        for a, m in [(3, 2), (2, 3), (4, 2)]:
            seqs = [s.symbols for s in enumerate_ballot(a, m)]
            assert seqs == sorted(set(seqs))
            for s in seqs:
                assert is_admissible(s, a, m)

    # every shape with a*m <= 12 whose multiset permutations number under 1e5
    @pytest.mark.parametrize(
        "a,m",
        [
            (a, m)
            for a in range(1, 7)
            for m in range(2, 13)
            if a * m <= 12 and factorial(a * m) // factorial(a) ** m < 10**5
        ],
    )
    def test_matches_brute_force(self, a, m):
        assert [s.symbols for s in enumerate_ballot(a, m)] == ballot_words_brute(
            a, m
        )

    @pytest.mark.parametrize("a,m", [(3, 2), (2, 3), (4, 3), (3, 4), (2, 6)])
    def test_words_pass_the_public_constructor(self, a, m):
        names = {f.name for f in fields(BallotSequence)}
        for w in enumerate_ballot(a, m):
            public = BallotSequence(w.symbols, a, m)
            assert w == public
            assert set(vars(w)) == names
            # and is stored as compactly as the public constructor's
            assert sys.getsizeof(vars(w)) == sys.getsizeof(vars(public))

    # m = 2..6, each shape's words built with the tail at every length
    # from 1 to n + 1, so n = k - 1, k and k + 1 among them; at m = 3 and
    # 4, and k = 10 at (4, 3), many cuts fall inside a run of the first
    # word 1^a 2^a ... m^a
    @pytest.mark.parametrize(
        "a,m", [(5, 2), (6, 2), (3, 3), (4, 3), (2, 4), (2, 5), (1, 6)]
    )
    def test_tail_blocks_match_brute_force_at_every_cut(self, monkeypatch, a, m):
        expected = ballot_words_brute(a, m)
        for tail in range(1, a * m + 2):
            monkeypatch.setattr(combinatorics, "_TAIL", tail)
            got = [s.symbols for s in enumerate_ballot(a, m)]
            assert got == expected, tail

    @pytest.mark.parametrize("a,m", [(10, 2), (6, 3), (4, 4), (3, 5)])
    def test_each_count_state_builds_its_tails_once(self, monkeypatch, a, m):
        cut = a * m - combinatorics._TAIL
        built = []

        def counted(word, counts, larger, lo, end, _original=combinatorics._step):
            stepped = _original(word, counts, larger, lo, end)
            if lo == cut and not stepped:  # the last tail of a block
                built.append(tuple(counts))
            return stepped

        monkeypatch.setattr(combinatorics, "_step", counted)
        words = [s.symbols for s in enumerate_ballot(a, m)]
        states = {tuple(sorted(w[:cut])) for w in words}
        assert len(built) == len(set(built)) == len(states) <= 42

    def test_one_long_word(self):
        # a*m = 1400: one word, a prefix of 1400 - k symbols and one block
        words = [s.symbols for s in enumerate_ballot(1, 1400)]
        assert words == [tuple(range(1, 1401))]

    def test_long_words_need_no_recursion(self):
        # a*m = 1400 is past the default recursion limit of 1000
        a = 700
        words = [w.symbols for w in islice(enumerate_ballot(a, 2), 5)]
        assert words[0] == (1,) * a + (2,) * a
        for k in range(1, 5):
            assert words[k] == (1,) * (a - 1) + (2,) * k + (1,) + (2,) * (a - k)


class TestTranspose:
    @staticmethod
    def words(a, m):
        """The (a, m) words in lex order; one symbol used a times admits
        only the word 1^a, which enumerate_ballot does not take."""
        if m == 1:
            return [(1,) * a]
        return [w.symbols for w in enumerate_ballot(a, m)]

    # every rectangle with m >= 2 rows, a columns and a*m <= 12
    @pytest.mark.parametrize(
        "a,m", [(a, m) for a in range(1, 7) for m in range(2, 13) if a * m <= 12]
    )
    def test_maps_the_words_one_to_one_onto_the_transposed_shape(self, a, m):
        words = self.words(a, m)
        images = [transpose(w) for w in words]
        assert sorted(images) == self.words(m, a)
        assert [transpose(t) for t in images] == words

    def test_swaps_the_two_a2_words(self):
        assert transpose((1, 2, 1, 2)) == (1, 1, 2, 2)
        assert transpose((1, 1, 2, 2)) == (1, 2, 1, 2)


def test_ballot_sequence_validates():
    BallotSequence((1, 2, 1, 2), 2, 2)
    with pytest.raises(ValueError):
        BallotSequence((2, 1, 1, 2), 2, 2)
    with pytest.raises(ValueError):
        BallotSequence((1, 2, 1), 2, 2)


class Symbol(enum.IntEnum):
    ONE = 1
    TWO = 2


def test_ballot_sequence_stores_the_word_it_checked():
    twin = BallotSequence((1, 2), 1, 2)
    for symbols in [iter([1, 2]), [1, 2], (True, 2), (Symbol.ONE, Symbol.TWO)]:
        word = BallotSequence(symbols, 1, 2)
        assert word.symbols == (1, 2) and type(word.symbols) is tuple
        assert all(type(s) is int for s in word.symbols)
        assert word == twin and hash(word) == hash(twin)
        assert repr(word) == repr(twin)


@pytest.mark.parametrize("symbols", [5, None, (2, 1), (1.0, 2)])
def test_ballot_sequence_refuses_with_value_error(symbols):
    with pytest.raises(ValueError, match=re.escape(f"sequence: {symbols}")):
        BallotSequence(symbols, 1, 2)


@pytest.mark.parametrize(
    "symbols,a,m",
    [
        ((1, 2), 1.0, 2),  # was accepted, keeping a = 1.0
        ((1, 2), 1, 2.0),  # was a TypeError from the count vector
        ((1, 2), True, 2),
        ((1, 2), 1, Symbol.TWO),
        ((), 0, 2),  # enumerate_ballot refuses a < 1 and m < 2
        ((), 0, 5),
        ((1,), 1, 1),
        ((), -1, 2),
    ],
)
def test_ballot_sequence_refuses_a_shape_enumerate_ballot_refuses(symbols, a, m):
    # one shape rule: the constructor, the enumeration and the count refuse
    # the same shapes with the same message, and the predicate answers False
    assert is_admissible(symbols, a, m) is False
    for refuse in (
        lambda: BallotSequence(symbols, a, m),
        lambda: next(enumerate_ballot(a, m)),
        lambda: generalized_catalan(a, m),
    ):
        with pytest.raises(ValueError, match=re.escape(f"not a={a!r}, m={m!r}")):
            refuse()


# every entry point that takes an a, each called with it at m = 2
TAKES_A = {
    "BallotSequence": lambda a: BallotSequence((1, 2), a, 2),
    "enumerate_ballot": lambda a: next(enumerate_ballot(a, 2)),
    "generalized_catalan": lambda a: generalized_catalan(a, 2),
    "ChainSpec.rho_one": ChainSpec.rho_one,
    "build_bn_curve": build_bn_curve,
    "delta_closed": delta_closed,
    "genus_closed": genus_closed,
    "BNCurveGraph": lambda a: BNCurveGraph(a, (), ()),
}


@pytest.mark.parametrize("a", [0, -1, True, 2.0], ids=repr)
@pytest.mark.parametrize("entry", TAKES_A.values(), ids=TAKES_A.keys())
def test_every_entry_point_refuses_a_bad_a_with_the_shape_rule(entry, a):
    # one rule, one message: _check_shape's, through every entry point
    message = f"a must be an int >= 1 and m an int >= 2, not a={a!r}, m=2"
    with pytest.raises(ValueError, match=re.escape(message)):
        entry(a)
    for word in ((), (1, 2), (1, 1, 2, 2)):
        assert is_admissible(word, a, 2) is False


# ints, floats, bools, None and strings, as symbols and as a and m
SCALARS = st.one_of(
    st.integers(-2, 4),
    st.sampled_from((1.0, 2.0, 0.5)),
    st.booleans(),
    st.none(),
    st.sampled_from(("1", "2", "")),
)


@given(st.one_of(st.lists(SCALARS, max_size=8), SCALARS), SCALARS, SCALARS)
def test_is_admissible_never_raises_and_agrees_with_the_constructor(symbols, a, m):
    answer = is_admissible(symbols, a, m)
    try:
        BallotSequence(symbols, a, m)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert answer is accepted


def test_ballot_sequence_copies_and_replacements_pass_the_constructor():
    word = BallotSequence([1, 1, 2, 2], 2, 2)
    for twin in (
        copy.copy(word),
        copy.deepcopy(word),
        pickle.loads(pickle.dumps(word)),
        replace(word),
    ):
        assert twin == word and vars(twin).keys() == vars(word).keys()
    assert replace(word, symbols=iter((1, 2, 1, 2))).symbols == (1, 2, 1, 2)
    with pytest.raises(ValueError, match="not an admissible"):
        replace(word, symbols=(2, 2, 1, 1))
    with pytest.raises(ValueError, match="not an admissible"):
        replace(word, m=3)


def test_only_unchecked_bypasses_the_constructors():
    # _unchecked is the one place a record is built without __post_init__
    src = Path(__file__).resolve().parents[1] / "src" / "bncurve"
    inside, outside = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "_unchecked"
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("__new__", "__setattr__")
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                hits = inside if id(node) in allowed else outside
                hits.append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert {hit.split(":")[0] for hit in inside} == {"combinatorics.py"}


def test_no_module_relies_on_assert():
    # `python -O` strips assert statements, so a check made with one would
    # vanish there; every check in the package raises explicitly
    src = Path(__file__).resolve().parents[1] / "src" / "bncurve"
    paths = sorted(src.rglob("*.py"))
    assert paths
    hits = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert hits == []
