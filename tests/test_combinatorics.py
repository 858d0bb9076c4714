import pytest
from hypothesis import given, strategies as st

from bncurve.combinatorics import (
    BallotSequence,
    catalan,
    enumerate_ballot,
    generalized_catalan,
    is_admissible,
)


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

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generalized_catalan(0, 2)
        with pytest.raises(ValueError):
            generalized_catalan(2, 1)


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
        a, m = 3, 3
        counts = [0] * (m + 1)
        ok = len(word) == a * m
        for s in word:
            counts[s] += 1
        ok = ok and all(counts[s] == a for s in range(1, m + 1))
        counts = [0] * (m + 1)
        for s in word:
            counts[s] += 1
            for t in range(2, m + 1):
                if counts[t] > counts[t - 1]:
                    ok = False
        assert is_admissible(word, a, m) == ok


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

    def test_matches_brute_force(self):
        assert [s.symbols for s in enumerate_ballot(2, 3)] == ballot_words_brute(
            2, 3
        )


def test_ballot_sequence_validates():
    BallotSequence((1, 2, 1, 2), 2, 2)
    with pytest.raises(ValueError):
        BallotSequence((2, 1, 1, 2), 2, 2)
