"""Exact Catalan / generalized-Catalan arithmetic and ballot sequence enumeration.

All counts are plain Python integers, so every result is exact at any size.
A ballot sequence over the alphabet {1..m} contains each symbol exactly `a`
times and, in every prefix, a smaller symbol occurs at least as often as any
larger one.  For m = 2 these are Dyck paths.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from functools import cache


@cache
def _unchecked(cls):
    """A function that builds `cls` records from their field values alone,
    without `__post_init__`, for records the library made valid by
    construction (the public constructors validate outside input, and
    `BNComponentId`'s then builds through one).  It is generated, as
    dataclasses generates `__init__`, so a record costs only its field
    stores and keeps compact storage, unlike a `**fields` loop or a filled
    `__dict__`."""
    names = [f.name for f in fields(cls)]
    lines = [f"def build({', '.join(names)}):", "    self = new(cls)"]
    lines += [f"    setattr(self, {name!r}, {name})" for name in names]
    namespace = {"cls": cls, "new": object.__new__, "setattr": object.__setattr__}
    exec("\n".join(lines + ["    return self"]), namespace)
    return namespace["build"]


def _check_shape(a, m) -> None:
    """Raise ValueError unless `a` and `m` are plain ints (not a bool, not
    a float) with a >= 1 and m >= 2: the one shape rule of the (a, m) words."""
    if type(a) is not int or type(m) is not int or a < 1 or m < 2:
        raise ValueError(
            f"a must be an int >= 1 and m an int >= 2, not a={a!r}, m={m!r}"
        )


@dataclass(frozen=True, init=False)
class BallotSequence:
    """An admissible word: `a` copies of each symbol in 1..m, ballot-ordered.

    `__new__` first refuses a shape by :func:`_check_shape`.  It then reads
    `symbols` once, checks the word with :func:`is_admissible` and builds
    the record by :func:`_unchecked` with the word as a tuple of plain ints,
    so one built from an iterator, a list or bools equals and hashes as its
    tuple twin.  Raises ValueError, naming the input as given, for a refused
    shape or word."""

    symbols: tuple[int, ...]
    a: int
    m: int

    def __new__(cls, symbols, a, m):
        _check_shape(a, m)
        try:
            word = tuple(symbols)
        except TypeError:
            word = None  # which is_admissible refuses
        if not is_admissible(word, a, m):
            raise ValueError(f"not an admissible ({a}, {m}) sequence: {symbols}")
        return _unchecked(cls)(tuple(map(int, word)), a, m)

    def __getnewargs__(self):
        # copy and pickle rebuild a word through the validating constructor
        return self.symbols, self.a, self.m


def catalan(a: int) -> int:
    """The a-th Catalan number, (2a)! / (a! (a+1)!), for a plain int a >= 0."""
    if type(a) is not int or a < 0:
        raise ValueError(f"a must be a nonnegative int, not {a!r}")
    return math.comb(2 * a, a) // (a + 1)


def generalized_catalan(a: int, m: int) -> int:
    """Number of ballot words with `a` copies of each of m symbols.

    Closed form (a*m)! / prod_{i=0}^{m-1} (a+i)!/i!; reduces to catalan(a)
    when m = 2.  The count is symmetric in a and m (it counts the standard
    tableaux of an a-by-m rectangle), so the product runs over the shorter
    side with factors (a+i)!/i! = perm(a+i, a); the denominator divides
    (a*m)!, so the work is bounded by the size of (a*m)!.  A shorter side
    of 1 (a = 1: one copy of each symbol) admits only the word 1 2 ... m,
    so that count is 1 with no factorial at all.  Raises ValueError for a
    shape that :func:`_check_shape` refuses.
    """
    _check_shape(a, m)
    if m > a:
        a, m = m, a
    if m == 1:
        return 1
    num = math.factorial(a * m)
    den = 1
    for i in range(m):
        den *= math.perm(a + i, a)
    if num % den:
        raise ArithmeticError("generalized Catalan formula did not divide exactly")
    return num // den


def is_admissible(symbols, a: int, m: int) -> bool:
    """True iff `symbols` is a valid ballot word for (a, m).

    Requires a shape that :func:`_check_shape` admits, so the empty word is
    no word, length a*m, each symbol in 1..m occurring exactly a times, and
    in every prefix count(s) >= count(t) whenever s < t.  It is False, and
    never raises, for a refused shape, a symbol that is not an int in 1..m
    (a float, a string, None) and a `symbols` that is not iterable.

    It costs about one comparison per symbol.  The counts carry a sentinel
    counts[0] = a: the count vector stays non-increasing, so a symbol s is
    allowed iff counts[s] is still below counts[s - 1], one test that both
    caps the 1s at a and keeps the ballot order.  A word of length a*m
    whose counts never exceed a then holds each symbol exactly a times.
    """
    try:
        _check_shape(a, m)
        symbols = tuple(symbols)
        if len(symbols) != a * m or min(symbols) < 1 or max(symbols) > m:
            return False
        counts = [0] * (m + 1)
        counts[0] = a
        for s in symbols:
            if counts[s] >= counts[s - 1]:
                return False
            counts[s] += 1
    except (TypeError, ValueError):
        return False
    return True


def transpose(word) -> tuple[int, ...]:
    """The ballot word of the transposed tableau: entry k is
    word[:k+1].count(word[k]), the number of times word[k] has occurred up
    to and including position k.

    A ballot word with `a` copies of each of m symbols is the row word of a
    standard tableau of the m-by-a rectangle: word[k] is the row holding
    k + 1.  Entry k of the transpose is then the column of k + 1, so the
    map sends the (a, m) words one-to-one onto the (m, a) words and is its
    own inverse.  At a = m = 2 it swaps (1, 2, 1, 2) and (1, 1, 2, 2).
    """
    return tuple(word[: k + 1].count(s) for k, s in enumerate(word))


# the tail length of :func:`enumerate_ballot`'s blocks: at most p(10) = 42
# count states are this far from the end of a word, and 10 enumerated the
# benchmark's shapes fastest of the lengths 6..14 tried
_TAIL = 10


def _step(word: list, counts: list, larger: list, lo: int, end: int) -> bool:
    """Step word[:end] in place to the lexicographically next ballot prefix
    that differs from it only at positions >= lo, refilling word[p + 1:] in
    increasing order; False, with word[lo:end] un-counted, when there is
    none.

    `counts[s]` is the number of s in word[:end], and is again on True;
    counts[0] = a is a sentinel, so a symbol t is allowed after a prefix iff
    its count is below that of t - 1.  The step walks back from `end`,
    un-counting each symbol, until some position p can take a larger symbol
    t that word[:p] allows: t occurs there fewer times than t - 1, and so
    fewer than `a` times.  The counts of a ballot prefix do not increase
    with the symbol, so the scan for t, upward from the un-counted symbol
    s, ends at the first drop in the counts, before any symbol word[:p]
    lacks; when word[:p] lacks s itself, no t is allowed and there is no
    scan.  So a long word's last, failing step costs O(n), not O(n*m).
    The step writes the smallest such t at p and refills the rest of the
    word with the remaining symbols in increasing order.
    That refill completes every ballot prefix, since it adds each symbol
    only once all smaller ones are used `a` times, and it is the
    lex-smallest completion, since each slot gets the smallest symbol still
    unused.  So the step keeps the longest possible prefix and then the
    smallest allowed symbol, which is the lexicographic order.
    """
    p = end
    while p > lo:
        p -= 1
        s = word[p]
        counts[s] -= 1
        if not counts[s]:
            # counts do not increase with the symbol: none above s is allowed
            continue
        for t in larger[s]:
            if counts[t] < counts[t - 1]:
                break
        else:
            continue
        # the un-counted symbols, less t, in increasing order; t is among
        # them because counts[t] < a
        rest = word[p:]
        rest.remove(t)
        rest.sort()
        word[p] = t
        word[p + 1:] = rest
        for s in word[p:end]:
            counts[s] += 1
        return True
    return False


def enumerate_ballot(a: int, m: int = 2) -> Iterator[BallotSequence]:
    """Yield every admissible (a, m) sequence once, in lexicographic order.

    A word of length n = a*m is read as a prefix word[:n-k] and a tail of
    the last k = min(10, n) symbols.  Which tails complete a ballot prefix
    depends only on its count vector, and the words that share a prefix are
    contiguous in lex order and ordered by their tails.  So the walk steps
    only the prefix, by :func:`_step` with the lex-smallest tail refilled
    behind it, starting at the lex-smallest word 1^a 2^a ... m^a; and for
    each count state it meets it builds the lex-ordered block of tails once,
    by the same step confined to positions >= n-k, and keeps it in a dict
    local to the call.  Each word is then the prefix tuple plus a tail
    tuple.  The blocks are bounded independent of a and m: a state k
    symbols from the end has deficits a - count(s) that do not decrease
    with s and sum to k, a partition of k, so there are at most p(10) = 42
    of them.  The walk is lazy and uses no recursion, so a*m is not
    limited by the recursion limit.  Every word is admissible by
    construction, so it is built by :func:`_unchecked`, without the
    constructor's re-check.  Raises ValueError, on the first `next`, for a
    shape that :func:`_check_shape` refuses.
    """
    _check_shape(a, m)
    word = [s for s in range(1, m + 1) for _ in range(a)]
    n = len(word)
    cut = max(n - _TAIL, 0)
    # counts[s] is the number of s in the prefix word[:cut]
    counts = [0] * (m + 1)
    counts[0] = a
    for s in word[:cut]:
        counts[s] += 1
    larger = [range(s + 1, m + 1) for s in range(m + 1)]
    word_of = _unchecked(BallotSequence)
    blocks = {}  # count state -> its lex-ordered tails
    while True:
        state = tuple(counts)
        tails = blocks.get(state)
        if tails is None:
            # word[cut:] is the lex-smallest tail; stepping past the last
            # tail un-counts the tail again
            for s in word[cut:]:
                counts[s] += 1
            tails = [tuple(word[cut:])]
            while _step(word, counts, larger, cut, n):
                tails.append(tuple(word[cut:]))
            blocks[state] = tails
        prefix = tuple(word[:cut])
        for tail in tails:
            yield word_of(prefix + tail, a, m)
        if not _step(word, counts, larger, 0, cut):
            return
