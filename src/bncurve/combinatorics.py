"""Exact Catalan / generalized-Catalan arithmetic and ballot sequence enumeration.

All counts are plain Python integers, so every result is exact at any size.
A ballot sequence over the alphabet {1..m} contains each symbol exactly `a`
times and, in every prefix, a smaller symbol occurs at least as often as any
larger one.  For m = 2 these are Dyck paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import Iterator


@cache
def _unchecked(cls, *extra):
    """A function that builds `cls` records from their field values, then the
    `extra` ones (cached_property values, such as an id's `label`), without
    `__post_init__`: only for records the library made valid by construction;
    the public constructors still validate outside input.  It is generated,
    as dataclasses generates `__init__`, so a record costs only its field
    stores and keeps compact storage, unlike a `**fields` loop or a filled
    `__dict__`."""
    names = [f.name for f in fields(cls)] + list(extra)
    lines = [f"def build({', '.join(names)}):", "    self = new(cls)"]
    lines += [f"    setattr(self, {name!r}, {name})" for name in names]
    namespace = {"cls": cls, "new": object.__new__, "setattr": object.__setattr__}
    exec("\n".join(lines + ["    return self"]), namespace)
    return namespace["build"]


@dataclass(frozen=True)
class BallotSequence:
    """An admissible word: `a` copies of each symbol in 1..m, ballot-ordered."""

    symbols: tuple[int, ...]
    a: int
    m: int

    def __post_init__(self):
        if not is_admissible(self.symbols, self.a, self.m):
            raise ValueError(
                f"not an admissible ({self.a}, {self.m}) sequence: {self.symbols}"
            )


def catalan(a: int) -> int:
    """The a-th Catalan number, (2a)! / (a! (a+1)!)."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    return math.comb(2 * a, a) // (a + 1)


def generalized_catalan(a: int, m: int) -> int:
    """Number of ballot words with `a` copies of each of m symbols.

    Closed form (a*m)! / prod_{i=0}^{m-1} (a+i)!/i!; reduces to catalan(a)
    when m = 2.  The count is symmetric in a and m (it counts the standard
    tableaux of an a-by-m rectangle), so the product runs over the shorter
    side with factors (a+i)!/i! = perm(a+i, a); the denominator divides
    (a*m)!, so the work is bounded by the size of (a*m)!.  A shorter side
    of 1 (a = 1: one copy of each symbol) admits only the word 1 2 ... m,
    so that count is 1 with no factorial at all.
    """
    if a < 1:
        raise ValueError("a must be positive")
    if m < 2:
        raise ValueError("m must be at least 2")
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

    Requires length a*m, each symbol in 1..m occurring exactly a times, and
    in every prefix count(s) >= count(t) whenever s < t.  A symbol that is
    not an int in 1..m (a float, a string, None) makes it False, never
    True, and so does a `symbols` that is not iterable (None, an int).

    Both cases cost about one comparison per symbol.  For m = 2 the prefix
    condition is a running depth, count(1) - count(2), that never goes
    negative and ends at 0; the word is read as `bytes`, which admits only
    ints in 0..255, so the conversion is also the type check.  For any
    other m the counts carry a sentinel counts[0] = a: the count vector
    stays non-increasing, so a symbol s is allowed iff counts[s] is still
    below counts[s - 1], one test that both caps the 1s at a and keeps the
    ballot order.  A word of length a*m whose counts never exceed a then
    holds each symbol exactly a times.
    """
    try:
        symbols = tuple(symbols)
    except TypeError:
        return False
    if len(symbols) != a * m:
        return False
    if m == 2:
        try:
            word = bytes(symbols)
        except (TypeError, ValueError):
            return False
        depth = 0
        for s in word:
            if s == 1:
                depth += 1
            elif s == 2 and depth:
                depth -= 1
            else:
                return False
        return not depth
    if not symbols:
        return True
    counts = [0] * (m + 1)
    counts[0] = a
    try:
        if min(symbols) < 1 or max(symbols) > m:
            return False
        for s in symbols:
            if counts[s] >= counts[s - 1]:
                return False
            counts[s] += 1
    except TypeError:
        return False
    return True


def enumerate_ballot(a: int, m: int = 2) -> Iterator[BallotSequence]:
    """Yield every admissible (a, m) sequence once, in lexicographic order.

    The walk starts at the lex-smallest word 1^a 2^a ... m^a and steps each
    word in place to its lexicographic successor.  To step, it walks back
    from the end, un-counting each symbol, until some position p can take a
    larger symbol t that the prefix before p allows: t occurs there fewer
    times than t-1, and so fewer than `a` times.  It writes the smallest
    such t at p and refills the rest with the remaining symbols in increasing
    order.  That refill completes every ballot prefix, since it adds each
    symbol only once all smaller ones are used `a` times, and it is the
    lex-smallest completion, since each slot gets the smallest symbol still
    unused.  So the successor keeps the longest possible prefix and then the
    smallest allowed symbol, which is the lexicographic order.  The walk
    uses no recursion, so a*m is not limited by the recursion limit.  Every
    word is admissible by construction, so it is built by :func:`_unchecked`,
    without the constructor's re-check.
    """
    if a < 1:
        raise ValueError("a must be positive")
    if m < 2:
        raise ValueError("m must be at least 2")
    word = [s for s in range(1, m + 1) for _ in range(a)]
    n = len(word)
    # counts[s] is the number of s before the walk's position
    counts = [a] * (m + 1)
    full = counts[1:]
    larger = [range(s + 1, m + 1) for s in range(m + 1)]
    word_of = _unchecked(BallotSequence)
    while True:
        yield word_of(symbols=tuple(word), a=a, m=m)
        p = n
        while p:
            p -= 1
            s = word[p]
            counts[s] -= 1
            for t in larger[s]:
                if counts[t] < counts[t - 1]:
                    break
            else:
                continue
            # the un-counted symbols, less t, in increasing order; t is
            # among them because counts[t] < a
            tail = word[p:]
            tail.remove(t)
            tail.sort()
            word[p] = t
            word[p + 1:] = tail
            counts[1:] = full
            break
        else:
            return
