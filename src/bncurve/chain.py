"""Limit linear series of rank 1 on a chain of elliptic curves.

A chain of g elliptic components is glued Q_i ~ P_{i+1} at generic points.
A rank-1 limit series of degree d is pinned down, on all components but one,
to a line bundle of the shape O(u P + (d-u) Q); the remaining component
carries an arbitrary degree-d bundle.  Which bundle appears on each fixed
component is driven by a ballot sequence of 1s and 2s via the vanishing-order
propagation implemented in :func:`propagate`.

Since the glue points are generic, O(uP + (d-u)Q) == O(u'P + (d-u')Q) iff
u == u', so a single integer offset identifies each fixed bundle.

The per-component bundle tables have one builder, :func:`render_tables`,
which checks its format, the rho = 1 shape and its cell budget before any
work and writes each table cell straight from one walk per ballot word.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from .combinatorics import (
    _check_shape,
    _unchecked,
    catalan,
    enumerate_ballot,
    generalized_catalan,
)


class UnsupportedShapeError(ValueError):
    """Raised when (g, r, d) falls outside the modeled parameter shapes."""


@dataclass(frozen=True)
class ChainSpec:
    """Chain of g elliptic components carrying degree-d series of rank 1."""

    g: int
    d: int

    def __post_init__(self):
        g, d = self.g, self.d
        if type(g) is not int or type(d) is not int or g < 2 or d < 1:
            raise ValueError(f"need ints g >= 2 and d >= 1, not g={g!r}, d={d!r}")

    @cached_property
    def a(self) -> int:
        """The parameter a = d - 2 of a rho = 1 chain, where g = 2a+1.

        Checked once per chain; an unsupported shape raises on every access,
        since a raised exception is not cached."""
        if rho(self.g, 1, self.d) != 1:
            raise UnsupportedShapeError(f"not a rho=1 chain: {self}")
        return self.d - 2

    @classmethod
    def rho_one(cls, a: int) -> "ChainSpec":
        _check_shape(a, 2)  # refuses an a that is not a plain int >= 1
        return cls(g=2 * a + 1, d=a + 2)


@dataclass(frozen=True, init=False)
class BNComponentId:
    """One component of the Brill-Noether curve: a ballot sequence of 1s and
    2s attached to the non-marked chain components, plus the marked component
    whose bundle varies freely.  The sequence is stored as a tuple of plain
    ints, so an id built from a list, or from bools, hashes, compares,
    labels and exports like its tuple-of-ints twin.  Raises ValueError for a
    sequence that :func:`is_admissible` refuses at m = 2 (symbols that are
    not the ints 1 and 2, or no iterable at all, included) and for a marked
    index that is not an int (a bool or a float) or lies outside
    1..len(sequence) + 1.  A marked index of an int subclass is stored as
    its plain int, as the symbols are.

    The constructor validates in one pass over the word: it takes `bytes`
    of it once, which admits only ints in 0..255 and so is the exact type
    check, and runs the m = 2 depth count :func:`_is_dyck` on those bytes,
    which costs less than half of what the general :func:`is_admissible`
    costs per word.  It is `__new__`, so the record, once valid, is
    built by :func:`_unchecked` with each field stored once and the
    symbols read back from the bytes."""

    sequence: tuple[int, ...]
    marked: int

    def __new__(cls, sequence, marked):
        try:
            if type(sequence) is not tuple:
                sequence = tuple(sequence)
            word = bytes(sequence)
        except (TypeError, ValueError):
            word = b""  # which _is_dyck refuses
        if not _is_dyck(word):
            raise ValueError(f"sequence {sequence} is not admissible")
        if type(marked) is bool or not isinstance(marked, int):
            raise ValueError(f"marked index {marked!r} is not an int")
        if not 1 <= marked <= len(word) + 1:
            raise ValueError(f"marked index {marked} out of range")
        if type(marked) is not int:
            marked = int(marked)  # an int subclass, such as an IntEnum
        return _component(tuple(word), marked)

    def __getnewargs__(self):
        # copy and pickle rebuild an id through the validating constructor
        return self.sequence, self.marked

    @cached_property
    def label(self) -> str:
        return _digits(self.sequence) + "|" + str(self.marked)

    def sort_key(self):
        return (self.sequence, self.marked)


# builds ids from a validated word and marked index
_component = _unchecked(BNComponentId)

_DIGITS = bytes.maketrans(b"\x01\x02", b"12")


def _digits(word) -> str:
    """The digits of an m = 2 word, a tuple of 1s and 2s or its bytes, by
    one C-level translate: every label, table header and JSON sequence is
    spelled here.  It is for m = 2 only: a symbol of 3 or more would pass
    through untranslated, and the library never spells such a word."""
    return bytes(word).translate(_DIGITS).decode()


def _is_dyck(word: bytes) -> bool:
    """True iff `word` is a ballot word for m = 2, as :func:`is_admissible`
    decides it: it is not empty, its running depth, count(1) - count(2),
    never goes negative and ends at 0, and it holds no byte but 1 and 2."""
    depth = 0
    for s in word:
        if s == 1:
            depth += 1
        elif s == 2 and depth:
            depth -= 1
        else:
            return False
    return not depth and word != b""


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r), for plain ints g, d >= 0, r >= 1."""
    if {type(g), type(r), type(d)} != {int} or g < 0 or d < 0 or r < 1:
        raise ValueError(f"need ints g, d >= 0 and r >= 1, not {g!r}, {r!r}, {d!r}")
    return g - (r + 1) * (g - d + r)


def bundle_name(u: int | None, d: int) -> str:
    """Conventional name of the bundle O(uP + (d-u)Q) on a degree-d chain:
    "aP+bQ" with zero terms dropped and, in a sum, unit coefficients too;
    "L" for the free bundle (u None).  Raises ValueError unless 0 <= u <= d."""
    if u is None:
        return "L"
    if not 0 <= u <= d:
        raise ValueError(f"offset {u} out of range for degree {d}")
    p, q = u, d - u
    if p == 0:
        return f"{q}Q"
    if q == 0:
        return f"{p}P"
    pp = "P" if p == 1 else f"{p}P"
    qq = "Q" if q == 1 else f"{q}Q"
    return f"{pp}+{qq}"


def propagate(chain: ChainSpec, comp: BNComponentId) -> tuple[int | None, ...]:
    """Walk the chain and resolve the bundle on every component.

    Returns a g-tuple whose entry i is the u of the bundle O(uP + (d-u)Q) on
    component i+1, or None on the marked component, whose bundle is free.

    The walk carries the vanishing orders (u1, u2) at the entry node of each
    component, starting from (0, 1).  On the marked component both orders
    step up by one.  On any other component the next sequence symbol picks
    the offset u_sym and the *other* order steps up by one.  So, entering
    component i, u1 = #(earlier slots not reading 1) and
    u2 = 1 + #(earlier slots not reading 2).

    For a ballot word of length g - 1 = 2a the orders need no range check:
    u2 - u1 = 1 + #1s - #2s >= 1 at every step, since no prefix holds more
    2s than 1s, and u2 <= 1 + a + 1 = d, since the word holds a 1s and only
    the marked slot adds to both.  The g - 1 unmarked slots read exactly
    the g - 1 symbols.

    The offsets come from one walk per word, the shift identity: with walk
    the offsets of (s, g) less its final None and shifted each of them plus
    one (:func:`_walk`), the offsets of (s, i) are walk[:i-1], then None,
    then shifted[i-1:].  Proof: marking slot i leaves the walk before slot i
    alone.  After it, (s, i) reads the rest of s one slot later than (s, g)
    does, from a state whose two vanishing orders the marked step raised by
    one each, so each later offset is the one (s, g) had a slot earlier,
    plus one.  `_walk` keeps the last word it walked, so the g components
    of a word, asked for in a row, cost one walk.

    Raises ValueError for a chain that is not of the rho = 1 shape or a
    sequence whose length is not g - 1.
    """
    chain.a  # validates the rho=1 shape
    if len(comp.sequence) != chain.g - 1:
        raise ValueError(
            f"sequence length {len(comp.sequence)} != g-1 = {chain.g - 1}"
        )
    walk, shifted = _walk(comp.sequence)
    i = comp.marked - 1
    return walk[:i] + (None,) + shifted[i:]


@lru_cache(maxsize=1)
def _walk(sequence: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(walk, shifted) for a word s: walk is the offsets of (s, g) less its
    final None, the offset each symbol picks from the entry orders (u1, u2),
    and shifted is each of them plus one, appended in the same pass."""
    u1, u2 = 0, 1
    walk, shifted = [], []
    for symbol in sequence:
        if symbol == 1:
            walk.append(u1)
            shifted.append(u1 + 1)
            u2 += 1
        else:
            walk.append(u2)
            shifted.append(u2 + 1)
            u1 += 1
    return tuple(walk), tuple(shifted)


def _slot_offset(sequence: tuple[int, ...], k: int) -> int:
    """Entry k of the walk of `sequence`, the offset of (s, g) at slot k + 1,
    counted instead of walked: the entry orders are u1 = #2s and
    u2 = 1 + #1s in sequence[:k] (:func:`propagate`, with no marked slot
    before it), and the symbol sequence[k] picks u1 if it is 1, else u2."""
    if sequence[k] == 1:
        return sequence[:k].count(2)
    return 1 + sequence[:k].count(1)


def all_components(chain: ChainSpec) -> list[BNComponentId]:
    """Every component id for the chain, ordered (sequence lex, marked).

    Every word comes from `enumerate_ballot` and every marked index lies in
    1..g, so each id is built by `_component`, where the public constructor
    ends, with no re-check and no label, which is made on its first read."""
    marks, words = range(1, chain.g + 1), enumerate_ballot(chain.a, 2)
    return [_component(word.symbols, i) for word in words for i in marks]


TABLE_CELL_BUDGET = 10**7
# the largest a that build_bn_curve and the `curve` command build unless
# given max_a; defined here so that the CLI's parser reads it without
# loading bncurve.curve
DEFAULT_MAX_A = 6


def _lay_out(template: tuple, n: int, *columns) -> list[str]:
    """n copies of the template's pieces, one after another, with its None
    slots filled, in order, from the columns, each of n pieces.  Each column
    goes into place by one slice assignment, so no record is built as a
    string: the joined text is the only copy of its pieces."""
    width = len(template)
    pieces = list(template) * n
    holes = [k for k, piece in enumerate(template) if piece is None]
    for k, column in zip(holes, columns):
        pieces[k::width] = column
    return pieces


def render_tables(chain: ChainSpec, fmt: str = "text") -> str:
    """Render the component tables, one row per chain component and one
    column per component, each cell the :func:`bundle_name` of its offset.

    fmt "csv" emits comma-separated values; "text" emits aligned columns.
    Before any work it raises ValueError for any other fmt, for a chain not
    of the rho = 1 shape, and for tables that would hold more than
    TABLE_CELL_BUDGET cells: nu * g = g^2 * catalan(a), so g <= 21 fits and
    g >= 23 does not.

    The layout is written once, as :func:`_table_pieces`, which returns the
    text's piece list, and the text is its one join.  The list holds
    references to runs of cells made once per line and name, so no line
    and no cell is built as a string and the join makes the only copy of
    the text.
    """
    return "".join(_table_pieces(chain, fmt))


def _table_pieces(chain: ChainSpec, fmt: str) -> list[str]:
    """The pieces of :func:`render_tables`'s text, in order, made after
    the checks that :func:`render_tables` documents.

    The columns come from one :func:`_walk` per ballot word s, in lex
    order: with walk the offsets of (s, g) less its final None, the offsets
    of (s, i) are walk[:i-1], then None, then each of walk[i-1:] plus one
    (the shift identity of :func:`propagate`).  Read across the g
    components instead, chain component r carries walk[r-2] + 1 on each
    (s, i) with i < r, None on (s, r) and walk[r-1] on each i > r.  So each
    line is laid out straight from the walks, with no table and no
    component record: in line r the g cells of a word are r - 1 copies of
    one name, "L", then g - r copies of another, three pieces taken from
    runs made once per line and name, the + 1 read as an index into lead[1:].
    """
    if fmt not in ("csv", "text"):
        raise ValueError(f"unknown table format: {fmt!r}")
    g, a = chain.g, chain.a  # chain.a validates the rho=1 shape
    # g^2 c_k up to k = a, where it is nu * g; the range is lazy, so a huge
    # a stops at the first k over budget
    if any(g * g * catalan(k) > TABLE_CELL_BUDGET for k in range(1, a + 1)):
        raise ValueError(f"tables for g={g} exceed {TABLE_CELL_BUDGET} cells")
    names = [bundle_name(u, chain.d) for u in range(chain.d + 1)]
    marks = ["|" + str(i) for i in range(1, g + 1)]
    digits, walks = [], []
    for seq in enumerate_ballot(a, 2):
        digits.append(_digits(seq.symbols))
        walks.append(_walk(seq.symbols)[0])
    walk_slots = list(zip(*walks))  # slot k of every word's walk, in word order
    if fmt == "csv":
        sep, first, widths = ",", 0, [0] * g
    else:
        # A name has at most d + 1 = a + 3 characters: in a sum each
        # coefficient c >= 2 takes fewer than c digits and a unit one none,
        # and a lone term has at most d.  A label, 2a digits, "|" and i, has
        # at least 2a + 2.  So column (s, i) is as wide as its label,
        # g + len(str(i)), for every s.
        sep, first = "  ", max(len("C_i"), len(str(g)))
        widths = [g + len(mark) - 1 for mark in marks]
    pieces = ["C_i".rjust(first)]
    # the header cells of a word, each of its g labels after a separator
    pieces += [sep + text + (sep + text).join(marks) for text in digits]
    for r in range(1, g + 1):
        # line r reads walk[r-2] + 1 under (s, 1..r-1) and walk[r-1], which
        # is walk[r-g], under (s, r+1..g); at r = 1 and r = g the index
        # wraps round to an entry that is written zero times
        lead = [
            sep + "".join(name.rjust(w) + sep for w in widths[: r - 1])
            for name in names
        ]
        trail = ["".join(sep + name.rjust(w) for w in widths[r:]) for name in names]
        pieces.append("\n" + str(r).rjust(first))
        pieces += _lay_out(
            (None, "L".rjust(widths[r - 1]), None),
            len(digits),
            map(lead[1:].__getitem__, walk_slots[r - 2]),
            map(trail.__getitem__, walk_slots[r - g]),
        )
    pieces.append("\n")
    return pieces


def exhaustive_bound_search(g: int, r: int, d: int) -> list[tuple]:
    """Configuration classes passing the existence bound sum(eps) <= rho.

    A configuration assigns each of the g chain components either one of the
    r+1 pinned-bundle presentations or a free bundle; its epsilon sum is the
    number of free components, independent of which presentations are picked.
    Configurations are therefore enumerated by their free-component subset,
    each class standing for (r+1)^(g-k) symbol assignments.  Returns the
    passing classes as (free_positions, class_size) pairs, by subset size and
    then lexicographically.  Only the subsets of size <= rho are built, so
    the result is empty, at no cost, whenever rho < 0.
    """
    bound = min(rho(g, r, d), g)
    return [
        (positions, (r + 1) ** (g - k))
        for k in range(bound + 1)
        for positions in combinations(range(1, g + 1), k)
    ]


@dataclass(frozen=True)
class Census:
    """Shape of the limit-series locus: empty, a finite count, or a curve
    with `count` irreducible components."""

    kind: str  # "empty" | "finite" | "curve"
    count: int = 0


def _refuse_unprintable(a: int, m: int, times: int = 1) -> None:
    """Raise ValueError when times * generalized_catalan(a, m) is clearly,
    by a digit's margin, too long for `str` under the interpreter's
    int-to-str limit (`sys.get_int_max_str_digits()`, 0 for none).  Counts
    near the limit are left to be computed exactly, and a < 1 refuses
    nothing.

    log10 of the count is estimated with math.lgamma.  The count is
    symmetric in a and m (it counts the standard tableaux of an a-by-m
    rectangle), so the sum runs over the shorter side.  Both sides are
    capped at 10**4, so no input costs more than 10**4 lgamma calls; the
    count never shrinks as a side grows, so past the cap the estimate is a
    lower bound.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or a < 1:
        return
    a, m = min(a, 10**4), min(m, 10**4)
    if m > a:
        a, m = m, a
    ln = math.lgamma(a * m + 1) + sum(
        math.lgamma(i + 1) - math.lgamma(a + i + 1) for i in range(m)
    )
    log10_count = math.log10(times) + ln / math.log(10)
    if log10_count > limit + 1:
        raise ValueError(
            f"the count has at least {int(log10_count)} digits, more than "
            f"the {limit} that can be printed"
        )


def limit_series_census(g: int, r: int, d: int) -> Census:
    """Classify W^r_d on a chain of g elliptic curves, for supported shapes.

    With a = g - d + r, so rho = g - (r+1)a: rho < 0 is empty; rho = 0 with
    a >= 1 forces g = a(r+1), d = r(a+1) (finite, counted by the generalized
    Catalan number); rho = 1 with r = 1, a >= 1 forces g = 2a+1, d = a+2 (a
    curve with (2a+1) * catalan(a) components).  Raises ValueError, before
    computing it, when a count has clearly more digits than the interpreter
    lets `str` print.
    """
    p = rho(g, r, d)
    if p < 0:
        return Census("empty")
    a = g - d + r
    if p == 0:
        if a >= 1:
            _refuse_unprintable(a, r + 1)
            return Census("finite", generalized_catalan(a, r + 1))
        raise UnsupportedShapeError(
            f"rho=0 shape (g={g}, r={r}, d={d}) is out of modeled range"
        )
    if p == 1 and r == 1 and a >= 1:
        _refuse_unprintable(a, 2, times=2 * a + 1)
        return Census("curve", (2 * a + 1) * catalan(a))
    raise UnsupportedShapeError(
        f"(g={g}, r={r}, d={d}) with rho={p} is out of modeled range"
    )
