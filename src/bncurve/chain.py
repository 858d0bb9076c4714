"""Limit linear series of rank 1 on a chain of elliptic curves.

A chain of g elliptic components is glued Q_i ~ P_{i+1} at generic points.
A rank-1 limit series of degree d is pinned down, on all components but one,
to a line bundle of the shape O(u P + (d-u) Q); the remaining component
carries an arbitrary degree-d bundle.  Which bundle appears on each fixed
component is driven by a ballot sequence of 1s and 2s via the vanishing-order
propagation implemented in :func:`propagate`.

Since the glue points are generic, O(uP + (d-u)Q) == O(u'P + (d-u')Q) iff
u == u', so a single integer offset identifies each fixed bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .combinatorics import catalan, enumerate_ballot, generalized_catalan, is_admissible


class UnsupportedShapeError(ValueError):
    """Raised when (g, r, d) falls outside the modeled parameter shapes."""


@dataclass(frozen=True)
class ChainSpec:
    """Chain of g elliptic components carrying degree-d series of rank r."""

    g: int
    d: int
    r: int = 1

    def __post_init__(self):
        if self.g < 2:
            raise ValueError("need at least 2 components")
        if self.d < 1:
            raise ValueError("degree must be positive")

    @property
    def a(self) -> int:
        """The parameter a for the rho = 1 shape g = 2a+1, d = a+2."""
        if self.r != 1 or self.g % 2 == 0 or self.d != (self.g - 1) // 2 + 2:
            raise UnsupportedShapeError(f"not a rho=1 chain: {self}")
        return (self.g - 1) // 2

    @classmethod
    def rho_one(cls, a: int) -> "ChainSpec":
        if a < 1:
            raise ValueError("a must be positive")
        return cls(g=2 * a + 1, d=a + 2, r=1)


@dataclass(frozen=True)
class BNComponentId:
    """One component of the Brill-Noether curve: a ballot sequence of 1s and
    2s attached to the non-marked chain components, plus the marked component
    whose bundle varies freely."""

    sequence: tuple[int, ...]
    marked: int

    def __post_init__(self):
        n = len(self.sequence)
        if n % 2 or not is_admissible(self.sequence, n // 2, 2):
            raise ValueError(f"sequence {self.sequence} is not admissible")
        if not 1 <= self.marked <= n + 1:
            raise ValueError(f"marked index {self.marked} out of range")

    @cached_property
    def label(self) -> str:
        return "".join(map(str, self.sequence)) + "|" + str(self.marked)

    def sort_key(self):
        return (self.sequence, self.marked)


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(g-d+r)."""
    if g < 0 or d < 0 or r < 1:
        raise ValueError("need g, d >= 0 and r >= 1")
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


def propagate(chain: ChainSpec, comp: BNComponentId):
    """Walk the chain and resolve the bundle on every component.

    Returns (vanishing, offsets), both of length g.  vanishing[i] is the pair
    (u1, u2) of vanishing orders at the entry node of component i+1;
    offsets[i] is the u of its bundle O(uP + (d-u)Q), or None on the marked
    component, whose bundle is free.

    The walk starts from (u1, u2) = (0, 1).  On the marked component both
    orders step up by one.  On any other component the next sequence symbol
    picks the offset u_sym and the *other* vanishing order steps up by one.
    Raises ValueError if an entry pair leaves u1 < u2 <= d or an exit pair
    leaves u1 < u2 <= d + 1.
    """
    chain.a  # validates the rho=1 shape
    if len(comp.sequence) != chain.g - 1:
        raise ValueError(
            f"sequence length {len(comp.sequence)} != g-1 = {chain.g - 1}"
        )
    d = chain.d
    u1, u2 = 0, 1
    vanishing: list[tuple[int, int]] = []
    offsets: list[int | None] = []
    pos = 0
    for i in range(1, chain.g + 1):
        if not u1 < u2 <= d:
            raise ValueError(f"entry vanishing orders out of range at component {i}")
        vanishing.append((u1, u2))
        if i == comp.marked:
            offsets.append(None)
            u1, u2 = u1 + 1, u2 + 1
        else:
            sym = comp.sequence[pos]
            pos += 1
            if sym == 1:
                offsets.append(u1)
                u2 += 1
            else:
                offsets.append(u2)
                u1 += 1
        if not (u1 < u2 <= d + 1):
            raise ValueError(f"vanishing orders left range at component {i}")
    if pos != len(comp.sequence):
        raise ValueError("sequence not fully consumed")
    return vanishing, offsets


def all_components(chain: ChainSpec) -> list[BNComponentId]:
    """Every component id for the chain, ordered (sequence lex, marked)."""
    a = chain.a
    return [
        BNComponentId(seq.symbols, marked)
        for seq in enumerate_ballot(a, 2)
        for marked in range(1, chain.g + 1)
    ]


def component_tables(chain: ChainSpec) -> dict[BNComponentId, tuple[int | None, ...]]:
    """Offset tuple (None on the marked slot) for every component, keyed in
    deterministic order."""
    return {comp: tuple(propagate(chain, comp)[1]) for comp in all_components(chain)}


def render_tables(chain: ChainSpec, fmt: str = "text") -> str:
    """Render the component tables, one row per chain component and one
    column per component, each cell the :func:`bundle_name` of its offset.

    fmt "csv" emits comma-separated values; "text" emits aligned columns.
    """
    tables = component_tables(chain)
    names = {u: bundle_name(u, chain.d) for u in (None, *range(chain.d + 1))}
    headers = ["C_i"] + [comp.label for comp in tables]
    rows = [
        [str(i)] + [names[u] for u in row]
        for i, row in enumerate(zip(*tables.values()), start=1)
    ]
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [headers] + rows) + "\n"
    if fmt == "text":
        widths = [max(len(r[j]) for r in [headers] + rows) for j in range(len(headers))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [headers] + rows
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format: {fmt!r}")


def bn_bound_check(chain: ChainSpec, offsets) -> tuple[int, int, bool]:
    """Check the existence bound sum(eps_i) <= 2d - g - 2.

    eps_i is 0 on components carrying a pinned O(uP + (d-u)Q) bundle and 1
    on free ones, whose offset is None.  Returns (epsilon_sum, bound, ok).
    """
    epsilon_sum = sum(u is None for u in offsets)
    bound = 2 * chain.d - chain.g - 2
    return epsilon_sum, bound, epsilon_sum <= bound


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


def limit_series_census(g: int, r: int, d: int) -> Census:
    """Classify W^r_d on a chain of g elliptic curves, for supported shapes.

    Supported: rho < 0 (empty); rho = 0 with g = a(r+1), d = r(a+1) (finite,
    counted by the generalized Catalan number); rho = 1 with r = 1, g = 2a+1,
    d = a+2 (a curve with (2a+1) * catalan(a) components).
    """
    p = rho(g, r, d)
    if p < 0:
        return Census("empty")
    if p == 0:
        if g % (r + 1) == 0:
            a = g // (r + 1)
            if a >= 1 and d == r * (a + 1):
                return Census("finite", generalized_catalan(a, r + 1))
        raise UnsupportedShapeError(
            f"rho=0 shape (g={g}, r={r}, d={d}) is out of modeled range"
        )
    if p == 1 and r == 1 and g % 2 == 1 and g >= 3:
        a = (g - 1) // 2
        if d == a + 2:
            return Census("curve", (2 * a + 1) * catalan(a))
    raise UnsupportedShapeError(
        f"(g={g}, r={r}, d={d}) with rho={p} is out of modeled range"
    )
