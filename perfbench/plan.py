"""Workload definitions, seeded inputs and independent reference values.

Nothing here imports bncurve.  Expected answers are recomputed from the
definitions (Catalan numbers by ``math.comb``, ballot counts by the
hook-length product, the meet rule from the bundle offsets), so a wrong
library result cannot vouch for itself.
"""

from __future__ import annotations

import math
import random

QUERY_A = 8
QUERIES = 2000
QUERY_BATCH = 100
ENUM_SHAPES = ((10, 2), (6, 3), (4, 4), (3, 5))
SCALING_A = (6, 7, 8)  # the traced curve-large run's scaling table


# -- closed forms -------------------------------------------------------------


def catalan(a: int) -> int:
    return math.comb(2 * a, a) // (a + 1)


def nu(a: int) -> int:
    """Component count (2a+1) c_a."""
    return (2 * a + 1) * catalan(a)


def delta(a: int) -> int:
    """Node count 2((2a+1) c_a - c_{a+1})."""
    return 2 * ((2 * a + 1) * catalan(a) - catalan(a + 1))


def genus(a: int) -> int:
    """Arithmetic genus delta + 1 of a connected curve of elliptic components."""
    return delta(a) + 1


def ballot_count(a: int, m: int) -> int:
    """Ballot words with `a` copies of each of m symbols: standard Young
    tableaux of the m x a rectangle, by the hook-length formula."""
    hooks = 1
    for i in range(m):
        for j in range(a):
            hooks *= (a - j) + (m - i) - 1
    return math.factorial(a * m) // hooks


# -- the meet rule, from the definitions ---------------------------------------


def offsets(seq, marked):
    """Pinned bundle offset on each chain component, None on the marked one.

    The vanishing orders (u1, u2) start at (0, 1); the marked component raises
    both, symbol 1 pins u1 and raises u2, symbol 2 pins u2 and raises u1.
    """
    u1, u2 = 0, 1
    out = []
    symbols = iter(seq)
    for i in range(1, len(seq) + 2):
        if i == marked:
            out.append(None)
            u1, u2 = u1 + 1, u2 + 1
        elif next(symbols) == 1:
            out.append(u1)
            u2 += 1
        else:
            out.append(u2)
            u1 += 1
    return out


def label(comp) -> str:
    seq, marked = comp
    return "".join(map(str, seq)) + "|" + str(marked)


def meet(x, y):
    """The node (x_label, x_offset, y_label, y_offset) between components
    x = (sequence, marked) and y, or None.  They meet iff their offsets agree
    wherever both are pinned; each node offset is the other's pinned value at
    the free slot."""
    bx, by = offsets(*x), offsets(*y)
    if any(p is not None and q is not None and p != q for p, q in zip(bx, by)):
        return None
    if x[1] == y[1]:
        raise ValueError(f"distinct components {x} and {y} share every offset")
    if x > y:
        x, y, bx, by = y, x, by, bx
    return (label(x), by[x[1] - 1], label(y), bx[y[1] - 1])


def neighbors(x):
    """Every component meeting x, by a prefix-pruned search over sequences:
    away from the two free slots each position allows at most one symbol."""
    seq, i = x
    a = len(seq) // 2
    g = 2 * a + 1
    target = offsets(seq, i)
    found = []

    def extend(j, k, u1, u2, ones, twos, word):
        if k > g:
            if (tuple(word), j) != x:
                found.append((tuple(word), j))
            return
        if k == j:
            extend(j, k + 1, u1 + 1, u2 + 1, ones, twos, word)
            return
        for sym, u in ((1, u1), (2, u2)):
            if sym == 1 and ones == a or sym == 2 and twos == ones:
                continue
            if k != i and u != target[k - 1]:
                continue
            word.append(sym)
            if sym == 1:
                extend(j, k + 1, u1, u2 + 1, ones + 1, twos, word)
            else:
                extend(j, k + 1, u1 + 1, u2, ones, twos + 1, word)
            word.pop()

    for j in range(1, g + 1):
        if j != i:
            extend(j, 1, 0, 1, 0, 0, [])
    return found


def random_component(rng: random.Random, a: int):
    """A uniformly random (Dyck word, marked) pair, by rejection."""
    word = [1] * a + [2] * a
    while True:
        rng.shuffle(word)
        depth = 0
        for s in word:
            depth += 1 if s == 1 else -1
            if depth < 0:
                break
        else:
            return tuple(word), rng.randint(1, 2 * a + 1)


def make_queries(rng: random.Random, a: int = QUERY_A, n: int = QUERIES):
    """n intersect queries [x, y, expected]: half are nodes of the curve, half
    are random pairs, in random order."""
    queries = []
    for k in range(n):
        x = random_component(rng, a)
        if k % 2 == 0:
            y = rng.choice(neighbors(x))
        else:
            y = x
            while y == x:
                y = random_component(rng, a)
        queries.append([x, y, meet(x, y)])
    rng.shuffle(queries)
    return queries


# -- workloads ----------------------------------------------------------------


def cli_op(name, argv, check, role=None, report=None):
    """A CLI command; `report` names its median time in the printed table."""
    return {"kind": "cli", "name": name, "argv": argv, "check": check,
            "role": role, "report": report}


def _workloads():
    curve = [
        cli_op(
            "curve_a8_json",
            ["curve", "--a", "8", "--max-a", "8", "--format", "json"],
            ["curve_json", 8],
            "main",
            "curve_s",
        ),
        cli_op(
            "curve_a7_dot",
            ["curve", "--a", "7", "--max-a", "7", "--format", "dot"],
            ["curve_dot", 7],
        ),
    ]
    certify = [
        cli_op("selftest", ["selftest"], ["selftest"], "main", "selftest_s"),
        cli_op("gonality5", ["gonality5"], ["gonality5"], "items", "gonality5_s"),
    ] + [
        cli_op(f"gonality5_degree{k}", ["gonality5", "--degree", str(k)],
               ["degree", k], "items")
        for k in range(1, 7)
    ]
    tables = [
        cli_op(
            "tables_g17_csv",
            ["tables", "--g", "17", "--d", "10", "--format", "csv"],
            ["tables_csv", 17],
            "main",
            "tables_s",
        ),
        cli_op(
            "tables_g15_text",
            ["tables", "--g", "15", "--d", "9", "--format", "text"],
            ["tables_text", 15],
        ),
    ] + [
        {"kind": "enumerate", "name": f"enumerate_{a}_{m}", "a": a, "m": m,
         "role": "items"}
        for a, m in ENUM_SHAPES
    ]
    return {"curve-large": curve, "certify": certify, "tables-enum": tables}


WORKLOADS = _workloads()
# what the items of each workload's `items_per_s` are
ITEMS = {
    "curve-large": "intersect_per_s",
    "certify": "gonality5_ops_per_s",
    "tables-enum": "enumerate_words_per_s",
}


def make_plan(workload: str, seed: int) -> dict:
    """Everything a worker needs for one run; the same seed gives the same
    plan.  The seed draws the intersect queries and the op order of every
    pass (the worker shuffles with `order_seed`)."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [dict(op) for op in WORKLOADS[workload]]
    if workload == "curve-large":
        queries = make_queries(rng)
        for start in range(0, len(queries), QUERY_BATCH):
            ops.append({
                "kind": "intersect",
                "name": "intersect",
                "a": QUERY_A,
                "queries": queries[start:start + QUERY_BATCH],
                "role": "items",
            })
    return {
        "workload": workload,
        "ops": ops,
        "order_seed": rng.getrandbits(64),
        "scaling": workload == "curve-large",
    }
