"""Gonality of the genus-11 Brill-Noether curve of a genus-5 chain.

The a = 2 curve has ten elliptic components: a six-component circuit
(C'2, C'3, C'4, C''2, C''3, C''4) with four elliptic tails (C'1, C'5, C''1,
C''5) hanging off the 3-valent circuit members.  All of this is read from the
a = 2 curve graph: the tails are its valence-1 components, the circuit is the
rest, and the role points and the 2X = Y + Z relation come from the bundle
offsets of component_profile.  CIRCUIT_ORDER is the one convention kept by
hand (where the cycle starts and which way it runs, hence the node names
n1..n6), and it is checked against the graph; the cover builders and the
exclusion traces derive every table they use from the circuit.

Divisor-class identities on the components are decided by a symbolic
genericity oracle: each circuit component gets symbols x, w, its two circuit
node points have classes Y = x + w and Z = x - w, the tail attachment point X
has class x, and free points get fresh symbols.  The only relation ever
imposed is 2X = Y + Z, which is exactly what holds on the actual curve; every
other class equality fails, as it does for generic glue points.  This is the
space of Y = y, Z = z, X = (y+z)/2 in the basis x = (y+z)/2, w = (y-z)/2, so
it decides every equivalence the same way, with integer classes only.

On top of the oracle we run the degree <= 5 exclusion case analysis,
machine-checking each genericity step, and build two covers of the curve that
one verifier, verify_cover, checks: the degree-6 admissible cover of a
rational tree, and the unramified double cover of the genus-6 quotient by the
sheet swap C'i <-> C''i, computed from the graph.  The builders give only
where each source component goes and the source nodes with the target node
each lies over; _cover derives the target curve and every fiber from them.
Every ramification count, in _cover and in the verifier, comes from one
Riemann-Hurwitz rule, and the genus and tree checks use curve.py's
arithmetic_genus and edges_connect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .chain import BNComponentId
from .combinatorics import transpose
from .curve import BNCurveGraph, arithmetic_genus, build_bn_curve
from .curve import component_profile, edges_connect

# the circuit in cycle order: D_k = CIRCUIT_ORDER[k-1], node n_k joins D_k and
# D_{k+1}.  Which components form the circuit is read from the a = 2 graph;
# this tuple only fixes the start and direction of the cycle.
CIRCUIT_ORDER = ("C'2", "C'3", "C'4", "C''2", "C''3", "C''4")

SEQ_PRIME = (1, 2, 1, 2)
SEQ_DOUBLE_PRIME = (1, 1, 2, 2)


def component_name(comp: BNComponentId) -> str:
    """Conventional name C'i / C''i for an a = 2 component."""
    if comp.sequence == SEQ_PRIME:
        return f"C'{comp.marked}"
    if comp.sequence == SEQ_DOUBLE_PRIME:
        return f"C''{comp.marked}"
    raise ValueError(f"not an a=2 component: {comp}")


@dataclass(frozen=True)
class Point:
    """A marked point on one component with an integer class vector.

    The vector omits the implicit degree coordinate; two points share a class
    iff their vectors agree (glue points are generic, so distinct symbols are
    independent).  The coefficients are ints: in the x, w basis of the
    module docstring every class the oracle forms is integral.
    """

    name: str
    component: str
    vector: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, name: str, component: str, **coeffs) -> "Point":
        """ValueError for a coefficient that is not an int (a bool too)."""
        for sym, c in coeffs.items():
            if type(c) is not int:
                raise ValueError(f"coefficient of {sym} is not an int: {c!r}")
        return cls(name, component, tuple(sorted(coeffs.items())))

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Divisor:
    """Effective divisor on one component: points with multiplicities."""

    component: str
    terms: tuple[tuple[Point, int], ...]

    @classmethod
    def of(cls, *terms) -> "Divisor":
        """Build from (point, mult) pairs or bare points (mult 1); a pair of
        multiplicity 0 adds no term."""
        norm: dict[Point, int] = {}
        comp = None
        for t in terms:
            point, mult = t if isinstance(t, tuple) else (t, 1)
            if mult < 0:
                raise ValueError("divisors are effective")
            if not mult:
                continue
            if comp is None:
                comp = point.component
            elif point.component != comp:
                raise ValueError("all points must lie on one component")
            norm[point] = norm.get(point, 0) + mult
        if comp is None:
            raise ValueError("need at least one marked point")
        items = tuple(sorted(norm.items(), key=lambda kv: kv[0].name))
        return cls(comp, items)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.terms)

    def class_vector(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for point, mult in self.terms:
            for sym, c in point.vector:
                total[sym] = total.get(sym, 0) + mult * c
        return {s: c for s, c in total.items() if c}

    def multiplicity(self, point: Point) -> int:
        for p, m in self.terms:
            if p == point:
                return m
        return 0

    def support(self) -> set[Point]:
        return {p for p, _ in self.terms}

    def __str__(self):
        parts = [f"{m}*{p.name}" if m > 1 else p.name for p, m in self.terms]
        return f"{self.component}: " + " + ".join(parts)


def lin_equiv(d1: Divisor, d2: Divisor) -> bool:
    """Linear equivalence under the genericity oracle.

    Divisors on different components are rejected; unequal degrees are never
    equivalent; otherwise the class vectors must match exactly.
    """
    if d1.component != d2.component:
        raise ValueError(
            f"divisors live on different components: "
            f"{d1.component} vs {d2.component}"
        )
    if d1.degree != d2.degree:
        return False
    return d1.class_vector() == d2.class_vector()


# ---------------------------------------------------------------------------
# the W^1_4 circuit


@dataclass(frozen=True)
class CircuitGraph:
    """The a = 2 Brill-Noether curve organized as circuit + tails.

    points[c] maps "Y"/"Z" (and "X" on 3-valent components) to the marked
    node points of circuit component c; tail_of[c] is the elliptic tail
    hanging off the 3-valent component c.  facing holds every marked point of
    the curve: facing[c] maps each neighbor of component c, circuit member or
    tail, to the point of c glued to it, so facing[t][c] is the attachment
    point N[t] of tail t (the same geometric node as X on c).
    """

    graph: BNCurveGraph
    points: dict[str, dict[str, Point]]
    facing: dict[str, dict[str, Point]]
    tail_of: dict[str, str]

    def point(self, comp: str, role: str) -> Point:
        return self.points[comp][role]

    def node_point(self, k: int, comp: str) -> Point:
        """The marked point of `comp` sitting at cycle node n_k, 1 <= k <= 6;
        KeyError for any other k."""
        if k not in range(1, 7):
            raise KeyError(k)
        c1, c2 = _incident_components(k)
        if comp not in (c1, c2):
            raise ValueError(f"{comp} is not incident to n{k}")
        return self.facing[comp][c2 if comp == c1 else c1]


def _incident_components(node_index: int) -> tuple[str, str]:
    """Components of cycle node n_k (1-based): D_k and D_{k+1}."""
    return CIRCUIT_ORDER[node_index - 1], CIRCUIT_ORDER[node_index % 6]


def build_w14_circuit() -> CircuitGraph:
    """Read the circuit + tails off the a = 2 curve graph.

    The tails are the components meeting exactly one other component, each
    hanging off the circuit component it meets; the circuit is the rest.
    CIRCUIT_ORDER is the one hand-kept convention: it fixes where the cycle
    starts and which way it runs, hence the node names n1..n6, and it is
    checked against the graph (it must list the circuit components, each
    meeting exactly its two cycle neighbors apart from tails).

    Role points on a circuit component: X faces its tail, Y faces the
    preceding cycle neighbor when that one has the same sequence and the
    following one otherwise, Z faces the other cycle neighbor.  Raises
    AssertionError unless the graph has 10 components and 10 nodes, matches
    CIRCUIT_ORDER, and every tail attachment satisfies the offset relation
    2X = Y + Z read from component_profile.
    """
    graph = build_bn_curve(2)
    if graph.nu != 10 or graph.delta != 10:
        raise AssertionError("a=2 graph does not have 10 components / 10 nodes")

    ids = {component_name(comp): comp for comp in graph.components}
    profiles = {
        name: {
            component_name(nbr): off
            for nbr, off in component_profile(graph, comp)
        }
        for name, comp in ids.items()
    }
    host = {t: next(iter(p)) for t, p in profiles.items() if len(p) == 1}
    if set(CIRCUIT_ORDER) != set(profiles) - set(host):
        raise AssertionError(
            f"circuit is {sorted(set(profiles) - set(host))}, "
            f"expected {sorted(CIRCUIT_ORDER)}"
        )

    points: dict[str, dict[str, Point]] = {}
    facing: dict[str, dict[str, Point]] = {}
    tail_of: dict[str, str] = {}
    for k, comp in enumerate(CIRCUIT_ORDER):
        prof = profiles[comp]
        prev_c, next_c = CIRCUIT_ORDER[k - 1], CIRCUIT_ORDER[(k + 1) % 6]
        tails = [t for t, c in host.items() if c == comp]
        if set(prof) != {prev_c, next_c, *tails} or len(tails) > 1:
            raise AssertionError(
                f"{comp} meets {set(prof)}, expected {prev_c}, {next_c} "
                "and at most one tail"
            )
        if ids[prev_c].sequence == ids[comp].sequence:
            y_nbr, z_nbr = prev_c, next_c
        else:
            y_nbr, z_nbr = next_c, prev_c
        xs, ws = f"x_{comp}", f"w_{comp}"
        pts = {
            "Y": Point.make(f"Y[{comp}]", comp, **{xs: 1, ws: 1}),
            "Z": Point.make(f"Z[{comp}]", comp, **{xs: 1, ws: -1}),
        }
        facing[comp] = {y_nbr: pts["Y"], z_nbr: pts["Z"]}
        for tail in tails:
            if 2 * prof[tail] != prof[y_nbr] + prof[z_nbr]:
                raise AssertionError(f"offset relation 2X = Y + Z fails on {comp}")
            pts["X"] = Point.make(f"X[{comp}]", comp, **{xs: 1})
            facing[comp][tail] = pts["X"]
            facing[tail] = {comp: Point.make(f"N[{tail}]", tail, **{f"n_{tail}": 1})}
            tail_of[comp] = tail
        points[comp] = pts
    return CircuitGraph(graph, points, facing, tail_of)


# ---------------------------------------------------------------------------
# proof traces

_quote = json.encoder.encode_basestring_ascii


def _json(value, pad: str = "\n") -> str:
    """`value` (str, bool, list, tuple or record) as ``json.dumps(value,
    default=vars, indent=2)`` writes it, escaped by json's own escaper but
    not run through its pure-Python indenting encoder; pad is the line
    break and indent before the value's closing bracket."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if items else "[]"
    items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in vars(value).items()]
    return f"{{{inner}{(',' + inner).join(items)}{pad}}}"


@dataclass(frozen=True)
class OracleCall:
    lin_equiv: tuple[str, str]  # the two divisors compared, as printed
    result: bool


@dataclass
class TraceStep:
    claim: str
    oracle_calls: list[OracleCall] = field(default_factory=list)
    verdict: str = "ok"


@dataclass
class ProofTrace:
    subject: str
    steps: list[TraceStep] = field(default_factory=list)
    conclusion: str = ""

    @property
    def ok(self) -> bool:
        return all(s.verdict == "ok" for s in self.steps)

    def dumps(self) -> str:
        """The trace as JSON, each record written from its fields: every
        field name is its key."""
        return _json(self)


def _call(step: TraceStep, d1: Divisor, d2: Divisor) -> bool:
    result = lin_equiv(d1, d2)
    step.oracle_calls.append(OracleCall((str(d1), str(d2)), result))
    return result


def circuit_degree_bound(ram_count: int) -> int:
    """Minimum degree 6 - ram_count of a circuit cover ramified at
    ram_count nodes (each unramified elliptic contributes two everywhere,
    with the six shared-node contributions double counted)."""
    if not 0 <= ram_count <= 6:
        raise ValueError("ram_count must be between 0 and 6")
    return 6 - ram_count


def max_ramified_nodes(circuit: CircuitGraph):
    """At most 3 circuit nodes can be ramified.

    Certificate: on every circuit component, 2Y ~ 2Z fails, so no component
    carries two ramification nodes; six components with each node shared by
    two give at most 6/2 = 3.
    """
    step = TraceStep(
        claim="no circuit component carries two ramification nodes "
        "(2Y and 2Z would be fibers of one pencil)"
    )
    for comp in CIRCUIT_ORDER:
        y, z = circuit.point(comp, "Y"), circuit.point(comp, "Z")
        if _call(step, Divisor.of((y, 2)), Divisor.of((z, 2))):
            step.verdict = f"unexpected equivalence 2Y ~ 2Z on {comp}"
    pigeonhole = TraceStep(
        claim="6 components x at most 1 ramified node each, every node "
        "shared by 2 components: at most 3 ramified nodes"
    )
    trace = ProofTrace(
        subject="max ramified nodes",
        steps=[step, pigeonhole],
        conclusion="bound = 3",
    )
    return 3, trace


def _ramified_needed(circuit_deg: int) -> int:
    """Fewest ramified nodes a circuit cover of degree circuit_deg needs."""
    return next(r for r in range(7) if circuit_degree_bound(r) <= circuit_deg)


def _nonadjacent_node_triples() -> list[tuple[int, ...]]:
    """3-subsets of the 6 cycle nodes with no two adjacent; these are exactly
    the subsets hitting every component once."""
    return [
        picks
        for picks in combinations(range(1, 7), 3)
        if sorted(c for n in picks for c in _incident_components(n))
        == sorted(CIRCUIT_ORDER)
    ]


def exclude_degree(deg: int, circuit: CircuitGraph) -> ProofTrace:
    """Machine-checked trace: the Brill-Noether curve admits no admissible
    cover of the given degree (1 <= deg <= 5).

    Cases: deg <= 2 contradicts the ramified-node bound outright; deg = 3
    forces an exact ramified-node cover of the circuit and dies on the
    leaf-component argument; deg in {4, 5} forces tails over unramified X
    points that push the total degree past 5.
    """
    if not 1 <= deg <= 5:
        raise ValueError("degree must be between 1 and 5")
    trace = ProofTrace(subject=f"no admissible cover of degree {deg}")

    max_ram, ram_trace = max_ramified_nodes(circuit)
    trace.steps.extend(ram_trace.steps)

    if deg <= 2:
        need = _ramified_needed(deg)
        step = TraceStep(
            claim=f"restricted circuit cover of degree <= {deg} needs "
            f"6 - ram_count <= {deg}, i.e. ram_count >= {need} > {max_ram}: "
            "contradiction (bound implied by the degree-3 case analysis)"
        )
        if need <= max_ram:
            step.verdict = "bound does not force a contradiction"
        trace.steps.append(step)
        trace.conclusion = f"no admissible cover of degree {deg}"
        return trace

    if deg == 3:
        # circuit restriction has degree <= 3, and 6 - ram <= 3 with ram <= 3
        # pins ram = 3, all elliptic maps of degree 2, and an exact cover of
        # the 6 components by the 3 ramified nodes
        trace.steps.append(
            TraceStep(
                claim="degree 3 forces ram_count = 3, all elliptic maps of "
                "degree 2, and every component owning exactly one ramified node"
            )
        )
        triples = _nonadjacent_node_triples()
        enum_step = TraceStep(
            claim="the exact-cover triples of cycle nodes are "
            f"{triples} (enumerated: 2 up to rotation)"
        )
        if len(triples) != 2:
            enum_step.verdict = f"expected 2 triples, found {len(triples)}"
        trace.steps.append(enum_step)
        for triple in triples:
            for leaf in CIRCUIT_ORDER:
                # contracting single-point rational attachments leaves some
                # elliptic leaf over a one-node rational target component, so
                # both its cycle nodes land on one target point; the degree-2
                # fiber there is A + B with both branches unramified
                owned = [
                    n for n in triple if leaf in _incident_components(n)
                ]
                step = TraceStep(
                    claim=f"triple {triple}, leaf {leaf}: fiber over the lone "
                    f"target node is the two cycle nodes of {leaf}; ramification "
                    f"at its owned node n{owned[0]} would need 2W ~ A + B"
                )
                if len(owned) != 1:
                    step.verdict = f"{leaf} owns {len(owned)} ramified nodes"
                    trace.steps.append(step)
                    continue
                w = circuit.node_point(owned[0], leaf)
                aa = circuit.point(leaf, "Y")
                bb = circuit.point(leaf, "Z")
                if _call(step, Divisor.of((w, 2)), Divisor.of(aa, bb)):
                    step.verdict = "unexpected equivalence 2W ~ A + B"
                trace.steps.append(step)
        trace.conclusion = "no admissible cover of degree 3"
        return trace

    # deg in {4, 5}: the circuit restriction has degree 3 (excluded above,
    # recorded as a reference step), 4, or 5
    trace.steps.append(
        TraceStep(
            claim="circuit restriction of degree 3 is excluded by the "
            "degree-3 case; remaining degrees force ramified nodes via "
            "6 - ram_count <= degree"
        )
    )
    for circuit_deg in range(4, deg + 1):
        min_ram = _ramified_needed(circuit_deg)
        for nodes in combinations(range(1, 7), min_ram):
            pencilled = sorted(
                {
                    comp
                    for n in nodes
                    for comp in _incident_components(n)
                    if comp in circuit.tail_of
                }
            )
            step = TraceStep(
                claim=f"circuit degree {circuit_deg}, ramified nodes "
                f"{['n%d' % n for n in nodes]}: 3-valent components "
                f"{pencilled} map by the pencil doubling their ramified node; "
                "X is unramified, so each attached tail adds one to the total "
                f"degree: {circuit_deg} + {min_ram} > 5"
            )
            if len(pencilled) < min_ram:
                step.verdict = (
                    f"only {len(pencilled)} 3-valent components incident "
                    f"to {nodes}"
                )
                trace.steps.append(step)
                continue
            for comp in pencilled:
                ram_node = next(
                    n for n in nodes if comp in _incident_components(n)
                )
                w = circuit.node_point(ram_node, comp)
                x = circuit.point(comp, "X")
                if _call(step, Divisor.of((x, 2)), Divisor.of((w, 2))):
                    step.verdict = f"unexpected equivalence 2X ~ 2W on {comp}"
            # each pencilled component's tail adds one to the degree
            if circuit_deg + len(pencilled) <= 5:
                step.verdict = "tail contributions do not exceed degree 5"
            trace.steps.append(step)
    trace.conclusion = f"no admissible cover of degree {deg}"
    return trace


# ---------------------------------------------------------------------------
# admissible cover data and verification


@dataclass(frozen=True)
class TargetNode:
    name: str
    sides: tuple[str, str]  # the two target components it joins


@dataclass(frozen=True)
class TargetTree:
    """The target nodal curve of a cover: components, the nodes joining them,
    and the genus of each component (rational unless listed in genera)."""

    components: tuple[str, ...]
    nodes: tuple[TargetNode, ...]
    genera: dict[str, int] = field(default_factory=dict)

    def genus_of(self, comp: str) -> int:
        return self.genera.get(comp, 0)

    @property
    def genus(self) -> int:
        """Arithmetic genus of the (connected) target curve."""
        genera = [self.genus_of(c) for c in self.components]
        return arithmetic_genus(genera, len(self.nodes))

    def is_tree(self) -> bool:
        """Connected with one node fewer than components, so no cycle; a
        node side that is not a component gives False."""
        index = {c: k for k, c in enumerate(self.components)}
        edges = [tuple(index.get(side) for side in n.sides) for n in self.nodes]
        if any(None in edge for edge in edges):
            return False
        return len(edges) == len(index) - 1 and edges_connect(len(index), edges)

    def nodes_on(self, comp: str) -> list[TargetNode]:
        return [n for n in self.nodes if comp in n.sides]


@dataclass(frozen=True)
class ComponentMap:
    """Map of one source component: target component, degree, genus of the
    source, fibers over the target nodes on its target component, and the
    count of additional simple smooth ramification points."""

    source: str
    genus: int  # 1 elliptic, 0 rational
    target: str
    degree: int
    node_fibers: tuple[tuple[str, Divisor], ...]  # (target node name, fiber)
    extra_ramification: int

    def fiber(self, node_name: str) -> Divisor | None:
        for name, fib in self.node_fibers:
            if name == node_name:
                return fib
        return None


@dataclass(frozen=True)
class SourceNode:
    """A node of the source curve: two branch points with their ramification
    indices, lying over one target node."""

    name: str
    branches: tuple[tuple[str, Point, int], ...]  # (component, point, e)
    target_node: str


@dataclass(frozen=True)
class CoverData:
    target: TargetTree
    maps: tuple[ComponentMap, ...]
    source_nodes: tuple[SourceNode, ...]

    @property
    def source_genus(self) -> int:
        """Source arithmetic genus, read off its components and nodes."""
        genera = [m.genus for m in self.maps]
        return arithmetic_genus(genera, len(self.source_nodes))


@dataclass
class VerificationReport:
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, ok, detail))
        return ok

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def first_failure(self):
        for name, ok, detail in self.checks:
            if not ok:
                return name, detail
        return None

    def dumps(self) -> str:
        """``json.dumps(..., indent=2)``'s layout of passed and each check as
        an object with keys check, ok and detail, one f-string per check."""
        checks = ",".join(
            [
                f'\n    {{\n      "check": {_quote(n)},\n      "ok": {_json(ok)},'
                f'\n      "detail": {_quote(d)}\n    }}'
                for n, ok, d in self.checks
            ]
        )
        checks = f"[{checks}\n  ]" if checks else "[]"
        return f'{{\n  "passed": {_json(self.passed)},\n  "checks": {checks}\n}}'


def riemann_hurwitz(source_genus: int, target_genus: int, degree: int) -> int:
    """Total ramification 2g_src - 2 - d(2g_tgt - 2) of a degree-d map."""
    return 2 * source_genus - 2 - degree * (2 * target_genus - 2)


def verify_cover(cover: CoverData) -> VerificationReport:
    """Run every admissibility / consistency check on a combinatorial cover.

    Checks both covers, branching only on target component genera: the tree
    check, elliptic degree >= 2 and pairwise equivalent node fibers (one
    pencil) apply over rational components only.  The Riemann-Hurwitz check
    counts node ramification from the source nodes itself.  Reports each check
    with a diagnostic (a branch on a component with no map included); never
    raises on bad covers.
    """
    rep = VerificationReport()
    target = cover.target
    maps = {m.source: m for m in reversed(cover.maps)}

    if not any(target.genus_of(c) for c in target.components):
        rep.record("target is a tree", target.is_tree())

    degrees = {}
    for comp in target.components:
        degrees[comp] = sum(m.degree for m in cover.maps if m.target == comp)
    total = set(degrees.values())
    rep.record(
        "constant total degree",
        len(total) == 1,
        f"degrees per target component: {degrees}",
    )

    # admissibility (iii): matching ramification indices across each node
    for node in cover.source_nodes:
        indices = {e for _, _, e in node.branches}
        rep.record(
            f"(iii) matching indices at {node.name}",
            len(node.branches) == 2 and len(indices) == 1,
            f"branch indices {[e for _, _, e in node.branches]}",
        )

    # every source node lies over a target node, with branches on components
    # mapping to the two sides
    target_nodes = {n.name: n for n in target.nodes}
    for node in cover.source_nodes:
        if node.target_node not in target_nodes:
            rep.record(
                f"(i) {node.name} over a target node",
                False,
                f"{node.target_node} is not a target node",
            )
            continue
        sides = sorted(target_nodes[node.target_node].sides)
        branch_targets = sorted(
            maps[comp].target if comp in maps else f"no map for {comp}"
            for comp, _, _ in node.branches
        )
        rep.record(
            f"(i) {node.name} over a target node",
            branch_targets == sides,
            f"branch targets {branch_targets} vs node sides {sides}",
        )

    # fibers over target nodes: right degree, consist exactly of node branch
    # points at the declared indices, and are pairwise disjoint
    branch_index: dict[tuple[str, Point], tuple[str, int]] = {}
    for node in cover.source_nodes:
        for comp, point, e in node.branches:
            branch_index[(comp, point)] = (node.name, e)

    for m in cover.maps:
        expected_nodes = {n.name for n in target.nodes_on(m.target)}
        declared = {name for name, _ in m.node_fibers}
        rep.record(
            f"{m.source}: fibers declared over every node of {m.target}",
            declared == expected_nodes,
            f"declared {sorted(declared)}, expected {sorted(expected_nodes)}",
        )
        node_ram = 0
        seen_support: set[Point] = set()
        for node_name, fib in m.node_fibers:
            rep.record(
                f"{m.source}: fiber degree over {node_name}",
                fib.degree == m.degree and fib.component == m.source,
                f"degree {fib.degree} vs map degree {m.degree}",
            )
            rep.record(
                f"{m.source}: fiber over {node_name} is disjoint from earlier "
                "fibers",
                not (fib.support() & seen_support),
            )
            seen_support |= fib.support()
            ok_nodes, detail = True, ""
            for point, mult in fib.terms:
                info = branch_index.get((m.source, point))
                if info is None:
                    ok_nodes = False
                    detail = f"{point} is not a source-node branch"
                elif info[1] != mult:
                    ok_nodes = False
                    detail = (
                        f"{point} has fiber multiplicity {mult} but "
                        f"ramification index {info[1]}"
                    )
                else:
                    node_ram += mult - 1
            rep.record(
                f"(i) {m.source}: fiber over {node_name} consists of nodes",
                ok_nodes,
                detail,
            )
        expected_total = riemann_hurwitz(
            m.genus, target.genus_of(m.target), m.degree
        )
        rep.record(
            f"{m.source}: Riemann-Hurwitz ramification total",
            node_ram + m.extra_ramification == expected_total
            and m.extra_ramification >= 0,
            f"nodes {node_ram} + smooth {m.extra_ramification} "
            f"!= {expected_total}",
        )
        if m.genus == 1 and not target.genus_of(m.target):
            rep.record(
                f"{m.source}: elliptic map degree >= 2", m.degree >= 2
            )
            fibers = [fib for _, fib in m.node_fibers]
            if m.degree >= 3 and len(fibers) >= 3:
                rep.record(
                    f"{m.source}: pencil membership in modeled range",
                    False,
                    "degree >= 3 with >= 3 node fibers needs pencil "
                    "collinearity beyond pairwise equivalence",
                )
            for i in range(len(fibers)):
                for j in range(i + 1, len(fibers)):
                    rep.record(
                        f"{m.source}: node fibers {i} and {j} linearly "
                        "equivalent",
                        fibers[i].component == fibers[j].component
                        and lin_equiv(fibers[i], fibers[j]),
                        f"{fibers[i]} vs {fibers[j]}",
                    )

    # conversely, every node branch appears in the right fiber
    for node in cover.source_nodes:
        for comp, point, e in node.branches:
            fib = maps[comp].fiber(node.target_node) if comp in maps else None
            ok = fib is not None and fib.multiplicity(point) == e
            rep.record(
                f"{node.name}: branch {point} on {comp} sits in the fiber",
                ok,
            )
    return rep


# ---------------------------------------------------------------------------
# covers derived from placements and source nodes


def _cover(components, genera, onto, source_nodes) -> CoverData:
    """The cover mapping each source component c, of genus onto[c][0], onto
    target component onto[c][1] with degree onto[c][2], glued at source_nodes.

    The target has the given components and genera and one node per
    target_node the source nodes name, in order of first appearance, joining
    the sorted target components of its first source node's two branches.
    Each map's fiber over a target node on its component is that component's
    branch points over the node, each with multiplicity its index; its smooth
    ramification is the Riemann-Hurwitz total less its node ramification.
    """
    sides: dict[str, tuple[str, ...]] = {}
    over: dict[str, dict[str, list[tuple[Point, int]]]] = {c: {} for c in onto}
    for node in source_nodes:
        pair = tuple(sorted(onto[c][1] for c, _, _ in node.branches))
        sides.setdefault(node.target_node, pair)
        for comp, point, e in node.branches:
            over[comp].setdefault(node.target_node, []).append((point, e))
    nodes = tuple(TargetNode(name, pair) for name, pair in sides.items())
    target = TargetTree(tuple(components), nodes, genera)
    maps = []
    for src, (genus, comp, degree) in onto.items():
        fibers = tuple(
            (n.name, Divisor.of(*over[src][n.name]))
            for n in target.nodes_on(comp)
            if n.name in over[src]
        )
        node_ram = sum(e - 1 for pts in over[src].values() for _, e in pts)
        total = riemann_hurwitz(genus, target.genus_of(comp), degree)
        maps.append(ComponentMap(src, genus, comp, degree, fibers, total - node_ram))
    return CoverData(target, tuple(maps), tuple(source_nodes))


def _source_nodes(
    circuit: CircuitGraph, x_index: int, target_of
) -> list[SourceNode]:
    """The ten nodes of the a = 2 curve as source nodes: the six cycle nodes
    n_k, unramified, then each tail attachment x[c] with index x_index on
    both branches.  Both branch points of the node joining components c1 and
    c2 are read from circuit.facing, and target_of(c1, c2) names the target
    node under it."""
    ends = [(f"n{k}", 1, *_incident_components(k)) for k in range(1, 7)]
    ends += [(f"x[{c}]", x_index, c, t) for c, t in circuit.tail_of.items()]
    f = circuit.facing
    return [
        SourceNode(n, ((c1, f[c1][c2], e), (c2, f[c2][c1], e)), target_of(c1, c2))
        for n, e, c1, c2 in ends
    ]


# ---------------------------------------------------------------------------
# the degree-6 admissible cover


def build_degree6_cover(circuit: CircuitGraph) -> CoverData:
    """The explicit degree-6 admissible cover of the a = 2 curve.

    Targets R1 and R2 glue at one node n0; the circuit components map to R1
    and R2 alternately around the cycle (C'2, C'4, C''3 to R1 and C'3, C''2,
    C''4 to R2), each of degree 2 by the pencil |Y+Z|, sending every circuit
    node to n0.  The tail C'i (C''i) maps with degree 2, by twice its node,
    to a new rational component R'i (R''i) hung at the image m'i (m''i) of
    its X point.  Sixteen rational components of degree 1 fill the remaining
    fiber slots over those four target nodes.  Only these placements and the
    glue nodes are stated here; :func:`_cover` derives targets and fibers.
    """
    side_of = {c: f"R{k % 2 + 1}" for k, c in enumerate(CIRCUIT_ORDER)}
    tail_of = circuit.tail_of
    x_node_name = {c: "m" + t[1:] for c, t in tail_of.items()}
    tail_target = {t: "R" + t[1:] for t in tail_of.values()}
    # circuit nodes all map to n0, unramified on both sides; X nodes have
    # both branches ramified (fiber 2X of |Y+Z|, map |2N| on the tail)
    source_nodes = _source_nodes(
        circuit,
        2,
        lambda c1, c2: x_node_name[c1] if tail_of.get(c1) == c2 else "n0",
    )

    # rational fillers: over each new target node, the two non-X circuit
    # components on the circuit side contribute two fiber points each, all of
    # which must be nodes gluing degree-1 rational components on the tail
    # side R'i; the pair of fiber points of the pencil |Y+Z| over a point has
    # the class of Y + Z, realized as fresh s and (Y + Z) - s = 2x - s
    slots = sorted(
        (other, x_node_name[comp], tail_target[tail])
        for comp, tail in tail_of.items()
        for other in CIRCUIT_ORDER
        if other != comp and side_of[other] == side_of[comp]
    )
    onto = {}
    for other, node_name, tail_side in slots:
        s, at = f"s_{other}_{node_name}", f"{other}@{node_name}"
        yz = Divisor.of(circuit.point(other, "Y"), circuit.point(other, "Z"))
        for p in (
            Point.make(f"F1[{at}]", other, **{s: 1}),
            Point.make(f"F2[{at}]", other, **yz.class_vector(), **{s: -1}),
        ):
            t = f"T{len(onto) + 1}"
            t_point = Point.make(f"N[{t}]", t, **{f"t_{t}": 1})
            glued = ((other, p, 1), (t, t_point, 1))
            source_nodes.append(SourceNode(f"glue[{t}]", glued, node_name))
            onto[t] = (0, tail_side, 1)
    onto.update({c: (1, side_of[c], 2) for c in CIRCUIT_ORDER})
    onto.update({t: (1, r, 2) for t, r in tail_target.items()})
    return _cover(("R1", "R2", *tail_target.values()), {}, onto, source_nodes)


# ---------------------------------------------------------------------------
# the unramified double cover


def build_double_cover(circuit: CircuitGraph) -> CoverData:
    """Degree-2 map of the a = 2 curve onto its quotient by the sheet swap.

    The swap exchanges C'i and C''i, the components with the ballot words
    (1,2,1,2) and (1,1,2,2) at the same marked index: it transposes each
    word (:func:`bncurve.combinatorics.transpose`) and keeps the marked
    index.  It must map the nodes of circuit.graph, each taken as the pair
    of components it joins, to nodes and fix none (AssertionError
    otherwise).  The quotient then has one elliptic component Ci per orbit
    {C'i, C''i}, and each source node lies over the target node named by
    the sorted quotient names of its ends, so :func:`_cover` reads the five
    components, the node orbits and genus 6 (TargetTree.genus) off the
    graph.  Each C'i and C''i maps isomorphically onto Ci, every target
    node has two unramified preimages, and verify_cover checks the cover
    like any other.
    """
    graph = circuit.graph
    swap = {seq: transpose(seq) for seq in {c.sequence for c in graph.components}}

    def ends(node, swapped=False):
        return frozenset(
            (swap[c.sequence] if swapped else c.sequence, c.marked)
            for c in (node.x, node.y)
        )

    node_ends = {ends(n) for n in graph.nodes}
    for n in graph.nodes:
        image = ends(n, swapped=True)
        if image not in node_ends or image == ends(n):
            raise AssertionError(f"the sheet swap does not act freely on {n}")

    quotient = {component_name(c): f"C{c.marked}" for c in graph.components}
    components = tuple(f"C{i}" for i in sorted({c.marked for c in graph.components}))
    source_nodes = _source_nodes(
        circuit, 1, lambda c1, c2: "-".join(sorted((quotient[c1], quotient[c2])))
    )
    # Ci is a copy of C'i and of C''i, so elliptic
    onto = {src: (1, q, 1) for src, q in quotient.items()}
    return _cover(components, {c: 1 for c in components}, onto, source_nodes)


def verify_double_cover(cover: CoverData) -> VerificationReport:
    """verify_cover on the double cover that build_double_cover built."""
    return verify_cover(cover)


# ---------------------------------------------------------------------------
# the headline result


@dataclass
class GonalityResult:
    value: int
    lower_certificate: list[ProofTrace]
    upper_certificate: VerificationReport
    double_cover: VerificationReport


def gonality() -> GonalityResult:
    """gon = 6: degrees 1..5 are excluded and a verified degree-6 cover
    exists; the etale double cover of the same circuit is verified too.
    Raises AssertionError if any sub-certificate fails (an implementation
    bug)."""
    circuit = build_w14_circuit()
    traces = [exclude_degree(deg, circuit) for deg in range(1, 6)]
    for t in traces:
        if not t.ok or not t.steps:
            raise AssertionError(f"exclusion trace failed: {t.subject}")
    report = verify_cover(build_degree6_cover(circuit))
    if not report.passed:
        raise AssertionError(
            f"degree-6 cover failed verification: {report.first_failure}"
        )
    double = verify_double_cover(build_double_cover(circuit))
    if not double.passed:
        raise AssertionError(
            f"double cover failed verification: {double.first_failure}"
        )
    return GonalityResult(6, traces, report, double)
