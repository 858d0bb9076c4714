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
genericity oracle: each circuit component gets a rational vector space
spanned by symbols y, z for its two circuit node points, the tail attachment
point X has class (y+z)/2, and free points get fresh symbols.  The only
relation ever imposed is 2X = Y + Z, which is exactly what holds on the
actual curve; every other class equality fails, as it does for generic glue
points.

On top of the oracle we run the degree <= 5 exclusion case analysis and
build and verify the degree-6 admissible cover and the unramified double
cover, machine-checking each genericity step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .chain import BNComponentId
from .curve import BNCurveGraph, build_bn_curve, component_profile

HALF = Fraction(1, 2)

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


def component_id(name: str) -> BNComponentId:
    if name.startswith("C''"):
        return BNComponentId(SEQ_DOUBLE_PRIME, int(name[3:]))
    if name.startswith("C'"):
        return BNComponentId(SEQ_PRIME, int(name[2:]))
    raise ValueError(f"bad component name: {name!r}")


@dataclass(frozen=True)
class Point:
    """A marked point on one component with an exact-rational class vector.

    The vector omits the implicit degree coordinate; two points share a class
    iff their vectors agree (glue points are generic, so distinct symbols are
    independent).
    """

    name: str
    component: str
    vector: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(cls, name: str, component: str, **coeffs) -> "Point":
        vec = tuple(sorted((s, Fraction(c)) for s, c in coeffs.items()))
        return cls(name, component, vec)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Divisor:
    """Effective divisor on one component: marked points with multiplicities
    plus a number of free-point slots (existentially chosen points)."""

    component: str
    terms: tuple[tuple[Point, int], ...]
    free: int = 0

    @classmethod
    def of(cls, *terms, free: int = 0) -> "Divisor":
        """Build from (point, mult) pairs or bare points (mult 1)."""
        norm: dict[Point, int] = {}
        comp = None
        for t in terms:
            point, mult = t if isinstance(t, tuple) else (t, 1)
            if mult < 0:
                raise ValueError("divisors are effective")
            if comp is None:
                comp = point.component
            elif point.component != comp:
                raise ValueError("all points must lie on one component")
            norm[point] = norm.get(point, 0) + mult
        if comp is None:
            raise ValueError("need at least one marked point")
        items = tuple(sorted(norm.items(), key=lambda kv: kv[0].name))
        return cls(comp, items, free)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.terms) + self.free

    def class_vector(self) -> dict[str, Fraction]:
        total: dict[str, Fraction] = {}
        for point, mult in self.terms:
            for sym, c in point.vector:
                total[sym] = total.get(sym, Fraction(0)) + mult * c
        return {s: c for s, c in total.items() if c}

    def multiplicity(self, point: Point) -> int:
        for p, m in self.terms:
            if p == point:
                return m
        return 0

    def support(self) -> set[Point]:
        return {p for p, m in self.terms if m > 0}

    def __str__(self):
        parts = [f"{m}*{p.name}" if m > 1 else p.name for p, m in self.terms]
        parts += [f"free#{i+1}" for i in range(self.free)]
        return f"{self.component}: " + " + ".join(parts)


def lin_equiv(d1: Divisor, d2: Divisor) -> bool:
    """Linear equivalence under the genericity oracle.

    Divisors on different components are rejected; unequal degrees are never
    equivalent.  A free slot absorbs any class (a point of any class exists
    on an elliptic curve), so if either side has one only degrees are
    compared; otherwise the class vectors must match exactly.
    """
    if d1.component != d2.component:
        raise ValueError(
            f"divisors live on different components: "
            f"{d1.component} vs {d2.component}"
        )
    if d1.degree != d2.degree:
        return False
    if d1.free or d2.free:
        return True
    return d1.class_vector() == d2.class_vector()


# ---------------------------------------------------------------------------
# the W^1_4 circuit


@dataclass(frozen=True)
class CircuitGraph:
    """The a = 2 Brill-Noether curve organized as circuit + tails.

    points[c] maps "Y"/"Z" (and "X" on 3-valent components) to the marked
    node points of circuit component c, and facing[c] maps each neighbor of c
    to the point of c glued to it; tail_of[c] is the elliptic tail hanging
    off the 3-valent component c, and tail_node[t] is the attachment point of
    tail t (the same geometric node as X on its circuit neighbor).
    """

    graph: BNCurveGraph
    points: dict[str, dict[str, Point]]
    facing: dict[str, dict[str, Point]]
    tail_of: dict[str, str]
    tail_node: dict[str, Point]

    def point(self, comp: str, role: str) -> Point:
        return self.points[comp][role]

    def node_point(self, node_name: str, comp: str) -> Point:
        """The marked point of `comp` sitting at cycle node `node_name`."""
        if node_name not in {f"n{k}" for k in range(1, 7)}:
            raise KeyError(node_name)
        c1, c2 = _incident_components(int(node_name[1:]))
        if comp not in (c1, c2):
            raise ValueError(f"{comp} is not incident to {node_name}")
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

    profiles = {
        component_name(comp): {
            component_name(nbr): off
            for nbr, off in component_profile(graph, comp)
        }
        for comp in graph.components
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
        if component_id(prev_c).sequence == component_id(comp).sequence:
            y_nbr, z_nbr = prev_c, next_c
        else:
            y_nbr, z_nbr = next_c, prev_c
        ys, zs = f"y_{comp}", f"z_{comp}"
        pts = {
            "Y": Point.make(f"Y[{comp}]", comp, **{ys: 1}),
            "Z": Point.make(f"Z[{comp}]", comp, **{zs: 1}),
        }
        facing[comp] = {y_nbr: pts["Y"], z_nbr: pts["Z"]}
        for tail in tails:
            if 2 * prof[tail] != prof[y_nbr] + prof[z_nbr]:
                raise AssertionError(f"offset relation 2X = Y + Z fails on {comp}")
            pts["X"] = Point.make(f"X[{comp}]", comp, **{ys: HALF, zs: HALF})
            facing[comp][tail] = pts["X"]
            tail_of[comp] = tail
        points[comp] = pts

    tail_node = {
        tail: Point.make(f"N[{tail}]", tail, **{f"n_{tail}": 1})
        for tail in tail_of.values()
    }
    return CircuitGraph(
        graph=graph,
        points=points,
        facing=facing,
        tail_of=tail_of,
        tail_node=tail_node,
    )


# ---------------------------------------------------------------------------
# proof traces


@dataclass(frozen=True)
class OracleCall:
    lhs: str
    rhs: str
    result: bool

    def to_json(self):
        return {"lin_equiv": [self.lhs, self.rhs], "result": self.result}


@dataclass
class TraceStep:
    claim: str
    oracle_calls: list[OracleCall] = field(default_factory=list)
    verdict: str = "ok"

    def to_json(self):
        return {
            "claim": self.claim,
            "oracle_calls": [c.to_json() for c in self.oracle_calls],
            "verdict": self.verdict,
        }


@dataclass
class ProofTrace:
    subject: str
    steps: list[TraceStep] = field(default_factory=list)
    conclusion: str = ""

    @property
    def ok(self) -> bool:
        return all(s.verdict == "ok" for s in self.steps)

    def to_json(self):
        return {
            "subject": self.subject,
            "steps": [s.to_json() for s in self.steps],
            "conclusion": self.conclusion,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _call(step: TraceStep, d1: Divisor, d2: Divisor) -> bool:
    result = lin_equiv(d1, d2)
    step.oracle_calls.append(OracleCall(str(d1), str(d2), result))
    return result


def circuit_degree_bound(ram_count: int) -> int:
    """Minimum degree 6 - ram_count of a circuit cover ramified at
    ram_count nodes (each unramified elliptic contributes two everywhere,
    with the six shared-node contributions double counted)."""
    if not 0 <= ram_count <= 6:
        raise ValueError("ram_count must be between 0 and 6")
    return 6 - ram_count


def max_ramified_nodes(circuit: CircuitGraph | None = None):
    """At most 3 circuit nodes can be ramified.

    Certificate: on every circuit component, 2Y ~ 2Z fails, so no component
    carries two ramification nodes; six components with each node shared by
    two give at most 6/2 = 3.
    """
    if circuit is None:
        circuit = build_w14_circuit()
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


def exclude_degree(deg: int, circuit: CircuitGraph | None = None) -> ProofTrace:
    """Machine-checked trace: the Brill-Noether curve admits no admissible
    cover of the given degree (1 <= deg <= 5).

    Cases: deg <= 2 contradicts the ramified-node bound outright; deg = 3
    forces an exact ramified-node cover of the circuit and dies on the
    leaf-component argument; deg in {4, 5} forces tails over unramified X
    points that push the total degree past 5.
    """
    if not 1 <= deg <= 5:
        raise ValueError("degree must be between 1 and 5")
    if circuit is None:
        circuit = build_w14_circuit()
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
                w = circuit.node_point(f"n{owned[0]}", leaf)
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
                w = circuit.node_point(f"n{ram_node}", comp)
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
    components: tuple[str, ...]
    nodes: tuple[TargetNode, ...]

    def is_tree(self) -> bool:
        if len(self.nodes) != len(self.components) - 1:
            return False
        parent = {c: c for c in self.components}

        def find(c):
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        for node in self.nodes:
            a, b = node.sides
            if a not in parent or b not in parent:
                return False
            ra, rb = find(a), find(b)
            if ra == rb:
                return False  # cycle
            parent[ra] = rb
        return len({find(c) for c in self.components}) == 1

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
    extra_ramification: int = 0

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

    def map_of(self, source: str) -> ComponentMap:
        for m in self.maps:
            if m.source == source:
                return m
        raise KeyError(source)


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

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": [
                {"check": n, "ok": ok, "detail": d} for n, ok, d in self.checks
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def verify_cover(cover: CoverData) -> VerificationReport:
    """Run every admissibility / consistency check on a combinatorial cover.

    Reports each check with a diagnostic; never raises on bad covers.
    """
    rep = VerificationReport()

    rep.record("target is a tree", cover.target.is_tree())

    degrees = {}
    for comp in cover.target.components:
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
    target_nodes = {n.name: n for n in cover.target.nodes}
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
            cover.map_of(comp).target for comp, _, _ in node.branches
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
        expected_nodes = {n.name for n in cover.target.nodes_on(m.target)}
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
            ok_nodes = fib.free == 0
            detail = "" if ok_nodes else "free slots cannot lie over a node"
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
        expected_total = 2 * m.degree if m.genus == 1 else 2 * m.degree - 2
        rep.record(
            f"{m.source}: Riemann-Hurwitz ramification total",
            node_ram + m.extra_ramification == expected_total
            and m.extra_ramification >= 0,
            f"nodes {node_ram} + smooth {m.extra_ramification} "
            f"!= {expected_total}",
        )
        if m.genus == 1:
            rep.record(
                f"{m.source}: elliptic map degree >= 2", m.degree >= 2
            )
            fibers = [fib for _, fib in m.node_fibers]
            fully_marked = [f for f in fibers if f.free == 0]
            if m.degree >= 3 and len(fully_marked) >= 3:
                rep.record(
                    f"{m.source}: pencil membership in modeled range",
                    False,
                    "degree >= 3 with >= 3 fully marked fibers needs pencil "
                    "collinearity beyond pairwise equivalence",
                )
            for i in range(len(fibers)):
                for j in range(i + 1, len(fibers)):
                    rep.record(
                        f"{m.source}: node fibers {i} and {j} linearly "
                        "equivalent",
                        lin_equiv(fibers[i], fibers[j]),
                        f"{fibers[i]} vs {fibers[j]}",
                    )

    # conversely, every node branch appears in the right fiber
    for node in cover.source_nodes:
        for comp, point, e in node.branches:
            fib = cover.map_of(comp).fiber(node.target_node)
            ok = fib is not None and fib.multiplicity(point) == e
            rep.record(
                f"{node.name}: branch {point} on {comp} sits in the fiber",
                ok,
            )
    return rep


# ---------------------------------------------------------------------------
# the degree-6 admissible cover


def _source_nodes(
    circuit: CircuitGraph, x_index: int, target_of
) -> list[SourceNode]:
    """The nodes of the a = 2 curve as source nodes: the six cycle nodes n_k,
    unramified, then each tail attachment x[c] with index x_index on both
    branches.  target_of(c1, c2) names the target node under the node joining
    components c1 and c2."""
    nodes = []
    for k in range(1, 7):
        name, (c1, c2) = f"n{k}", _incident_components(k)
        nodes.append(
            SourceNode(
                name=name,
                branches=(
                    (c1, circuit.node_point(name, c1), 1),
                    (c2, circuit.node_point(name, c2), 1),
                ),
                target_node=target_of(c1, c2),
            )
        )
    for comp, tail in circuit.tail_of.items():
        nodes.append(
            SourceNode(
                name=f"x[{comp}]",
                branches=(
                    (comp, circuit.point(comp, "X"), x_index),
                    (tail, circuit.tail_node[tail], x_index),
                ),
                target_node=target_of(comp, tail),
            )
        )
    return nodes


def build_degree6_cover(circuit: CircuitGraph | None = None) -> CoverData:
    """The explicit degree-6 admissible cover of the a = 2 curve.

    Targets R1 and R2 glue at one node; the circuit components map to R1 and
    R2 alternately around the cycle (C'2, C'4, C''3 to R1 and C'3, C''2,
    C''4 to R2), each of degree 2 by the pencil |Y+Z|, sending every circuit
    node to the R1/R2 node.  The four elliptic tails map with degree 2 to new
    rational components hung at the images of the X points, by twice their
    node.  Sixteen rational components of degree 1 fill the remaining fiber
    slots over the four new target nodes.
    """
    if circuit is None:
        circuit = build_w14_circuit()

    side_of = {c: f"R{k % 2 + 1}" for k, c in enumerate(CIRCUIT_ORDER)}

    # the tail C'i (C''i) hangs over the image m'i (m''i) of the X point of
    # its circuit component, on a new target component R'i (R''i)
    tail_target = {t: "R" + t[1:] for t in circuit.tail_of.values()}
    x_node_name = {c: "m" + t[1:] for c, t in circuit.tail_of.items()}

    target_components = ["R1", "R2"] + list(tail_target.values())
    target_nodes = [TargetNode("n0", ("R1", "R2"))]
    for circuit_comp, tail in circuit.tail_of.items():
        target_nodes.append(
            TargetNode(
                x_node_name[circuit_comp],
                (side_of[circuit_comp], tail_target[tail]),
            )
        )
    target = TargetTree(tuple(target_components), tuple(target_nodes))

    maps: list[ComponentMap] = []
    # circuit nodes all map to n0, unramified on both sides; X nodes have
    # both branches ramified (fiber 2X of |Y+Z|, map |2N| on the tail)
    source_nodes = _source_nodes(
        circuit,
        2,
        lambda c1, c2: x_node_name[c1] if c2 in tail_target else "n0",
    )

    # rational fillers: over each new target node, the two non-X circuit
    # components on the circuit side contribute two fiber points each, all of
    # which must be nodes gluing degree-1 rational components on the tail
    # side; the pair of fiber points of the pencil |Y+Z| over a point has
    # class y + z, realized as fresh s and (y + z) - s
    filler_points: dict[tuple[str, str], list[Point]] = {}
    for circuit_comp, node_name in x_node_name.items():
        for other in CIRCUIT_ORDER:
            if other == circuit_comp or side_of[other] != side_of[circuit_comp]:
                continue
            ys, zs = f"y_{other}", f"z_{other}"
            s = f"s_{other}_{node_name}"
            p1 = Point.make(f"F1[{other}@{node_name}]", other, **{s: 1})
            p2 = Point.make(
                f"F2[{other}@{node_name}]",
                other,
                **{ys: 1, zs: 1, s: -1},
            )
            filler_points[(other, node_name)] = [p1, p2]

    filler_id = 0
    for (other, node_name), pts in sorted(filler_points.items()):
        for p in pts:
            filler_id += 1
            t_name = f"T{filler_id}"
            t_point = Point.make(f"N[{t_name}]", t_name, **{f"t_{t_name}": 1})
            source_nodes.append(
                SourceNode(
                    name=f"glue[{t_name}]",
                    branches=((other, p, 1), (t_name, t_point, 1)),
                    target_node=node_name,
                )
            )
            maps.append(
                ComponentMap(
                    source=t_name,
                    genus=0,
                    target="R" + node_name[1:],  # the tail side of m'i is R'i
                    degree=1,
                    node_fibers=((node_name, Divisor.of(t_point)),),
                    extra_ramification=0,
                )
            )

    # circuit component maps
    for comp in CIRCUIT_ORDER:
        side = side_of[comp]
        y, z = circuit.point(comp, "Y"), circuit.point(comp, "Z")
        fibers: list[tuple[str, Divisor]] = [("n0", Divisor.of(y, z))]
        extra = 4  # degree-2 elliptic map: total ramification 2d = 4
        for node in target.nodes_on(side):
            if node.name == "n0":
                continue
            if x_node_name.get(comp) == node.name:
                fibers.append(
                    (node.name, Divisor.of((circuit.point(comp, "X"), 2)))
                )
                extra -= 1  # X is a ramified node
            else:
                p1, p2 = filler_points[(comp, node.name)]
                fibers.append((node.name, Divisor.of(p1, p2)))
        maps.append(
            ComponentMap(
                source=comp,
                genus=1,
                target=side,
                degree=2,
                node_fibers=tuple(fibers),
                extra_ramification=extra,
            )
        )

    # tail maps: degree 2 by twice the node
    for circuit_comp, tail in circuit.tail_of.items():
        node_name = x_node_name[circuit_comp]
        n = circuit.tail_node[tail]
        maps.append(
            ComponentMap(
                source=tail,
                genus=1,
                target=tail_target[tail],
                degree=2,
                node_fibers=((node_name, Divisor.of((n, 2))),),
                extra_ramification=3,  # 2d - (e_N - 1) = 4 - 1
            )
        )

    return CoverData(
        target=target, maps=tuple(maps), source_nodes=tuple(source_nodes)
    )


# ---------------------------------------------------------------------------
# the unramified double cover


def build_double_cover(circuit: CircuitGraph | None = None) -> CoverData:
    """Degree-2 map of the a = 2 curve onto a genus-6 nodal curve.

    The target has five elliptic components C1..C5: C2, C3, C4 glued in a
    circuit at the Y/Z points, C1 and C5 attached at the X points of C2 and
    C4.  Each C'i and C''i maps bijectively onto Ci; every target point has
    exactly two preimages and nothing ramifies.

    The target is not a tree, so this CoverData is validated by
    :func:`verify_double_cover`, not by :func:`verify_cover`.
    """
    if circuit is None:
        circuit = build_w14_circuit()

    target_components = tuple(f"C{i}" for i in range(1, 6))
    target_nodes = (
        TargetNode("yz_23", ("C2", "C3")),
        TargetNode("yz_34", ("C3", "C4")),
        TargetNode("yz_42", ("C4", "C2")),
        TargetNode("x_12", ("C1", "C2")),
        TargetNode("x_45", ("C4", "C5")),
    )
    target = TargetTree(target_components, target_nodes)

    def base(name: str) -> str:
        return f"C{component_id(name).marked}"

    # every source node maps to the target node its component indices dictate
    node_target = {frozenset(n.sides): n.name for n in target_nodes}
    source_nodes = _source_nodes(
        circuit, 1, lambda c1, c2: node_target[frozenset({base(c1), base(c2)})]
    )

    maps: list[ComponentMap] = []
    all_sources = list(CIRCUIT_ORDER) + list(circuit.tail_of.values())
    for src in all_sources:
        fibers = []
        for node in source_nodes:
            for comp, point, _ in node.branches:
                if comp == src:
                    fibers.append((node.target_node, Divisor.of(point)))
        maps.append(
            ComponentMap(
                source=src,
                genus=1,
                target=base(src),
                degree=1,
                node_fibers=tuple(fibers),
                extra_ramification=0,
            )
        )
    return CoverData(
        target=target, maps=tuple(maps), source_nodes=tuple(source_nodes)
    )


def verify_double_cover(cover: CoverData | None = None) -> VerificationReport:
    """Check the double cover is etale of degree 2 onto a genus-6 target.

    Verifies: two degree-1 source components over each target component, two
    source-node preimages over each target node, matching unramified indices,
    target graph genus 6, and the Riemann-Hurwitz identity against the source
    genus 11, read off the cover's own source components and nodes.
    """
    if cover is None:
        cover = build_double_cover()
    rep = VerificationReport()

    by_target: dict[str, list[ComponentMap]] = {}
    for m in cover.maps:
        by_target.setdefault(m.target, []).append(m)
    for comp in cover.target.components:
        ms = by_target.get(comp, [])
        rep.record(
            f"{comp}: two sheets of degree 1",
            len(ms) == 2 and all(m.degree == 1 for m in ms),
            f"{[(m.source, m.degree) for m in ms]}",
        )

    preimages: dict[str, int] = {n.name: 0 for n in cover.target.nodes}
    for node in cover.source_nodes:
        ok = all(e == 1 for _, _, e in node.branches)
        rep.record(f"{node.name}: unramified", ok)
        if node.target_node in preimages:
            preimages[node.target_node] += 1
        else:
            rep.record(
                f"{node.name}: over a target node",
                False,
                f"{node.target_node} unknown",
            )
    for name, count in preimages.items():
        rep.record(f"{name}: exactly two node preimages", count == 2)

    n_comp = len(cover.target.components)
    n_nodes = len(cover.target.nodes)
    target_genus = n_comp * 1 + n_nodes - n_comp + 1
    rep.record("target graph genus 6", target_genus == 6, f"got {target_genus}")

    source_genus = (
        sum(m.genus for m in cover.maps)
        + len(cover.source_nodes)
        - len(cover.maps)
        + 1
    )
    rep.record("source genus 11", source_genus == 11, f"got {source_genus}")
    rep.record(
        "etale Riemann-Hurwitz 2g_source - 2 = 2(2g_target - 2)",
        2 * source_genus - 2 == 2 * (2 * target_genus - 2),
    )
    return rep


# ---------------------------------------------------------------------------
# the headline result


@dataclass
class GonalityResult:
    value: int
    lower_certificate: list[ProofTrace]
    upper_certificate: VerificationReport
    double_cover: VerificationReport

    def to_json(self):
        return {
            "gonality": self.value,
            "lower_certificate": [t.to_json() for t in self.lower_certificate],
            "upper_certificate": self.upper_certificate.to_json(),
            "double_cover": self.double_cover.to_json(),
        }


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
