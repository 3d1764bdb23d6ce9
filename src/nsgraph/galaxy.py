"""Galaxy structure of the enlargement: membership, closeness, witnesses.

A galaxy is the class of hypernodes limitedly distant from a given one.
Galaxies are never materialised (they are proper-class-sized families of
presentations); this module exposes verdict predicates, an order on galaxies
through representatives, and the constructive witnesses that separate them:
greedy rays for rank 0, boundary rays for rank 1, and the
compression/expansion chain that turns one non-principal galaxy into a
two-way ladder of them.  A chain entry is a plain term: the seed's
arguments read at 2^g * n or at floor(n / 2^g) + s, which keeps affine and
floor arguments floor arguments, and the chain is ordered by the same
classification as every other verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from .graphs import DEFAULT_BUDGET, GraphInstance, NodeTerm, node_coords
from .kernel import IndeterminateError, Trivalent
from .ordinal import Ordinal
from .sequences import (
    Affine,
    Cls,
    Constant,
    Explicit,
    Floor,
    IndexSequence,
    MonotoneUnboundedDecl,
    Patched,
    SymInt,
    classify,
    sym_start,
    sym_sub,
)
from .transfinite import OneGraph, OneNodeId, boundary_one_nodes, wdistance
from .ultrapower import (
    Hypernode,
    anchor_profile,
    hyperdistance,
    make_hypernode,
    node_at,
    require_same_enlargement,
)

SCAN_CAP = 200_000  # hard stop for a boundary enumeration that stalls
MAX_CHAIN_DEPTH = 1000
RAY_PROBE = 120  # boundary-ray steps a fitted presentation must reproduce


class InapplicableFamilyError(ValueError):
    """The family lacks a hypothesis flag the construction needs."""


class ChainConstructionError(ValueError):
    """The seed cannot anchor the requested construction."""


# ====== Verdicts ======

class GalaxyRelation(enum.Enum):
    SAME = "same-galaxy"
    DIFFERENT = "different-galaxy"
    FILTER_DEPENDENT = "filter-dependent"


@dataclass(frozen=True)
class GalaxyVerdict:
    """Limited-distance verdict with the bound that certifies it.

    certified_bound dominates the distance generator on a filter-large set;
    tight records whether the classifier can also certify minimality.
    """

    relation: GalaxyRelation
    certified_bound: Ordinal | None = None
    tight: bool = False

    def __post_init__(self) -> None:
        if self.relation is GalaxyRelation.SAME and self.certified_bound is None:
            raise ValueError("a same-galaxy verdict must carry a bound")


def _unlimited_verdict(c: Cls, what: str) -> GalaxyVerdict:
    """Verdict for a class not bounded on both branches."""
    even, odd = c.branches
    if "unknown" in (even.kind, odd.kind):
        raise IndeterminateError(f"{what} class is indeterminate")
    if c.diverges:
        return GalaxyVerdict(GalaxyRelation.DIFFERENT)
    return GalaxyVerdict(GalaxyRelation.FILTER_DEPENDENT)


def _rank0_verdict(finite: SymInt) -> GalaxyVerdict:
    c = classify(finite)
    magnitude = c.magnitude
    if magnitude is None:
        return _unlimited_verdict(c, "distance generator")
    bound, tight = magnitude
    return GalaxyVerdict(GalaxyRelation.SAME, Ordinal(0, bound), tight)


def _rank1_verdict(omega: SymInt, finite: SymInt) -> GalaxyVerdict:
    c = classify(omega)
    magnitude = c.magnitude
    if magnitude is None:
        return _unlimited_verdict(c, "omega coefficient")
    bound, tight = magnitude
    if classify(finite).value == 0:
        return GalaxyVerdict(GalaxyRelation.SAME, Ordinal(bound, 0), tight)
    # a positive finite part pushes the certified cap one omega step up
    return GalaxyVerdict(GalaxyRelation.SAME, Ordinal(bound + 1, 0), False)


def limitedly_distant(x: Hypernode, y: Hypernode) -> GalaxyVerdict:
    """Are the two points a standard distance apart on a filter-large set?"""
    d = hyperdistance(x, y)
    if x.rank == 0:
        return _rank0_verdict(d.finite)
    return _rank1_verdict(d.omega, d.finite)


def anchor_hypernode(graph) -> Hypernode:
    return make_hypernode(graph, graph.anchor_term())


def in_principal_galaxy(x: Hypernode) -> GalaxyVerdict:
    """Verdict against the family anchor; anchor choice is immaterial because
    any two standard points are at a fixed standard distance."""
    profile = x.profile
    if x.rank == 0:
        return _rank0_verdict(profile.finite)
    return _rank1_verdict(profile.omega, profile.finite)


# ====== Closeness order ======

def _unbounded_gap(diff: SymInt) -> Trivalent:
    """Does diff exceed every bound on a filter-large set?"""
    c = classify(diff)
    even, odd = c.branches
    if "unknown" in (even.kind, odd.kind):
        where = " on one parity" if c.kind == "split" else ""
        raise IndeterminateError(f"gap class is indeterminate{where}")
    up_even, up_odd = even.kind == "pinf", odd.kind == "pinf"
    if up_even != up_odd:
        return Trivalent.FILTER_DEPENDENT
    return Trivalent.TRUE if up_even else Trivalent.FALSE


def closer_than(base: Hypernode, y: Hypernode, z: Hypernode) -> Trivalent:
    """Is y's galaxy strictly closer to the principal one than z's?

    True exactly when the gap d(z, base) - d(y, base) outgrows every bound.
    The base only shifts both distances by a bounded correction, so the
    certified anchor profiles decide the verdict for any base in the
    principal galaxy.
    """
    require_same_enlargement(base, y)
    require_same_enlargement(y, z)
    if in_principal_galaxy(base).relation is not GalaxyRelation.SAME:
        raise ValueError("the base point must sit in the principal galaxy")
    if y.term == z.term:
        return Trivalent.FALSE  # the gap is identically 0
    if y.rank == 0:
        return _unbounded_gap(sym_sub(z.profile.finite, y.profile.finite))
    return _unbounded_gap(sym_sub(z.profile.omega, y.profile.omega))


# ====== Galaxy chains (compression / expansion) ======

@dataclass(frozen=True)
class ChainEntry:
    grade: int
    hypernode: Hypernode


@dataclass(frozen=True)
class GalaxyChain:
    """2m+1 galaxy representatives strictly ordered by closeness.

    Entries are ordered by grade -m..+m; grade 0 is the seed, negative
    grades are compressions toward the principal galaxy, positive grades
    expansions away from it.
    """

    base: Hypernode
    entries: tuple[ChainEntry, ...]

    def entry(self, grade: int) -> Hypernode:
        mid = (len(self.entries) - 1) // 2
        return self.entries[mid + grade].hypernode


def _reindex(seq: IndexSequence, grade: int, shift: int) -> tuple[int, int, int, int]:
    """The fields of the Floor that is seq read at 2^grade * n, or for
    grade -h < 0 at floor(n / 2^h) + shift.

    Expansion of a * floor((n + c) / 2^e) + b by 2^g: for g >= e the quotient
    is 2^(g-e) * n + floor(c / 2^e); for g < e, since floor(floor(x) / m) =
    floor(x / m) for an integer m >= 1, it is floor((n + floor(c / 2^g)) /
    2^(e-g)).  Compression: floor(n / 2^h) + shift + c is
    floor((n + 2^h * (shift + c)) / 2^h), so by the same identity the
    quotient is floor((n + 2^h * (shift + c)) / (2^h * q)).  Affine and
    constant arguments are the case q = 1.  A patched argument is read
    through its tail, which it equals at all but finitely many indices.
    """
    if isinstance(seq, Patched):
        return _reindex(seq.tail, grade, shift)
    if isinstance(seq, Constant):
        seq = Floor(0, seq.c, 1)
    elif isinstance(seq, Affine):
        seq = Floor(seq.a, seq.b, 1)
    if not isinstance(seq, Floor) or seq.q & (seq.q - 1):
        raise ChainConstructionError(
            f"cannot reindex the seed argument {seq.describe()}: the chain "
            f"takes constant, affine or power-of-two floor arguments")
    a, b, q, c = seq.a, seq.b, seq.q, seq.c
    if grade < 0:
        return a, b, q << -grade, (shift + c) << -grade
    e = q.bit_length() - 1
    if grade < e:
        return a, b, q >> grade, c >> grade
    return a << (grade - e), a * (c >> e) + b, 1, 0


def _reindexed_entry(seed: Hypernode, grade: int, shift: int) -> ChainEntry:
    """The chain entry of the given grade, its arguments labelled by grade."""
    term = NodeTerm(seed.term.ctor, tuple(
        Floor(*_reindex(p, grade, shift), label=f"chain[{grade:+d}]({p.describe()})")
        for p in seed.term.params))
    # the entry at n is the seed at an index >= 0: a member where the seed is
    return ChainEntry(grade, Hypernode(seed.graph, term, seed.rank,
                                       anchor_profile(seed.graph, term)))


def build_galaxy_chain(seed: Hypernode, depth: int,
                       base: Hypernode | None = None) -> GalaxyChain:
    """Two-way chain of 2*depth+1 galaxies around the seed, ordered by closeness.

    Grade g >= 0 reads the seed's arguments at 2^g * n, grade -g at
    floor(n / 2^g) + s, where s is the start of the seed's distance form, so
    every entry reads the seed where that form holds.  Each entry is a plain
    term with the family's distance form, and each adjacent pair is decided
    by closer_than, as any user pair is; the gaps add, so the whole chain is
    ordered.  Entry g holds coefficients of about g bits, so the depth is
    capped at MAX_CHAIN_DEPTH.
    """
    if depth < 0:
        raise ValueError("chain depth must be a natural number")
    if depth > MAX_CHAIN_DEPTH:
        raise ChainConstructionError(
            f"chain depth {depth} exceeds the cap {MAX_CHAIN_DEPTH}")
    if base is None:
        base = anchor_hypernode(seed.graph)
    require_same_enlargement(seed, base)
    if in_principal_galaxy(base).relation is not GalaxyRelation.SAME:
        raise ValueError("the base point must sit in the principal galaxy")
    if in_principal_galaxy(seed).relation is not GalaxyRelation.DIFFERENT:
        raise ChainConstructionError(
            "the seed must be certified outside the principal galaxy")
    shift = sym_start(seed.profile.omega if seed.rank else seed.profile.finite)
    entries = tuple(_reindexed_entry(seed, g, shift) for g in range(-depth, depth + 1))
    for a, b in zip(entries, entries[1:]):
        verdict = closer_than(base, a.hypernode, b.hypernode)
        if verdict is not Trivalent.TRUE:
            raise ChainConstructionError(f"chain entries {a.grade} and {b.grade} "
                                         f"failed the order check: {verdict.value}")
    return GalaxyChain(base, entries)


# ====== Constructive witnesses ======

def _ctor_of(graph: GraphInstance, node) -> str:
    args = node_coords(node)
    for ctor, arity in sorted(graph.TERM_ARITY.items()):
        if arity == len(args) and graph.instantiate_term(ctor, args) == node:
            return ctor
    raise ChainConstructionError(f"no constructor reproduces {node!r}")


def _fit_tail(column: list[int]) -> IndexSequence | None:
    """An exact presentation of a table of values: a floor tail, patched below.

    The tail a * floor((t + c) / q) + b, q in 1, 2, 4, 8, is read off the last
    values and must reproduce at least the last max(12, 4q); the longest
    suffix wins, the smaller q on a tie.  None when no tail fits.
    """
    size, last = len(column), len(column) - 1
    best: tuple[int, IndexSequence] | None = None
    for q in (1, 2, 4, 8):
        if size < max(12, 4 * q):
            break
        a = column[last] - column[last - q]  # one step of the quotient per q indices
        for c in range(q):
            tail = Floor(a, column[last] - a * ((last + c) // q), q, c)
            t0 = size
            while t0 and column[t0 - 1] == tail.value(t0 - 1):
                t0 -= 1
            if size - t0 >= max(12, 4 * q) and (best is None or t0 < best[0]):
                best = t0, tail
    if best is None:
        return None
    t0, tail = best
    if tail.q == 1:
        tail = Affine(tail.a, tail.b) if tail.a else Constant(tail.b)
    overrides = tuple((t, column[t]) for t in range(t0) if column[t] != tail.value(t))
    return Patched(tail, overrides) if overrides else tail


def konig_ray_witness(graph: GraphInstance, origin=None,
                      probe: int = 50) -> Hypernode:
    """A presentation walking one shell outward per index: d(step n, origin) = n.

    Greedy shell-following with the least-coordinate tie-break; a choice that
    dead-ends (from p:8 on the one-ended path, the walk down to p:0) is undone.
    The resulting point is outside the principal galaxy of any locally finite
    catalog family.
    """
    if not graph.locally_finite:
        raise InapplicableFamilyError(
            f"{graph.family} is not locally finite; shells are infinite")
    if origin is None:
        origin = graph.anchor()
    graph.require_member(origin)
    steps = [origin]
    on_shell = _shell_test(graph, origin)
    _follow_shells(graph, on_shell, steps, probe + 1)
    ctor = _ctor_of(graph, origin)
    coords = [node_coords(node) for node in steps]
    params = tuple(_fit_tail([c[i] for c in coords]) for i in range(len(coords[0])))
    term = None if None in params else NodeTerm(ctor, params)
    if term is None or any(graph.term_node(term, t) != steps[t] for t in range(probe)):
        def coord_fn(i: int) -> Callable[[int], int]:
            return lambda n: _ray_extend(graph, on_shell, steps, n)[i]

        term = NodeTerm(ctor, tuple(
            Explicit(coord_fn(i), label="greedy-ray") for i in range(len(coords[0]))))
    witness = make_hypernode(graph, term)
    for n in range(0, probe, 7):
        if graph.distance(origin, node_at(witness, n)) != n:
            raise ChainConstructionError("ray witness lost the exact-shell property")
    return witness


def _ray_extend(graph: GraphInstance, on_shell: Callable[[object, int], bool],
                steps: list, n: int) -> tuple:
    _follow_shells(graph, on_shell, steps, n + 1)
    return node_coords(steps[n])


def _shell_test(graph: GraphInstance, origin) -> Callable[[object, int], bool]:
    """(node, n) -> whether d(origin, node) == n.

    A family with a closed form answers each query directly.  Any other
    reads one BFS ball around the origin, grown a layer at a time as the
    walk needs it, in place of one search per query.  The ball stops at
    DEFAULT_BUDGET nodes, the budget one search had, and a query past it
    raises ChainConstructionError.
    """
    if graph.has_closed_form:
        return lambda node, n: graph.distance(origin, node) == n
    depth, layer, radius = {origin: 0}, [origin], 0

    def on_shell(node, n: int) -> bool:
        nonlocal layer, radius
        while radius < n and layer:
            if len(depth) > DEFAULT_BUDGET:
                raise ChainConstructionError(
                    f"shell ball passed {DEFAULT_BUDGET} nodes at radius {radius}")
            radius += 1
            outer = []
            for u in layer:
                for v in graph.neighbors(u):
                    if v not in depth:
                        depth[v] = radius
                        outer.append(v)
            layer = outer
        return depth.get(node) == n

    return on_shell


def _follow_shells(graph: GraphInstance, on_shell: Callable[[object, int], bool],
                   steps: list, length: int) -> None:
    """Grow `steps` to `length` nodes, node n at distance n from the origin.

    Each step takes the least-coordinate neighbour one shell further out; a
    choice that dead-ends is undone and the next candidate tried.  Nodes
    already in `steps` are kept.
    """
    floor = len(steps)
    untried: list[list] = []  # per appended step, the candidates left, least last
    while len(steps) < length:
        depth = len(steps)
        shell = [nb for nb in graph.neighbors(steps[-1]) if on_shell(nb, depth)]
        untried.append(sorted(shell, key=node_coords)[::-1])
        while not untried[-1]:
            untried.pop()
            if len(steps) == floor:
                raise ChainConstructionError(
                    f"greedy shell following stalled at distance {floor - 1}")
            steps.pop()
        steps.append(untried[-1].pop())


def boundary_ray_witness(g: OneGraph, origin: OneNodeId | None = None) -> Hypernode:
    """A 1-point whose omega coefficient from the origin clears k at index k.

    Walks the boundary 1-nodes outward, recording for each k the least one
    whose walk distance from the origin reaches omega * k.  The indices of
    the first RAY_PROBE steps are fitted by a floor tail when one reproduces
    them, as the König ray fits its coordinates; otherwise the walk itself
    is the argument.
    """
    missing = [name for name, ok in [
        ("locally 1-finite", g.locally_1_finite),
        ("locally section-finite", g.locally_section_finite),
        ("1-wconnected", g.one_wconnected),
        ("infinitely many boundary 1-nodes", g.infinitely_many_boundary),
    ] if not ok]
    if missing:
        raise InapplicableFamilyError(
            f"{g.family} lacks the layered-search hypotheses: {', '.join(missing)}")
    if origin is None:
        origin = g.anchor_one()
    g.require_member(origin)

    found: list[OneNodeId] = []        # boundary 1-nodes in index order
    marks: list[int] = []              # marks[k] = position in found for index k
    horizon = [8]

    def extend_boundary(pos: int) -> None:
        while len(found) <= pos:
            horizon[0] *= 2
            if horizon[0] > SCAN_CAP:
                raise ChainConstructionError(
                    f"boundary enumeration stalled: no growth within {SCAN_CAP} indices")
            found[:] = boundary_one_nodes(g, horizon[0])

    def omega_of(pos: int) -> int:
        extend_boundary(pos)
        return wdistance(g, origin, found[pos]).omega_coeff

    def mark(k: int) -> int:
        while len(marks) <= k:
            pos = marks[-1] if marks else 0
            while omega_of(pos) < len(marks):
                pos += 1
            marks.append(pos)
        return marks[k]

    def index_fn(k: int) -> int:
        return found[mark(k)].index

    index = _fit_tail([index_fn(k) for k in range(RAY_PROBE)])
    if index is None:
        index = Explicit(index_fn, MonotoneUnboundedDecl(), label="boundary-ray")
    return make_hypernode(g, NodeTerm(found[0].kind, (index,)))


# ====== Order report ======

@dataclass(frozen=True)
class OrderReport:
    pairs_checked: int
    triples_checked: int
    reflexivity_violations: tuple
    antisymmetry_violations: tuple
    transitivity_violations: tuple
    same_galaxy_pairs: tuple
    incomparable_pairs: tuple
    filter_dependent_pairs: tuple
    indeterminate_pairs: tuple

    @property
    def passed(self) -> bool:
        return not (self.reflexivity_violations or self.antisymmetry_violations
                    or self.transitivity_violations)


def verify_partial_order(sample: list[Hypernode],
                         base: Hypernode) -> OrderReport:
    """Check the strict-order laws of closer_than across a sample.

    Pairs that neither side is closer in, and filter-dependent pairs, are
    reported, not failed: the closeness order is partial by design.  Those
    pairs a limited distance apart are same-galaxy; the rest are incomparable.
    """
    k = len(sample)
    verdicts: dict[tuple[int, int], Trivalent | None] = {}
    for i in range(k):
        for j in range(k):
            try:
                verdicts[i, j] = closer_than(base, sample[i], sample[j])
            except IndeterminateError:
                verdicts[i, j] = None
    reflexive = tuple(i for i in range(k) if verdicts[i, i] is not Trivalent.FALSE)
    antisym = tuple((i, j) for i in range(k) for j in range(i + 1, k)
                    if verdicts[i, j] is Trivalent.TRUE
                    and verdicts[j, i] is Trivalent.TRUE)
    neither = [(i, j) for i in range(k) for j in range(i + 1, k)
               if verdicts[i, j] is Trivalent.FALSE
               and verdicts[j, i] is Trivalent.FALSE]
    same = tuple((i, j) for i, j in neither if _same_galaxy(sample[i], sample[j]))
    incomparable = tuple(p for p in neither if p not in same)
    filter_dep = tuple((i, j) for i in range(k) for j in range(i + 1, k)
                       if Trivalent.FILTER_DEPENDENT in (verdicts[i, j], verdicts[j, i]))
    indet = tuple((i, j) for i in range(k) for j in range(i + 1, k)
                  if verdicts[i, j] is None or verdicts[j, i] is None)
    transitivity = []
    triples = 0
    for i in range(k):
        for j in range(k):
            for m in range(k):
                if len({i, j, m}) < 3:
                    continue
                triples += 1
                if (verdicts[i, j] is Trivalent.TRUE
                        and verdicts[j, m] is Trivalent.TRUE
                        and verdicts[i, m] is not Trivalent.TRUE):
                    transitivity.append((i, j, m))
    return OrderReport(k * k, triples, reflexive, antisym, tuple(transitivity),
                       same, incomparable, filter_dep, indet)


def _same_galaxy(x: Hypernode, y: Hypernode) -> bool:
    try:
        return limitedly_distant(x, y).relation is GalaxyRelation.SAME
    except IndeterminateError:
        return False
