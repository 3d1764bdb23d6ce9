"""Rank-1 transfinite graphs: sections, tips, 1-nodes, and walk distances.

A 1-graph glues infinite extremities (tips) of ordinary graph sections into
1-nodes.  Distances count walk lengths as ordinals below w**2: a one-ended
extended segment costs w, an endless one w*2, finite segments count branches.

`wdistance` answers from each family's exact closed form first: two 0-nodes
of one section sit at their in-section distance, and any other pair reads
the family's `symbolic_wdistance` of the two constant terms naming it.
Only a pair without an exact form falls back to the search.  The search,
`wdistance_witness`, is the one source of walk legs and the oracle the
closed forms are tested against.  It never materialises a walk; it runs a
lexicographic Dijkstra over a finite quotient (sections as connecting
fabric, 1-nodes and promoted endpoints as vertices) and returns the length
plus a finite leg summary.  The search keeps only (previous vertex,
section) per reached vertex; the legs of the summary are built once, on the
returned path, from the differences of the settled distances.

Each family states its gluing once, as a class-level incidence table
(`INCIDENCE`).  A row `Touch(one, section, offset)` says that the 1-node of
kind `one` and index k touches the section of kind `section` and index
k + offset, at a tip, or through the 0-node `embedded(k)` it holds inside
that section.  Two rows are infinite fans over one single node (index 0):
`fan="sections"` makes the 1-node touch every section of the kind (the
ladder ground xg), `fan="ones"` makes the section touch every 1-node of the
kind (the partial ladder's star).  `OneGraph` derives both lookup directions
from the table, `sections_of(one, window)` and `incidences(section, window)`,
and fans are cut to the index window; the search and the boundary and
1-adjacency predicates read nothing else.

Adjacent means distance exactly 1, read from the distance form: a branch is
a walk of length w*0 + 1, so `OneGraph.adjacency_truthset` classifies where
`symbolic_wdistance` has omega part 0 and finite part 1, and no family
states a second adjacency rule.

A row may also name the `hub` of its section: a 0-node through which the
section's metric is a star, d(u, v) = d(u, hub) + d(hub, v) for distinct u
and v (the partial ladder's star centre).  The search then takes the hub as
one more vertex instead of relaxing every pair of the section's 1-nodes: a
1-node enters the hub at d(embedded, hub), and the hub reaches each incident
1-node, and the target, at d(hub, .).  A fan of W 1-nodes costs O(W) edges
instead of O(W**2).  The summary folds an intermediate hub stop back into
one leg, so stops and legs read as if the pairs had been relaxed directly.
Rows with a hub touch through embedded 0-nodes.

The catalog builds four fixed families:

  diamond_chain              series of diamond "chains", tip-only 1-nodes
  one_path_of_endless_paths  endless sequence of endless-path segments
  ladder_of_endless_paths    every ladder branch blown up into a segment
  partial_ladder             horizontal branches blown up, star kept intact

Uncountably many zig-zag tips of the diamond chains exist mathematically but
are excluded from the presentation: each would be an isolated singleton
1-node that can never shorten a walk between named nodes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .graphs import (NodeTerm, NotAMemberError, UnreachableError, check_term, natkey,
                     term_node, term_nodes)
from .kernel import TruthSet, finite_set, intersect
from .ordinal import ZERO, Ordinal
from .sequences import (Aff, Constant, Opaque, Parity, SymInt, bump_start,
                        classify, eq_const_truthset, eq_truthset, parity_sym,
                        per_parity, sym_abs, sym_add, sym_scale, sym_start,
                        sym_sub, sym_value, zone_by_magnitude)

DEFAULT_WINDOW_MARGIN = 2
SEARCH_POP_BUDGET = 20_000


# ====== Identifiers ======

@dataclass(frozen=True)
class SectionId:
    kind: str
    index: int = 0

    def sort_key(self):
        return (self.kind, natkey(self.index))


@dataclass(frozen=True)
class OneNodeId:
    kind: str  # "x1" indexed, "xg" the ladder ground 1-node
    index: int = 0

    def sort_key(self):
        return ("one", self.kind, natkey(self.index))

    def describe(self) -> str:
        return "xg" if self.kind == "xg" else f"x1:{self.index}"


class Touch(NamedTuple):
    """One incidence-table row; see the module docstring."""
    one: str
    section: str
    offset: int = 0
    fan: str = ""  # "" | "sections" | "ones"
    embedded: Callable[[int], object] | None = None  # None: a tip
    hub: object | None = None  # the section's star centre, if its metric is a star


class Incidence(NamedTuple):
    """One 1-node touching one section, at a tip or through `embedded`."""
    one: OneNodeId
    section: SectionId
    embedded: object | None


# ====== 0-nodes of the catalog families ======

@dataclass(frozen=True)
class DiamondNode:
    side: str  # "j" junction, "l" left, "r" right
    chain: int
    depth: int

    def sort_key(self):
        return ("dia", natkey(self.chain), natkey(self.depth), self.side)


@dataclass(frozen=True)
class SegNode:
    seg: int
    pos: int

    def sort_key(self):
        return ("seg", natkey(self.seg), natkey(self.pos))


@dataclass(frozen=True)
class RailNode:
    rail: str  # "v" vertical, "h" horizontal
    index: int
    pos: int

    def sort_key(self):
        return ("rail", self.rail, natkey(self.index), natkey(self.pos))


@dataclass(frozen=True)
class StarNode:
    leaf: int | None  # None is the hub, k is the leaf toward x_k

    def sort_key(self):
        return ("star", natkey(-1 if self.leaf is None else self.leaf))


# ====== Walk summaries ======

@dataclass(frozen=True)
class WalkLeg:
    via: SectionId
    mechanism: str  # "finite" | "tip" | "tip+tip": tips crossed by the leg
    cost: Ordinal


@dataclass(frozen=True)
class WalkSummary:
    total: Ordinal
    stops: tuple  # visited vertices: 0-nodes and OneNodeIds
    legs: tuple[WalkLeg, ...]

    def describe(self) -> str:
        names = []
        for s in self.stops:
            names.append(s.describe() if isinstance(s, OneNodeId) else repr(s))
        return " -> ".join(names)


# ====== Symbolic helpers ======

def _pair_const(omega: int, finite: int, start: int = 0) -> tuple[SymInt, SymInt]:
    return Aff(0, omega, start), Aff(0, finite, start)


def _abs_scaled(delta: SymInt, factor: int) -> SymInt:
    return sym_scale(factor, sym_abs(delta))


def _updown(delta: SymInt, up: tuple[int, int], down: tuple[int, int]) -> SymInt | None:
    """Piecewise-linear in delta: up[0]*d+up[1] when d >= 1, down[0]*|d|+down[1] otherwise."""
    value = lambda d: up[0] * d + up[1] if d >= 1 else down[0] * (-d) + down[1]
    # one evaluator for both branches, so branches of one class stay one form
    return per_parity(_piecewise, delta, value, lambda n: value(sym_value(delta, n)))


def _piecewise(delta: SymInt, value: Callable[[int], int],
               fn: Callable[[int], int]) -> SymInt | None:
    """value(delta) on one parity branch of delta; fn evaluates the whole sequence."""
    c = classify(delta)
    start = sym_start(delta)
    if c.value is not None:
        return Aff(0, value(c.value), start)
    if c.kind in ("pinf", "ninf"):
        return Opaque(fn, to_pinf=True, start=start)
    if c.kind == "range":
        if c.lo >= 1:
            lo, hi = value(c.lo), value(c.hi)
        elif c.hi <= 0:
            lo, hi = value(c.hi), value(c.lo)
        else:
            pieces = [value(d) for d in (0, 1, c.lo, c.hi)]
            lo, hi = min(pieces), max(pieces)
        return Opaque(fn, lo=min(lo, hi), hi=max(lo, hi), start=start)
    return None


def _position_gap(ta: NodeTerm, tb: NodeTerm) -> SymInt:
    """|p_a - p_b| of two terms whose second parameter is a position."""
    return sym_abs(sym_sub(ta.param_syms()[1], tb.param_syms()[1]))


def _same_kind_section(ta: NodeTerm, tb: NodeTerm) -> TruthSet | None:
    """{n : same section} when the constructor and first index name the section."""
    if ta.ctor != tb.ctor:
        return finite_set()
    return eq_truthset(sym_sub(ta.param_syms()[0], tb.param_syms()[0]))


def _series_one_sym(ta: NodeTerm, tb: NodeTerm) -> tuple[SymInt, SymInt] | None:
    """x1-x1 and x1-section forms of a series of sections glued tip to tip.

    x1:k sits between sections k-1 and k, and crossing a section costs w*2.
    """
    if ta.ctor == "x1" and tb.ctor == "x1":
        delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
        return _abs_scaled(delta, 2), Aff(0, 0, sym_start(delta))
    if tb.ctor == "x1":
        ta, tb = tb, ta
    delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])  # x1 index minus section index
    omega = _updown(delta, up=(2, -1), down=(2, 1))
    if omega is None:
        return None
    return omega, Aff(0, 0, sym_start(delta))


def _sym_min(*forms: SymInt | None) -> SymInt | None:
    """Indexwise minimum of eventually constant forms on one parity branch."""
    if len(forms) == 1:
        return forms[0]
    if any(f is None for f in forms):
        return None
    values = [classify(f).value for f in forms]
    if None in values:
        return None
    return Aff(0, min(values), max(sym_start(f) for f in forms))


def _by_parity(form: Callable[[NodeTerm, NodeTerm], tuple[SymInt, SymInt] | None],
               ta: NodeTerm, tb: NodeTerm) -> tuple[SymInt, SymInt] | None:
    """form(ta, tb) taken on each parity branch of the terms' Parity parameters."""
    if not any(isinstance(p, Parity) for p in ta.params + tb.params):
        return None

    def branch(term: NodeTerm, side: str) -> NodeTerm:
        return NodeTerm(term.ctor, tuple(getattr(p, side) if isinstance(p, Parity) else p
                                         for p in term.params))

    even = form(branch(ta, "even"), branch(tb, "even"))
    odd = form(branch(ta, "odd"), branch(tb, "odd"))
    if even is None or odd is None:
        return None
    return parity_sym(even[0], odd[0]), parity_sym(even[1], odd[1])


# ====== Base class ======

class OneGraph:
    """A catalog 1-graph presented through section and incidence oracles."""

    family: str = ""
    rank: int = 1  # walk lengths are ordinals below w**2
    INCIDENCE: tuple[Touch, ...] = ()
    two_way: bool = False  # indices run over all integers, not from 0
    locally_1_finite: bool = True        # sections touch finitely many boundary 1-nodes
    locally_section_finite: bool = True  # 1-nodes touch finitely many sections
    one_wconnected: bool = True
    infinitely_many_boundary: bool = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._BY_ONE, cls._BY_SECTION, cls._HUB = {}, {}, {}
        for row in cls.INCIDENCE:
            cls._BY_ONE.setdefault(row.one, []).append(row)
            cls._BY_SECTION.setdefault(row.section, []).append(row)
            if row.hub is not None:
                cls._HUB[row.section] = row.hub

    # -- membership --
    def contains(self, ref) -> bool:
        if isinstance(ref, OneNodeId):
            return self.contains_one(ref)
        return self.contains_zero(ref)

    def contains_zero(self, node) -> bool:
        raise NotImplementedError

    def contains_one(self, one_id: OneNodeId) -> bool:
        raise NotImplementedError

    def require_member(self, ref) -> None:
        if not self.contains(ref):
            raise NotAMemberError(f"{ref!r} is not a node of {self.family}")

    # -- structure --
    def section_of(self, zero_node) -> SectionId:
        raise NotImplementedError

    def section_distance(self, u, v) -> int:
        """Finite 0-distance inside a shared section."""
        raise NotImplementedError

    def sections(self, horizon: int) -> Iterator[SectionId]:
        raise NotImplementedError

    def one_node_ids(self, horizon: int) -> Iterator[OneNodeId]:
        for kind, rows in self._BY_ONE.items():
            if rows[0].fan == "sections":  # the single 1-node of a fan
                yield OneNodeId(kind)
            else:
                yield from (OneNodeId(kind, k) for k in self._indices(horizon))

    # -- incidence, derived from INCIDENCE --
    def _indices(self, horizon: int) -> Iterator[int]:
        """0, 1, 2, ... or, two-way, 0, 1, -1, 2, -2, ..."""
        for k in range(horizon):
            yield k
            if self.two_way and k > 0:
                yield -k

    def _fan(self, window: tuple[int, int]) -> range:
        lo, hi = window
        return range(lo if self.two_way else max(lo, 0), hi + 1)

    def incidences(self, section: SectionId, window: tuple[int, int]) -> list[Incidence]:
        """1-nodes touching the section, index-restricted for infinite fans."""
        out = []
        for row in self._BY_SECTION[section.kind]:
            held = row.embedded
            if row.fan == "ones":
                out += [Incidence(OneNodeId(row.one, k), section, None if held is None else held(k))
                        for k in self._fan(window)]
                continue
            k = 0 if row.fan == "sections" else section.index - row.offset
            if self.two_way or k >= 0:
                out.append(Incidence(OneNodeId(row.one, k), section,
                                     None if held is None else held(k)))
        return out

    def sections_of(self, one_id: OneNodeId, window: tuple[int, int]) -> list[Incidence]:
        """Sections the 1-node touches, index-restricted for infinite fans."""
        k = one_id.index
        out = []
        for row in self._BY_ONE[one_id.kind]:
            held = None if row.embedded is None else row.embedded(k)
            if row.fan == "sections":
                out += [Incidence(one_id, SectionId(row.section, s), held)
                        for s in self._fan(window)]
                continue
            s = 0 if row.fan == "ones" else k + row.offset
            if self.two_way or s >= 0:
                out.append(Incidence(one_id, SectionId(row.section, s), held))
        return out

    def hub(self, section: SectionId):
        """The section's declared star centre, or None."""
        return self._HUB.get(section.kind)

    def one_node_containing(self, zero_node) -> OneNodeId | None:
        """The 1-node a nonmaximal 0-node is embedded in, if any."""
        return None

    def anchor_one(self) -> OneNodeId:
        return OneNodeId("x1", 0)

    def anchor_term(self) -> NodeTerm:
        """The anchor 1-node as a constant node term."""
        return self.node_term(self.anchor_one())

    # -- indices, used for search windows --
    def ref_indices(self, ref) -> list[int]:
        raise NotImplementedError

    # -- terms --
    TERM_ARITY: dict[str, int] = {}

    def instantiate_term(self, ctor: str, args: tuple[int, ...]):
        raise NotImplementedError

    def node_term(self, ref) -> NodeTerm:
        """The constant term that instantiates to ref: `instantiate_term` inverted.

        The base class names 1-nodes; each family names its own 0-nodes.
        """
        if not isinstance(ref, OneNodeId):
            raise NotImplementedError
        return NodeTerm(ref.kind, (Constant(ref.index),) if self.TERM_ARITY[ref.kind] else ())

    def normalize_term(self, term: NodeTerm) -> NodeTerm:
        """Rewrite to the canonical constructor for the same nodes."""
        return term

    def promote_term(self, term: NodeTerm) -> NodeTerm:
        """Replace a nonmaximal 0-node constructor by its holding 1-node's."""
        return term

    check_term = check_term
    term_node = term_node
    term_nodes = term_nodes

    def symbolic_wdistance(self, ta: NodeTerm,
                           tb: NodeTerm) -> tuple[SymInt, SymInt] | None:
        """Certified (omega part, finite part) of n -> wdistance(ta(n), tb(n))."""
        return None

    def _by_section(self, ta: NodeTerm, tb: NodeTerm, same: TruthSet | None, start: int,
                    same_finite: Callable[[], SymInt | None],
                    cross: Callable[[int], tuple[SymInt, SymInt] | None]):
        """Zero-zero form split on {n : the two 0-nodes share a section}.

        Cofinitely shared: omega 0 and the in-section gap `same_finite()`.
        Finitely shared: the family's cross-section form `cross(start)`, with
        the start moved past the last shared index.  Anything else, such as a
        parity-straddling split, is `symbolic_wdistance` taken per parity
        branch of the terms' Parity parameters, or has no form.
        """
        pair = None
        if same is not None and same.kind == "cofinite":
            fin = same_finite()
            if fin is not None:
                pair = Aff(0, 0, max(start, same.threshold)), bump_start(fin, same.threshold)
        elif same is not None and same.kind == "finite":
            pair = cross(max(start, same.threshold))
        return pair if pair is not None else _by_parity(self.symbolic_wdistance, ta, tb)

    def adjacency_truthset(self, ta: NodeTerm, tb: NodeTerm) -> TruthSet | None:
        """Classification of {n : the two generated nodes share a branch}.

        Adjacent means distance exactly 1, read from the distance form: omega
        part 0 and finite part 1.  A star leaf promotes to the 1-node holding
        it, which touches the hub exactly as the leaf does.
        """
        pair = self.symbolic_wdistance(ta, tb)
        if pair is None:
            return None
        return intersect(eq_const_truthset(pair[0], 0), eq_const_truthset(pair[1], 1))

    def term_wdistance_fn(self, ta: NodeTerm, tb: NodeTerm) -> Callable[[int], Ordinal]:
        def fn(n: int) -> Ordinal:
            return wdistance(self, self.term_node(ta, n), self.term_node(tb, n))
        return fn

    # -- sampling --
    def sample_maximal_nodes(self, rng, count: int, span: int = 6) -> list:
        raise NotImplementedError


# ====== Promotion ======

def promote(g: OneGraph, ref):
    """Replace a nonmaximal 0-node by the 1-node containing it."""
    g.require_member(ref)
    if isinstance(ref, OneNodeId):
        return ref
    holder = g.one_node_containing(ref)
    return holder if holder is not None else ref


# ====== The lexicographic quotient search ======

def _incidence_entry_cost(g: OneGraph, u, inc: Incidence) -> tuple[int, int]:
    """Lex cost from a 0-node to a 1-node met inside the node's section."""
    if inc.embedded is not None:
        return (0, g.section_distance(u, inc.embedded))
    return (1, 0)


def _one_to_one_cost(g: OneGraph, inc_a: Incidence, inc_b: Incidence) -> tuple[int, int]:
    if inc_a.embedded is not None and inc_b.embedded is not None:
        return (0, g.section_distance(inc_a.embedded, inc_b.embedded))
    return ((inc_a.embedded is None) + (inc_b.embedded is None), 0)  # w per tip crossed


def _mechanism(cost: tuple[int, int]) -> str:
    return {0: "finite", 1: "tip", 2: "tip+tip"}[cost[0]]


def _search_window(g: OneGraph, x, y, margin: int) -> tuple[int, int]:
    indices = g.ref_indices(x) + g.ref_indices(y)
    return (min(indices) - margin, max(indices) + margin)


def wdistance_witness(g: OneGraph, x, y,
                      margin: int = DEFAULT_WINDOW_MARGIN) -> tuple[Ordinal, WalkSummary]:
    """Minimum walk length between two nodes, with a finite leg summary.

    Nonmaximal 0-node inputs are promoted to their containing 1-node first.
    The vertex set is the two endpoints, the 1-nodes inside an index window
    around them and the hubs of their sections; for the catalog families no
    shortest walk leaves that window, since crossing extra sections only
    ever adds tip costs.
    """
    x, y = promote(g, x), promote(g, y)
    if x == y:
        return ZERO, WalkSummary(ZERO, (x,), ())
    window = _search_window(g, x, y, margin)
    y_section = None if isinstance(y, OneNodeId) else g.section_of(y)

    def edges(ref):
        """(neighbour, section, lex cost) of each one-section leg out of ref."""
        if isinstance(ref, OneNodeId):
            for inc_self in g.sections_of(ref, window):
                section = inc_self.section
                hub = g.hub(section)
                if hub is not None:
                    yield hub, section, (0, g.section_distance(inc_self.embedded, hub))
                    continue
                if section == y_section:
                    yield y, section, _incidence_entry_cost(g, y, inc_self)
                for inc in g.incidences(section, window):
                    if inc.one != ref:
                        yield inc.one, section, _one_to_one_cost(g, inc_self, inc)
            return
        section = g.section_of(ref)
        if section == y_section and y != ref:
            yield y, section, (0, g.section_distance(ref, y))
        hub = g.hub(section)
        if hub is not None and ref != hub:
            yield hub, section, (0, g.section_distance(ref, hub))
            return
        for inc in g.incidences(section, window):
            yield inc.one, section, _incidence_entry_cost(g, ref, inc)

    dist: dict = {x: (0, 0)}
    pred: dict = {}  # vertex -> (previous vertex, section crossed)
    heap = [(0, 0, x.sort_key(), x)]
    done = set()
    pops = 0
    while heap:
        w1, w0, _, ref = heapq.heappop(heap)
        if ref in done:
            continue
        done.add(ref)
        pops += 1
        if ref == y:
            break
        if pops > SEARCH_POP_BUDGET:
            raise UnreachableError("search budget exhausted before reaching the target")
        for nref, section, (c1, c0) in edges(ref):
            cand = (w1 + c1, w0 + c0)
            known = dist.get(nref)
            if known is None or cand < known:
                dist[nref] = cand
                pred[nref] = (ref, section)
                heapq.heappush(heap, (cand[0], cand[1], nref.sort_key(), nref))
    if y not in done:
        raise UnreachableError(f"{x!r} and {y!r} are not 1-wconnected within the window")
    total = Ordinal(*dist[y])
    stops, legs = [y], []
    ref = y
    while ref != x:
        prev, section = pred[ref]
        if prev != x and prev == g.hub(section):
            prev = pred[prev][0]  # fold the hub stop into one leg
        cost = (dist[ref][0] - dist[prev][0], dist[ref][1] - dist[prev][1])
        legs.append(WalkLeg(section, _mechanism(cost), Ordinal(*cost)))
        stops.append(prev)
        ref = prev
    return total, WalkSummary(total, tuple(reversed(stops)), tuple(reversed(legs)))


def wdistance(g: OneGraph, x, y, margin: int = DEFAULT_WINDOW_MARGIN) -> Ordinal:
    """Minimum walk length between two nodes, from the exact closed form first.

    Two 0-nodes of one section sit at their in-section distance: no 1-node
    kind is embedded in more than one section, so a walk that leaves the
    section crosses a tip and costs at least w.  Any other pair reads the
    family's `symbolic_wdistance` of the two constant terms; for constant
    terms an exact eventual value is the value itself.  A pair without an
    exact form falls back to the search, `wdistance_witness`.
    """
    x, y = promote(g, x), promote(g, y)
    if x == y:
        return ZERO
    if not isinstance(x, OneNodeId) and not isinstance(y, OneNodeId) \
            and g.section_of(x) == g.section_of(y):
        return Ordinal(0, g.section_distance(x, y))
    pair = g.symbolic_wdistance(g.node_term(x), g.node_term(y))
    if pair is not None:
        omega, finite = classify(pair[0]).value, classify(pair[1]).value
        if omega is not None and finite is not None:
            return Ordinal(omega, finite)
    total, _ = wdistance_witness(g, x, y, margin)
    return total


# ====== Boundary structure ======

def is_boundary(g: OneGraph, one_id: OneNodeId, horizon: int = 64) -> bool:
    """Boundary 1-nodes touch at least two sections (tips plus embedded node)."""
    g.require_member(one_id)
    window = (-horizon, horizon)
    return len({inc.section for inc in g.sections_of(one_id, window)}) >= 2


def boundary_one_nodes(g: OneGraph, horizon: int = 64) -> Iterator[OneNodeId]:
    for one_id in g.one_node_ids(horizon):
        if is_boundary(g, one_id, horizon):
            yield one_id


def one_adjacent(g: OneGraph, a: OneNodeId, b: OneNodeId, horizon: int = 64) -> bool:
    """1-adjacent means incident to a shared section."""
    g.require_member(a)
    g.require_member(b)
    window = (-horizon, horizon)
    sections_a = {inc.section for inc in g.sections_of(a, window)}
    return any(inc.section in sections_a for inc in g.sections_of(b, window))


@dataclass(frozen=True)
class SeparationVerdict:
    applicable: bool
    passed: bool | None
    distance: Ordinal | None
    reason: str = ""


def check_separation_bound(g: OneGraph, a: OneNodeId, b: OneNodeId) -> SeparationVerdict:
    """Non-1-adjacent 1-nodes must sit at walk distance at least w."""
    if a == b or one_adjacent(g, a, b):
        return SeparationVerdict(False, None, None, "nodes share a section")
    try:
        d = wdistance(g, a, b)
    except UnreachableError:
        return SeparationVerdict(False, None, None, "not 1-wconnected within budget")
    return SeparationVerdict(True, d >= Ordinal(1, 0), d)


# ====== Families ======

class DiamondChain(OneGraph):
    """Series of diamond chains; consecutive chains meet in a tip-only 1-node.

    Chain k holds junctions J(k,d) with left/right companions; x_k0 = J(k,0).
    The only way between distinct chains is through a tip, so 0-paths between
    far-apart bases do not exist although walks do.
    """

    family = "diamond_chain"
    TERM_ARITY = {"j": 2, "l": 2, "r": 2, "x0": 1, "x1": 1}
    # x1:k glues the right tip of chain k-1 to the left tip of chain k
    INCIDENCE = (Touch("x1", "chain", -1), Touch("x1", "chain", 0))

    def contains_zero(self, node) -> bool:
        return (isinstance(node, DiamondNode) and node.side in "jlr"
                and node.chain >= 0 and node.depth >= 0)

    def contains_one(self, one_id) -> bool:
        return one_id.kind == "x1" and one_id.index >= 0

    def section_of(self, node) -> SectionId:
        return SectionId("chain", node.chain)

    @staticmethod
    def _height(node: DiamondNode) -> int:
        return 2 * node.depth + (0 if node.side == "j" else 1)

    def section_distance(self, u, v) -> int:
        if u == v:
            return 0
        # left and right companions at equal depth only meet through a junction
        if {u.side, v.side} == {"l", "r"} and u.depth == v.depth:
            return 2
        return abs(self._height(u) - self._height(v))

    def sections(self, horizon):
        return (SectionId("chain", k) for k in range(horizon))

    def ref_indices(self, ref) -> list[int]:
        return [ref.index if isinstance(ref, OneNodeId) else ref.chain]

    def instantiate_term(self, ctor, args):
        if ctor == "x1":
            return OneNodeId("x1", args[0])
        if ctor == "x0":
            return DiamondNode("j", args[0], 0)
        if ctor in ("j", "l", "r"):
            return DiamondNode(ctor, args[0], args[1])
        raise NotAMemberError(f"unknown constructor {ctor!r} for {self.family}")

    def node_term(self, ref):
        if isinstance(ref, OneNodeId):
            return super().node_term(ref)
        return NodeTerm(ref.side, (Constant(ref.chain), Constant(ref.depth)))

    def normalize_term(self, term):
        if term.ctor == "x0":
            return NodeTerm("j", (term.params[0], Constant(0)))
        return term

    def symbolic_wdistance(self, ta, tb):
        ta, tb = self.normalize_term(ta), self.normalize_term(tb)
        if "x1" in (ta.ctor, tb.ctor):
            return _series_one_sym(ta, tb)
        delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
        return self._by_section(ta, tb, eq_truthset(delta), sym_start(delta),
                                lambda: self._same_chain_distance(ta, tb),
                                lambda start: (_abs_scaled(delta, 2), Aff(0, 0, start)))

    def _same_chain_distance(self, ta, tb) -> SymInt | None:
        da, db = ta.param_syms()[1], tb.param_syms()[1]
        ha = sym_add(sym_scale(2, da), Aff(0, 0 if ta.ctor == "j" else 1))
        hb = sym_add(sym_scale(2, db), Aff(0, 0 if tb.ctor == "j" else 1))
        gap = sym_abs(sym_sub(ha, hb))
        if {ta.ctor, tb.ctor} != {"l", "r"}:
            return gap
        # opposite companions: equal depth costs 2, otherwise the height gap
        depth_eq = eq_truthset(sym_sub(da, db))
        if depth_eq is None:
            return None
        if depth_eq.kind == "finite":
            return bump_start(gap, depth_eq.threshold)
        if depth_eq.kind == "cofinite":
            return Aff(0, 2, max(sym_start(gap), depth_eq.threshold))
        return None

    def sample_maximal_nodes(self, rng, count, span=6):
        out = []
        for _ in range(count):
            if rng.random() < 0.3:
                out.append(OneNodeId("x1", rng.randint(0, span)))
            else:
                out.append(DiamondNode(rng.choice("jlr"), rng.randint(0, span),
                                       rng.randint(0, span)))
        return out


class OnePathOfEndlessPaths(OneGraph):
    """An endless 1-path: consecutive 1-nodes joined by endless-path sections."""

    family = "one_path_of_endless_paths"
    TERM_ARITY = {"e": 2, "x1": 1}
    # x1:k glues the positive tip of seg k-1 to the negative tip of seg k
    INCIDENCE = (Touch("x1", "seg", -1), Touch("x1", "seg", 0))
    two_way = True

    def contains_zero(self, node) -> bool:
        return isinstance(node, SegNode)

    def contains_one(self, one_id) -> bool:
        return one_id.kind == "x1"

    def section_of(self, node) -> SectionId:
        return SectionId("seg", node.seg)

    def section_distance(self, u, v) -> int:
        return abs(u.pos - v.pos)

    def sections(self, horizon):
        return (SectionId("seg", k) for k in self._indices(horizon))

    def ref_indices(self, ref) -> list[int]:
        return [ref.index if isinstance(ref, OneNodeId) else ref.seg]

    def instantiate_term(self, ctor, args):
        if ctor == "x1":
            return OneNodeId("x1", args[0])
        if ctor == "e":
            return SegNode(args[0], args[1])
        raise NotAMemberError(f"unknown constructor {ctor!r} for {self.family}")

    def node_term(self, ref):
        if isinstance(ref, OneNodeId):
            return super().node_term(ref)
        return NodeTerm("e", (Constant(ref.seg), Constant(ref.pos)))

    def symbolic_wdistance(self, ta, tb):
        if "x1" in (ta.ctor, tb.ctor):
            return _series_one_sym(ta, tb)
        delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
        return self._by_section(ta, tb, eq_truthset(delta), sym_start(delta),
                                lambda: _position_gap(ta, tb),
                                lambda start: (_abs_scaled(delta, 2), Aff(0, 0, start)))

    def sample_maximal_nodes(self, rng, count, span=6):
        out = []
        for _ in range(count):
            if rng.random() < 0.3:
                out.append(OneNodeId("x1", rng.randint(-span, span)))
            else:
                out.append(SegNode(rng.randint(-span, span), rng.randint(-span, span)))
        return out


class LadderOfEndlessPaths(OneGraph):
    """Every branch of the grounded ladder blown up into an endless path.

    The former ground becomes the 1-node xg holding one tip per vertical
    section (infinitely many); every walk distance is uniformly small, so the
    enlargement has a single 1-galaxy.
    """

    family = "ladder_of_endless_paths"
    locally_section_finite = False  # xg touches every vertical section
    TERM_ARITY = {"v": 2, "h": 2, "x1": 1, "xg": 0}
    # x1:k joins v k, h k-1 and h k; the ground holds a tip of every v section
    INCIDENCE = (Touch("xg", "v", fan="sections"), Touch("x1", "v", 0),
                 Touch("x1", "h", -1), Touch("x1", "h", 0))

    def contains_zero(self, node) -> bool:
        return isinstance(node, RailNode) and node.rail in "vh" and node.index >= 0

    def contains_one(self, one_id) -> bool:
        if one_id.kind == "xg":
            return one_id.index == 0
        return one_id.kind == "x1" and one_id.index >= 0

    def section_of(self, node) -> SectionId:
        return SectionId(node.rail, node.index)

    def section_distance(self, u, v) -> int:
        return abs(u.pos - v.pos)

    def sections(self, horizon):
        for k in range(horizon):
            yield SectionId("v", k)
            yield SectionId("h", k)

    def anchor_one(self):
        return OneNodeId("xg")

    def ref_indices(self, ref) -> list[int]:
        if isinstance(ref, OneNodeId):
            return [0 if ref.kind == "xg" else ref.index]
        return [ref.index]

    def instantiate_term(self, ctor, args):
        if ctor == "xg":
            return OneNodeId("xg")
        if ctor == "x1":
            return OneNodeId("x1", args[0])
        if ctor in ("v", "h"):
            return RailNode(ctor, args[0], args[1])
        raise NotAMemberError(f"unknown constructor {ctor!r} for {self.family}")

    def node_term(self, ref):
        if isinstance(ref, OneNodeId):
            return super().node_term(ref)
        return NodeTerm(ref.rail, (Constant(ref.index), Constant(ref.pos)))

    @staticmethod
    def _tips(ctor: str, syms: tuple[SymInt, ...]) -> list:
        """Indices of the 1-nodes a term's walks leave through; None is xg.

        A 1-node is its own tip; section v k ends in x1:k and xg, h k in
        x1:k and x1:k+1.
        """
        if ctor == "xg":
            return [None]
        if ctor == "x1":
            return [syms[0]]
        return [syms[0], None] if ctor == "v" else [syms[0], sym_add(syms[0], Aff(0, 1))]

    @staticmethod
    def _tip_gap(i: SymInt | None, j: SymInt | None) -> SymInt | None:
        """Omega coefficient between two 1-nodes: along h sections, or via xg."""
        if i is None or j is None:
            return Aff(0, 0 if i is j else 2)
        return zone_by_magnitude(sym_sub(i, j), (0, 2, 4))

    def symbolic_wdistance(self, ta, tb):
        syms_a, syms_b = ta.param_syms(), tb.param_syms()
        start = max([0] + [sym_start(s) for s in syms_a + syms_b])
        # each 0-node endpoint pays w to reach a tip of its section
        ends = (ta.ctor in ("v", "h")) + (tb.ctor in ("v", "h"))
        gaps = [self._tip_gap(i, j) for i in self._tips(ta.ctor, syms_a)
                for j in self._tips(tb.ctor, syms_b)]
        gap = per_parity(_sym_min, *gaps)
        if gap is None:
            return None
        omega = sym_add(gap, Aff(0, ends)) if ends else gap

        def cross(start: int) -> tuple[SymInt, SymInt]:
            return bump_start(omega, start), Aff(0, 0, start)

        if ends < 2:
            return cross(start)
        return self._by_section(ta, tb, _same_kind_section(ta, tb), start,
                                lambda: _position_gap(ta, tb), cross)

    def sample_maximal_nodes(self, rng, count, span=6):
        out = []
        for _ in range(count):
            r = rng.random()
            if r < 0.1:
                out.append(OneNodeId("xg"))
            elif r < 0.4:
                out.append(OneNodeId("x1", rng.randint(0, span)))
            else:
                out.append(RailNode(rng.choice("vh"), rng.randint(0, span),
                                    rng.randint(-span, span)))
        return out


class PartialLadderOfEndlessPaths(OneGraph):
    """Ladder with only the horizontal branches blown up; the star survives.

    The former rung nodes x_k become 1-nodes that hold an embedded 0-node of
    the untouched star, so distinct rung 1-nodes are two branches apart:
    finite walk distances between 1-nodes exist here.
    """

    family = "partial_ladder"
    locally_1_finite = False  # the star meets every rung 1-node
    TERM_ARITY = {"h": 2, "zg": 1, "xg": 0, "x1": 1}
    # x1:k holds the star leaf toward x_k and joins h k-1 and h k at tips
    INCIDENCE = (Touch("x1", "star", fan="ones", embedded=StarNode, hub=StarNode(None)),
                 Touch("x1", "h", -1), Touch("x1", "h", 0))

    def contains_zero(self, node) -> bool:
        if isinstance(node, StarNode):
            return node.leaf is None or node.leaf >= 0
        return isinstance(node, RailNode) and node.rail == "h" and node.index >= 0

    def contains_one(self, one_id) -> bool:
        return one_id.kind == "x1" and one_id.index >= 0

    def section_of(self, node) -> SectionId:
        if isinstance(node, StarNode):
            return SectionId("star")
        return SectionId("h", node.index)

    def section_distance(self, u, v) -> int:
        if u == v:
            return 0
        if isinstance(u, StarNode):
            return 1 if None in (u.leaf, v.leaf) else 2
        return abs(u.pos - v.pos)

    def sections(self, horizon):
        yield SectionId("star")
        yield from (SectionId("h", k) for k in range(horizon))

    def one_node_containing(self, zero_node):
        if isinstance(zero_node, StarNode) and zero_node.leaf is not None:
            return OneNodeId("x1", zero_node.leaf)
        return None

    def ref_indices(self, ref) -> list[int]:
        if isinstance(ref, OneNodeId):
            return [ref.index]
        if isinstance(ref, StarNode):
            return [0 if ref.leaf is None else ref.leaf]
        return [ref.index]

    def instantiate_term(self, ctor, args):
        if ctor == "xg":
            return StarNode(None)
        if ctor == "zg":
            return StarNode(args[0])
        if ctor == "x1":
            return OneNodeId("x1", args[0])
        if ctor == "h":
            return RailNode("h", args[0], args[1])
        raise NotAMemberError(f"unknown constructor {ctor!r} for {self.family}")

    def node_term(self, ref):
        if isinstance(ref, OneNodeId):
            return super().node_term(ref)
        if isinstance(ref, StarNode):
            return NodeTerm("xg", ()) if ref.leaf is None else NodeTerm("zg", (Constant(ref.leaf),))
        return NodeTerm("h", (Constant(ref.index), Constant(ref.pos)))

    def promote_term(self, term):
        # a star leaf is embedded in its rung 1-node; distances promote it
        if term.ctor == "zg":
            return NodeTerm("x1", term.params)
        return term

    def symbolic_wdistance(self, ta, tb):
        ta, tb = self.promote_term(ta), self.promote_term(tb)
        start = max([0] + [sym_start(s) for s in ta.param_syms() + tb.param_syms()])
        if ta.ctor == "xg" and tb.ctor == "xg":
            return _pair_const(0, 0, start)
        if {ta.ctor, tb.ctor} == {"xg", "x1"}:
            return _pair_const(0, 1, start)
        if ta.ctor == "x1" and tb.ctor == "x1":
            delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
            fin = zone_by_magnitude(delta, (0, 2, 2))
            if fin is None:
                return None
            return Aff(0, 0, start), fin
        if "h" not in (ta.ctor, tb.ctor):
            return None
        if tb.ctor == "h" and ta.ctor != "h":
            ta, tb = tb, ta
        if tb.ctor == "xg":
            return _pair_const(1, 1, start)
        if tb.ctor == "x1":
            k, m = ta.param_syms()[0], tb.param_syms()[0]
            # nearest 1-node of section h_k is x1_k or x1_{k+1}
            fin = per_parity(_sym_min, zone_by_magnitude(sym_sub(m, k), (0, 2, 2)),
                             zone_by_magnitude(sym_sub(m, sym_add(k, Aff(0, 1))), (0, 2, 2)))
            if fin is None:
                return None
            return Aff(0, 1, start), fin
        delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
        return self._by_section(ta, tb, eq_truthset(delta), start,
                                lambda: _position_gap(ta, tb),
                                lambda start: self._cross_rails(delta, start))

    @staticmethod
    def _cross_rails(delta: SymInt, start: int) -> tuple[SymInt, SymInt] | None:
        fin = zone_by_magnitude(delta, (0, 0, 2))
        return None if fin is None else (Aff(0, 2, start), fin)

    def sample_maximal_nodes(self, rng, count, span=6):
        out = []
        for _ in range(count):
            r = rng.random()
            if r < 0.1:
                out.append(StarNode(None))
            elif r < 0.4:
                out.append(OneNodeId("x1", rng.randint(0, span)))
            else:
                out.append(RailNode("h", rng.randint(0, span), rng.randint(-span, span)))
        return out


ONE_FAMILIES = {
    "diamond_chain": DiamondChain,
    "one_path_of_endless_paths": OnePathOfEndlessPaths,
    "ladder_of_endless_paths": LadderOfEndlessPaths,
    "partial_ladder": PartialLadderOfEndlessPaths,
}


def make_one_graph(family: str) -> OneGraph:
    cls = ONE_FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown 1-graph family {family!r}")
    return cls()
