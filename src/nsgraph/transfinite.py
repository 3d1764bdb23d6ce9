"""Rank-1 transfinite graphs: sections, tips, 1-nodes, and walk distances.

A 1-graph glues infinite extremities (tips) of ordinary graph sections into
1-nodes.  Distances count walk lengths as ordinals below w**2: a one-ended
extended segment costs w, an endless one w*2, finite segments count branches.

Each family states its gluing once, as a class-level incidence table
(`INCIDENCE`).  A row `Touch(one, section, offset)` says that the 1-node of
kind `one` and index k touches the section of kind `section` and index
k + offset, at a tip, or through the 0-node `embedded(k)` it holds inside
that section.  Two rows are infinite fans over one single node (index 0):
`fan="sections"` makes the 1-node touch every section of the kind (the
ladder ground xg), `fan="ones"` makes the section touch every 1-node of the
kind (the partial ladder's star, whose `hub` is a 0-node through which its
metric is a star, d(u, v) = d(u, hub) + d(hub, v) for distinct u and v).
`OneGraph` derives both lookup directions from the table, `sections_of`
and `incidences`, with fans cut to an index window.

Distance forms: exits and skeleton.  `OneGraph.symbolic_wdistance` reads
every form off the table with one rule.  A walk length w*a + b is the pair
(a, b); under the natural sum the pairs are a commutative monoid whose
lexicographic order is total and compatible with the sum, so least walks
compose as shortest paths with nonnegative legs do.  `__init_subclass__`
checks the rule's hypotheses, so a table outside them fails at import:
  H1 the rows without a "sections" fan name one 1-node kind, x;
  H2 every row without a fan is a tip at offset -1 or 0, one row per
     offset and section kind, and exactly one kind, the line, has both;
  H3 at most one row has a fan, the apex: a 1-node holding a tip of every
     section of a kind that x touches in one tip row, or a hub whose own
     section embeds every x_k and whose constructors name only the hub.
Skeleton: by H2 a line section k joins x_k and x_(k+1) at tips, a leg of
c = (2, 0), and any other fanless section joins one x_k to at most the
apex; by H3 every x_k is at f <= c from the apex (tip plus tip, or
(0, d(embedded, hub))).  So for i != j
    d(x_i, x_j) = min(c*|i - j|, 2f),  which is 2f once |i - j| >= 2.
Proof: a walk that avoids the apex changes the index by at most one per
leg and pays c for each leg that does, so it costs at least c*|i - j|; a
walk through the apex pays at least f in and f out.  Both bounds are met:
by x_i -> apex -> x_j, and by the monotone walk along the line, which
passes only indices between i and j, so on the one-sided families (indices
from 0) it stays at indices >= 0.
Exits: a 1-node is its own exit, at cost 0; a 0-node u of section k
leaves it only through the 1-nodes its rows name, x_(k - offset) at a tip
(w), or the apex (w through a fan, 0 as the hub itself).  A walk to a node
of another section leaves through one exit and enters through another, so
the distance is the lexicographically least exit + skeleton + exit.  Two
0-nodes of one section sit at their in-section distance, `_section_gap`:
no 1-node kind is embedded in two sections, so leaving the section crosses
a tip and costs at least w.  `_by_section` splits a pair on the indices
where the two sections coincide.
Forms: a term's exits are offsets from its base index (a 1-node's own, a
0-node's section's) plus maybe the apex, so the rule is a function F of
delta = b's base index - a's, which `_exit_form` reads per parity branch
by delta's class.  Adjacent means distance exactly w*0 + 1, read from the
form by `adjacency_truthset`.

`wdistance` is the rule on constant terms and runs no search.  The search
`wdistance_witness`, a lexicographic Dijkstra over a finite quotient
(sections as fabric; 1-nodes, hubs and promoted endpoints as vertices),
is the source of walk legs and the oracle the forms are tested against.

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
from .kernel import IndeterminateError, TruthSet, cofinite_set, finite_set, intersect
from .ordinal import ZERO, Ordinal
from .sequences import (Aff, Band, Constant, Opaque, Parity, ParityS, SymInt, bump_start,
                        classify, eq_const_truthset, eq_truthset, parity_sym,
                        per_parity, sym_abs, sym_add, sym_scale, sym_start,
                        sym_sub, sym_value, zone_by_magnitude)

DEFAULT_WINDOW_MARGIN = 2
SEARCH_POP_BUDGET = 20_000
TIP = (1, 0)  # (omega, finite) cost of entering or leaving a section at a tip


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


# ====== The exits-and-skeleton rule ======

def _read_skeleton(cls) -> tuple[tuple[int, int] | None, dict]:
    """(f, exits) of the rule in the module docstring; TypeError outside H1-H3.

    f is the cost from every indexed 1-node to the apex (None: no apex), and
    exits maps each constructor to its (offset from the base index, or None
    for the apex, cost) pairs.
    """
    def need(ok: bool, why: str) -> None:
        if not ok:
            raise TypeError(f"{cls.__name__}.INCIDENCE is outside the "
                            f"exits-and-skeleton rule: {why}")

    indexed = {row.one for row in cls.INCIDENCE if row.fan != "sections"}
    need(len(indexed) == 1, "H1, one indexed 1-node kind")
    offsets: dict[str, list[int]] = {}
    for row in cls.INCIDENCE:
        if not row.fan:
            need(row.embedded is None and row.offset in (-1, 0)
                 and row.offset not in offsets.get(row.section, ()), "H2, tips at -1 and 0")
            offsets.setdefault(row.section, []).append(row.offset)
    need([len(o) for o in offsets.values()].count(2) == 1, "H2, one line kind")
    fans = [row for row in cls.INCIDENCE if row.fan]
    need(len(fans) <= 1, "H3, at most one apex")
    apex, f = (fans or [None])[0], None
    exits = {indexed.pop(): ((0, (0, 0)),)}  # a 1-node is its own exit
    if apex is not None and apex.fan == "sections":
        need(len(offsets.get(apex.section, ())) == 1, "H3, the apex a tip from each x_k")
        f, exits[apex.one] = (2, 0), ((None, (0, 0)),)  # tip in, tip out
    elif apex is not None:
        need(None not in (apex.hub, apex.embedded) and apex.section not in offsets,
             "H3, a hub in a section of its own")
        f = (0, cls().section_distance(apex.embedded(0), apex.hub))
    for ctor, kind in cls.TERM_SECTION.items():
        exits[ctor] = tuple((-offset, TIP) for offset in offsets.get(kind, ()))
        if apex is not None and kind == apex.section:
            need(apex.fan == "sections" or not cls.TERM_ARITY[ctor],
                 "H3, the hub's section names only the hub")
            exits[ctor] += ((None, TIP if apex.fan == "sections" else (0, 0)),)
    return f, exits


def _join_pairs(even: tuple[SymInt, SymInt], odd: tuple[SymInt, SymInt]):
    return parity_sym(even[0], odd[0]), parity_sym(even[1], odd[1])


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
    return _join_pairs(even, odd)


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
        cls._APEX_COST, cls._EXITS = _read_skeleton(cls)

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
    TERM_SECTION: dict[str, str] = {}  # 0-node constructor -> its section kind

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
        """Certified (omega part, finite part) of n -> wdistance(ta(n), tb(n)),
        by the exits-and-skeleton rule of the module docstring."""
        ta = self.promote_term(self.normalize_term(ta))
        tb = self.promote_term(self.normalize_term(tb))
        ea, eb = self._EXITS[ta.ctor], self._EXITS[tb.ctor]
        syms_a, syms_b = ta.param_syms(), tb.param_syms()
        # the base indices are the first parameters; only apex terms have none
        delta = sym_sub(syms_b[0], syms_a[0]) if syms_a and syms_b else None
        start = 0 if delta is None else sym_start(delta)

        def cross(start: int) -> tuple[SymInt, SymInt] | None:
            if delta is None:
                omega, finite = self._route(ea, eb, 0)
                return Aff(0, omega, start), Aff(0, finite, start)
            if isinstance(delta, ParityS):
                return per_parity(self._exit_form, delta, ea, eb, start, join=_join_pairs)
            return self._exit_form(delta, ea, eb, start)

        kind_a, kind_b = self.TERM_SECTION.get(ta.ctor), self.TERM_SECTION.get(tb.ctor)
        if kind_a is None or kind_b is None:
            return cross(start)
        same = (finite_set() if kind_a != kind_b
                else cofinite_set() if delta is None else eq_truthset(delta))
        return self._by_section(ta, tb, same, start, lambda: self._section_gap(ta, tb), cross)

    def _section_gap(self, ta: NodeTerm, tb: NodeTerm) -> SymInt | None:
        """In-section distance of two 0-node terms that share a section: by
        default |p_a - p_b| of their second parameters, the positions."""
        return sym_abs(sym_sub(ta.param_syms()[1], tb.param_syms()[1]))

    def _route(self, ea: tuple, eb: tuple, delta: int) -> tuple[int, int]:
        """F(delta): the least exit + skeleton + exit, as (omega, finite)."""
        f = self._APEX_COST
        best = None
        for oa, (wa, fa) in ea:
            for ob, (wb, fb) in eb:
                if oa is None or ob is None:
                    leg = (0, 0) if oa is ob else f
                else:
                    gap = abs(delta + ob - oa)
                    leg = (2 * gap, 0) if f is None else min((2 * gap, 0), (2 * f[0], 2 * f[1]))
                total = (wa + wb + leg[0], fa + fb + leg[1])
                if best is None or total < best:
                    best = total
        return best

    def _exit_form(self, delta: SymInt, ea: tuple, eb: tuple,
                   start: int) -> tuple[SymInt, SymInt] | None:
        """F(delta) on one parity branch of delta, by delta's class: the value of
        an exact delta; for a diverging one the closed form of F, or F's constant
        where an apex caps it; else F's range over the deltas the class allows."""
        c = None if isinstance(delta, Aff) and delta.a == 0 else classify(delta)
        value = delta.b if c is None else c.value
        if value is not None:
            omega, finite = self._route(ea, eb, value)
            return Aff(0, omega, start), Aff(0, finite, start)
        # b's exits sit k1..k2 past a's, on top of delta
        ks = [ob - oa for oa, _ in ea if oa is not None for ob, _ in eb if ob is not None]
        k1, k2 = min(ks), max(ks)
        if self._APEX_COST is None and c.kind != "range":
            # F = costs + c * (gap between the exit intervals), which is
            # costs - (k2 - k1) + |2 delta + k1 + k2| unless the two intervals
            # coincide, as only a shared section's do
            line = sym_abs(sym_add(sym_scale(2, delta), Aff(0, k1 + k2)))
            shift = ea[0][1][0] + eb[0][1][0] - (k2 - k1)  # every exit of a term costs alike
            omega = line if shift == 0 else sym_add(line, Aff(0, shift))
            return omega, Aff(0, 0, start)
        lo, hi = (c.lo, c.hi) if c.kind == "range" else (None, None)
        if c.kind in ("pinf", "ninf") and isinstance(delta, (Aff, Band)):
            # from where the nearest exit pair is two apart, so is every pair
            near = sym_add(delta, Aff(0, k1 if c.kind == "pinf" else k2))
            start = max(start, sym_start(zone_by_magnitude(near, (0, 1, 2))))
            lo, hi = (2 - k1, None) if c.kind == "pinf" else (None, -2 - k2)
        # F's range over the deltas allowed from start on: F bends only in -2-k2..2-k1
        values = [self._route(ea, eb, d) for d in {lo, hi, *range(-2 - k2, 3 - k1)}
                  if d is not None and (lo is None or d >= lo) and (hi is None or d <= hi)]
        parts = []
        for i in (0, 1):
            least, most = min(v[i] for v in values), max(v[i] for v in values)
            parts.append(Aff(0, least, start) if least == most else Opaque(
                lambda n, i=i: self._route(ea, eb, sym_value(delta, n))[i],
                lo=least, hi=most, start=start))
        return tuple(parts)

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
    ever adds tip costs.  A hub stands for its star's pairs, so a fan of W
    1-nodes costs O(W) edges; the summary folds a hub stop into one leg.
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


def wdistance(g: OneGraph, x, y) -> Ordinal:
    """Minimum walk length between two nodes, read from the exact form.

    Two 0-nodes of one section sit at their in-section distance; any other
    pair is the exact value of `symbolic_wdistance` on the constant terms
    naming it.  No search runs: a pair without one raises IndeterminateError.
    """
    x, y = promote(g, x), promote(g, y)
    if x == y:
        return ZERO
    if not isinstance(x, OneNodeId) and not isinstance(y, OneNodeId) \
            and g.section_of(x) == g.section_of(y):
        return Ordinal(0, g.section_distance(x, y))
    pair = g.symbolic_wdistance(g.node_term(x), g.node_term(y))
    omega, finite = (None, None) if pair is None else [classify(p).value for p in pair]
    if omega is None or finite is None:
        raise IndeterminateError(f"no exact walk distance between {x!r} and {y!r}")
    return Ordinal(omega, finite)


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


# ====== Families ======

class DiamondChain(OneGraph):
    """Series of diamond chains; consecutive chains meet in a tip-only 1-node.

    Chain k holds junctions J(k,d) with left/right companions; x_k0 = J(k,0).
    The only way between distinct chains is through a tip, so 0-paths between
    far-apart bases do not exist although walks do.
    """

    family = "diamond_chain"
    TERM_ARITY = {"j": 2, "l": 2, "r": 2, "x0": 1, "x1": 1}
    TERM_SECTION = {"j": "chain", "l": "chain", "r": "chain"}  # x0 normalizes to j
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

    def _section_gap(self, ta, tb) -> SymInt | None:
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
    TERM_SECTION = {"e": "seg"}
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
    TERM_SECTION = {"v": "v", "h": "h"}
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
    TERM_SECTION = {"h": "h", "xg": "star"}  # zg promotes to x1
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

    def _section_gap(self, ta, tb):
        # the star's only named 0-node is its hub
        return Aff(0, 0) if ta.ctor == "xg" else super()._section_gap(ta, tb)

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
