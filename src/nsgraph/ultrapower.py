"""Limit points presented by terms over index sequences.

A hypernode is a constructor applied to definable index sequences, read as a
single point of the enlargement: two presentations name the same point exactly
when they agree on a filter-large set of indices.  Every question asked here
(identity, standardness, order of ordinal-valued distances) is answered by
classifying the relevant agreement set and then sampling the generators
against that classification, so a wrong closed form surfaces as an evidence
contradiction instead of a silently wrong verdict.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from .graphs import Exhausted, GraphInstance, NodeTerm
from .kernel import (
    DEFAULT_HORIZON,
    EvidenceError,
    IndeterminateError,
    Trivalent,
    TruthSet,
    cofinite_set,
    finite_set,
    in_filter,
    intersect,
    sampled_indices,
)
from .ordinal import HyperOrder, Ordinal, compare
from .sequences import (
    Aff,
    Opaque,
    SymInt,
    classify,
    eq_const_truthset,
    eq_truthset,
    per_parity,
    sym_start,
    sym_sub,
    sym_value,
    validate_declaration,
)
from .transfinite import OneGraph, wdistance


# ====== Hypernodes ======

@dataclass(frozen=True)
class AnchorProfile:
    """Componentwise distance from the generated node to the family anchor."""

    omega: SymInt
    finite: SymInt


@dataclass(frozen=True)
class Hypernode:
    """A point of the enlargement, carried by its generating term."""

    graph: GraphInstance | OneGraph
    term: NodeTerm
    rank: int
    profile: AnchorProfile

    def describe(self) -> str:
        return f"{self.graph.family}::{self.term.describe()}"


def _param_start(term: NodeTerm) -> int:
    return max([0] + [sym_start(s) for s in term.param_syms()])


def make_hypernode(graph, term: NodeTerm, prefix: int = 64) -> Hypernode:
    """Check the presentation, probe membership on a prefix, build the profile."""
    graph.check_term(term)
    for p in term.params:
        validate_declaration(p)
    start = _param_start(term)
    for n in range(start, start + prefix + 1):
        graph.term_node(term, n)  # raises NotAMemberError on a bad index
    return Hypernode(graph, term, graph.rank, anchor_profile(graph, term))


def anchor_profile(graph, term: NodeTerm) -> AnchorProfile:
    """The term's distance forms to the family anchor."""
    to_anchor = _term_pair_distance(graph, term, graph.anchor_term())
    return AnchorProfile(to_anchor.omega, to_anchor.finite)


def node_at(h: Hypernode, n: int):
    """The concrete node the presentation generates at index n."""
    return h.graph.term_node(h.term, n)


def require_same_enlargement(a: Hypernode, b: Hypernode) -> None:
    if a.graph is b.graph:
        return
    same = (type(a.graph) is type(b.graph)
            and getattr(a.graph, "added", None) == getattr(b.graph, "added", None)
            and getattr(a.graph, "removed", None) == getattr(b.graph, "removed", None))
    if not same:
        raise ValueError(
            f"hypernodes live in different enlargements: "
            f"{a.graph.family} vs {b.graph.family}")


def _columns(evidence: TruthSet | None, horizon: int, a: tuple, b: tuple):
    """(lo, xs, ys): the nodes of two (graph, term) presentations at the
    indices `in_filter` samples under evidence, from lo on, read as columns.

    None when the sweep must read its nodes index by index: with no
    evidence (in_filter refuses before reading any), or when some node
    fails, so that each index still raises a's error, then b's, only after
    every earlier index has met the evidence.
    """
    if evidence is None:
        return None
    indices = sampled_indices(evidence, horizon)
    lo, hi = indices.start, indices.stop
    (ga, ta), (gb, tb) = a, b
    try:
        return lo, ga.term_nodes(ta, lo, hi), gb.term_nodes(tb, lo, hi)
    except Exception:  # raised again by the per-index sweep, where it belongs
        return None


def hypernode_eq(a: Hypernode, b: Hypernode,
                 horizon: int = DEFAULT_HORIZON) -> Trivalent:
    """Do the two presentations name the same point?

    The agreement set is classified per parameter of the normalised terms and
    the verdict is certified by sampling node equality on that classification:
    the two node columns are compared at once, and the sweep reads the result.
    """
    require_same_enlargement(a, b)
    ta = a.graph.normalize_term(a.term)
    tb = b.graph.normalize_term(b.term)
    if ta.ctor != tb.ctor:
        # distinct constructors generate disjoint node kinds after rewriting
        evidence: TruthSet | None = finite_set(_param_start(ta))
    else:
        evidence = cofinite_set(max(_param_start(ta), _param_start(tb)))
        for sa, sb in zip(ta.param_syms(), tb.param_syms()):
            evidence = intersect(evidence, eq_truthset(sym_sub(sa, sb)))
    columns = _columns(evidence, horizon, (a.graph, a.term), (b.graph, b.term))
    if columns is None:
        return in_filter(lambda n: node_at(a, n) == node_at(b, n), evidence, horizon)
    lo, xs, ys = columns
    same = list(map(operator.eq, xs, ys))
    return in_filter(lambda n: same[n - lo], evidence, horizon)


def is_standard(h: Hypernode, horizon: int = DEFAULT_HORIZON) -> Trivalent:
    """Does the presentation collapse to a fixed node of the plain graph?

    A point is standard exactly when it agrees with a constant presentation on
    a filter-large set.  Only values the generators actually take far out can
    be that constant, so one even and one odd probe enumerate the candidates.
    """
    term = h.graph.normalize_term(h.term)
    syms = term.param_syms()
    if not syms:
        return Trivalent.TRUE
    start = _param_start(term)
    base = start + horizon + (start + horizon) % 2
    candidates = dict.fromkeys(
        tuple(sym_value(s, probe) for s in syms) for probe in (base, base + 1))
    split_seen = False
    for cand in candidates:
        agreement: TruthSet | None = cofinite_set(start)
        for s, v in zip(syms, cand):
            per = eq_const_truthset(s, v)
            if per is None:
                if classify(s).diverges:
                    # a diverging coordinate meets any constant finitely often
                    per = finite_set(sym_start(s))
                else:
                    raise IndeterminateError(
                        f"cannot classify constant agreement of {term.describe()}")
            agreement = intersect(agreement, per)
        if agreement is None:
            raise IndeterminateError(
                f"constant agreement of {term.describe()} has no classification")
        if agreement.kind == "cofinite":
            return Trivalent.TRUE
        if agreement.kind == "split":
            split_seen = True
    return Trivalent.FILTER_DEPENDENT if split_seen else Trivalent.FALSE


# ====== Hyperordinals ======

@dataclass(frozen=True)
class Hyperordinal:
    """An ordinal-valued point: indexwise values plus certified components."""

    fn: Callable[[int], Ordinal]
    omega: SymInt
    finite: SymInt

    def at(self, n: int) -> Ordinal:
        return self.fn(n)


def hyperordinal_from_syms(omega: SymInt, finite: SymInt) -> Hyperordinal:
    """The point n -> w*omega(n) + finite(n); an index where a component is
    negative has no ordinal, and reading it is refused."""
    def at(n: int) -> Ordinal:
        parts = sym_value(omega, n), sym_value(finite, n)
        if min(parts) < 0:
            raise IndeterminateError(f"components {parts} at index {n} are not naturals")
        return Ordinal(*parts)
    return Hyperordinal(at, omega, finite)


def _settle_index(sym: SymInt) -> int | None:
    """Index past which an affine delta on one parity branch keeps its sign."""
    if isinstance(sym, Aff):
        if sym.a == 0:
            return sym.start
        crossing = -sym.b // sym.a
        return max(sym.start, crossing + 2)
    return None


def compare_hyperordinals(a: Hyperordinal, b: Hyperordinal,
                          horizon: int = DEFAULT_HORIZON) -> HyperOrder:
    """Lexicographic order of two ordinal-valued points, branch by parity.

    On each branch the omega delta's sign decides, and the finite delta's
    sign is read only where omega ties.
    """
    d_omega = sym_sub(a.omega, b.omega)
    d_finite = sym_sub(a.finite, b.finite)
    omega, finite = classify(d_omega), classify(d_finite)
    even, odd = [o.sign if o.sign is not HyperOrder.EQUAL else f.sign
                 for o, f in zip(omega.branches, finite.branches)]
    if even is None or odd is None:
        raise IndeterminateError("order of the component deltas is unclassifiable")
    verdict = even if even == odd else HyperOrder.FILTER_DEPENDENT
    if verdict is not HyperOrder.FILTER_DEPENDENT:
        s_omega = per_parity(_settle_index, d_omega, join=max)
        s_finite = per_parity(_settle_index, d_finite, join=max)
        if s_omega is not None and s_finite is not None:
            # past both settle points the claim is pointwise; check it there
            probe = max(s_omega, s_finite, horizon)
            hits = [compare(a.at(n), b.at(n)) for n in (probe, probe + 1)]
            if any(c is not verdict for c in hits):
                raise EvidenceError(
                    f"claimed {verdict.value} but settled samples disagree: {hits}")
    return verdict


def _term_pair_distance(graph, ta: NodeTerm, tb: NodeTerm) -> Hyperordinal:
    """n -> d(ta(n), tb(n)) with its (omega, finite) forms.

    A part without a symbolic form is an `Opaque` read from the pointwise
    distance, certified only as nonnegative.
    """
    start = max(_param_start(ta), _param_start(tb))
    if graph.rank:
        fn = graph.term_wdistance_fn(ta, tb)
        pair = graph.symbolic_wdistance(ta, tb)
        if pair is None:
            pair = (Opaque(fn=lambda n: fn(n).omega_coeff, lo=0, start=start),
                    Opaque(fn=lambda n: fn(n).finite_part, lo=0, start=start))
        return Hyperordinal(fn, *pair)
    plain = graph.term_distance_fn(ta, tb)
    sym = graph.symbolic_distance(ta, tb)
    if sym is None:
        sym = Opaque(fn=plain, lo=0, start=start)
    return Hyperordinal(lambda n: Ordinal(0, plain(n)), Aff(0, 0, start), sym)


def hyperdistance(a: Hypernode, b: Hypernode) -> Hyperordinal:
    """Indexwise distance between two points of the same enlargement."""
    require_same_enlargement(a, b)
    return _term_pair_distance(a.graph, a.term, b.term)


# ====== Hyperbranches ======

class NotAHyperbranchError(ValueError):
    """The sampled pair is not an edge of the enlargement.

    verdict records whether adjacency fails outright or holds only on one
    side of a split, which the caller may care to distinguish.
    """

    def __init__(self, message: str, verdict: Trivalent):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True)
class Hyperbranch:
    """An edge of the enlargement between two term-presented endpoints."""

    u: Hypernode
    v: Hypernode
    evidence: TruthSet


def _adjacent(graph, x, y) -> bool:
    if graph.rank:
        return wdistance(graph, x, y) == Ordinal(0, 1)
    d = graph.distance(x, y)
    return not isinstance(d, Exhausted) and d == 1


def make_hyperbranch(graph, tu: NodeTerm, tv: NodeTerm,
                     horizon: int = DEFAULT_HORIZON,
                     prefix: int = 64) -> Hyperbranch:
    """Certify that two presentations are adjacent on a filter-large set."""
    u = make_hypernode(graph, tu, prefix)
    v = make_hypernode(graph, tv, prefix)
    evidence = graph.adjacency_truthset(tu, tv)
    columns = _columns(evidence, horizon, (graph, tu), (graph, tv))
    if columns is None:
        def adjacent_at(n: int) -> bool:
            return _adjacent(graph, graph.term_node(tu, n), graph.term_node(tv, n))
    else:
        lo, xs, ys = columns

        def adjacent_at(n: int) -> bool:
            return _adjacent(graph, xs[n - lo], ys[n - lo])
    verdict = in_filter(adjacent_at, evidence, horizon)
    if verdict is not Trivalent.TRUE:
        raise NotAHyperbranchError(
            f"{tu.describe()} and {tv.describe()} are adjacent only on a "
            f"{'split' if verdict is Trivalent.FILTER_DEPENDENT else 'small'} set",
            verdict)
    return Hyperbranch(u, v, evidence)
