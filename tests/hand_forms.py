"""The hand-written rank-1 distance forms, kept as a second oracle.

Each catalog family used to write its own `symbolic_wdistance`; the library
now derives every form from the family's incidence table.  This module
keeps the hand-written forms, as functions of the graph, so that the tests
can check the derived rule against them: wherever a hand form decides a
pair, the derived form must give the same values and the same or a tighter
class.  The in-section gaps (`_section_gap`) and the two splitting helpers
are the library's own; only the cross-section forms are kept here.
"""

from __future__ import annotations

from typing import Callable

from nsgraph.graphs import NodeTerm
from nsgraph.kernel import TruthSet, finite_set
from nsgraph.sequences import (Aff, Opaque, SymInt, bump_start, classify,
                               eq_truthset, per_parity, sym_abs, sym_add,
                               sym_scale, sym_start, sym_sub, sym_value,
                               zone_by_magnitude)
from nsgraph.transfinite import OneGraph, _by_parity


def hand_wdistance(g, ta: NodeTerm, tb: NodeTerm) -> tuple[SymInt, SymInt] | None:
    """The family's hand-written (omega part, finite part), or None."""
    return _FORMS[g.family](g, ta, tb)


def _pair_const(omega: int, finite: int, start: int = 0) -> tuple[SymInt, SymInt]:
    return Aff(0, omega, start), Aff(0, finite, start)


def _abs_scaled(delta: SymInt, factor: int) -> SymInt:
    return sym_scale(factor, sym_abs(delta))


def _updown(delta: SymInt, up: tuple[int, int], down: tuple[int, int]) -> SymInt | None:
    """Piecewise-linear in delta: up[0]*d+up[1] when d >= 1, down[0]*|d|+down[1] otherwise."""
    value = lambda d: up[0] * d + up[1] if d >= 1 else down[0] * (-d) + down[1]
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


def _same_kind_section(ta: NodeTerm, tb: NodeTerm) -> TruthSet | None:
    if ta.ctor != tb.ctor:
        return finite_set()
    return eq_truthset(sym_sub(ta.param_syms()[0], tb.param_syms()[0]))


def _series_one_sym(ta: NodeTerm, tb: NodeTerm) -> tuple[SymInt, SymInt] | None:
    """x1-x1 and x1-section forms of a series of sections glued tip to tip."""
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
    if len(forms) == 1:
        return forms[0]
    if any(f is None for f in forms):
        return None
    values = [classify(f).value for f in forms]
    if None in values:
        return None
    return Aff(0, min(values), max(sym_start(f) for f in forms))


def _by_section(g, ta, tb, same, start, same_finite, cross):
    """`OneGraph._by_section`, falling back to the hand forms per parity."""
    pair = None
    if same is not None and same.kind == "cofinite":
        fin = same_finite()
        if fin is not None:
            pair = Aff(0, 0, max(start, same.threshold)), bump_start(fin, same.threshold)
    elif same is not None and same.kind == "finite":
        pair = cross(max(start, same.threshold))
    return pair if pair is not None else _by_parity(
        lambda a, b: hand_wdistance(g, a, b), ta, tb)


def _series(g, ta, tb):
    """diamond_chain and one_path_of_endless_paths."""
    ta, tb = g.normalize_term(ta), g.normalize_term(tb)
    if "x1" in (ta.ctor, tb.ctor):
        return _series_one_sym(ta, tb)
    delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
    return _by_section(g, ta, tb, eq_truthset(delta), sym_start(delta),
                       lambda: g._section_gap(ta, tb),
                       lambda start: (_abs_scaled(delta, 2), Aff(0, 0, start)))


def _tips(ctor: str, syms: tuple[SymInt, ...]) -> list:
    """Ladder: indices of the 1-nodes a term's walks leave through; None is xg."""
    if ctor == "xg":
        return [None]
    if ctor == "x1":
        return [syms[0]]
    return [syms[0], None] if ctor == "v" else [syms[0], sym_add(syms[0], Aff(0, 1))]


def _tip_gap(i: SymInt | None, j: SymInt | None) -> SymInt | None:
    if i is None or j is None:
        return Aff(0, 0 if i is j else 2)
    return zone_by_magnitude(sym_sub(i, j), (0, 2, 4))


def _ladder(g, ta, tb):
    syms_a, syms_b = ta.param_syms(), tb.param_syms()
    start = max([0] + [sym_start(s) for s in syms_a + syms_b])
    ends = (ta.ctor in ("v", "h")) + (tb.ctor in ("v", "h"))
    gaps = [_tip_gap(i, j) for i in _tips(ta.ctor, syms_a) for j in _tips(tb.ctor, syms_b)]
    gap = per_parity(_sym_min, *gaps)
    if gap is None:
        return None
    omega = sym_add(gap, Aff(0, ends)) if ends else gap

    def cross(start: int) -> tuple[SymInt, SymInt]:
        return bump_start(omega, start), Aff(0, 0, start)

    if ends < 2:
        return cross(start)
    return _by_section(g, ta, tb, _same_kind_section(ta, tb), start,
                       lambda: OneGraph._section_gap(g, ta, tb), cross)


def _cross_rails(delta: SymInt, start: int) -> tuple[SymInt, SymInt] | None:
    fin = zone_by_magnitude(delta, (0, 0, 2))
    return None if fin is None else (Aff(0, 2, start), fin)


def _partial(g, ta, tb):
    ta, tb = g.promote_term(ta), g.promote_term(tb)
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
        fin = per_parity(_sym_min, zone_by_magnitude(sym_sub(m, k), (0, 2, 2)),
                         zone_by_magnitude(sym_sub(m, sym_add(k, Aff(0, 1))), (0, 2, 2)))
        if fin is None:
            return None
        return Aff(0, 1, start), fin
    delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
    return _by_section(g, ta, tb, eq_truthset(delta), start,
                       lambda: OneGraph._section_gap(g, ta, tb),
                       lambda start: _cross_rails(delta, start))


_FORMS = {
    "diamond_chain": _series,
    "one_path_of_endless_paths": _series,
    "ladder_of_endless_paths": _ladder,
    "partial_ladder": _partial,
}
