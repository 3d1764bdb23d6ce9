"""Helpers that only the tests read: the sections of a 1-graph, 1-adjacency,
the separation bound, and finite perturbations of sequences and hypernodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from nsgraph.graphs import NodeTerm
from nsgraph.kernel import IndeterminateError
from nsgraph.ordinal import Ordinal
from nsgraph.sequences import IndexSequence, Patched
from nsgraph.transfinite import OneGraph, OneNodeId, SectionId, wdistance
from nsgraph.ultrapower import Hypernode, make_hypernode


def _indices(horizon: int, two_way: bool = False):
    """0, 1, 2, ... or, two-way, 0, 1, -1, 2, -2, ..."""
    for k in range(horizon):
        yield k
        if two_way and k > 0:
            yield -k


# each family's sections, written out by hand so that tests of the incidence
# oracles do not read the list off `sections_of`, the function they check
_SECTIONS = {
    "diamond_chain": lambda h: [SectionId("chain", k) for k in range(h)],
    "one_path_of_endless_paths":
        lambda h: [SectionId("seg", k) for k in _indices(h, two_way=True)],
    "ladder_of_endless_paths":
        lambda h: [SectionId(kind, k) for k in range(h) for kind in ("v", "h")],
    "partial_ladder":
        lambda h: [SectionId("star")] + [SectionId("h", k) for k in range(h)],
}


def sections(g: OneGraph, horizon: int) -> list[SectionId]:
    """The sections of index below `horizon`, in order."""
    return _SECTIONS[g.family](horizon)


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
    except IndeterminateError:
        return SeparationVerdict(False, None, None, "no exact walk distance")
    return SeparationVerdict(True, d >= Ordinal(1, 0), d)


def perturb_sequence(seq: IndexSequence, overrides: Mapping[int, int]) -> IndexSequence:
    """Finitely many entry replacements; verdicts must not notice."""
    if not overrides:
        return seq
    if isinstance(seq, Patched):
        merged = dict(seq.overrides)
        merged.update(overrides)
        return Patched(seq.tail, tuple(sorted(merged.items())))
    return Patched(seq, tuple(sorted(overrides.items())))


def perturb_hypernode(h: Hypernode, overrides: Mapping[int, tuple[int, ...]],
                      prefix: int = 64) -> Hypernode:
    """Rewrite finitely many generated nodes; the point itself must not move."""
    arity = len(h.term.params)
    if overrides and arity == 0:
        raise ValueError(f"{h.term.describe()} has no parameters to perturb")
    per_param: list[dict[int, int]] = [{} for _ in range(arity)]
    for n, vec in overrides.items():
        if len(vec) != arity:
            raise ValueError(
                f"override at index {n} has {len(vec)} coordinates, expected {arity}")
        h.graph.require_member(h.graph.instantiate_term(h.term.ctor, tuple(vec)))
        for i, v in enumerate(vec):
            per_param[i][n] = v
    params = tuple(perturb_sequence(p, m) for p, m in zip(h.term.params, per_param))
    return make_hypernode(h.graph, NodeTerm(h.term.ctor, params), prefix)
