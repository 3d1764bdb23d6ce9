"""Text forms for graphs, nodes, and term-presented points.

This is the grammar the batch runner accepts. A graph descriptor is a
family name or {"family": ..., "edits": [...]}. A node literal is
"ctor:3,4" (bare "ctor" at arity zero); a term literal may replace any
argument with an affine expression in n such as "n", "2n+1" or "-n";
"parity(A, B)" merges two same-shaped terms into an even/odd split. An
optional leading class word ("const lad:5", "affine p:n") is validated
against the parsed arguments.
"""

from __future__ import annotations

import re

from .graphs import (FAMILIES, GraphInstance, NodeTerm, NotAMemberError,
                     make_family, node_coords)
from .sequences import Affine, Constant, IndexSequence, Parity
from .transfinite import ONE_FAMILIES, make_one_graph
from .ultrapower import Hypernode, make_hypernode

__all__ = [
    "LiteralError",
    "parse_graph",
    "parse_node",
    "parse_term",
    "parse_hypernode",
    "graph_label",
]


class LiteralError(ValueError):
    """A literal does not match the grammar or names nothing."""


_INT = re.compile(r"^[+-]?\d+$")
_AFFINE = re.compile(r"^(?P<coeff>[+-]?\d*)n(?P<off>[+-]\d+)?$")
_CLASS_WORDS = ("const", "affine")


def parse_graph(descriptor) -> GraphInstance:
    """Build the graph a descriptor names (rank 0 or rank 1)."""
    if isinstance(descriptor, str):
        family, edits = descriptor, None
    elif isinstance(descriptor, dict):
        family = descriptor.get("family")
        edits = descriptor.get("edits")
        if not isinstance(family, str):
            raise LiteralError("graph descriptor needs a 'family' string")
    else:
        raise LiteralError(f"graph descriptor must be a name or an object, "
                           f"got {type(descriptor).__name__}")
    if family in FAMILIES:
        return make_family(family, edits)
    if family in ONE_FAMILIES:
        if edits:
            raise LiteralError(f"{family} does not take edits")
        return make_one_graph(family)
    known = ", ".join(sorted((*FAMILIES, *ONE_FAMILIES)))
    raise LiteralError(f"unknown family {family!r}; known: {known}")


def graph_label(graph: GraphInstance) -> str | dict:
    """The descriptor that rebuilds the graph, for echoing in reports."""
    added = getattr(graph, "added", None)
    removed = getattr(graph, "removed", None)
    if added or removed:
        def ends(edges):
            return sorted(sorted(node_coords(n) for n in e)
                          for e in edges)

        edits = [{"op": op, "a": list(a), "b": list(b)}
                 for op, edges in (("add", added), ("remove", removed))
                 for a, b in ends(edges)]
        return {"family": graph.family, "edits": edits}
    return graph.family


def _parse_arg(text: str) -> IndexSequence:
    text = text.strip()
    if _INT.match(text):
        return Constant(int(text))
    m = _AFFINE.match(text)
    if m is None:
        raise LiteralError(f"argument {text!r} is neither an integer "
                           f"nor affine in n")
    coeff = m.group("coeff")
    a = -1 if coeff == "-" else 1 if coeff in ("", "+") else int(coeff)
    b = int(m.group("off") or 0)
    return Affine(a, b) if a else Constant(b)


def _parse_plain(graph: GraphInstance, text: str) -> NodeTerm:
    ctor, sep, rest = text.partition(":")
    ctor = ctor.strip()
    if not ctor or ":" in rest:
        raise LiteralError(f"malformed literal {text!r}")
    args = tuple(_parse_arg(p) for p in rest.split(",")) if sep else ()
    term = NodeTerm(ctor, args)
    graph.check_term(term)
    return term


def _merge_parity(even: NodeTerm, odd: NodeTerm) -> NodeTerm:
    params = []
    for pe, po in zip(even.params, odd.params):
        params.append(pe if pe == po else Parity(pe, po))
    return NodeTerm(even.ctor, tuple(params))


def parse_term(graph: GraphInstance, text: str) -> NodeTerm:
    """Parse a term literal against a graph's constructor signatures."""
    if not isinstance(text, str):
        raise LiteralError(f"literal must be a string, got "
                           f"{type(text).__name__}")
    body = text.strip()
    want = None
    head, _, tail = body.partition(" ")
    if head in _CLASS_WORDS and tail.strip():
        want, body = head, tail.strip()
    if body.startswith("parity(") and body.endswith(")"):
        inner = body[len("parity("):-1]
        commas = [i for i, ch in enumerate(inner) if ch == ","]
        for cut in commas:
            try:
                even = _parse_plain(graph, inner[:cut])
                odd = _parse_plain(graph, inner[cut + 1:])
            except (LiteralError, NotAMemberError):
                continue
            if even.ctor != odd.ctor:
                raise LiteralError(
                    f"parity branches must share a constructor, got "
                    f"{even.ctor!r} and {odd.ctor!r}")
            term = _merge_parity(even, odd)
            break
        else:
            raise LiteralError(f"cannot split parity branches in {text!r}")
    else:
        term = _parse_plain(graph, body)
    if want == "const" and any(not isinstance(p, Constant) for p in term.params):
        raise LiteralError(f"{text!r} is tagged const but varies with n")
    if want == "affine":
        if any(not isinstance(p, (Constant, Affine)) for p in term.params):
            raise LiteralError(f"{text!r} is tagged affine but is not")
        if all(isinstance(p, Constant) for p in term.params):
            raise LiteralError(f"{text!r} is tagged affine but never moves")
    return term


def parse_node(graph: GraphInstance, text: str):
    """Parse a concrete node literal: every argument a plain integer."""
    term = parse_term(graph, text)
    if any(not isinstance(p, Constant) for p in term.params):
        raise LiteralError(f"{text!r} names a moving point, not a node")
    return graph.term_node(term, 0)


def parse_hypernode(graph: GraphInstance, text: str) -> Hypernode:
    return make_hypernode(graph, parse_term(graph, text))
