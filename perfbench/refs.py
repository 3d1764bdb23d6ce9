"""Reference answers and output checkers, written apart from nsgraph.

Nodes are plain tuples ``(ctor, *args)``.  Rank-0 distances come from the
families' closed forms, or for ``perturbed_grid`` from ``networkx`` on a
finite truncation that must give the same answer at two sizes.  Rank-1
walk lengths are ``(omega, finite)`` pairs from the paper's closed forms.
Presentations are evaluated from their specs (see ``corpus.py``), never
through the library.

Every ``check_*`` function returns ``None`` when the answer holds and a
short reason when it does not.  ``exhausted`` and ``indeterminate`` answers
are refusals and pass; a wrong value never does.
"""

from __future__ import annotations

import functools
import re

RANK1 = ("diamond_chain", "one_path_of_endless_paths",
         "ladder_of_endless_paths", "partial_ladder")

# Settled sample indices, grouped by parity.
EVEN = (32, 40, 48)
ODD = (33, 41, 49)

# half-width of the truncation that serves distances from the grid origin
ANCHOR_BOX = 72


class Unsettled(Exception):
    """The reference itself could not settle an answer."""


# ====== presentations ======

def spec_node(spec: dict, n: int) -> tuple:
    params = spec["even"] if n % 2 == 0 else spec["odd"]
    return (spec["ctor"], *(a * n + b for a, b in params))


def family_of(graph) -> str:
    return graph if isinstance(graph, str) else graph["family"]


def edits_of(graph) -> tuple:
    if isinstance(graph, str):
        return ()
    return tuple((e["op"], tuple(e["a"]), tuple(e["b"])) for e in graph.get("edits", ()))


# ====== distances ======

def _grid_truncation(edits: tuple, lo_k: int, hi_k: int, lo_l: int, hi_l: int):
    import networkx as nx
    g = nx.grid_2d_graph(range(lo_k, hi_k + 1), range(lo_l, hi_l + 1))
    for op, a, b in edits:
        if op == "add":
            g.add_edge(a, b)
        elif g.has_edge(a, b):
            g.remove_edge(a, b)
    return g


@functools.lru_cache(maxsize=16)
def _anchor_maps(edits: tuple) -> tuple[dict, dict]:
    import networkx as nx
    return tuple(nx.single_source_shortest_path_length(
        _grid_truncation(edits, -r, r, -r, r), (0, 0)) for r in (ANCHOR_BOX, ANCHOR_BOX + 8))


@functools.lru_cache(maxsize=4096)
def perturbed_distance(edits: tuple, a: tuple, b: tuple) -> int:
    """Shortest path on two nested truncations; they must agree."""
    import networkx as nx
    if (0, 0) in (a, b):
        other = b if a == (0, 0) else a
        if max(map(abs, other)) <= ANCHOR_BOX - 8:
            near, far = _anchor_maps(edits)
            if near[other] != far[other]:
                raise Unsettled(f"truncation not stable for {other}")
            return near[other]
    pts = [a, b] + [p for _, x, y in edits for p in (x, y)]
    lo_k, hi_k = min(p[0] for p in pts), max(p[0] for p in pts)
    lo_l, hi_l = min(p[1] for p in pts), max(p[1] for p in pts)
    found = []
    for margin in (4, 10):
        g = _grid_truncation(edits, lo_k - margin, hi_k + margin,
                             lo_l - margin, hi_l + margin)
        found.append(nx.shortest_path_length(g, a, b))
    if found[0] != found[1]:
        raise Unsettled(f"truncation not stable for {a}->{b}: {found}")
    return found[0]


def _dist0(family: str, edits: tuple, x: tuple, y: tuple) -> int:
    if x == y:
        return 0
    if family in ("endless_path", "one_ended_path"):
        return abs(x[1] - y[1])
    if family in ("grid2d", "perturbed_grid"):
        if family == "perturbed_grid" and edits:
            return perturbed_distance(edits, x[1:], y[1:])
        return abs(x[1] - y[1]) + abs(x[2] - y[2])
    if family == "ladder_with_ray" and "ray" in (x[0], y[0]):
        if x[0] != "ray":
            x, y = y, x
        if y[0] == "ray":
            return abs(x[1] - y[1])
        return x[1] if y[0] == "ladg" else x[1] + 1
    if family in ("ladder", "ladder_with_ray"):
        if "ladg" in (x[0], y[0]):
            return 1
        return 1 if abs(x[1] - y[1]) == 1 else 2
    raise Unsettled(f"no rank-0 reference for {family}")


def _chain_of_sections(x: tuple, y: tuple) -> tuple[int, int] | None:
    """Walks that cross sections on diamond_chain and the endless 1-path.

    Section k runs from 1-node x1:k to x1:k+1; crossing a whole section costs
    w*2 (two tips), entering or leaving one through a tip costs w.
    """
    if x[0] == "x1" and y[0] == "x1":
        return 2 * abs(x[1] - y[1]), 0
    if x[0] == "x1" or y[0] == "x1":
        if y[0] == "x1":
            x, y = y, x
        d = x[1] - y[1]  # 1-node index minus section index
        return (2 * d - 1 if d >= 1 else 1 - 2 * d), 0
    if x[1] != y[1]:
        return 2 * abs(x[1] - y[1]), 0
    return None  # both in one section


def _diamond(x: tuple, y: tuple) -> tuple[int, int]:
    crossing = _chain_of_sections(x, y)
    if crossing is not None:
        return crossing
    if {x[0], y[0]} == {"l", "r"} and x[2] == y[2]:
        return 0, 2

    def height(v):
        return 2 * v[2] + (0 if v[0] == "j" else 1)
    return 0, abs(height(x) - height(y))


def _one_path(x: tuple, y: tuple) -> tuple[int, int]:
    return _chain_of_sections(x, y) or (0, abs(x[2] - y[2]))


def _ladder_oep(x: tuple, y: tuple) -> tuple[int, int]:
    if "xg" in (x[0], y[0]):
        return 2, 0
    return 2 * min(abs(x[1] - y[1]), 2), 0


def _partial_ladder(x: tuple, y: tuple) -> tuple[int, int]:
    # a star leaf zg:k is embedded in the rung 1-node x1:k
    x = ("x1", x[1]) if x[0] == "zg" else x
    y = ("x1", y[1]) if y[0] == "zg" else y
    if x == y:
        return 0, 0
    if "xg" in (x[0], y[0]):
        return 0, 1
    return 0, 2


_RANK1 = {"diamond_chain": _diamond, "one_path_of_endless_paths": _one_path,
          "ladder_of_endless_paths": _ladder_oep, "partial_ladder": _partial_ladder}


def distance(graph, x: tuple, y: tuple) -> tuple[int, int]:
    """Reference (omega, finite) distance; rank-0 families have omega 0."""
    family = family_of(graph)
    if family in _RANK1:
        if x == y:
            return 0, 0
        return _RANK1[family](x, y)
    return 0, _dist0(family, edits_of(graph), x, y)


def anchor(graph) -> tuple:
    family = family_of(graph)
    if family == "ladder_of_endless_paths":
        return ("xg",)
    if family in RANK1:
        return ("x1", 0)
    if family in ("ladder", "ladder_with_ray"):
        return ("ladg",)
    if family in ("grid2d", "perturbed_grid"):
        return ("grid", 0, 0)
    return ("p", 0)


def render(o: tuple[int, int]) -> str:
    """The library's text form of an ordinal below w**2."""
    omega, fin = o
    if omega == 0:
        return str(fin)
    head = "w" if omega == 1 else f"w*{omega}"
    return f"{head}+{fin}" if fin else head


def parse_ordinal(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(?:w(?:\*(\d+))?)?(?:\+?(\d+))?", text)
    if m is None or not text:
        raise ValueError(f"bad ordinal {text!r}")
    if not text.startswith("w"):
        return 0, int(text)
    return int(m.group(1) or 1), int(m.group(2) or 0)


_NODE_CTORS = {"PathNode": "p", "LadderNode": "lad", "Ground": "ladg",
               "RayNode": "ray", "GridNode": "grid", "SegNode": "e"}


def node_tuple(text: str) -> tuple:
    """Read a node's repr, e.g. ``GridNode(k=1, l=-2)``, as a plain tuple."""
    m = re.fullmatch(r"(\w+)\((.*)\)", text)
    if m is None:
        raise ValueError(f"bad node text {text!r}")
    cls, body = m.groups()
    fields = dict(re.findall(r"(\w+)=('?[\w-]+'?|None)", body))
    if cls == "OneNodeId":
        return ("xg",) if fields["kind"] == "'xg'" else ("x1", int(fields["index"]))
    if cls == "DiamondNode":
        return (fields["side"].strip("'"), int(fields["chain"]), int(fields["depth"]))
    if cls == "StarNode":
        return ("xg",) if fields["leaf"] == "None" else ("zg", int(fields["leaf"]))
    return (_NODE_CTORS[cls], *(int(v) for v in fields.values()))


# ====== pointwise shape of a distance sequence ======

def grows(values: list) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _branches(graph, pair_at) -> tuple[list, list]:
    """Distances at the even and the odd settled samples."""
    even = [distance(graph, *pair_at(n)) for n in EVEN]
    odd = [distance(graph, *pair_at(n)) for n in ODD]
    return even, odd


def _growth_key(rank1: bool):
    # galaxies of rank 1 are told apart by the omega coefficient alone
    return (lambda o: o[0]) if rank1 else (lambda o: o[1])


def check_relation(graph, relation: str, bound: str | None, pair_at) -> str | None:
    rank1 = family_of(graph) in RANK1
    key = _growth_key(rank1)
    even, odd = _branches(graph, pair_at)
    up = [grows([key(v) for v in side]) for side in (even, odd)]
    if relation == "same-galaxy":
        if bound is None:
            return None if not any(up) else f"distance grows: {even} {odd}"
        cap = parse_ordinal(bound)
        worst = max(even + odd)
        return None if worst <= cap else f"bound {bound} < distance {render(worst)}"
    if relation == "different-galaxy":
        return None if all(up) else f"distance does not grow: {even} {odd}"
    if relation == "filter-dependent":
        return None if up[0] != up[1] else f"parity branches agree: {even} {odd}"
    return f"unknown relation {relation!r}"


def check_gap(graph, verdict: str, x_at, y_at) -> str | None:
    """closer(base, x, y): does d(y, base) - d(x, base) outgrow every bound?"""
    key = _growth_key(family_of(graph) in RANK1)
    base = anchor(graph)

    def gaps(indices):
        return [key(distance(graph, base, y_at(n))) - key(distance(graph, base, x_at(n)))
                for n in indices]
    up = [grows(gaps(EVEN)), grows(gaps(ODD))]
    want = {"true": [True, True], "false": [False, False]}.get(verdict)
    if want is not None:
        return None if up == want else f"gap growth {up} contradicts {verdict}"
    if verdict == "filter-dependent":
        return None if up[0] != up[1] else f"gap growth {up} is not split"
    return f"unknown verdict {verdict!r}"


def check_standard(verdict: str, at) -> str | None:
    even = {at(n) for n in EVEN}
    odd = {at(n) for n in ODD}
    const = [len(even) == 1, len(odd) == 1]
    if all(const) and even == odd:
        want = "true"
    elif any(const):
        want = "filter-dependent"
    else:
        want = "false"
    return None if verdict == want else f"standard is {want}, answer {verdict}"


def check_equality(verdict: str, a_at, b_at) -> str | None:
    same = [all(a_at(n) == b_at(n) for n in side) for side in (EVEN, ODD)]
    want = ("true" if all(same) else "false" if not any(same)
            else "filter-dependent")
    return None if verdict == want else f"equality is {want}, answer {verdict}"


def check_order(graph, verdict: str, a_pair, b_pair) -> str | None:
    """compare_hyperordinals(d(a), d(b)) against pointwise comparisons."""
    def sign(n):
        da, db = distance(graph, *a_pair(n)), distance(graph, *b_pair(n))
        return "less" if da < db else "greater" if da > db else "equal"
    even = {sign(n) for n in EVEN}
    odd = {sign(n) for n in ODD}
    if len(even) != 1 or len(odd) != 1:
        return f"order not settled at the samples: {even} {odd}"
    want = even.pop() if even == odd else "filter-dependent"
    return None if verdict == want else f"order is {want}, answer {verdict}"


def check_adjacent(graph, threshold: int, kind: str, u_at, v_at) -> str | None:
    if kind != "cofinite":
        return f"hyperbranch evidence is {kind}"
    for n in EVEN + ODD:
        if n >= threshold and distance(graph, u_at(n), v_at(n)) != (0, 1):
            return f"not adjacent at n={n}"
    return None


def check_chain_gaps(graph, entries_at) -> str | None:
    """Consecutive chain entries: the gap to the anchor must grow."""
    key = _growth_key(family_of(graph) in RANK1)
    base = anchor(graph)
    for parity in (0, 1):
        small, big = 8 + parity, 64 + parity
        for inner, outer in zip(entries_at, entries_at[1:]):
            def gap(n):
                return (key(distance(graph, base, outer(n)))
                        - key(distance(graph, base, inner(n))))
            if not gap(small) < gap(big):
                return f"chain gap does not grow: {gap(small)} -> {gap(big)}"
    return None


def check_konig(graph, origin: tuple, samples: list) -> str | None:
    for n, text in enumerate(samples):
        d = distance(graph, origin, node_tuple(text))
        if d != (0, n):
            return f"ray step {n} sits at distance {render(d)}"
    return None


def check_boundary_ray(graph, origin: tuple, samples: list) -> str | None:
    omegas = [distance(graph, origin, node_tuple(t))[0] for t in samples]
    if any(w < k for k, w in enumerate(omegas)) or omegas != sorted(omegas):
        return f"boundary ray omega coefficients {omegas}"
    return None
