"""Independent reference oracles used by the test suite.

Everything here recomputes answers from first principles on explicit finite
truncations: adjacency rules written out here, textbook searches, compare.
None of it shares code with the lazy implementations it checks.

A rank-0 truncation is a `Window`: each family's rule inside a radius, with
the edits applied, read one node at a time, so a search reads only the
nodes it reaches.  The rank-1 oracle builds its quotients as explicit
adjacency dicts and keeps the last two, with the legs between their
1-nodes; only the legs from 0-node endpoints are built per query, and a
Dijkstra over lexicographic walk lengths composes them.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import lru_cache
from itertools import count

from .graphs import GridNode, Ground, LadderNode, PathNode, RayNode
from .ordinal import Ordinal
from .transfinite import DiamondNode, OneNodeId, RailNode, SegNode, StarNode


def plain_bfs(adj, x, y) -> int | None:
    """Unweighted shortest path; adj[u] lists u's neighbours (a dict or a `Window`)."""
    if x == y:
        return 0
    seen = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                if v == y:
                    return seen[v]
                queue.append(v)
    return None


def _add_branch(adj: dict, a, b) -> None:
    adj.setdefault(a, set()).add(b)
    adj.setdefault(b, set()).add(a)


# ====== Rank-0 truncations ======
#
# A family's rule inside a radius: (inside, near), where inside(u) tells
# whether u lies in the truncation and near(u) lists u's branches in the
# whole family, finitely many of them inside.

def _path_rule(lo: int, hi: int):
    return (lambda u: isinstance(u, PathNode) and lo <= u.k <= hi,
            lambda u: (PathNode(u.k - 1), PathNode(u.k + 1)))


def _ladder_rule(radius: int, ray: bool):
    """Ground joined to the rungs 0..radius, in a row; with ray, to a ray 1..radius."""
    def inside(u) -> bool:
        if isinstance(u, LadderNode):
            return 0 <= u.k <= radius
        if isinstance(u, RayNode):
            return ray and 1 <= u.j <= max(1, radius)
        return isinstance(u, Ground)

    def near(u):
        if isinstance(u, Ground):
            return [RayNode(1), *(LadderNode(k) for k in range(radius + 1))]
        if isinstance(u, LadderNode):
            return (Ground(), LadderNode(u.k - 1), LadderNode(u.k + 1))
        return (Ground() if u.j == 1 else RayNode(u.j - 1), RayNode(u.j + 1))
    return inside, near


def _grid_rule(radius: int):
    return (lambda u: isinstance(u, GridNode) and abs(u.k) <= radius and abs(u.l) <= radius,
            lambda u: (GridNode(u.k - 1, u.l), GridNode(u.k + 1, u.l),
                       GridNode(u.k, u.l - 1), GridNode(u.k, u.l + 1)))


_RULES = {
    "endless_path": lambda radius: _path_rule(-radius, radius),
    "one_ended_path": lambda radius: _path_rule(0, radius),
    "ladder": lambda radius: _ladder_rule(radius, ray=False),
    "ladder_with_ray": lambda radius: _ladder_rule(radius, ray=True),
    "grid2d": _grid_rule,
    "perturbed_grid": _grid_rule,
}


class Window:
    """The catalog family restricted to a radius, read one node at a time.

    `window[u]` lists u's neighbours inside the radius, with the edits
    applied: of the edits to one branch the last stands, and an added
    branch brings its endpoints in even from outside the radius.  A node
    outside has no entry (KeyError).
    """

    def __init__(self, family: str, radius: int, edits: list[dict] | None = None):
        if family not in _RULES:
            raise ValueError(f"no truncation rule for family {family!r}")
        self.inside, self.near = _RULES[family](radius)
        last: dict = {}  # branch -> (a, b, kept) of its last edit
        for edit in edits or []:
            a, b = GridNode(*edit["a"]), GridNode(*edit["b"])
            last[frozenset((a, b))] = (a, b, edit["op"] != "remove")
        self.added: dict = {}
        self.removed: dict = {}
        for a, b, kept in last.values():
            side = self.added if kept else self.removed
            side.setdefault(a, []).append(b)
            side.setdefault(b, []).append(a)

    def __getitem__(self, u) -> list:
        if not self.inside(u):
            return self.added[u]  # KeyError unless an added branch brings u in
        cut = self.removed.get(u, ())
        return [v for v in self.near(u) if self.inside(v) and v not in cut] \
            + self.added.get(u, [])


def oracle_distance(family: str, pairs: list, radius: int,
                    edits: list[dict] | None = None) -> list[int]:
    """Truncation-stable distances of the pairs: equal at two radii, else refuse."""
    near_window, far_window = Window(family, radius, edits), Window(family, radius + 4, edits)
    near = [plain_bfs(near_window, x, y) for x, y in pairs]
    far = [plain_bfs(far_window, x, y) for x, y in pairs]
    for (x, y), a, b in zip(pairs, near, far):
        if a is None or a != b:
            raise ValueError(f"radius {radius} too small to settle d({x!r},{y!r})")
    return near


# ====== Rank-1 quotients ======
#
# A truncated quotient is a pair (sections, incidence):
#   sections:  section key -> explicit adjacency dict of its 0-nodes
#   incidence: 1-node id -> [(section key, "tip" | "embedded", 0-node | None)]
# Walk lengths come out of probe-leg enumeration: a leg crosses one section
# (at most two tip entries, so at most three per composed probe), and legs
# compose by a Dijkstra over the named vertices with lexicographic costs.

def _path_section(adj_key_nodes):
    adj: dict = {}
    nodes = list(adj_key_nodes)
    for a, b in zip(nodes, nodes[1:]):
        _add_branch(adj, a, b)
    return adj


def diamond_quotient(chains: int, depth: int = 16):
    sections = {}
    for k in range(chains + 1):
        adj: dict = {}
        for d in range(depth):
            j = DiamondNode("j", k, d)
            below = DiamondNode("j", k, d + 1)
            for side in ("l", "r"):
                mid = DiamondNode(side, k, d)
                _add_branch(adj, j, mid)
                _add_branch(adj, mid, below)
        sections[("chain", k)] = adj
    incidence = {}
    for m in range(chains + 2):
        entries = []
        if m <= chains:
            entries.append((("chain", m), "tip", None))
        if 1 <= m <= chains + 1:
            entries.append((("chain", m - 1), "tip", None))
        incidence[OneNodeId("x1", m)] = entries
    return sections, incidence


def onepath_quotient(span: int, pos: int = 24):
    sections = {("seg", k): _path_section(SegNode(k, i) for i in range(-pos, pos + 1))
                for k in range(-span, span + 1)}
    incidence = {}
    for m in range(-span, span + 2):
        entries = []
        if -span <= m - 1:
            entries.append((("seg", m - 1), "tip", None))
        if m <= span:
            entries.append((("seg", m), "tip", None))
        incidence[OneNodeId("x1", m)] = entries
    return sections, incidence


def ladder_oep_quotient(span: int, pos: int = 24):
    sections = {}
    for k in range(span + 1):
        for rail in ("v", "h"):
            sections[(rail, k)] = _path_section(
                RailNode(rail, k, i) for i in range(-pos, pos + 1))
    incidence = {OneNodeId("xg"): [(("v", k), "tip", None) for k in range(span + 1)]}
    for m in range(span + 2):
        entries = []
        if m <= span:
            entries.append((("v", m), "tip", None))
            entries.append((("h", m), "tip", None))
        if 1 <= m <= span + 1:
            entries.append((("h", m - 1), "tip", None))
        incidence[OneNodeId("x1", m)] = entries
    return sections, incidence


def partial_ladder_quotient(span: int, pos: int = 24):
    star: dict = {}
    for k in range(span + 1):
        _add_branch(star, StarNode(None), StarNode(k))
    sections = {("star",): star}
    for k in range(span + 1):
        sections[("h", k)] = _path_section(
            RailNode("h", k, i) for i in range(-pos, pos + 1))
    incidence = {}
    for m in range(span + 2):
        entries = []
        if m <= span:
            entries.append(((("star",)), "embedded", StarNode(m)))
            entries.append((("h", m), "tip", None))
        if 1 <= m <= span + 1:
            entries.append((("h", m - 1), "tip", None))
        incidence[OneNodeId("x1", m)] = entries
    return sections, incidence


_QUOTIENTS = {
    "diamond_chain": lambda size: diamond_quotient(size, depth=2 * size + 8),
    "one_path_of_endless_paths": lambda size: onepath_quotient(size, pos=2 * size + 8),
    "ladder_of_endless_paths": lambda size: ladder_oep_quotient(size, pos=2 * size + 8),
    "partial_ladder": lambda size: partial_ladder_quotient(size, pos=2 * size + 8),
}


@lru_cache(maxsize=2)  # the two sizes one oracle call compares
def _quotient(family: str, size: int):
    """The family's truncated quotient; shared, so callers never mutate it."""
    return _QUOTIENTS[family](size)


@lru_cache(maxsize=2)  # keyed like _quotient: no leg here depends on an endpoint
def _one_legs(family: str, size: int) -> dict:
    """1-node -> [(1-node, lex cost)] over single-section legs, both ways."""
    sections, incidence = _quotient(family, size)
    legs: dict = {one: [] for one in incidence}
    ones = list(incidence)
    for i, a in enumerate(ones):
        for b in ones[i + 1:]:
            best = None
            for skey_a, kind_a, pay_a in incidence[a]:
                for skey_b, kind_b, pay_b in incidence[b]:
                    if skey_a != skey_b:
                        continue
                    if kind_a == "tip" and kind_b == "tip":
                        cost = (2, 0)
                    elif "tip" in (kind_a, kind_b):
                        cost = (1, 0)
                    else:
                        d = plain_bfs(sections[skey_a], pay_a, pay_b)
                        if d is None:
                            continue
                        cost = (0, d)
                    best = min(best, cost) if best else cost
            if best is not None:
                legs[a].append((b, best))
                legs[b].append((a, best))
    return legs


def _section_of(sections: dict, ref):
    for key, adj in sections.items():
        if ref in adj:
            return key
    raise ValueError(f"{ref!r} lies outside the truncation")


def _endpoint_legs(sections: dict, incidence: dict, zeros: list) -> list:
    """Every single-section leg from a 0-node endpoint, with its lex cost."""
    legs = []
    for u in zeros:
        key = _section_of(sections, u)
        for v in zeros:
            if v != u and v in sections[key]:
                d = plain_bfs(sections[key], u, v)
                if d is not None:
                    legs.append((u, v, (0, d)))
        for one, entries in incidence.items():
            best = None
            for skey, kind, payload in entries:
                if skey != key:
                    continue
                if kind == "embedded":
                    d = plain_bfs(sections[key], u, payload)
                    if d is not None:
                        best = min(best, (0, d)) if best else (0, d)
                elif best is None:
                    best = (1, 0)
            if best is not None:
                legs.append((u, one, best))
    return legs


def _compose_probes(shared: dict, legs: list, x, y):
    """Least lex cost from x to y over the shared legs and the endpoint legs."""
    own: dict = {}
    for u, v, cost in legs:
        own.setdefault(u, []).append((v, cost))
        own.setdefault(v, []).append((u, cost))
    best = {x: (0, 0)}
    tie = count()  # vertex ids are not ordered
    heap = [((0, 0), next(tie), x)]
    while heap:
        cost, _, u = heapq.heappop(heap)
        if cost > best[u]:
            continue  # superseded by a cheaper entry
        if u == y:
            return cost
        for v, leg in (*shared.get(u, ()), *own.get(u, ())):
            cand = (cost[0] + leg[0], cost[1] + leg[1])
            if v not in best or cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (cand, next(tie), v))
    raise ValueError(f"{x!r} and {y!r} not connected in the truncation")


def _enumerate_once(family: str, size: int, x, y):
    sections, incidence = _quotient(family, size)
    zeros = [e for e in (x, y) if not isinstance(e, OneNodeId)]
    for e in zeros:
        _section_of(sections, e)
    if x == y:
        return (0, 0)
    legs = _endpoint_legs(sections, incidence, zeros)
    return _compose_probes(_one_legs(family, size), legs, x, y)


def enumeration_wdistance(family: str, x, y, size: int = 9) -> Ordinal:
    """Walk length by probe-leg enumeration, truncation-stable at two sizes."""
    near = _enumerate_once(family, size, x, y)
    far = _enumerate_once(family, size + 3, x, y)
    if near != far:
        raise ValueError(f"size {size} too small to settle wdistance({x!r},{y!r})")
    return Ordinal(*near)


def oracle_section_distance(family: str, u, v, size: int = 9) -> int:
    """Within-section 0-distance on the explicit truncation, stability-checked."""
    out = []
    for s in (size, size + 4):
        sections, _ = _quotient(family, s)
        key = _section_of(sections, u)
        if v not in sections[key]:
            raise ValueError(f"{u!r} and {v!r} are not in one section")
        out.append(plain_bfs(sections[key], u, v))
    if out[0] is None or out[0] != out[1]:
        raise ValueError(f"size {size} too small for d({u!r},{v!r})")
    return out[0]
