"""Infinite graphs presented by adjacency oracles.

A family never materialises its node set.  Nodes are small structured ids,
adjacency is a (possibly infinite) stream, and exact distances come from a
closed form, or on the edited grid from a Dijkstra over a finite compressed
grid.  The budgeted bidirectional search is the oracle they are tested
against; it is item-interleaved so that a node of infinite degree (the
ladder ground) consumes budget instead of hanging, and it either certifies
an exact answer or reports Exhausted, never a wrong number.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import sequences as sq
from .kernel import TruthSet
from .sequences import (Aff, IndexSequence, Opaque, SymInt, eq_const_truthset,
                        per_parity, sym_abs, sym_add, sym_start, sym_sub,
                        sym_widen, zone_by_magnitude)


class NotAMemberError(ValueError):
    pass


class UnsupportedOracleError(ValueError):
    """No closed-form distance is installed for this family."""


class UnreachableError(RuntimeError):
    pass


class EditValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Exhausted:
    """Search budget ran out before the answer was certified."""

    def __repr__(self) -> str:
        return "EXHAUSTED"


EXHAUSTED = Exhausted()

DEFAULT_BUDGET = 200_000


def natkey(v: int) -> tuple[int, int]:
    """Total order on integers that enumerates naturals before negatives."""
    return (0, v) if v >= 0 else (1, -v)


# ====== Node ids ======

@dataclass(frozen=True)
class PathNode:
    k: int

    def sort_key(self):
        return ("p", natkey(self.k))


@dataclass(frozen=True)
class LadderNode:
    k: int

    def sort_key(self):
        return ("lad", natkey(self.k))


@dataclass(frozen=True)
class Ground:
    def sort_key(self):
        return ("ladg", natkey(0))


@dataclass(frozen=True)
class RayNode:
    j: int

    def sort_key(self):
        return ("ray", natkey(self.j))


# A tuple, unlike the ids above: lattice searches build and hash it on every
# step.  The one-field ids stay dataclasses, so LadderNode(2) != RayNode(2).
class GridNode(NamedTuple):
    k: int
    l: int

    def sort_key(self):
        return ("grid", natkey(self.k), natkey(self.l))


def node_coords(node) -> tuple[int, ...]:
    """A node id's fields, in order: the arguments of its constructor."""
    if isinstance(node, tuple):
        return tuple(node)
    return dataclasses.astuple(node)


# ====== Node terms ======

@dataclass(frozen=True)
class NodeTerm:
    """Family node constructor applied to index sequences."""

    ctor: str
    params: tuple[IndexSequence, ...]

    def param_syms(self) -> tuple[SymInt, ...]:
        # cached on first use, outside the fields: equality and hash never see it
        syms = self.__dict__.get("_syms")
        if syms is None:
            syms = tuple(p.to_sym() for p in self.params)
            object.__setattr__(self, "_syms", syms)
        return syms

    def describe(self) -> str:
        if not self.params:
            return self.ctor
        return f"{self.ctor}:{','.join(p.describe() for p in self.params)}"


# ====== Term readers ======
#
# One body for both ranks: GraphInstance and OneGraph each bind these in
# their own namespace, where tracing counts `term_node` per defining class.

def check_term(graph, term: NodeTerm) -> None:
    arity = graph.TERM_ARITY.get(term.ctor)
    if arity is None:
        raise NotAMemberError(f"unknown node constructor {term.ctor!r} for {graph.family}")
    if arity != len(term.params):
        raise NotAMemberError(
            f"constructor {term.ctor!r} takes {arity} parameter(s), got {len(term.params)}")


def term_node(graph, term: NodeTerm, n: int):
    args = tuple(p.value(n) for p in term.params)
    node = graph.instantiate_term(term.ctor, args)
    graph.require_member(node)
    return node


def term_nodes(graph, term: NodeTerm, lo: int, hi: int) -> list:
    """The column term_node(term, n) for lo <= n < hi, read column by column.

    Where some index fails, the column is read again index by index, so
    the first failing index raises its own error, as `term_node` would.
    """
    try:
        if term.params:
            args = zip(*[p.values(lo, hi) for p in term.params])
        else:
            args = itertools.repeat((), max(0, hi - lo))
        nodes = list(map(graph.instantiate_term, itertools.repeat(term.ctor), args))
        if all(map(graph.contains, nodes)):
            return nodes
    except Exception:  # raised again below, at its own index
        pass
    return [graph.term_node(term, n) for n in range(lo, hi)]


class GraphInstance:
    """Base of the rank-0 catalog families."""

    family: str = ""
    rank: int = 0  # distances are finite; OneGraph's are ordinals below w**2
    locally_finite: bool = True
    has_closed_form: bool = True

    # -- structure --
    def contains(self, node) -> bool:
        raise NotImplementedError

    def neighbors(self, node) -> Iterator:
        raise NotImplementedError

    def anchor(self):
        """Canonical standard node the principal galaxy is measured from."""
        raise NotImplementedError

    def anchor_term(self) -> NodeTerm:
        """The anchor as a constant node term."""
        raise NotImplementedError

    def require_member(self, node) -> None:
        if not self.contains(node):
            raise NotAMemberError(f"{node!r} is not a node of {self.family}")

    # -- distances --
    def closed_form_distance(self, x, y) -> int:
        raise UnsupportedOracleError(f"{self.family} has no closed-form distance")

    def distance(self, x, y, budget: int = DEFAULT_BUDGET) -> int | Exhausted:
        """Exact distance; `budget` bounds the work of a family that searches."""
        self.require_member(x)
        self.require_member(y)
        return self.closed_form_distance(x, y)

    # -- terms --
    TERM_ARITY: dict[str, int] = {}

    def instantiate_term(self, ctor: str, args: tuple[int, ...]):
        raise NotImplementedError

    check_term = check_term
    term_node = term_node
    term_nodes = term_nodes

    def normalize_term(self, term: NodeTerm) -> NodeTerm:
        """Rewrite to the canonical constructor naming the same nodes."""
        self.check_term(term)
        return term

    # -- symbolic layer --
    def symbolic_distance(self, ta: NodeTerm, tb: NodeTerm) -> SymInt | None:
        return None

    def adjacency_truthset(self, ta: NodeTerm, tb: NodeTerm) -> TruthSet | None:
        """Classification of {n : the two generated nodes share a branch}.

        Adjacent means distance exactly 1, read from the distance form.
        """
        sym = self.symbolic_distance(ta, tb)
        return None if sym is None else eq_const_truthset(sym, 1)

    def term_distance_fn(self, ta: NodeTerm, tb: NodeTerm):
        def fn(n: int) -> int:
            d = self.distance(self.term_node(ta, n), self.term_node(tb, n))
            if isinstance(d, Exhausted):
                raise UnreachableError("distance generator exhausted its budget")
            return d
        return fn

    # -- sampling --
    def sample_nodes(self, rng, count: int, span: int = 15) -> list:
        raise NotImplementedError


# ====== Budgeted bidirectional search ======

class _Side:
    __slots__ = ("dist", "frontier", "completed", "done")

    def __init__(self, root):
        self.dist = {root: 0}
        self.frontier = [root]
        self.completed = -1
        self.done = False


def bfs_distance(graph: GraphInstance, x, y, budget: int = DEFAULT_BUDGET) -> int | Exhausted:
    """Exact distance or Exhausted, by search over the adjacency streams.

    No family answers `distance` with it: it is the oracle that closed forms
    and `PerturbedGrid`'s compressed grid are tested against, and the
    reference of the budget unit.  One unit of budget is one neighbour read:
    each node that a side takes from an adjacency stream, seen before or not,
    spends one unit.

    Expands both endpoints a neighbour at a time (round-robin), so infinite
    adjacency streams cannot starve the other side.  A meeting of the two
    searches at total length m is certified exact once m <= cA + cB + 2,
    where cA, cB are the deepest fully expanded levels: any shorter path
    would already have been seen inside the completed shells.
    """
    if x == y:
        return 0
    a, b = _Side(x), _Side(y)
    best: int | None = None

    def stepper(side: _Side, other: _Side):
        nonlocal best
        while side.frontier:
            next_level = []
            for u in side.frontier:
                du = side.dist[u]
                for v in graph.neighbors(u):
                    if v not in side.dist:
                        side.dist[v] = du + 1
                        next_level.append(v)
                        if v in other.dist:
                            cand = side.dist[v] + other.dist[v]
                            if best is None or cand < best:
                                best = cand
                    yield None
            side.completed += 1
            side.frontier = next_level
        side.done = True

    gens = [stepper(a, b), stepper(b, a)]
    live = [True, True]
    spent = 0
    while spent < budget and (live[0] or live[1]):
        for i in (0, 1):
            if not live[i]:
                continue
            try:
                next(gens[i])
                spent += 1
            except StopIteration:
                live[i] = False
            if best is not None and best <= a.completed + b.completed + 2:
                return best
    if best is not None and best <= a.completed + b.completed + 2:
        return best
    if a.done and b.done:
        raise UnreachableError(f"no path between {x!r} and {y!r}")
    return EXHAUSTED


# ====== Families ======

class EndlessPath(GraphInstance):
    """Two-way infinite path: nodes k in Z, branches {k, k+1}."""

    family = "endless_path"
    TERM_ARITY = {"p": 1}

    def contains(self, node) -> bool:
        return isinstance(node, PathNode)

    def neighbors(self, node) -> Iterator:
        yield PathNode(node.k + 1)
        yield PathNode(node.k - 1)

    def anchor(self):
        return PathNode(0)

    def anchor_term(self):
        return NodeTerm("p", (sq.Constant(0),))

    def closed_form_distance(self, x, y) -> int:
        return abs(x.k - y.k)

    def instantiate_term(self, ctor, args):
        if ctor != "p":
            raise NotAMemberError(f"unknown constructor {ctor!r} for {self.family}")
        return PathNode(args[0])

    def symbolic_distance(self, ta, tb):
        return sym_abs(sym_sub(ta.param_syms()[0], tb.param_syms()[0]))

    def sample_nodes(self, rng, count, span=15):
        return [PathNode(rng.randint(-span, span)) for _ in range(count)]


class OneEndedPath(EndlessPath):
    """One-way infinite path: nodes k >= 0."""

    family = "one_ended_path"

    def contains(self, node) -> bool:
        return isinstance(node, PathNode) and node.k >= 0

    def neighbors(self, node) -> Iterator:
        yield PathNode(node.k + 1)
        if node.k > 0:
            yield PathNode(node.k - 1)

    def sample_nodes(self, rng, count, span=15):
        return [PathNode(rng.randint(0, 2 * span)) for _ in range(count)]


class Ladder(GraphInstance):
    """Grounded one-way ladder: rungs x_k all adjacent to a common ground.

    The ground has infinite degree, so distance queries must go through the
    closed form; the raw adjacency stream exists for search and sampling.
    """

    family = "ladder"
    locally_finite = False
    TERM_ARITY = {"lad": 1, "ladg": 0}

    def contains(self, node) -> bool:
        if isinstance(node, Ground):
            return True
        return isinstance(node, LadderNode) and node.k >= 0

    def neighbors(self, node) -> Iterator:
        if isinstance(node, Ground):
            return (LadderNode(k) for k in itertools.count())
        out = [Ground()]
        if node.k > 0:
            out.append(LadderNode(node.k - 1))
        out.append(LadderNode(node.k + 1))
        return iter(out)

    def anchor(self):
        return Ground()

    def anchor_term(self):
        return NodeTerm("ladg", ())

    def closed_form_distance(self, x, y) -> int:
        if x == y:
            return 0
        if isinstance(x, Ground) or isinstance(y, Ground):
            return 1
        return 1 if abs(x.k - y.k) == 1 else 2

    def instantiate_term(self, ctor, args):
        if ctor == "ladg":
            return Ground()
        if ctor == "lad":
            return LadderNode(args[0])
        raise NotAMemberError(f"unknown constructor {ctor!r} for {self.family}")

    def symbolic_distance(self, ta, tb):
        if ta.ctor == "ladg" and tb.ctor == "ladg":
            return Aff(0, 0)
        if "ladg" in (ta.ctor, tb.ctor):
            return Aff(0, 1)
        delta = sym_sub(ta.param_syms()[0], tb.param_syms()[0])
        sym = zone_by_magnitude(delta, (0, 1, 2))
        if sym is not None:
            return sym
        start = max(sym_start(s) for s in ta.param_syms() + tb.param_syms())
        return Opaque(self.term_distance_fn(ta, tb), lo=0, hi=2, start=start)

    def sample_nodes(self, rng, count, span=15):
        out = []
        for _ in range(count):
            out.append(Ground() if rng.random() < 0.1 else LadderNode(rng.randint(0, 2 * span)))
        return out


class LadderWithRay(Ladder):
    """The grounded ladder plus a one-way ray hung from the ground."""

    family = "ladder_with_ray"
    TERM_ARITY = {"lad": 1, "ladg": 0, "ray": 1}

    def contains(self, node) -> bool:
        if isinstance(node, RayNode):
            return node.j >= 1
        return super().contains(node)

    def neighbors(self, node) -> Iterator:
        if isinstance(node, Ground):
            return itertools.chain([RayNode(1)], (LadderNode(k) for k in itertools.count()))
        if isinstance(node, RayNode):
            out = [RayNode(node.j + 1)]
            out.append(Ground() if node.j == 1 else RayNode(node.j - 1))
            return iter(out)
        return super().neighbors(node)

    def closed_form_distance(self, x, y) -> int:
        xr, yr = isinstance(x, RayNode), isinstance(y, RayNode)
        if xr and yr:
            return abs(x.j - y.j)
        if xr or yr:
            ray, other = (x, y) if xr else (y, x)
            return ray.j if isinstance(other, Ground) else ray.j + 1
        return super().closed_form_distance(x, y)

    def instantiate_term(self, ctor, args):
        if ctor == "ray":
            return RayNode(args[0])
        return super().instantiate_term(ctor, args)

    def symbolic_distance(self, ta, tb):
        if "ray" not in (ta.ctor, tb.ctor):
            return super().symbolic_distance(ta, tb)
        if ta.ctor != "ray":
            ta, tb = tb, ta
        s = ta.param_syms()[0]
        if tb.ctor == "ray":
            return sym_abs(sym_sub(s, tb.param_syms()[0]))
        if tb.ctor == "ladg":
            return s
        return sym_add(s, Aff(0, 1))

    def sample_nodes(self, rng, count, span=15):
        out = []
        for _ in range(count):
            r = rng.random()
            if r < 0.1:
                out.append(Ground())
            elif r < 0.4:
                out.append(RayNode(rng.randint(1, 2 * span)))
            else:
                out.append(LadderNode(rng.randint(0, 2 * span)))
        return out


def _manhattan(sk: SymInt, sl: SymInt, tk: SymInt, tl: SymInt) -> SymInt:
    return sym_add(sym_abs(sym_sub(sk, tk)), sym_abs(sym_sub(sl, tl)))


class Grid2D(GraphInstance):
    """The integer lattice with unit branches."""

    family = "grid2d"
    TERM_ARITY = {"grid": 2}

    def contains(self, node) -> bool:
        return isinstance(node, GridNode)

    def neighbors(self, node) -> tuple[GridNode, ...]:
        k, l = node
        return (GridNode(k + 1, l), GridNode(k - 1, l),
                GridNode(k, l + 1), GridNode(k, l - 1))

    def anchor(self):
        return GridNode(0, 0)

    def anchor_term(self):
        return NodeTerm("grid", (sq.Constant(0), sq.Constant(0)))

    def closed_form_distance(self, x, y) -> int:
        return abs(x.k - y.k) + abs(x.l - y.l)

    def instantiate_term(self, ctor, args):
        if ctor != "grid":
            raise NotAMemberError(f"unknown constructor {ctor!r} for {self.family}")
        return GridNode(args[0], args[1])

    def symbolic_distance(self, ta, tb):
        return _manhattan(*ta.param_syms(), *tb.param_syms())

    def sample_nodes(self, rng, count, span=15):
        return [GridNode(rng.randint(-span, span), rng.randint(-span, span))
                for _ in range(count)]


class PerturbedGrid(Grid2D):
    """Grid2D with finitely many branch insertions/deletions.

    Distances are exact, from a Dijkstra over the compressed grid of the
    query, a Hanan grid (Hanan 1966; de Rezende, Lee and Wu 1989).  Its
    columns K are the k-coordinates of x and y and every edit endpoint's
    k - 1, k and k + 1; its rows L are chosen the same way from the
    l-coordinates.  Consecutive lines meet at a node of K x L and are joined
    by a branch weighing their gap, except a gap-1 branch the edits remove;
    each added branch weighs 1.

    Why this is exact.  An edited branch joins two edit endpoints, so every
    branch touching a line that holds no edit endpoint is pristine.
    (1) The box.  No edit endpoint lies on column max K or beyond.  Clamping
        a path's k to at most max K maps each step there to a pristine step
        on column max K or to no step, so it never lengthens the path; the
        same holds on the other three sides, and some shortest path between
        x and y stays in [min K, max K] x [min L, max L].
    (2) Columns.  A column c outside K holds no edit endpoint on c - 1, c or
        c + 1, so in a maximal run of such columns neither the run nor the
        two columns bounding it hold one.  Contract the run a column at a
        time.  Let p and q be c's neighbour columns and w1, w2 the weights
        of its branches to them; the vertical branches of p, c and q are all
        present and c has no added branch.  A path stays on c from entering
        at row r1 from p or q to leaving at row r2 for p or q, at a cost of
        at least |r1 - r2| plus the weights of the two branches it crossed.
        Running |r1 - r2| along the line it came from, then taking a new p-q
        branch of weight w1 + w2 if it leaves on the other side, costs no
        more, and each new branch is a path of its weight through c.  So
        every distance between the remaining nodes is kept.
    (3) Rows.  The same argument on the weighted grid of (2): a row outside
        L and its two bounding rows hold no edit endpoint, so their
        horizontal branches are all present with the same column gaps.
    What is left is the compressed grid.  A branch of gap g > 1 is a
    straight pristine run: its inner points are no edit endpoints, so none
    of its steps is removed.

    A query reads O(|edits|^2) neighbours at any separation, each from the
    sorted lines when the search reaches it; each read spends one unit of
    `budget`, the unit of `bfs_distance`, which stays as the oracle.  The
    edits are validated on the same grid.  `max_shortcut` S sums d(a, b) - 1
    over the added branches on the pristine grid, `max_detour` D over the
    removed ones on this grid.

    Terms.  On a parity branch where the four coordinates are affine, the
    distance d is the pristine form p plus a constant from n1 on.
    (a) r = d - p lies in [-S, D]: a shortest path with each added branch
        replaced by a pristine run gives d >= p - S, and a monotone pristine
        path with each removed branch replaced by its detour gives d <= p + D.
    (b) Let n0 be the first index past the root of every affine difference
        of two lines of the query's compressed grid: the moving coordinates,
        the other point's coordinate and the edit lines.  From n0 on the
        lines keep their order, so the grid keeps its shape (no node on a
        moving line is an edit endpoint) and each gap is affine and positive,
        so nondecreasing: d is the least of finitely many affine path lengths.
    (c) A path of slope below p's would take r below -S.  A path of slope
        s >= p's + 1 exceeds p by at least t - S at n0 + t, by (a) at n0; from
        n1 = n0 + S + D + 1 on it exceeds p + D >= d.  So r is the least
        constant of the paths of p's slope, and one query at n1 reads it.
        With no moving coordinate every path length is constant: n1 = n0.
    A branch with a coordinate that is not affine keeps the bracket
    [p - S, p + D] of (a) around its pointwise evaluator; a floor
    coordinate's band keeps its slope inside it.
    """

    family = "perturbed_grid"
    has_closed_form = False
    closed_form_distance = GraphInstance.closed_form_distance  # the edits leave none

    def __init__(self, added: list[tuple[GridNode, GridNode]],
                 removed: list[tuple[GridNode, GridNode]]):
        self.added = {frozenset((a, b)) for a, b in added}
        self.removed = {frozenset((a, b)) for a, b in removed}
        # added branches per endpoint, in the order of the sorted edit set
        self._added_at: dict[GridNode, tuple[GridNode, ...]] = {}
        for pair in sorted(self.added, key=lambda p: sorted(n.sort_key() for n in p)):
            for node in pair:
                self._added_at[node] = self._added_at.get(node, ()) + tuple(pair - {node})
        self._removed_at: dict[GridNode, set[GridNode]] = {}
        for pair in self.removed:
            for node in pair:
                self._removed_at.setdefault(node, set()).update(pair - {node})
        ends = {n for pair in self.added | self.removed for n in pair}
        self._cols = {n.k + d for n in ends for d in (-1, 0, 1)}
        self._rows = {n.l + d for n in ends for d in (-1, 0, 1)}
        self._validate_edits()
        grid = Grid2D()
        self.max_shortcut = sum(max(0, grid.closed_form_distance(*tuple(p)) - 1)
                                for p in self.added)
        self.max_detour = sum(self.distance(*tuple(p), budget=math.inf) - 1
                              for p in self.removed)

    # -- edit validation --
    def _validate_edits(self) -> None:
        grid = Grid2D()
        for pair in self.added | self.removed:
            if len(pair) != 2:
                raise EditValidationError("a branch joins two distinct nodes")
        for pair in self.removed:
            a, b = tuple(pair)
            if grid.closed_form_distance(a, b) != 1:
                raise EditValidationError(f"cannot remove non-grid branch {a!r}-{b!r}")
        for pair in self.added:
            a, b = tuple(pair)
            if grid.closed_form_distance(a, b) == 1:
                raise EditValidationError(f"branch {a!r}-{b!r} already present")
        if self.added & self.removed:
            raise EditValidationError("a branch cannot be both added and removed")
        if self.removed and not self._connected():
            raise EditValidationError("edits disconnect the grid")

    def _connected(self) -> bool:
        """Whether every node of the compressed grid is reached from its corner.

        The corner lies in the pristine half-plane left of every edit, on the
        one infinite component.  Any other component is finite, and its node
        of largest k lost its branch to k + 1, so it is an edit endpoint and
        a node of the compressed grid, which keeps reachability by (1) to (3).
        """
        cols, rows, branches = self._branch_reader(())
        corner = GridNode(cols[0], rows[0])
        seen, stack = {corner}, [corner]
        while stack:
            for v, _ in branches(stack.pop()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(cols) * len(rows)

    # -- distances --
    def _branch_reader(self, points):
        """The sorted columns and rows through `points` and the edits, and the
        reader of a node's branches on their grid: node -> [(node, weight)]."""
        cols = sorted(self._cols.union(p.k for p in points))
        rows = sorted(self._rows.union(p.l for p in points))
        col_at = {k: i for i, k in enumerate(cols)}
        row_at = {l: j for j, l in enumerate(rows)}

        def branches(u: GridNode) -> list[tuple[GridNode, int]]:
            k, l = u
            i, j = col_at[k], row_at[l]
            out = []
            if i:
                out.append((GridNode(cols[i - 1], l), k - cols[i - 1]))
            if i + 1 < len(cols):
                out.append((GridNode(cols[i + 1], l), cols[i + 1] - k))
            if j:
                out.append((GridNode(k, rows[j - 1]), l - rows[j - 1]))
            if j + 1 < len(rows):
                out.append((GridNode(k, rows[j + 1]), rows[j + 1] - l))
            removed = self._removed_at.get(u)
            if removed:
                out = [(v, w) for v, w in out if w > 1 or v not in removed]
            return out + [(v, 1) for v in self._added_at.get(u, ())]

        return cols, rows, branches

    def distance(self, x, y, budget: int = DEFAULT_BUDGET) -> int | Exhausted:
        """Dijkstra from x to y on their compressed grid; one unit per neighbour read."""
        self.require_member(x)
        self.require_member(y)
        branches = self._branch_reader((x, y))[2]
        dist = {x: 0}
        heap = [(0, x)]
        spent = 0
        while heap:
            d, u = heapq.heappop(heap)
            if u == y:
                return d
            if d > dist[u]:
                continue
            for v, w in branches(u):
                if spent >= budget:
                    return EXHAUSTED
                spent += 1
                if v not in dist or d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        raise UnreachableError(f"no path between {x!r} and {y!r}")

    # -- structure --
    def neighbors(self, node) -> tuple[GridNode, ...]:
        steps = super().neighbors(node)
        removed = self._removed_at.get(node)
        if removed:
            steps = tuple(v for v in steps if v not in removed)
        added = self._added_at.get(node)
        return steps + added if added else steps

    def symbolic_distance(self, ta, tb):
        return per_parity(self._term_distance, *ta.param_syms(), *tb.param_syms(),
                          self.term_distance_fn(ta, tb))

    def _term_distance(self, sk, sl, tk, tl, fn) -> SymInt | None:
        """One parity branch: the pristine form plus its eventual correction."""
        pure = _manhattan(sk, sl, tk, tl)
        if not all(isinstance(s, Aff) for s in (sk, sl, tk, tl)):
            return sym_widen(pure, -self.max_shortcut, self.max_detour, fn)
        n0 = max(s.start for s in (sk, sl, tk, tl))
        for moving, fixed in (((sk, tk), self._cols), ((sl, tl), self._rows)):
            lines = [(s.a, s.b) for s in moving] + [(0, c) for c in fixed]
            n0 = max([n0] + [(b - s.b) // (s.a - a) + 1
                             for s in moving for a, b in lines if a != s.a])
        n1 = n0
        if any(s.a for s in (sk, sl, tk, tl)):
            n1 += self.max_shortcut + self.max_detour + 1
        x = GridNode(sk.a * n1 + sk.b, sl.a * n1 + sl.b)
        y = GridNode(tk.a * n1 + tk.b, tl.a * n1 + tl.b)
        d = self.distance(x, y)
        if isinstance(d, Exhausted):
            return None
        return sym_add(pure, Aff(0, d - (pure.a * n1 + pure.b), n1))


# ====== Catalog ======

FAMILIES = {
    "endless_path": EndlessPath,
    "one_ended_path": OneEndedPath,
    "ladder": Ladder,
    "ladder_with_ray": LadderWithRay,
    "grid2d": Grid2D,
    "perturbed_grid": PerturbedGrid,
}


def _is_lattice_point(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(type(c) is int for c in value))


def make_family(family: str, edits: list[dict] | None = None) -> GraphInstance:
    """Build a catalog family; `edits` applies to perturbed_grid only."""
    cls = FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown family {family!r}")
    if family == "perturbed_grid":
        if edits is not None and not isinstance(edits, list):
            raise EditValidationError(f"edits must be a list, got {edits!r}")
        added, removed = [], []
        for edit in edits or []:
            if not isinstance(edit, dict) or not all(
                    _is_lattice_point(edit.get(end)) for end in ("a", "b")):
                raise EditValidationError(f"malformed edit {edit!r}")
            op = edit.get("op")
            a, b = GridNode(*edit["a"]), GridNode(*edit["b"])
            if op == "add":
                added.append((a, b))
            elif op == "remove":
                removed.append((a, b))
            else:
                raise EditValidationError(f"unknown edit op {op!r}")
        return PerturbedGrid(added, removed)
    if edits:
        raise ValueError(f"{family} takes no edits")
    return cls()


def sort_key(node) -> tuple:
    return node.sort_key()
