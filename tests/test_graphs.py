"""Catalog families: membership, adjacency, closed forms, budgeted search.

Closed-form distances are checked against an explicit truncation oracle that
shares no code with the lazy families.  Frozen constants below were computed
with that oracle first.
"""

import random
from collections import defaultdict

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nsgraph.graphs import (DEFAULT_BUDGET, EXHAUSTED, EditValidationError,
                            Exhausted, Grid2D, GridNode, Ground, LadderNode,
                            NodeTerm, NotAMemberError, PathNode, RayNode,
                            UnsupportedOracleError, bfs_distance,
                            make_family, natkey, node_coords)
from nsgraph.checks import run_check_suite
from nsgraph.galaxy import GalaxyRelation, closer_than, limitedly_distant
from nsgraph.kernel import Trivalent, verdict
from nsgraph.oracles import oracle_distance
from nsgraph.ordinal import Ordinal
from nsgraph.sequences import (Affine, Constant, Parity, classify, sym_start,
                               sym_value)
from nsgraph.ultrapower import make_hypernode

EDITS = [{"op": "add", "a": (0, 0), "b": (2, 2)},
         {"op": "remove", "a": (1, 0), "b": (1, 1)}]


def test_membership():
    assert make_family("endless_path").contains(PathNode(-5))
    one = make_family("one_ended_path")
    assert one.contains(PathNode(0)) and not one.contains(PathNode(-1))
    lad = make_family("ladder")
    assert lad.contains(Ground()) and lad.contains(LadderNode(3))
    assert not lad.contains(LadderNode(-1)) and not lad.contains(RayNode(2))
    ray = make_family("ladder_with_ray")
    assert ray.contains(RayNode(1)) and not ray.contains(RayNode(0))
    assert make_family("grid2d").contains(GridNode(-4, 9))


def test_nonmember_distance_raises():
    one = make_family("one_ended_path")
    with pytest.raises(NotAMemberError):
        one.distance(PathNode(-2), PathNode(3))


def test_frozen_closed_form_constants():
    # values derived with oracle_distance before freezing
    assert make_family("grid2d").distance(GridNode(0, 0), GridNode(3, 4)) == 7
    ray = make_family("ladder_with_ray")
    assert ray.distance(RayNode(4), LadderNode(7)) == 5
    assert ray.distance(RayNode(4), Ground()) == 4
    lad = make_family("ladder")
    assert lad.distance(LadderNode(2), LadderNode(9)) == 2
    assert lad.distance(LadderNode(2), LadderNode(3)) == 1
    assert make_family("endless_path").distance(PathNode(-3), PathNode(5)) == 8


def test_closed_forms_match_oracle():
    rng = random.Random(13)
    for family in ("endless_path", "one_ended_path", "ladder",
                   "ladder_with_ray", "grid2d"):
        g = make_family(family)
        nodes = g.sample_nodes(rng, 12, span=6)
        pairs = [(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1:]]
        want = oracle_distance(family, pairs, 30)
        for (x, y), d in zip(pairs, want):
            assert g.distance(x, y) == d


@pytest.mark.parametrize("family,edits", [("grid2d", None), ("perturbed_grid", EDITS)])
def test_batched_oracle_equals_per_pair_search(family, edits):
    from nsgraph.oracles import plain_bfs, truncated_adjacency
    rng = random.Random(43)
    g = make_family(family, edits=edits)
    pairs = [tuple(g.sample_nodes(rng, 2, span=8)) for _ in range(25)]
    pairs.append((pairs[0][0], pairs[0][0]))
    want = oracle_distance(family, pairs, 12, edits)
    for radius in (12, 16):
        for (x, y), d in zip(pairs, want):
            assert plain_bfs(truncated_adjacency(family, radius, edits), x, y) == d


def test_neighbors_match_oracle_adjacency():
    from nsgraph.oracles import truncated_adjacency
    rng = random.Random(17)
    for family in ("endless_path", "one_ended_path", "grid2d"):
        g = make_family(family)
        adj = truncated_adjacency(family, 20)
        for x in g.sample_nodes(rng, 10, span=5):
            assert set(g.neighbors(x)) == adj[x]


def test_ladder_ground_stream_is_lazy():
    lad = make_family("ladder")
    stream = lad.neighbors(Ground())
    first = [next(stream) for _ in range(5)]
    assert first == [LadderNode(k) for k in range(5)]


def test_distance_symmetry_random():
    rng = random.Random(23)
    for family in ("ladder", "ladder_with_ray", "grid2d"):
        g = make_family(family)
        nodes = g.sample_nodes(rng, 10)
        for i, x in enumerate(nodes):
            assert g.distance(x, x) == 0
            for y in nodes[i + 1:]:
                assert g.distance(x, y) == g.distance(y, x)


def test_triangle_inequality_random():
    rng = random.Random(29)
    g = make_family("grid2d")
    nodes = g.sample_nodes(rng, 9)
    for x in nodes:
        for y in nodes:
            for z in nodes:
                assert g.distance(x, z) <= g.distance(x, y) + g.distance(y, z)


# -- budgeted search --

def test_bfs_matches_closed_forms():
    g = make_family("grid2d")
    assert bfs_distance(g, GridNode(0, 0), GridNode(3, 4)) == 7
    assert bfs_distance(g, GridNode(-2, 1), GridNode(-2, 1)) == 0
    p = make_family("endless_path")
    assert bfs_distance(p, PathNode(-3), PathNode(5)) == 8


def test_bfs_certifies_through_infinite_degree():
    # the ground's adjacency stream is infinite; interleaving still certifies
    ray = make_family("ladder_with_ray")
    assert bfs_distance(ray, RayNode(3), LadderNode(2), budget=50_000) == 4
    lad = make_family("ladder")
    assert bfs_distance(lad, LadderNode(0), LadderNode(9), budget=50_000) == 2
    assert bfs_distance(lad, Ground(), LadderNode(4), budget=50_000) == 1


def test_bfs_budget_exhaustion_is_explicit():
    g = make_family("grid2d")
    out = bfs_distance(g, GridNode(0, 0), GridNode(40, 40), budget=30)
    assert isinstance(out, Exhausted)
    assert out == EXHAUSTED


@pytest.mark.parametrize("family, edits, x, y, budget, distance", [
    ("perturbed_grid", EDITS[1:], GridNode(-15, -15), GridNode(15, 15), 13929, 60),
    ("perturbed_grid", EDITS[1:], GridNode(1, 0), GridNode(1, 1), 31, 3),
    ("perturbed_grid", EDITS[1:] + [{"op": "add", "a": (-1, -1), "b": (1, 1)}],
     GridNode(-3, -3), GridNode(4, 5), 499, 12),
    ("grid2d", None, GridNode(0, 0), GridNode(3, 4), 201, 7),
    ("ladder", None, LadderNode(0), LadderNode(9), 7, 2),
    ("ladder_with_ray", None, RayNode(3), LadderNode(2), 21, 4),
])
def test_bfs_budget_unit_is_one_neighbour_read(family, edits, x, y, budget, distance):
    # B is the least budget that certifies: a cheaper step must read the same neighbours
    g = make_family(family, edits)
    assert bfs_distance(g, x, y, budget=budget - 1) is EXHAUSTED
    assert bfs_distance(g, x, y, budget=budget) == distance


def test_one_field_node_ids_stay_distinct():
    # were ids tuples, RayNode(2) would equal LadderNode(2) and the search
    # would join the ray to the ladder at distance 0
    g = make_family("ladder_with_ray")
    assert RayNode(2) != LadderNode(2)
    assert bfs_distance(g, RayNode(2), LadderNode(2)) == 3


def test_grid_node_hash_and_repr_are_those_of_its_fields():
    node = GridNode(1, -2)
    assert hash(node) == hash((1, -2))
    assert repr(node) == str(node) == "GridNode(k=1, l=-2)"
    assert node_coords(node) == (1, -2)
    assert node_coords(RayNode(3)) == (3,) and node_coords(Ground()) == ()


# -- perturbed grid --

def test_perturbed_grid_frozen_constants():
    g = make_family("perturbed_grid", edits=EDITS)
    # values derived with oracle_distance before freezing
    assert g.distance(GridNode(0, 0), GridNode(2, 2)) == 1
    assert g.distance(GridNode(1, 0), GridNode(1, 1)) == 3
    assert g.distance(GridNode(-2, 0), GridNode(4, 3)) == 6


def test_perturbed_grid_matches_oracle_random():
    rng = random.Random(31)
    g = make_family("perturbed_grid", edits=EDITS)
    nodes = g.sample_nodes(rng, 10, span=5)
    pairs = [(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1:]]
    want = oracle_distance("perturbed_grid", pairs, 25, EDITS)
    for (x, y), d in zip(pairs, want):
        assert g.distance(x, y) == d


def test_perturbed_neighbors_keep_the_sorted_edit_order():
    edits = [{"op": "add", "a": (0, 0), "b": (2, 2)},
             {"op": "add", "a": (0, 0), "b": (-2, 1)},
             {"op": "add", "a": (3, -1), "b": (0, 0)},
             {"op": "add", "a": (2, 2), "b": (-1, -2)},
             {"op": "remove", "a": (0, 0), "b": (0, 1)}]
    g = make_family("perturbed_grid", edits=edits)

    def edit_set_order(node):
        # grid neighbours, then added branches in sorted edit-set order
        out = [v for v in Grid2D().neighbors(node) if frozenset((node, v)) not in g.removed]
        for pair in sorted(g.added, key=lambda p: sorted(n.sort_key() for n in p)):
            if node in pair:
                out.extend(pair - {node})
        return out

    for node in (GridNode(0, 0), GridNode(2, 2), GridNode(-2, 1), GridNode(3, -1),
                 GridNode(-1, -2), GridNode(0, 1), GridNode(5, 5)):
        assert list(g.neighbors(node)) == edit_set_order(node)


def test_perturbed_grid_edit_validation():
    with pytest.raises(EditValidationError):
        make_family("perturbed_grid", edits=[{"op": "remove", "a": (0, 0), "b": (2, 0)}])
    with pytest.raises(EditValidationError):
        make_family("perturbed_grid", edits=[{"op": "add", "a": (0, 0), "b": (0, 1)}])
    with pytest.raises(EditValidationError):
        make_family("perturbed_grid", edits=[{"op": "nudge", "a": (0, 0), "b": (2, 2)}])
    # malformed documents are refused before any node is built
    for edits in ("x", {"op": "add"}, ["x"], [{"op": "add", "a": ("a", 0), "b": (2, 2)}],
                  [{"op": "add", "a": (0, 0, 1), "b": (2, 2)}], [{"op": "add", "a": (0, 0)}]):
        with pytest.raises(EditValidationError):
            make_family("perturbed_grid", edits=edits)
    # sealing a node off entirely must be refused
    seal = [{"op": "remove", "a": (0, 0), "b": (d[0], d[1])}
            for d in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    with pytest.raises(EditValidationError):
        make_family("perturbed_grid", edits=seal)


def test_perturbed_grid_has_no_closed_form():
    g = make_family("perturbed_grid", edits=EDITS)
    with pytest.raises(UnsupportedOracleError):
        g.closed_form_distance(GridNode(0, 0), GridNode(1, 1))


def test_perturbed_edit_bounds():
    g = make_family("perturbed_grid", edits=EDITS)
    # one added chord of grid length 4 and one removed branch with detour 3
    assert g.max_shortcut == 3
    assert g.max_detour == 2


# -- the compressed grid against its oracles --

LATTICE = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
EDIT = st.one_of(
    st.builds(lambda a, d: {"op": "remove", "a": a, "b": (a[0] + d[0], a[1] + d[1])},
              LATTICE, st.sampled_from(((1, 0), (0, 1)))),
    st.builds(lambda a, b: {"op": "add", "a": a, "b": b}, LATTICE, LATTICE))
FAR = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


@settings(max_examples=60, deadline=None)
@given(st.lists(EDIT, min_size=1, max_size=5), FAR, FAR)
def test_compressed_grid_equals_the_search(edits, x, y):
    try:
        g = make_family("perturbed_grid", edits=edits)
    except EditValidationError:
        assume(False)
    x, y = GridNode(*x), GridNode(*y)
    assert g.distance(x, y) == g.distance(y, x) == bfs_distance(g, x, y) == bfs_distance(g, y, x)


def truncated_distance(edits, a: tuple, b: tuple) -> int:
    """networkx shortest path on two nested truncations around a, b and the edits."""
    pts = [a, b] + [tuple(e[end]) for e in edits for end in ("a", "b")]
    found = []
    for margin in (4, 10):
        lo_k, hi_k = min(p[0] for p in pts) - margin, max(p[0] for p in pts) + margin
        lo_l, hi_l = min(p[1] for p in pts) - margin, max(p[1] for p in pts) + margin
        g = nx.grid_2d_graph(range(lo_k, hi_k + 1), range(lo_l, hi_l + 1))
        for e in edits:
            if e["op"] == "add":
                g.add_edge(tuple(e["a"]), tuple(e["b"]))
            else:
                g.remove_edge(tuple(e["a"]), tuple(e["b"]))
        found.append(nx.shortest_path_length(g, a, b))
    assert found[0] == found[1], f"truncation not stable for {a}->{b}: {found}"
    return found[0]


@pytest.mark.parametrize("edits", [
    EDITS[1:],
    EDITS,
    [{"op": "remove", "a": (0, 0), "b": (0, 1)}, {"op": "remove", "a": (0, 1), "b": (1, 1)},
     {"op": "remove", "a": (1, 1), "b": (1, 0)}, {"op": "add", "a": (-3, 2), "b": (4, -1)}],
])
def test_compressed_grid_matches_networkx_on_far_pairs(edits):
    g = make_family("perturbed_grid", edits=edits)
    for a, b in [((-200, 0), (200, 50)), ((-40, 0), (40, 0)), ((-60, 0), (60, 20)),
                 ((0, -150), (1, 150)), ((3, 90), (-2, -1)), ((1, 0), (1, 1))]:
        assert g.distance(GridNode(*a), GridNode(*b)) == truncated_distance(edits, a, b)


def test_budget_bound_queries_answer_exactly():
    g = make_family("perturbed_grid", edits=EDITS[1:])
    assert g.distance(GridNode(-200, 0), GridNode(200, 50)) == 450
    assert g.distance(GridNode(-40, 0), GridNode(40, 0), budget=20_000) == 80
    # the search runs out at the same budget
    assert bfs_distance(g, GridNode(-40, 0), GridNode(40, 0), budget=20_000) is EXHAUSTED


def window_validation(edits) -> tuple[int, int] | None:
    """The window-BFS validation the compressed grid replaced, as a second oracle.

    None when the edits disconnect the grid, else (max_shortcut, max_detour).
    The BFS stays inside the edits' bounding box plus a collar of 3 plus its
    half-perimeter; the adjacency is rebuilt from the edit list.
    """
    added = [(tuple(e["a"]), tuple(e["b"])) for e in edits if e["op"] == "add"]
    removed = {frozenset((tuple(e["a"]), tuple(e["b"]))) for e in edits if e["op"] == "remove"}
    chords = defaultdict(list)
    for a, b in added:
        chords[a].append(b)
        chords[b].append(a)
    nodes = [tuple(e[end]) for e in edits for end in ("a", "b")]
    ks, ls = [n[0] for n in nodes], [n[1] for n in nodes]
    margin = 3 + max(ks) - min(ks) + max(ls) - min(ls)
    lo_k, hi_k, lo_l, hi_l = min(ks) - margin, max(ks) + margin, min(ls) - margin, max(ls) + margin

    def neighbors(u):
        k, l = u
        steps = ((k + 1, l), (k - 1, l), (k, l + 1), (k, l - 1))
        return [v for v in steps if frozenset((u, v)) not in removed] + chords[u]

    def window_bfs(source):
        dist, frontier = {source: 0}, [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in neighbors(u):
                    if lo_k <= v[0] <= hi_k and lo_l <= v[1] <= hi_l and v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    if removed:
        reached = window_bfs((lo_k, lo_l))
        if any(n not in reached for n in nodes):
            return None
    shortcut = sum(max(0, abs(a[0] - b[0]) + abs(a[1] - b[1]) - 1) for a, b in added)
    detour = 0
    for a, b in map(tuple, removed):
        detour += window_bfs(a)[b] - 1
    return shortcut, detour


def test_edit_validation_matches_the_window_search():
    rng = random.Random(14)
    verdicts = []
    for _ in range(400):
        edits, seen, count = [], set(), rng.randint(1, 5)
        span = rng.choice((1, 2, 4))
        if rng.random() < 0.3:
            # cut three or four branches of one node: a seal unless an add rescues it
            c = (rng.randint(-span, span), rng.randint(-span, span))
            for dk, dl in rng.sample(((1, 0), (-1, 0), (0, 1), (0, -1)), rng.randint(3, 4)):
                seen.add(frozenset((c, (c[0] + dk, c[1] + dl))))
                edits.append({"op": "remove", "a": c, "b": (c[0] + dk, c[1] + dl)})
        while len(edits) < count:
            a = (rng.randint(-span, span), rng.randint(-span, span))
            if rng.random() < 0.7:
                dk, dl = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
                op, b = "remove", (a[0] + dk, a[1] + dl)
            else:
                op, b = "add", (rng.randint(-span, span), rng.randint(-span, span))
                if abs(a[0] - b[0]) + abs(a[1] - b[1]) < 2:
                    continue
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                edits.append({"op": op, "a": a, "b": b})
        want = window_validation(edits)
        try:
            g = make_family("perturbed_grid", edits=edits)
        except EditValidationError as exc:
            assert want is None and str(exc) == "edits disconnect the grid", edits
        else:
            assert want == (g.max_shortcut, g.max_detour), edits
        verdicts.append(want is None)
    assert 0 < sum(verdicts) < len(verdicts)


# -- symbolic distances on terms --

def test_symbolic_distance_endless_path():
    g = make_family("endless_path")
    ta = NodeTerm("p", (Affine(1, 0),))
    tb = NodeTerm("p", (Affine(1, 5),))
    sym = g.symbolic_distance(ta, tb)
    c = classify(sym)
    assert c.exact and c.lo == 5
    diverging = g.symbolic_distance(ta, NodeTerm("p", (Constant(0),)))
    assert classify(diverging).kind == "pinf"


def test_symbolic_distance_ladder_piecewise():
    g = make_family("ladder")
    near = g.symbolic_distance(NodeTerm("lad", (Affine(1, 0),)),
                               NodeTerm("lad", (Affine(1, 1),)))
    assert classify(near).exact and classify(near).lo == 1
    far = g.symbolic_distance(NodeTerm("lad", (Affine(1, 0),)),
                              NodeTerm("lad", (Affine(2, 7),)))
    assert classify(far).exact and classify(far).lo == 2
    mixed = g.symbolic_distance(NodeTerm("lad", (Affine(1, 0),)),
                                NodeTerm("ladg", ()))
    assert classify(mixed).exact and classify(mixed).lo == 1


def test_symbolic_distance_parity_split():
    g = make_family("endless_path")
    ta = NodeTerm("p", (Parity(Constant(0), Affine(1, 0)),))
    tb = NodeTerm("p", (Constant(0),))
    c = classify(g.symbolic_distance(ta, tb))
    assert c.kind == "split"


def test_symbolic_distance_perturbed_is_exact():
    g = make_family("perturbed_grid", edits=EDITS)
    ta = NodeTerm("grid", (Affine(1, 0), Constant(0)))
    tb = NodeTerm("grid", (Constant(0), Constant(0)))
    sym = g.symbolic_distance(ta, tb)
    assert classify(sym).kind == "pinf"
    boundedly = NodeTerm("grid", (Affine(1, 1), Constant(0)))
    sym2 = g.symbolic_distance(ta, boundedly)
    assert classify(sym2).value == 1
    for n in range(sym_start(sym), sym_start(sym) + 9):
        x, y, z = (g.term_node(t, n) for t in (ta, tb, boundedly))
        assert sym_value(sym, n) == bfs_distance(g, x, y)
        assert sym_value(sym2, n) == bfs_distance(g, x, z) == 1


def test_perturbed_correction_waits_for_the_steeper_paths():
    # through the chord, grid:n,0 -> grid:n,9 costs 2n + 1: the shortest path
    # until n = 4, though the compressed grid keeps its shape from n = 2 on
    g = make_family("perturbed_grid", edits=[{"op": "add", "a": (0, 0), "b": (0, 9)}])
    ta = NodeTerm("grid", (Affine(1, 0), Constant(0)))
    tb = NodeTerm("grid", (Affine(1, 0), Constant(9)))
    near = [g.distance(g.term_node(ta, n), g.term_node(tb, n)) for n in range(2, 6)]
    assert near == [5, 7, 9, 9]
    sym = g.symbolic_distance(ta, tb)
    assert classify(sym).value == 9
    for n in range(sym_start(sym), sym_start(sym) + 4):
        assert bfs_distance(g, g.term_node(ta, n), g.term_node(tb, n)) == 9


# verdicts read from the exact forms
CUT = [{"op": "remove", "a": (1, 0), "b": (1, 1)}]


def test_perturbed_closeness_is_decided_like_the_grid():
    for g in (make_family("grid2d"), make_family("perturbed_grid"),
              make_family("perturbed_grid", edits=EDITS)):
        base = make_hypernode(g, g.anchor_term())
        near = make_hypernode(g, NodeTerm("grid", (Affine(1, 0), Constant(0))))
        far = make_hypernode(g, NodeTerm("grid", (Affine(2, 0), Constant(0))))
        assert closer_than(base, near, far) is Trivalent.TRUE
        assert closer_than(base, far, near) is Trivalent.FALSE


def test_perturbed_bound_is_the_eventual_distance():
    g = make_family("perturbed_grid", edits=CUT)
    x = make_hypernode(g, NodeTerm("grid", (Affine(1, 0), Constant(0))))
    y = make_hypernode(g, NodeTerm("grid", (Affine(1, 3), Constant(0))))
    v = limitedly_distant(x, y)
    assert (v.relation, v.certified_bound, v.tight) == (GalaxyRelation.SAME, Ordinal(0, 3), True)


def test_perturbed_order_suite_has_no_indeterminate_pair():
    report = run_check_suite(make_family("perturbed_grid"), "order", seed=0, samples=5)
    assert report.passed
    assert report.results[0].detail.endswith(", 0 indeterminate")


def test_adjacency_truthsets():
    g = make_family("endless_path")
    ts = g.adjacency_truthset(NodeTerm("p", (Affine(1, 0),)),
                              NodeTerm("p", (Affine(1, 1),)))
    assert verdict(ts) == Trivalent.TRUE
    ts = g.adjacency_truthset(NodeTerm("p", (Affine(1, 0),)),
                              NodeTerm("p", (Affine(1, 2),)))
    assert verdict(ts) == Trivalent.FALSE
    lad = make_family("ladder")
    ts = lad.adjacency_truthset(NodeTerm("lad", (Affine(1, 0),)), NodeTerm("ladg", ()))
    assert verdict(ts) == Trivalent.TRUE
    grid = make_family("grid2d")
    ts = grid.adjacency_truthset(
        NodeTerm("grid", (Parity(Affine(1, 0), Affine(1, 1)), Constant(0))),
        NodeTerm("grid", (Affine(1, 0), Constant(0))))
    assert verdict(ts) == Trivalent.FILTER_DEPENDENT


def test_adjacency_truthset_perturbed_respects_edits():
    g = make_family("perturbed_grid", edits=EDITS)
    added = g.adjacency_truthset(NodeTerm("grid", (Constant(0), Constant(0))),
                                 NodeTerm("grid", (Constant(2), Constant(2))))
    assert verdict(added) == Trivalent.TRUE
    removed = g.adjacency_truthset(NodeTerm("grid", (Constant(1), Constant(0))),
                                   NodeTerm("grid", (Constant(1), Constant(1))))
    assert verdict(removed) == Trivalent.FALSE
    moving = g.adjacency_truthset(
        NodeTerm("grid", (Affine(1, 0), Constant(0))),
        NodeTerm("grid", (Affine(1, 1), Constant(0))))
    assert verdict(moving) == Trivalent.TRUE


# -- symbolic distances against pointwise search, every rank-0 family --

SMALL_SEQ = (st.integers(-6, 9).map(Constant)
             | st.builds(Affine, st.integers(-1, 2), st.integers(-6, 9)))
SEQ = SMALL_SEQ | st.builds(Parity, SMALL_SEQ, SMALL_SEQ)


@pytest.mark.parametrize("family", ["endless_path", "one_ended_path", "ladder",
                                    "ladder_with_ray", "grid2d", "perturbed_grid"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_symbolic_distance_equals_pointwise_distance(family, data):
    """Constant, affine and parity terms get exact forms that the search confirms."""
    edits = None
    if family == "perturbed_grid":
        edits = data.draw(st.lists(EDIT, min_size=1, max_size=4))
    try:
        g = make_family(family, edits)
    except EditValidationError:
        assume(False)
    ta, tb = (NodeTerm(ctor, tuple(data.draw(SEQ) for _ in range(g.TERM_ARITY[ctor])))
              for ctor in (data.draw(st.sampled_from(sorted(g.TERM_ARITY))) for _ in "ab"))
    sym = g.symbolic_distance(ta, tb)
    start = sym_start(sym)
    indices = range(start, start + 4)  # two settled indices of each parity
    try:  # the terms name nodes far out too, not only on a prefix
        pairs = [(g.term_node(ta, n), g.term_node(tb, n))
                 for n in (*indices, start + 64, start + 65)]
    except NotAMemberError:
        assume(False)
    for branch in classify(sym).branches:
        assert branch.kind == "pinf" or branch.exact, (ta, tb, sym)
    for n, (x, y) in zip(indices, pairs):
        want = bfs_distance(g, x, y) if edits else g.closed_form_distance(x, y)
        assert sym_value(sym, n) == want, (ta, tb, n)


def is_finitely_dispersed(graph, nodes, k: int,
                          budget: int = DEFAULT_BUDGET) -> bool | Exhausted:
    """Sample-level check: all pairwise distances <= k on the given nodes."""
    nodes = list(nodes)
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            d = graph.distance(x, y, budget=budget)
            if isinstance(d, Exhausted):
                return EXHAUSTED
            if d > k:
                return False
    return True


def test_finitely_dispersed():
    g = make_family("grid2d")
    cluster = [GridNode(0, 0), GridNode(1, 2), GridNode(-1, 1)]
    assert is_finitely_dispersed(g, cluster, 4) is True
    assert is_finitely_dispersed(g, cluster + [GridNode(9, 9)], 4) is False


def test_natkey_enumerates_naturals_first():
    values = sorted([-2, 3, 0, -1, 1, 2], key=natkey)
    assert values == [0, 1, 2, 3, -1, -2]


def test_term_instantiation_validates():
    g = make_family("one_ended_path")
    term = NodeTerm("p", (Affine(1, -2),))
    with pytest.raises(NotAMemberError):
        g.term_node(term, 0)
    assert g.term_node(term, 5) == PathNode(3)
    with pytest.raises(NotAMemberError):
        g.check_term(NodeTerm("lad", (Constant(1),)))


def test_node_term_cache_is_invisible_to_equality_and_hash():
    params = (Parity(Constant(0), Affine(1, 0)), Affine(2, 3))
    fresh, used = NodeTerm("grid", params), NodeTerm("grid", params)
    before = (fresh == used, hash(fresh), hash(used), repr(used))
    assert used.param_syms() is used.param_syms()  # built once, on first use
    assert (fresh == used, hash(fresh), hash(used), repr(used)) == before
    assert fresh == used and {fresh: 1}[used] == 1
    assert fresh.param_syms() == used.param_syms()
