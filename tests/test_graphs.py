"""Catalog families: membership, adjacency, closed forms, budgeted search.

Closed-form distances are checked against an explicit truncation oracle that
shares no code with the lazy families.  Frozen constants below were computed
with that oracle first.
"""

import random

import pytest

from nsgraph.graphs import (DEFAULT_BUDGET, EXHAUSTED, EditValidationError,
                            Exhausted, Grid2D, GridNode, Ground, LadderNode,
                            NodeTerm, NotAMemberError, PathNode, RayNode,
                            UnsupportedOracleError, bfs_distance,
                            make_family, natkey, node_coords)
from nsgraph.kernel import Trivalent, verdict
from nsgraph.oracles import oracle_distance
from nsgraph.sequences import (Affine, Constant, Parity, classify, sym_value)

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
        for i, x in enumerate(nodes):
            for y in nodes[i + 1:]:
                assert g.distance(x, y) == oracle_distance(family, x, y, 30)


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
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            assert g.distance(x, y) == oracle_distance("perturbed_grid", x, y, 25, EDITS)


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


def test_symbolic_distance_perturbed_brackets_truth():
    g = make_family("perturbed_grid", edits=EDITS)
    ta = NodeTerm("grid", (Affine(1, 0), Constant(0)))
    tb = NodeTerm("grid", (Constant(0), Constant(0)))
    sym = g.symbolic_distance(ta, tb)
    assert classify(sym).kind == "pinf"
    boundedly = NodeTerm("grid", (Affine(1, 1), Constant(0)))
    sym2 = g.symbolic_distance(ta, boundedly)
    c2 = classify(sym2)
    assert c2.kind == "range" and c2.lo >= 0
    for n in range(3, 12):
        assert c2.lo <= sym_value(sym2, n) <= c2.hi


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
