"""Galaxy verdicts, the closeness order, chains, and ray witnesses.

Every frozen verdict and bound below was derived by hand from the growth
classification rules and confirmed against pointwise distance evaluation
before being written down; the sweeps keep re-deriving the pointwise side.
"""

import random

import pytest

from nsgraph import graphs
from nsgraph.galaxy import (ChainConstructionError, GalaxyRelation,
                            GalaxyVerdict, InapplicableFamilyError,
                            anchor_hypernode, boundary_ray_witness,
                            build_galaxy_chain, closer_than,
                            in_principal_galaxy, konig_ray_witness,
                            limitedly_distant, verify_partial_order)
from nsgraph.graphs import GridNode, NodeTerm, PathNode, make_family
from nsgraph.kernel import Trivalent
from nsgraph.ordinal import Ordinal
from nsgraph.sequences import Affine, Constant, Parity, ParityS, sym_value
from nsgraph.transfinite import make_one_graph, wdistance, wdistance_witness
from nsgraph.ultrapower import (hyperdistance, make_hyperbranch,
                                make_hypernode, node_at)


def hyper(graph, ctor, *params):
    return make_hypernode(graph, NodeTerm(ctor, tuple(params)))


# ====== verdicts ======

def test_same_galaxy_verdict_requires_a_bound():
    with pytest.raises(ValueError):
        GalaxyVerdict(GalaxyRelation.SAME)
    GalaxyVerdict(GalaxyRelation.DIFFERENT)  # no bound needed


def test_limitedly_distant_ladder_bounds():
    lad = make_family("ladder")
    hub = hyper(lad, "ladg")
    rail = hyper(lad, "lad", Affine(1, 0))
    cases = [
        (rail, hub, 1),
        (hyper(lad, "lad", Constant(3)), hyper(lad, "lad", Affine(2, 1)), 2),
        (rail, hyper(lad, "lad", Affine(1, 0)), 0),
        (hub, hyper(lad, "ladg"), 0),
    ]
    for a, b, bound in cases:
        v = limitedly_distant(a, b)
        assert v.relation is GalaxyRelation.SAME
        assert v.certified_bound == Ordinal(0, bound)
        assert v.tight


def test_limitedly_distant_is_an_equivalence_with_additive_bounds():
    lad = make_family("ladder")
    rng = random.Random(11)

    def rand():
        kind = rng.randrange(3)
        if kind == 0:
            return hyper(lad, "ladg")
        if kind == 1:
            return hyper(lad, "lad", Constant(rng.randrange(40)))
        return hyper(lad, "lad", Affine(rng.randrange(1, 4), rng.randrange(20)))

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        ab, bc, ac = (limitedly_distant(*p) for p in ((a, b), (b, c), (a, c)))
        assert limitedly_distant(b, a) == ab
        assert all(v.relation is GalaxyRelation.SAME for v in (ab, bc, ac))
        assert (ac.certified_bound.finite_part
                <= ab.certified_bound.finite_part + bc.certified_bound.finite_part)


def test_limitedly_distant_grid_constants():
    grid = make_family("grid2d")
    v = limitedly_distant(hyper(grid, "grid", Constant(5), Constant(7)),
                          anchor_hypernode(grid))
    assert v == GalaxyVerdict(GalaxyRelation.SAME, Ordinal(0, 12), True)


@pytest.mark.parametrize("family, ta, tb, relation", [
    # chains 1 and 1 on the evens, 1 and n + 6 on the odds
    ("diamond_chain", NodeTerm("x0", (Parity(Affine(0, 1), Affine(1, 6)),)),
     NodeTerm("x0", (Constant(1),)), GalaxyRelation.FILTER_DEPENDENT),
    ("one_path_of_endless_paths", NodeTerm("e", (Parity(Constant(2), Affine(1, 3)), Constant(0))),
     NodeTerm("e", (Constant(2), Constant(5))), GalaxyRelation.FILTER_DEPENDENT),
    # the odd branch crosses rails at w*2 + 2, a bounded distance
    ("partial_ladder", NodeTerm("h", (Parity(Constant(2), Affine(1, 3)), Constant(0))),
     NodeTerm("h", (Constant(2), Constant(5))), GalaxyRelation.SAME),
])
def test_zero_nodes_sharing_a_section_on_one_parity(family, ta, tb, relation):
    g = make_one_graph(family)
    omega, finite = g.symbolic_wdistance(ta, tb)
    assert isinstance(omega, ParityS)
    for n in (40, 41, 42, 43):
        d, _ = wdistance_witness(g, g.term_node(ta, n), g.term_node(tb, n))
        assert (d.omega_coeff, d.finite_part) == (sym_value(omega, n), sym_value(finite, n))
    assert limitedly_distant(make_hypernode(g, ta), make_hypernode(g, tb)).relation is relation


def test_in_principal_galaxy_verdicts():
    oep = make_family("one_ended_path")
    v = in_principal_galaxy(hyper(oep, "p", Constant(5)))
    assert (v.relation, v.certified_bound) == (GalaxyRelation.SAME, Ordinal(0, 5))
    assert in_principal_galaxy(
        hyper(oep, "p", Affine(1, 0))).relation is GalaxyRelation.DIFFERENT
    assert in_principal_galaxy(
        hyper(oep, "p", Parity(Affine(2, 0), Constant(3)))
    ).relation is GalaxyRelation.FILTER_DEPENDENT


def test_edited_grid_keeps_unlimited_points_unlimited():
    pert = make_family("perturbed_grid", edits=[
        {"op": "add", "a": [0, 0], "b": [2, 2]},
        {"op": "remove", "a": [0, 0], "b": [0, 1]},
    ])
    h = hyper(pert, "grid", Affine(1, 0), Constant(0))
    assert in_principal_galaxy(h).relation is GalaxyRelation.DIFFERENT


# ====== the closeness order ======

def test_closer_than_verdict_table():
    oep = make_family("one_ended_path")
    base = anchor_hypernode(oep)
    const = hyper(oep, "p", Constant(5))
    aff = hyper(oep, "p", Affine(1, 0))
    aff_far = hyper(oep, "p", Affine(1, 100))
    fast = hyper(oep, "p", Affine(3, 2))
    par = hyper(oep, "p", Parity(Affine(2, 0), Constant(3)))
    assert closer_than(base, const, aff) is Trivalent.TRUE
    assert closer_than(base, aff, const) is Trivalent.FALSE
    # a fixed offset is not an unbounded gap: the pair shares a galaxy
    assert closer_than(base, aff, aff_far) is Trivalent.FALSE
    assert closer_than(base, aff_far, aff) is Trivalent.FALSE
    assert closer_than(base, aff, fast) is Trivalent.TRUE
    assert closer_than(base, const, par) is Trivalent.FILTER_DEPENDENT


def test_closer_than_is_irreflexive_for_an_opaque_gap():
    dc = make_one_graph("diamond_chain")
    receding = hyper(dc, "r", Affine(3, 2), Constant(2))
    assert closer_than(anchor_hypernode(dc), receding, receding) is Trivalent.FALSE


def test_closer_than_rejects_an_unlimited_base():
    oep = make_family("one_ended_path")
    aff = hyper(oep, "p", Affine(1, 0))
    with pytest.raises(ValueError):
        closer_than(aff, anchor_hypernode(oep), hyper(oep, "p", Affine(2, 0)))


def test_verify_partial_order_report():
    oep = make_family("one_ended_path")
    sample = [
        hyper(oep, "p", Constant(5)),
        hyper(oep, "p", Affine(1, 0)),
        hyper(oep, "p", Affine(1, 100)),
        hyper(oep, "p", Affine(3, 2)),
        hyper(oep, "p", Parity(Affine(2, 0), Constant(3))),
        hyper(oep, "p", Constant(0)),
    ]
    rep = verify_partial_order(sample, anchor_hypernode(oep))
    assert rep.passed
    assert (rep.pairs_checked, rep.triples_checked) == (36, 120)
    assert rep.reflexivity_violations == ()
    assert rep.antisymmetry_violations == ()
    assert rep.transitivity_violations == ()
    # neither closer: same-galaxy pairs apart from incomparable ones;
    # parity pairs filter-dependent
    assert rep.same_galaxy_pairs == ((0, 5), (1, 2))
    assert rep.incomparable_pairs == ()
    assert rep.filter_dependent_pairs == ((0, 4), (1, 4), (2, 4), (4, 5))
    assert rep.indeterminate_pairs == ()


def test_same_galaxy_pairs_are_not_incomparable():
    grid = make_family("grid2d")
    near, far = hyper(grid, "grid", Affine(1, 0), Constant(0)), \
        hyper(grid, "grid", Affine(1, 3), Constant(0))
    verdict = limitedly_distant(near, far)
    assert verdict.relation is GalaxyRelation.SAME
    assert verdict.certified_bound == Ordinal(0, 3)
    rep = verify_partial_order([near, far], anchor_hypernode(grid))
    assert rep.same_galaxy_pairs == ((0, 1),)
    assert rep.incomparable_pairs == ()
    # p:n and p:-n: neither closer to the anchor, and galaxies apart
    path = make_family("endless_path")
    rep = verify_partial_order([hyper(path, "p", Affine(1, 0)),
                                hyper(path, "p", Affine(-1, 0))],
                               anchor_hypernode(path))
    assert (rep.same_galaxy_pairs, rep.incomparable_pairs) == ((), ((0, 1),))


# ====== branches respect the partition ======

def test_hyperbranch_endpoints_share_a_galaxy_verdict():
    lad = make_family("ladder")
    oep = make_family("one_ended_path")
    grid = make_family("grid2d")
    for br in (
        make_hyperbranch(lad, NodeTerm("lad", (Affine(1, 0),)), NodeTerm("ladg", ())),
        make_hyperbranch(oep, NodeTerm("p", (Constant(4),)), NodeTerm("p", (Constant(5),))),
        make_hyperbranch(grid, NodeTerm("grid", (Affine(1, 0), Constant(0))),
                         NodeTerm("grid", (Affine(1, 1), Constant(0)))),
    ):
        assert (in_principal_galaxy(br.u).relation
                is in_principal_galaxy(br.v).relation)


def test_unlimited_point_has_two_standard_part_free_neighbors():
    from nsgraph.sequences import Patched

    oep = make_family("one_ended_path")
    center = NodeTerm("p", (Affine(1, 0),))
    succ = make_hyperbranch(oep, center, NodeTerm("p", (Affine(1, 1),)))
    pred = make_hyperbranch(oep, center,
                            NodeTerm("p", (Patched(Affine(1, -1), ((0, 1),)),)))
    assert succ.evidence.kind == "cofinite" and succ.evidence.threshold == 0
    assert pred.evidence.kind == "cofinite" and pred.evidence.threshold == 1
    for br in (succ, pred):
        d = hyperdistance(br.u, br.v)
        assert all(d.at(n) == Ordinal(0, 1) for n in range(2, 30))


# ====== chains ======

def test_galaxy_chain_shape_and_accessor():
    oep = make_family("one_ended_path")
    chain = build_galaxy_chain(hyper(oep, "p", Affine(1, 0)), 5)
    assert len(chain.entries) == 11
    assert [e.grade for e in chain.entries] == list(range(-5, 6))
    assert chain.entry(0) is chain.entries[5].hypernode
    assert chain.entry(-5) is chain.entries[0].hypernode


def test_galaxy_chain_profiles_report_true_distances():
    oep = make_family("one_ended_path")
    chain = build_galaxy_chain(hyper(oep, "p", Affine(1, 0)), 5)
    anchor = oep.anchor()
    for g in (-5, -1, 0, 1, 3):
        h = chain.entry(g)
        for n in (0, 3, 11):
            d = oep.distance(anchor, node_at(h, n))
            assert d == sym_value(h.profile.finite, n)


def test_galaxy_chain_entries_are_strictly_ordered_and_unlimited():
    oep = make_family("one_ended_path")
    base = anchor_hypernode(oep)
    chain = build_galaxy_chain(hyper(oep, "p", Affine(1, 0)), 2)
    for e in chain.entries:
        assert in_principal_galaxy(e.hypernode).relation is GalaxyRelation.DIFFERENT
    assert closer_than(base, chain.entry(-2), chain.entry(2)) is Trivalent.TRUE
    assert closer_than(base, chain.entry(2), chain.entry(-2)) is Trivalent.FALSE


def test_galaxy_chain_degenerate_and_rejected_seeds():
    oep = make_family("one_ended_path")
    chain = build_galaxy_chain(hyper(oep, "p", Affine(1, 0)), 0)
    assert len(chain.entries) == 1 and chain.entries[0].grade == 0
    with pytest.raises(ChainConstructionError):
        build_galaxy_chain(hyper(oep, "p", Constant(5)), 2)
    with pytest.raises(ValueError, match="principal galaxy"):
        # the default base is the anchor; a custom base must be limited
        build_galaxy_chain(hyper(oep, "p", Affine(1, 0)), 1,
                           base=hyper(oep, "p", Affine(2, 0)))


def test_galaxy_chain_over_one_graph():
    dc = make_one_graph("diamond_chain")
    seed = hyper(dc, "x1", Affine(1, 0))
    assert in_principal_galaxy(seed).relation is GalaxyRelation.DIFFERENT
    chain = build_galaxy_chain(seed, 3)
    assert [e.grade for e in chain.entries] == list(range(-3, 4))
    base = anchor_hypernode(dc)
    assert closer_than(base, chain.entry(-3), chain.entry(0)) is Trivalent.TRUE


# ====== ray witnesses ======

def test_konig_ray_terms_on_the_catalog():
    expected = {
        "one_ended_path": "p:affine(1,0)",
        "endless_path": "p:affine(-1,0)",
        "grid2d": "grid:affine(-1,0),const(0)",
    }
    for family, described in expected.items():
        g = make_family(family)
        w = konig_ray_witness(g)
        assert w.term.describe() == described
        assert in_principal_galaxy(w).relation is GalaxyRelation.DIFFERENT
        origin = g.anchor()
        for n in range(0, 21, 4):
            assert g.distance(origin, node_at(w, n)) == n


def test_konig_ray_routes_around_edits():
    pert = make_family("perturbed_grid", edits=[
        {"op": "add", "a": [0, 0], "b": [2, 2]},
        {"op": "remove", "a": [0, 0], "b": [0, 1]},
    ])
    w = konig_ray_witness(pert, GridNode(0, 0), probe=30)
    assert [node_at(w, n) for n in range(4)] == [
        GridNode(0, 0), GridNode(-1, 0), GridNode(-2, 0), GridNode(-3, 0)]
    for n in range(0, 30, 7):
        assert pert.distance(GridNode(0, 0), node_at(w, n)) == n


def test_konig_ray_reads_shells_from_one_ball(monkeypatch):
    queries, searches = [], []
    search, exact = graphs.bfs_distance, graphs.PerturbedGrid.distance

    def counted(self, *args, **kwargs):
        queries.append(args[:2])
        return exact(self, *args, **kwargs)

    def searched(*args, **kwargs):
        searches.append(args[1:3])
        return search(*args, **kwargs)

    pert = make_family("perturbed_grid", edits=[
        {"op": "add", "a": [-1, -1], "b": [1, 1]},
        {"op": "remove", "a": [1, 0], "b": [1, 1]},
    ])
    monkeypatch.setattr(graphs.PerturbedGrid, "distance", counted)
    monkeypatch.setattr(graphs, "bfs_distance", searched)
    w = konig_ray_witness(pert)
    # the profile's one read at its settled index, then the final exact-shell
    # check at n = 0, 7, ..., 49
    assert len(queries) == 9
    assert searches == []  # the shells come from the ball, the check from the compressed grid
    for n in range(0, 60, 11):
        assert search(pert, pert.anchor(), node_at(w, n)) == n


def test_konig_ray_refuses_a_query_past_the_ball_budget():
    # the cut rail at k = -25 leaves no affine tail within the probe, so
    # the ray is a greedy-ray Explicit that walks shells on demand
    pert = make_family("perturbed_grid", edits=[{"op": "remove", "a": [-25, 0], "b": [-26, 0]}])
    w = konig_ray_witness(pert, probe=30)
    assert w.term.params[0].label == "greedy-ray"
    assert node_at(w, 60) == GridNode(-59, -1)
    # radius 400 needs about 2 * 400**2 nodes, past the 200000-node budget
    with pytest.raises(ChainConstructionError, match="shell ball passed"):
        node_at(w, 400)
    assert graphs.DEFAULT_BUDGET == 200_000
    assert node_at(w, 200) == GridNode(-199, -1)


def test_konig_ray_backtracks_from_a_non_anchor_origin():
    # the least-coordinate walk from p:8 runs down into p:0 and dead-ends
    g = make_family("one_ended_path")
    origin = PathNode(8)
    w = konig_ray_witness(g, origin)
    for n in range(0, 80, 5):
        assert g.distance(origin, node_at(w, n)) == n


def test_konig_ray_needs_local_finiteness():
    with pytest.raises(InapplicableFamilyError, match="not locally finite"):
        konig_ray_witness(make_family("ladder"))


def test_boundary_ray_positions():
    cases = {
        "diamond_chain": [1, 1, 1, 2, 2, 3, 3, 4, 4],
        "one_path_of_endless_paths": [0, 1, 1, 2, 2, 3, 3, 4, 4],
    }
    for family, indices in cases.items():
        g = make_one_graph(family)
        w = boundary_ray_witness(g)
        got = [node_at(w, k).index for k in range(9)]
        assert got == indices
        assert in_principal_galaxy(w).relation is GalaxyRelation.DIFFERENT
        origin = g.anchor_one()
        for k in range(9):
            assert wdistance(g, origin, node_at(w, k)).omega_coeff >= k


def test_boundary_ray_requires_the_layered_search_hypotheses():
    with pytest.raises(InapplicableFamilyError, match="locally section-finite"):
        boundary_ray_witness(make_one_graph("ladder_of_endless_paths"))
    with pytest.raises(InapplicableFamilyError, match="locally 1-finite"):
        boundary_ray_witness(make_one_graph("partial_ladder"))


# ====== edits do not reach remote structure ======

def test_local_edits_change_only_nearby_distance_values():
    grid = make_family("grid2d")
    pert = make_family("perturbed_grid", edits=[
        {"op": "add", "a": [0, 0], "b": [2, 2]},
        {"op": "remove", "a": [0, 0], "b": [0, 1]},
    ])
    pairs = [
        ((Affine(1, 0), Constant(0)), (Affine(1, 4), Constant(2)), 2),
        ((Affine(2, 1), Affine(1, 0)), (Affine(2, 5), Affine(1, 3)), 1),
    ]
    for pa, pb, settle in pairs:
        dg = hyperdistance(hyper(grid, "grid", *pa), hyper(grid, "grid", *pb))
        dp = hyperdistance(hyper(pert, "grid", *pa), hyper(pert, "grid", *pb))
        mismatches = [n for n in range(16) if dg.at(n) != dp.at(n)]
        assert mismatches == list(range(settle))
