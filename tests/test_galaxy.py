"""Galaxy verdicts, the closeness order, chains, and ray witnesses.

Every frozen verdict and bound below was derived by hand from the growth
classification rules and confirmed against pointwise distance evaluation
before being written down; the sweeps keep re-deriving the pointwise side.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nsgraph import galaxy, graphs
from nsgraph.galaxy import (MAX_CHAIN_DEPTH, ChainConstructionError, GalaxyRelation,
                            GalaxyVerdict, InapplicableFamilyError,
                            anchor_hypernode, boundary_ray_witness,
                            build_galaxy_chain, closer_than,
                            in_principal_galaxy, konig_ray_witness,
                            limitedly_distant, verify_partial_order)
from nsgraph.graphs import GridNode, NodeTerm, NotAMemberError, PathNode, make_family
from nsgraph.kernel import Trivalent
from nsgraph.ordinal import Ordinal
from nsgraph.sequences import (Affine, Constant, Explicit, Floor, MonotoneUnboundedDecl,
                               Parity, ParityS, Patched, sym_start, sym_value)
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


def test_reindexed_arguments_read_the_seed_at_the_mapped_index():
    shift = 3
    seeds = [Constant(4), Affine(-2, 5), Floor(3, -1, 4, 7), Floor(-1, 2, 8, -5),
             Patched(Affine(1, 2), ((0, 9),))]
    for seq in seeds:
        tail = seq.tail if isinstance(seq, Patched) else seq
        for g in range(-4, 5):
            mapped = Floor(*galaxy._reindex(seq, g, shift))
            for n in range(0, 90):
                at = n * 2 ** g if g >= 0 else n // 2 ** -g + shift
                assert mapped.value(n) == tail.value(at), (seq, g, n)


def test_chain_refuses_arguments_it_cannot_reindex():
    oep = make_family("one_ended_path")
    seeds = [(Parity(Affine(1, 0), Affine(2, 0)), "parity"),
             (Explicit(lambda n: n * n, MonotoneUnboundedDecl(), label="squares"), "squares"),
             (Floor(1, 0, 3), r"floor\(1,0,3,0\)")]
    for param, name in seeds:
        with pytest.raises(ChainConstructionError, match=rf"argument {name}"):
            build_galaxy_chain(hyper(oep, "p", param), 1)


def test_chain_order_comes_from_the_distances(monkeypatch):
    """Entries that are all the seed, or that all recede at one rate, fail."""
    oep = make_family("one_ended_path")
    seed = hyper(oep, "p", Affine(1, 0))
    reindex = galaxy._reindex
    monkeypatch.setattr(galaxy, "_reindex", lambda seq, g, shift: reindex(seq, 0, shift))
    with pytest.raises(ChainConstructionError, match="order check: false"):
        build_galaxy_chain(seed, 3)
    # distinct terms a bounded distance apart: n // 2 + shift + g
    monkeypatch.setattr(galaxy, "_reindex",
                        lambda seq, g, shift: reindex(seq, -1, shift + g))
    with pytest.raises(ChainConstructionError, match="order check: false"):
        build_galaxy_chain(seed, 3)


def test_chain_depth_is_capped():
    oep = make_family("one_ended_path")
    seed = hyper(oep, "p", Affine(1, 0))
    chain = build_galaxy_chain(seed, MAX_CHAIN_DEPTH)
    assert len(chain.entries) == 2 * MAX_CHAIN_DEPTH + 1
    with pytest.raises(ChainConstructionError, match="exceeds the cap"):
        build_galaxy_chain(seed, MAX_CHAIN_DEPTH + 1)


def _gaps(chain, at, step):
    """Per adjacent pair and index n from at(a, b), the gaps to the anchor at
    n, n + step and n + 2*step: omega coefficients at rank 1."""
    graph = chain.base.graph
    origin = graph.anchor_one() if graph.rank else graph.anchor()

    def scale(h, n):
        if graph.rank:
            return wdistance(graph, origin, node_at(h, n)).omega_coeff
        return graph.distance(origin, node_at(h, n))

    return [[scale(b.hypernode, m) - scale(a.hypernode, m) for m in (n, n + step, n + 2 * step)]
            for a, b in zip(chain.entries, chain.entries[1:]) for n in at(a, b)]


def test_chain_on_the_edited_grid_grows_under_its_distance():
    g = make_family("perturbed_grid", edits=[{"op": "remove", "a": [1, 0], "b": [1, 1]}])
    chain = build_galaxy_chain(hyper(g, "grid", Affine(1, 0), Constant(0)), 3)
    assert len(chain.entries) == 7
    assert all(gaps == sorted(set(gaps)) for gaps in _gaps(chain, lambda a, b: (8, 9), 128))


def test_compressed_entries_read_the_seed_where_its_form_holds():
    # |-n + 6| falls until n = 6: read at floor(n / 32) alone, grade -5 would
    # sit at distance 16 at n = 8 and 14 at n = 64, and its gap would shrink
    grid = make_family("grid2d")
    chain = build_galaxy_chain(hyper(grid, "grid", Constant(10), Affine(-1, 6)), 5)
    assert all(gaps[0] < gaps[1] for gaps in _gaps(chain, lambda a, b: (8, 9), 56))


RANK1_SEEDS = ("diamond_chain", "one_path_of_endless_paths")
CHAIN_SEEDS = [("endless_path", "p", 1), ("one_ended_path", "p", 1),
               ("ladder_with_ray", "ray", 1), ("grid2d", "grid", 2),
               ("diamond_chain", "x1", 1), ("one_path_of_endless_paths", "x1", 1)]


def _settled(a, b):
    start = max(sym_start(s) for e in (a, b)
                for s in (e.hypernode.profile.omega, e.hypernode.profile.finite))
    return start, start + 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CHAIN_SEEDS), st.lists(st.tuples(st.integers(-3, 3), st.integers(-9, 9)),
                                               min_size=2, max_size=2),
       st.integers(1, 4))
def test_adjacent_chain_gaps_grow_at_settled_indices(seed_family, coeffs, depth):
    family, ctor, arity = seed_family
    graph = make_one_graph(family) if family in RANK1_SEEDS else make_family(family)
    params = tuple(Affine(a, b) if a else Constant(b) for a, b in coeffs[:arity])
    try:
        seed = hyper(graph, ctor, *params)
    except NotAMemberError:
        assume(False)
    assume(in_principal_galaxy(seed).relation is GalaxyRelation.DIFFERENT)
    chain = build_galaxy_chain(seed, depth)
    step = 2 ** (depth + 5)  # the flattest gap rises by 16 over it
    for gaps in _gaps(chain, _settled, step):
        assert gaps == sorted(set(gaps)), (seed.term.describe(), depth, gaps)


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


def test_boundary_ray_indices_are_a_fitted_floor():
    dc = boundary_ray_witness(make_one_graph("diamond_chain"))
    assert dc.term.params == (Patched(Floor(1, 0, 2, 1), ((0, 1),)),)
    op = boundary_ray_witness(make_one_graph("one_path_of_endless_paths"))
    assert op.term.params == (Floor(1, 0, 2, 1),)
    for k in range(1, 120):
        assert node_at(dc, k).index == node_at(op, k).index == (k + 1) // 2


def test_a_ray_without_a_fit_keeps_its_walk_and_cannot_seed_a_chain(monkeypatch):
    monkeypatch.setattr(galaxy, "_fit_tail", lambda column: None)
    w = boundary_ray_witness(make_one_graph("diamond_chain"))
    assert isinstance(w.term.params[0], Explicit)
    with pytest.raises(ChainConstructionError, match="boundary-ray"):
        build_galaxy_chain(w, 1)


def test_fit_tail_reads_floor_tails_and_refuses_the_rest():
    assert galaxy._fit_tail([3 * ((t + 2) // 4) - 1 for t in range(40)]) == Floor(3, -1, 4, 2)
    assert galaxy._fit_tail([5] * 3 + [2 * t for t in range(3, 40)]) == \
        Patched(Affine(2, 0), ((0, 5), (1, 5), (2, 5)))
    assert galaxy._fit_tail([t * t for t in range(40)]) is None
    assert galaxy._fit_tail([t for t in range(11)]) is None  # too short to fit


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
