"""Rank-1 graphs: structure oracles, walk distances, and their witnesses.

Ordinal-valued distances are checked two ways: frozen spot values derived
with the probe-leg enumeration oracle before being written down here, and
seeded random sweeps comparing the lazy search against that oracle.
"""

import collections
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nsgraph import oracles, transfinite
from nsgraph.graphs import NodeTerm, NotAMemberError
from nsgraph.oracles import (enumeration_wdistance, oracle_section_distance)
from nsgraph.ordinal import ZERO, Ordinal, natural_sum
from nsgraph.sequences import (Affine, BoundedDecl, Constant, Explicit, Floor,
                               MonotoneUnboundedDecl, Parity, classify, sym_start,
                               sym_value)
from nsgraph.transfinite import (DiamondNode, OneGraph, OneNodeId, RailNode, SectionId,
                                 SegNode, StarNode, Touch, boundary_one_nodes,
                                 is_boundary, make_one_graph, promote,
                                 wdistance, wdistance_witness)
from hand_forms import hand_wdistance
from support import check_separation_bound, one_adjacent, sections

FAMILIES = ("diamond_chain", "one_path_of_endless_paths",
            "ladder_of_endless_paths", "partial_ladder")


def x1(k):
    return OneNodeId("x1", k)


def test_family_flags():
    flags = {f: (g.locally_1_finite, g.locally_section_finite)
             for f in FAMILIES for g in [make_one_graph(f)]}
    assert flags["diamond_chain"] == (True, True)
    assert flags["one_path_of_endless_paths"] == (True, True)
    assert flags["ladder_of_endless_paths"] == (True, False)
    assert flags["partial_ladder"] == (False, True)
    for f in FAMILIES:
        g = make_one_graph(f)
        assert g.one_wconnected and g.infinitely_many_boundary


def is_locally_1_finite(g, sample_sections: int = 16, probe: int = 256) -> bool:
    """Probe sampled sections for an unbounded fan of boundary 1-nodes."""
    window = (-probe, probe)
    for section in sections(g, sample_sections)[:sample_sections]:
        incident = {inc.one for inc in g.incidences(section, window)
                    if is_boundary(g, inc.one)}
        if len(incident) >= probe:
            return False
    return True


def test_locally_1_finite_probe_agrees_with_flags():
    for f in FAMILIES:
        g = make_one_graph(f)
        assert is_locally_1_finite(g) == g.locally_1_finite


def test_diamond_one_node_tips():
    g = make_one_graph("diamond_chain")
    two = g.sections_of(x1(2), (-2, 40))
    assert {inc.section for inc in two} == {SectionId("chain", 1), SectionId("chain", 2)}
    assert all(inc.embedded is None for inc in two)  # tips only
    first = g.sections_of(x1(0), (-2, 40))
    assert [inc.section for inc in first] == [SectionId("chain", 0)]


def test_ladder_ground_one_node_has_unlistable_tips():
    # the ladder ground is a fan: a tip in every vertical section of the window
    g = make_one_graph("ladder_of_endless_paths")
    ground = g.sections_of(OneNodeId("xg"), (-2, 40))
    assert len(ground) == 41
    assert all(inc.section.kind == "v" and inc.embedded is None for inc in ground)


def test_partial_one_nodes_hold_embedded_star_leaves():
    # a partial-ladder rung holds its star leaf and two horizontal tips
    g = make_one_graph("partial_ladder")
    rung = g.sections_of(x1(3), (-2, 40))
    star = [inc for inc in rung if inc.section.kind == "star"]
    assert [inc.embedded for inc in star] == [StarNode(3)]
    tips = [inc for inc in rung if inc.embedded is None]
    assert {inc.section for inc in tips} == {SectionId("h", 2), SectionId("h", 3)}


def test_membership_and_rejection():
    g = make_one_graph("diamond_chain")
    assert g.contains(DiamondNode("l", 4, 7))
    assert g.contains(x1(0))
    for bad in (DiamondNode("j", -1, 0), DiamondNode("q", 0, 0),
                OneNodeId("x1", -2), OneNodeId("xg")):
        with pytest.raises(NotAMemberError):
            g.require_member(bad)
    p = make_one_graph("partial_ladder")
    assert p.contains(StarNode(None)) and p.contains(StarNode(9))
    with pytest.raises(NotAMemberError):
        p.require_member(RailNode("v", 0, 0))


def test_incidence_tables_are_consistent():
    window = (-8, 8)
    for f in FAMILIES:
        g = make_one_graph(f)
        for section in sections(g, 6):
            for inc in g.incidences(section, window):
                assert inc in g.sections_of(inc.one, window)


def test_no_one_node_kind_is_embedded_in_two_sections():
    # the premise of wdistance's same-section rule: leaving a section costs a tip
    for f in FAMILIES:
        rows = make_one_graph(f).INCIDENCE
        embedded = collections.Counter(r.one for r in rows if r.embedded is not None)
        assert all(count <= 1 for count in embedded.values()), (f, embedded)


def test_section_distance_matches_oracle():
    rng = random.Random(12)
    g = make_one_graph("diamond_chain")
    for _ in range(40):
        k = rng.randint(0, 4)
        u = DiamondNode(rng.choice("jlr"), k, rng.randint(0, 6))
        v = DiamondNode(rng.choice("jlr"), k, rng.randint(0, 6))
        assert g.section_distance(u, v) == oracle_section_distance("diamond_chain", u, v)
    p = make_one_graph("partial_ladder")
    leaves = [StarNode(None)] + [StarNode(k) for k in range(5)]
    for u in leaves:
        for v in leaves:
            assert p.section_distance(u, v) == oracle_section_distance("partial_ladder", u, v)


# frozen values derived with enumeration_wdistance before being written down
def test_diamond_frozen_distances():
    g = make_one_graph("diamond_chain")
    assert wdistance(g, DiamondNode("j", 0, 0), x1(0)) == Ordinal(1, 0)
    for k, m in [(0, 1), (0, 3), (2, 6), (1, 3)]:
        want = Ordinal(2 * abs(m - k), 0)
        assert wdistance(g, DiamondNode("j", k, 0), DiamondNode("j", m, 0)) == want
    assert wdistance(g, x1(0), x1(1)) == Ordinal(2, 0)
    assert wdistance(g, x1(1), x1(3)) == Ordinal(4, 0)
    assert wdistance(g, x1(0), x1(4)) == Ordinal(8, 0)
    assert wdistance(g, DiamondNode("j", 0, 0), x1(3)) == Ordinal(5, 0)
    assert wdistance(g, DiamondNode("l", 4, 2), x1(1)) == Ordinal(7, 0)
    assert wdistance(g, DiamondNode("l", 2, 5), DiamondNode("r", 2, 5)) == Ordinal(0, 2)
    assert wdistance(g, DiamondNode("j", 2, 3), DiamondNode("l", 2, 7)) == Ordinal(0, 9)


def test_onepath_frozen_distances():
    g = make_one_graph("one_path_of_endless_paths")
    assert wdistance(g, SegNode(0, 5), SegNode(0, -3)) == Ordinal(0, 8)
    assert wdistance(g, SegNode(0, 0), SegNode(2, 4)) == Ordinal(4, 0)
    assert wdistance(g, x1(-1), x1(2)) == Ordinal(6, 0)
    assert wdistance(g, SegNode(1, 0), x1(3)) == Ordinal(3, 0)
    assert wdistance(g, SegNode(1, 0), x1(1)) == Ordinal(1, 0)
    assert wdistance(g, SegNode(1, 0), x1(-2)) == Ordinal(7, 0)


def test_ladder_oep_frozen_distances():
    g = make_one_graph("ladder_of_endless_paths")
    xg = OneNodeId("xg")
    v, h = (lambda k, i: RailNode("v", k, i)), (lambda k, i: RailNode("h", k, i))
    assert wdistance(g, xg, x1(5)) == Ordinal(2, 0)
    assert wdistance(g, x1(0), x1(1)) == Ordinal(2, 0)
    assert wdistance(g, x1(0), x1(4)) == Ordinal(4, 0)
    assert wdistance(g, v(3, 2), v(5, -1)) == Ordinal(2, 0)
    assert wdistance(g, v(2, 0), v(2, 9)) == Ordinal(0, 9)
    assert wdistance(g, h(0, 0), h(1, 0)) == Ordinal(2, 0)
    assert wdistance(g, h(0, 0), h(2, 0)) == Ordinal(4, 0)
    assert wdistance(g, h(0, 0), h(3, 0)) == Ordinal(6, 0)
    assert wdistance(g, v(2, 0), h(2, 3)) == Ordinal(2, 0)
    assert wdistance(g, v(2, 0), h(1, 3)) == Ordinal(2, 0)
    assert wdistance(g, v(0, 0), h(4, 1)) == Ordinal(4, 0)
    assert wdistance(g, xg, h(2, 2)) == Ordinal(3, 0)
    assert wdistance(g, xg, v(9, 9)) == Ordinal(1, 0)
    assert wdistance(g, x1(3), v(3, 7)) == Ordinal(1, 0)
    assert wdistance(g, x1(0), v(4, 0)) == Ordinal(3, 0)
    assert wdistance(g, x1(1), h(4, 4)) == Ordinal(5, 0)
    assert wdistance(g, x1(4), h(4, 4)) == Ordinal(1, 0)


def test_partial_ladder_frozen_distances():
    g = make_one_graph("partial_ladder")
    hub = StarNode(None)
    h = lambda k, i: RailNode("h", k, i)
    assert wdistance(g, hub, x1(7)) == Ordinal(0, 1)
    assert wdistance(g, x1(2), x1(9)) == Ordinal(0, 2)
    assert wdistance(g, x1(2), x1(3)) == Ordinal(0, 2)
    assert wdistance(g, hub, h(3, 0)) == Ordinal(1, 1)
    assert wdistance(g, h(3, 0), x1(3)) == Ordinal(1, 0)
    assert wdistance(g, h(3, 0), x1(4)) == Ordinal(1, 0)
    assert wdistance(g, h(3, 0), x1(1)) == Ordinal(1, 2)
    assert wdistance(g, h(0, 0), h(1, 5)) == Ordinal(2, 0)
    assert wdistance(g, h(0, 0), h(4, 2)) == Ordinal(2, 2)
    assert wdistance(g, h(2, 3), h(2, -1)) == Ordinal(0, 4)


def test_wdistance_matches_enumeration_oracle():
    rng = random.Random(31)
    for f in FAMILIES:
        g = make_one_graph(f)
        for _ in range(35):
            a, b = g.sample_maximal_nodes(rng, 2, span=5)
            want = enumeration_wdistance(f, promote(g, a), promote(g, b))
            assert wdistance(g, a, b) == want, (f, a, b, want)
            assert wdistance_witness(g, a, b)[0] == want, (f, a, b, want)


def _relaxed_probes(named: list, legs: list, x, y):
    """The enumeration oracle's former composition: |named| relaxation rounds."""
    dist = {v: None for v in named}
    dist[x] = (0, 0)
    for _ in range(len(named)):
        changed = False
        for u, v, cost in legs:
            for a, b in ((u, v), (v, u)):
                if dist[a] is None:
                    continue
                cand = (dist[a][0] + cost[0], dist[a][1] + cost[1])
                if dist[b] is None or cand < dist[b]:
                    dist[b] = cand
                    changed = True
        if not changed:
            break
    if dist[y] is None:
        raise ValueError(f"{x!r} and {y!r} not connected in the truncation")
    return dist[y]


@pytest.mark.parametrize("size", [9, 12])
@pytest.mark.parametrize("family", FAMILIES)
def test_dijkstra_composition_equals_relaxation(family, size):
    sections, incidence = oracles._quotient(family, size)
    shared = oracles._one_legs(family, size)
    shared_legs = [(a, b, cost) for a, out in shared.items() for b, cost in out]
    g = make_one_graph(family)
    rng = random.Random(size)
    for _ in range(30):
        x, y = (promote(g, v) for v in g.sample_maximal_nodes(rng, 2, span=5))
        if x == y:
            continue
        zeros = [e for e in (x, y) if not isinstance(e, OneNodeId)]
        legs = oracles._endpoint_legs(sections, incidence, zeros)
        named = [x, y] + [one for one in incidence if one not in (x, y)]
        assert (oracles._compose_probes(shared, legs, x, y)
                == _relaxed_probes(named, legs + shared_legs, x, y)), (x, y)


def test_dijkstra_composition_equals_relaxation_on_random_legs():
    # the catalog quotients rarely improve a vertex after its first sighting
    rng = random.Random(5)
    for _ in range(300):
        named = list(range(rng.randint(2, 9)))
        legs = [(rng.choice(named), rng.choice(named),
                 (rng.randint(0, 2), rng.randint(0, 6))) for _ in range(rng.randint(0, 20))]
        cut = rng.randint(0, len(legs))
        shared: dict = {}
        for a, b, cost in legs[cut:]:
            shared.setdefault(a, []).append((b, cost))
            shared.setdefault(b, []).append((a, cost))
        x, y = rng.sample(named, 2)
        try:
            want = _relaxed_probes(named, legs, x, y)
        except ValueError:
            with pytest.raises(ValueError):
                oracles._compose_probes(shared, legs[:cut], x, y)
            continue
        assert oracles._compose_probes(shared, legs[:cut], x, y) == want


def _catalog_nodes(family):
    """Nodes of the family with indices up to 300, promoted or not."""
    index, pos = st.integers(0, 300), st.integers(-20, 20)
    ones = index.map(x1)
    if family == "diamond_chain":
        return ones | st.builds(DiamondNode, st.sampled_from("jlr"), index, st.integers(0, 20))
    if family == "one_path_of_endless_paths":
        return st.integers(-300, 300).map(x1) | st.builds(SegNode, st.integers(-300, 300), pos)
    if family == "ladder_of_endless_paths":
        return (st.just(OneNodeId("xg")) | ones
                | st.builds(RailNode, st.sampled_from("vh"), index, pos))
    return (st.just(StarNode(None)) | st.builds(StarNode, index) | ones
            | st.builds(RailNode, st.just("h"), index, pos))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_form_equals_the_search(family, data):
    g = make_one_graph(family)
    a, b = data.draw(_catalog_nodes(family)), data.draw(_catalog_nodes(family))
    assert wdistance(g, a, b) == wdistance_witness(g, a, b)[0]
    assert wdistance(g, b, a) == wdistance_witness(g, b, a)[0]


def test_wdistance_answers_catalog_pairs_without_the_search(monkeypatch):
    search = transfinite.wdistance_witness

    def refuse(*args, **kwargs):
        raise AssertionError("wdistance ran the quotient search")

    monkeypatch.setattr(transfinite, "wdistance_witness", refuse)
    rng = random.Random(23)
    for f in FAMILIES:
        g = make_one_graph(f)
        for span in (2, 6, 40):
            for _ in range(40):
                a, b = g.sample_maximal_nodes(rng, 2, span=span)
                assert wdistance(g, a, b) == search(g, a, b)[0], (f, a, b)


def test_node_term_inverts_instantiate_term():
    rng = random.Random(3)
    extra = {"diamond_chain": [DiamondNode("j", 4, 0)],
             "partial_ladder": [StarNode(None), StarNode(5)]}
    for f in FAMILIES:
        g = make_one_graph(f)
        for node in g.sample_maximal_nodes(rng, 30) + extra.get(f, []) + [g.anchor_one()]:
            term = g.node_term(node)
            assert all(isinstance(p, Constant) for p in term.params), term
            assert g.term_node(term, 0) == node and g.term_node(term, 9) == node


def test_partial_ladder_search_matches_enumeration_through_the_hub():
    g = make_one_graph("partial_ladder")
    rng = random.Random(41)
    star = [StarNode(None)] + [StarNode(k) for k in range(6)]
    ends = star + [x1(k) for k in range(6)] + [RailNode("h", k, rng.randint(-4, 4))
                                               for k in range(6)]
    for a in star:
        for b in ends:
            want = enumeration_wdistance("partial_ladder", promote(g, a), promote(g, b))
            assert wdistance_witness(g, a, b)[0] == want, (a, b)
            assert wdistance_witness(g, b, a)[0] == want, (b, a)
            assert wdistance(g, a, b) == want, (a, b)
            assert wdistance(g, b, a) == want, (b, a)


def test_declared_hubs_are_star_centres():
    hubs = 0
    for f in FAMILIES:
        g = make_one_graph(f)
        for row in g.INCIDENCE:
            if row.hub is None:
                continue
            hubs += 1
            hub = row.hub
            members = [hub] + [row.embedded(k) for k in range(8)]
            d = lambda u, v: oracle_section_distance(f, u, v)
            for u in members:
                for v in members:
                    if u != v:
                        assert d(u, v) == d(u, hub) + d(hub, v), (u, v)
                        assert g.section_distance(u, v) == d(u, v)
    assert hubs == 1


def test_partial_ladder_search_is_linear_in_the_window(monkeypatch):
    g = make_one_graph("partial_ladder")
    listed = []
    incidences = g.incidences

    def counted(section, window):
        out = incidences(section, window)
        listed.append(len(out))
        return out

    monkeypatch.setattr(g, "incidences", counted)
    work = {}
    for k in (100, 200):
        listed.clear()
        assert wdistance(g, x1(0), x1(k)) == Ordinal(0, 2)
        work[k] = sum(listed)
    assert work[200] <= 2.5 * work[100], work


def test_witness_folds_the_hub_into_one_leg():
    g = make_one_graph("partial_ladder")
    total, summary = wdistance_witness(g, x1(2), x1(9))
    assert total == Ordinal(0, 2)
    assert summary.stops == (x1(2), x1(9))
    assert [(leg.via, leg.mechanism, leg.cost) for leg in summary.legs] == [
        (SectionId("star"), "finite", Ordinal(0, 2))]
    total, summary = wdistance_witness(g, StarNode(None), RailNode("h", 3, 0))
    assert total == Ordinal(1, 1)
    assert summary.stops == (StarNode(None), x1(3), RailNode("h", 3, 0))


def test_promotion():
    g = make_one_graph("partial_ladder")
    assert promote(g, StarNode(3)) == x1(3)
    assert promote(g, StarNode(None)) == StarNode(None)
    assert promote(g, x1(2)) == x1(2)
    assert wdistance(g, StarNode(3), x1(4)) == wdistance(g, x1(3), x1(4))
    d = make_one_graph("diamond_chain")
    assert promote(d, DiamondNode("j", 1, 4)) == DiamondNode("j", 1, 4)


def test_witness_legs_compose():
    rng = random.Random(47)
    for f in FAMILIES:
        g = make_one_graph(f)
        for _ in range(20):
            a, b = g.sample_maximal_nodes(rng, 2, span=4)
            total, summary = wdistance_witness(g, a, b)
            assert summary.stops[0] == promote(g, a)
            assert summary.stops[-1] == promote(g, b)
            acc = ZERO
            for leg in summary.legs:
                acc = natural_sum(acc, leg.cost)
            assert acc == total


def test_witness_route_between_far_one_nodes():
    g = make_one_graph("diamond_chain")
    total, summary = wdistance_witness(g, x1(1), x1(3))
    assert total == Ordinal(4, 0)
    assert summary.stops == (x1(1), x1(2), x1(3))
    assert all(leg.mechanism == "tip+tip" for leg in summary.legs)


def test_metric_axioms_sampled():
    rng = random.Random(58)
    for f in FAMILIES:
        g = make_one_graph(f)
        for _ in range(25):
            a, b, c = g.sample_maximal_nodes(rng, 3, span=4)
            dab = wdistance(g, a, b)
            assert dab == wdistance(g, b, a)
            assert (dab == ZERO) == (promote(g, a) == promote(g, b))
            dac, dcb = wdistance(g, a, c), wdistance(g, c, b)
            assert dab <= natural_sum(dac, dcb)


def test_one_adjacency():
    g = make_one_graph("diamond_chain")
    assert one_adjacent(g, x1(0), x1(1))
    assert not one_adjacent(g, x1(0), x1(2))
    p = make_one_graph("partial_ladder")
    assert one_adjacent(p, x1(0), x1(9))  # the star touches every rung
    l = make_one_graph("ladder_of_endless_paths")
    assert one_adjacent(l, OneNodeId("xg"), x1(7))
    assert not one_adjacent(l, x1(0), x1(2))


def test_boundary_enumeration():
    g = make_one_graph("diamond_chain")
    assert is_boundary(g, x1(1))
    assert not is_boundary(g, x1(0))  # single tip, touches one section
    found = list(boundary_one_nodes(g, horizon=6))
    assert found == [x1(k) for k in range(1, 6)]


def test_separation_bound_check():
    g = make_one_graph("diamond_chain")
    verdict = check_separation_bound(g, x1(1), x1(3))
    assert verdict.applicable and verdict.passed
    assert verdict.distance == Ordinal(4, 0)
    adjacent = check_separation_bound(g, x1(1), x1(2))
    assert not adjacent.applicable
    p = make_one_graph("partial_ladder")
    starry = check_separation_bound(p, x1(0), x1(5))
    assert not starry.applicable  # finite star walk keeps them 1-adjacent


def test_symbolic_wdistance_matches_pointwise():
    n_plus = lambda c: Affine(1, c)
    ladder = "ladder_of_endless_paths"
    cases = [  # (family, ta, tb, the search's value at index 20 or None)
        ("diamond_chain", NodeTerm("x1", (Affine(1, 0),)), NodeTerm("x1", (Constant(2),)), None),
        ("diamond_chain", NodeTerm("j", (Constant(1), Affine(1, 0))),
         NodeTerm("l", (Constant(1), Constant(3))), None),
        ("diamond_chain", NodeTerm("x0", (Affine(1, 0),)), NodeTerm("x1", (Constant(0),)), None),
        ("one_path_of_endless_paths", NodeTerm("e", (Affine(1, -3), Constant(0))),
         NodeTerm("x1", (Constant(2),)), None),
        (ladder, NodeTerm("x1", (Parity(Constant(0), Affine(1, 0)),)),
         NodeTerm("x1", (Constant(0),)), None),
        ("partial_ladder", NodeTerm("h", (Affine(1, 0), Constant(2))),
         NodeTerm("x1", (Constant(1),)), None),
        ("partial_ladder", NodeTerm("zg", (Affine(2, 0),)), NodeTerm("xg", ()), None),
        # ladder reference values: one tip per 0-node endpoint, then the
        # cheapest tip-to-tip gap, along h sections or through xg
        (ladder, NodeTerm("h", (n_plus(0), Constant(0))), NodeTerm("h", (n_plus(1), Constant(3))),
         Ordinal(2, 0)),
        (ladder, NodeTerm("h", (n_plus(0), Constant(0))), NodeTerm("h", (n_plus(2), Constant(3))),
         Ordinal(4, 0)),
        (ladder, NodeTerm("h", (n_plus(0), Constant(0))), NodeTerm("h", (n_plus(3), Constant(3))),
         Ordinal(6, 0)),
        (ladder, NodeTerm("v", (n_plus(0), Constant(0))), NodeTerm("h", (n_plus(1), Constant(1))),
         Ordinal(4, 0)),
        (ladder, NodeTerm("v", (n_plus(1), Constant(0))), NodeTerm("h", (n_plus(0), Constant(1))),
         Ordinal(2, 0)),
        (ladder, NodeTerm("x1", (n_plus(0),)), NodeTerm("h", (n_plus(2), Constant(0))), Ordinal(5, 0)),
        (ladder, NodeTerm("xg", ()), NodeTerm("h", (n_plus(0), Constant(0))), Ordinal(3, 0)),
        (ladder, NodeTerm("xg", ()), NodeTerm("v", (n_plus(0), Constant(4))), Ordinal(1, 0)),
        (ladder, NodeTerm("v", (Parity(n_plus(0), Constant(2)), Constant(1))),
         NodeTerm("v", (Constant(2), Constant(5))), Ordinal(2, 0)),
    ]
    for family, ta, tb, reference in cases:
        g = make_one_graph(family)
        pair = g.symbolic_wdistance(ta, tb)
        assert pair is not None, (family, ta, tb)
        om, fin = pair
        start = max(sym_start(om), sym_start(fin))
        for n in range(start, start + 9):
            d, _ = wdistance_witness(g, g.term_node(ta, n), g.term_node(tb, n))
            assert (d.omega_coeff, d.finite_part) == (sym_value(om, n), sym_value(fin, n))
        if reference is not None:
            assert wdistance_witness(g, g.term_node(ta, 20), g.term_node(tb, 20))[0] == reference


def test_adjacency_truthsets():
    g = make_one_graph("diamond_chain")
    same_depth = g.adjacency_truthset(
        NodeTerm("j", (Affine(1, 0), Constant(2))),
        NodeTerm("l", (Affine(1, 0), Constant(2))))
    assert same_depth.kind == "cofinite"
    below = g.adjacency_truthset(
        NodeTerm("j", (Constant(0), Constant(0))),
        NodeTerm("l", (Constant(0), Constant(1))))
    assert below.kind == "finite"  # companion one step below its junction
    across = g.adjacency_truthset(
        NodeTerm("j", (Affine(1, 0), Constant(0))),
        NodeTerm("l", (Constant(4), Constant(0))))
    assert across.kind == "finite"
    one_sided = g.adjacency_truthset(
        NodeTerm("x1", (Constant(0),)), NodeTerm("j", (Constant(0), Constant(0))))
    assert one_sided.kind == "finite"
    split = g.adjacency_truthset(
        NodeTerm("j", (Parity(Constant(0), Affine(1, 5)), Constant(0))),
        NodeTerm("l", (Constant(0), Constant(0))))
    assert split.kind == "split"
    p = make_one_graph("partial_ladder")
    hub_rung = p.adjacency_truthset(NodeTerm("xg", ()), NodeTerm("zg", (Affine(1, 0),)))
    assert hub_rung.kind == "cofinite"


def test_term_checking():
    g = make_one_graph("diamond_chain")
    with pytest.raises(NotAMemberError):
        g.check_term(NodeTerm("e", (Constant(0), Constant(0))))
    with pytest.raises(NotAMemberError):
        g.check_term(NodeTerm("j", (Constant(0),)))
    assert g.term_node(NodeTerm("x0", (Affine(1, 0),)), 3) == DiamondNode("j", 3, 0)
    with pytest.raises(NotAMemberError):
        g.term_node(NodeTerm("j", (Affine(-1, 2), Constant(0))), 5)


# ====== the exits-and-skeleton rule ======

def _sequences(explicit: bool = True):
    """Const, affine, floor and parity parameters; sometimes declared Explicit ones."""
    plain = (st.integers(0, 9).map(Constant)
             | st.builds(Affine, st.integers(-1, 2), st.integers(0, 9))
             | st.builds(Floor, st.integers(1, 3), st.integers(0, 5),
                         st.integers(2, 3), st.integers(0, 2)))
    if explicit:
        bounded = st.builds(lambda k, m: Explicit(lambda n: n * m % (k + 1), BoundedDecl(k)),
                            st.integers(1, 4), st.integers(2, 7))
        rising = st.integers(0, 4).map(
            lambda c: Explicit(lambda n: n // 2 + c, MonotoneUnboundedDecl()))
        plain = plain | bounded | rising
    return plain | st.builds(Parity, plain, plain)


def _terms(g, data, explicit: bool = True):
    ctors = sorted(g.TERM_ARITY)
    ta, tb = (NodeTerm(ctor, tuple(data.draw(_sequences(explicit))
                                   for _ in range(g.TERM_ARITY[ctor])))
              for ctor in (data.draw(st.sampled_from(ctors)) for _ in range(2)))
    return (ta, tb) if data.draw(st.booleans()) else (tb, ta)


def _settled_values(g, pair, ta, tb):
    """The form's values and the search's at two settled indices of each parity."""
    start = max(sym_start(pair[0]), sym_start(pair[1]))
    start += start % 2
    for n in range(start, start + 4):
        try:
            x, y = g.term_node(ta, n), g.term_node(tb, n)
        except NotAMemberError:
            assume(False)
        d = wdistance_witness(g, x, y)[0]
        yield n, tuple(sym_value(part, n) for part in pair), (d.omega_coeff, d.finite_part)


def _within(c, value: int, n: int) -> bool:
    """Does the value at index n lie in its class?"""
    c = c.branches[n % 2]
    if c.kind == "range":
        return c.lo <= value <= c.hi
    return c.kind != "ninf" or value < 0  # distances never go to -inf


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_derived_form_equals_the_search(family, data):
    g = make_one_graph(family)
    ta, tb = _terms(g, data)
    pair = g.symbolic_wdistance(ta, tb)
    if pair is None:
        return  # a refusal never guesses
    classes = [classify(part) for part in pair]
    for n, got, want in _settled_values(g, pair, ta, tb):
        assert got == want, (ta, tb, n)
        assert all(_within(c, v, n) for c, v in zip(classes, got)), (ta, tb, n, classes)


def _as_tight(derived, hand) -> bool:
    """Is the derived class the hand one or inside it, on each parity branch?"""
    for d, h in zip(derived.branches, hand.branches):
        if h.kind == "range":
            if d.kind != "range" or d.lo < h.lo or d.hi > h.hi or h.exact and not d.exact:
                return False
        elif h.kind != "unknown" and d.kind != h.kind:
            return False
    return True


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_derived_form_is_as_tight_as_the_hand_form(family, data):
    g = make_one_graph(family)
    ta, tb = _terms(g, data)
    hand = hand_wdistance(g, ta, tb)
    if hand is None:
        return
    pair = g.symbolic_wdistance(ta, tb)
    assert pair is not None, (ta, tb)
    assert all(_as_tight(classify(d), classify(h)) for d, h in zip(pair, hand)), (ta, tb)
    start = max(sym_start(part) for part in pair + hand)
    for n in (start, start + 1):
        assert [sym_value(p, n) for p in pair] == [sym_value(p, n) for p in hand], (ta, tb, n)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_no_distance_form_runs_the_search(family, data):
    g = make_one_graph(family)
    ta, tb = _terms(g, data, explicit=False)
    refuse = mock.Mock(side_effect=AssertionError("the quotient search ran"))
    with mock.patch.object(transfinite, "wdistance_witness", refuse):
        g.symbolic_wdistance(ta, tb)
        n = data.draw(st.integers(0, 40))
        try:
            x, y = g.term_node(ta, n), g.term_node(tb, n)
        except NotAMemberError:
            return
        wdistance(g, x, y)
    refuse.assert_not_called()


@pytest.mark.parametrize("table", [
    (Touch("x1", "seg", -1), Touch("x1", "seg", 0), Touch("y1", "seg", 0)),
    (Touch("x1", "seg", -1), Touch("x1", "seg", 0, embedded=SegNode)),
    (Touch("x1", "seg", 0), Touch("x1", "rung", 0)),
    (Touch("x1", "seg", -1), Touch("x1", "seg", 0), Touch("x1", "far", 1)),
    (Touch("x1", "seg", -1), Touch("x1", "seg", 0), Touch("xg", "v", fan="sections"),
     Touch("x1", "v", 0), Touch("xh", "w", fan="sections"), Touch("x1", "w", 0)),
    (Touch("x1", "star", fan="ones", embedded=StarNode), Touch("x1", "h", -1),
     Touch("x1", "h", 0)),
], ids=["two indexed kinds", "embedded without a fan", "no line", "offset 1",
        "two apexes", "fan without a hub"])
def test_a_table_outside_the_rule_fails_at_class_creation(table):
    with pytest.raises(TypeError, match="exits-and-skeleton"):
        type("Outside", (OneGraph,), {"INCIDENCE": table})
