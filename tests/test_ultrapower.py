"""Term-presented limit points: identity, standardness, order, branches.

Verdict expectations were derived by hand from the classification rules and
cross-checked against pointwise evaluation of the generating terms before
being frozen here; the sweeps below keep re-deriving the pointwise side.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nsgraph.galaxy import GalaxyRelation, limitedly_distant
from nsgraph.graphs import (FAMILIES, Exhausted, NodeTerm, NotAMemberError, bfs_distance,
                            make_family)
from nsgraph.kernel import EvidenceError, IndeterminateError, Trivalent
from nsgraph.ordinal import Ordinal, compare
from nsgraph.sequences import (Aff, Affine, BoundedDecl, Constant, Explicit, Floor,
                               MonotoneUnboundedDecl, Opaque, Parity, Patched,
                               SequenceDeclarationError, parity_sym, sym_start,
                               sym_value)
from nsgraph.transfinite import ONE_FAMILIES, make_one_graph, wdistance_witness
from nsgraph.ultrapower import (AnchorProfile, HyperOrder, Hyperordinal,
                                NotAHyperbranchError, compare_hyperordinals,
                                hyperdistance, hypernode_eq,
                                hyperordinal_from_syms, is_standard,
                                make_hyperbranch, make_hypernode, node_at)
from support import perturb_hypernode


def aff(a, b):
    return Affine(a, b)


def hyper(graph, ctor, *params):
    return make_hypernode(graph, NodeTerm(ctor, tuple(params)))


def test_make_hypernode_ranks_and_describe():
    ep = make_family("endless_path")
    dc = make_one_graph("diamond_chain")
    h0 = hyper(ep, "p", aff(1, 0))
    h1 = hyper(dc, "x1", aff(1, 0))
    assert (h0.rank, h1.rank) == (0, 1)
    assert h0.describe() == "endless_path::p:affine(1,0)"
    assert node_at(h0, 7) == ep.instantiate_term("p", (7,))
    assert node_at(h1, 7) == dc.instantiate_term("x1", (7,))


def test_make_hypernode_rejects_bad_presentations():
    ep = make_family("endless_path")
    dc = make_one_graph("diamond_chain")
    with pytest.raises(NotAMemberError):
        hyper(ep, "q", aff(1, 0))
    with pytest.raises(NotAMemberError):
        hyper(ep, "p", aff(1, 0), Constant(2))
    # depth goes negative at n = 3: caught by the membership prefix probe
    with pytest.raises(NotAMemberError):
        hyper(dc, "j", aff(1, 0), aff(-1, 2))
    with pytest.raises(SequenceDeclarationError):
        hyper(ep, "p", Explicit(lambda n: n, BoundedDecl(3)))


def test_profiles_match_pointwise_anchor_distances_rank0():
    cases = [
        ("endless_path", NodeTerm("p", (aff(2, 1),))),
        ("endless_path", NodeTerm("p", (Parity(aff(1, 0), Constant(4)),))),
        ("grid2d", NodeTerm("grid", (aff(1, 0), Constant(3)))),
        ("ladder", NodeTerm("lad", (aff(1, 2),))),
    ]
    for family, term in cases:
        g = make_family(family)
        h = make_hypernode(g, term)
        anchor = g.anchor()
        lo = max(sym_start(h.profile.omega), sym_start(h.profile.finite))
        for n in range(lo, lo + 20):
            assert sym_value(h.profile.omega, n) == 0
            assert sym_value(h.profile.finite, n) == g.distance(node_at(h, n), anchor)


def test_profiles_match_pointwise_anchor_distances_rank1():
    cases = [
        ("diamond_chain", NodeTerm("x1", (aff(1, 2),))),
        ("diamond_chain", NodeTerm("j", (aff(1, 0), Constant(2)))),
        ("one_path_of_endless_paths", NodeTerm("e", (aff(1, 1), Constant(-3)))),
        ("ladder_of_endless_paths", NodeTerm("x1", (aff(1, 0),))),
        ("ladder_of_endless_paths", NodeTerm("xg", ())),
        ("partial_ladder", NodeTerm("h", (aff(1, 0), Constant(1)))),
    ]
    for family, term in cases:
        g = make_one_graph(family)
        h = make_hypernode(g, term)
        lo = max(sym_start(h.profile.omega), sym_start(h.profile.finite))
        for n in range(lo, lo + 10):
            anchor = g.term_node(g.anchor_term(), n)
            got = Ordinal(sym_value(h.profile.omega, n),
                          sym_value(h.profile.finite, n))
            assert got == wdistance_witness(g, node_at(h, n), anchor)[0]


def test_hypernode_eq_true_for_syntactic_variants():
    ep = make_family("endless_path")
    a = hyper(ep, "p", aff(1, 0))
    b = hyper(ep, "p", Patched(aff(1, 0), ((0, 9), (4, -2))))
    assert hypernode_eq(a, b) is Trivalent.TRUE
    dc = make_one_graph("diamond_chain")
    x0 = hyper(dc, "x0", aff(1, 2))
    j0 = hyper(dc, "j", aff(1, 2), Constant(0))
    assert hypernode_eq(x0, j0) is Trivalent.TRUE


def test_hypernode_eq_false_and_split():
    ep = make_family("endless_path")
    a = hyper(ep, "p", aff(1, 0))
    assert hypernode_eq(a, hyper(ep, "p", aff(1, 3))) is Trivalent.FALSE
    assert hypernode_eq(a, hyper(ep, "p", Constant(5))) is Trivalent.FALSE
    # agrees exactly on the evens
    c = hyper(ep, "p", Parity(aff(1, 0), Constant(3)))
    assert hypernode_eq(a, c) is Trivalent.FILTER_DEPENDENT


class Mislabelled(Affine):
    """Affine values under the form of the next affine sequence up."""

    def to_sym(self):
        return Aff(self.a, self.b + 1)


def test_sweeps_raise_at_the_first_index_a_node_leaves_the_graph():
    # probed members on 0..64, so only the sweep to the horizon reaches 71
    op = make_family("one_ended_path")
    a, b = hyper(op, "p", aff(-1, 70)), hyper(op, "p", aff(-2, 140))
    with pytest.raises(NotAMemberError, match=r"^PathNode\(k=-1\) is not a node"):
        hypernode_eq(a, a)
    # both leave at 71, where the evidence starts: the first presentation's node first
    with pytest.raises(NotAMemberError, match=r"^PathNode\(k=-1\) "):
        hypernode_eq(a, b)
    with pytest.raises(NotAMemberError, match=r"^PathNode\(k=-2\) "):
        hypernode_eq(b, a)
    with pytest.raises(NotAMemberError, match=r"^PathNode\(k=-1\) "):
        make_hyperbranch(op, a.term, NodeTerm("p", (aff(-1, 71),)))
    # evidence contradicted at index 0 is reported before the node failing at 71
    liar = hyper(op, "p", Mislabelled(-1, 70))
    with pytest.raises(EvidenceError, match="at n=0$"):
        hypernode_eq(a, liar)


def test_equal_floor_presentations_name_one_point():
    op = make_family("one_ended_path")
    a = hyper(op, "p", Floor(2, 0, 2))
    b = hyper(op, "p", Floor(2, 0, 2, label="twice half"))
    assert hypernode_eq(a, b) is Trivalent.TRUE
    v = limitedly_distant(a, b)
    assert (v.relation, v.certified_bound, v.tight) == (GalaxyRelation.SAME, Ordinal(0, 0), True)
    # the floors agree on the evens, and n, n + 1 never agree on the odds
    c = hyper(op, "p", Parity(Floor(2, 0, 2), aff(1, 0)))
    d = hyper(op, "p", Parity(Floor(2, 0, 2), aff(1, 1)))
    assert hypernode_eq(c, d) is Trivalent.FILTER_DEPENDENT


def _outcome(read):
    try:
        return read()
    except Exception as exc:  # the error and its message are the outcome
        return type(exc), str(exc)


ALL_FAMILIES = sorted(FAMILIES) + sorted(ONE_FAMILIES)


def _graph(family):
    if family in ONE_FAMILIES:
        return make_one_graph(family)
    edits = [{"op": "add", "a": (0, 0), "b": (2, 2)}] if family == "perturbed_grid" else None
    return make_family(family, edits=edits)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.data())
def test_term_nodes_read_like_term_node(family, data):
    g = _graph(family)
    ctor = data.draw(st.sampled_from(sorted(g.TERM_ARITY)))
    arg = st.one_of(st.builds(Constant, st.integers(-3, 12)),
                    st.builds(Affine, st.integers(-2, 2), st.integers(-30, 30)),
                    st.builds(lambda a, b: Parity(Affine(a, b), Constant(b)),
                              st.integers(-2, 2), st.integers(-5, 30)))
    term = NodeTerm(ctor, tuple(data.draw(arg) for _ in range(g.TERM_ARITY[ctor])))
    lo = data.draw(st.integers(0, 40))
    hi = lo + data.draw(st.integers(0, 40))
    per_index = _outcome(lambda: [g.term_node(term, n) for n in range(lo, hi)])
    assert _outcome(lambda: g.term_nodes(term, lo, hi)) == per_index


def test_hypernode_eq_leaf_is_not_its_one_node():
    # the walk pseudometric promotes the embedded leaf to its 1-node, so the
    # distance vanishes, yet the presentations name different nodes
    pl = make_one_graph("partial_ladder")
    leaf = hyper(pl, "zg", aff(1, 0))
    one = hyper(pl, "x1", aff(1, 0))
    assert hypernode_eq(leaf, one) is Trivalent.FALSE
    assert hyperdistance(leaf, one).at(5) == Ordinal(0, 0)


def test_hypernode_eq_guards():
    ep = make_family("endless_path")
    dc = make_one_graph("diamond_chain")
    with pytest.raises(ValueError):
        hypernode_eq(hyper(ep, "p", aff(1, 0)), hyper(dc, "x1", aff(1, 0)))
    # same family through two instances is the same enlargement
    ep2 = make_family("endless_path")
    assert hypernode_eq(hyper(ep, "p", aff(1, 0)),
                        hyper(ep2, "p", aff(1, 0))) is Trivalent.TRUE
    bounded = hyper(ep, "p", Explicit(lambda n: (-1) ** n, BoundedDecl(1)))
    with pytest.raises(IndeterminateError):
        hypernode_eq(bounded, hyper(ep, "p", Constant(0)))


def test_is_standard_verdicts():
    ep = make_family("endless_path")
    assert is_standard(hyper(ep, "p", Constant(5))) is Trivalent.TRUE
    assert is_standard(hyper(ep, "p", Patched(Constant(5), ((1, 7),)))) is Trivalent.TRUE
    assert is_standard(hyper(ep, "p", aff(1, 0))) is Trivalent.FALSE
    assert is_standard(hyper(ep, "p", Parity(Constant(2), Constant(5)))) \
        is Trivalent.FILTER_DEPENDENT
    assert is_standard(
        hyper(ep, "p", Explicit(lambda n: n * n, MonotoneUnboundedDecl()))) \
        is Trivalent.FALSE
    with pytest.raises(IndeterminateError):
        is_standard(hyper(ep, "p", Explicit(lambda n: (-1) ** n, BoundedDecl(1))))


def test_is_standard_rank1():
    pl = make_one_graph("partial_ladder")
    assert is_standard(hyper(pl, "xg")) is Trivalent.TRUE
    assert is_standard(hyper(pl, "zg", aff(1, 0))) is Trivalent.FALSE
    dc = make_one_graph("diamond_chain")
    # chain index diverges while the depth stays put: never one fixed node
    assert is_standard(hyper(dc, "j", aff(1, 0), Constant(2))) is Trivalent.FALSE
    assert is_standard(hyper(dc, "x1", Parity(Constant(1), Constant(4)))) \
        is Trivalent.FILTER_DEPENDENT


def test_hyperdistance_matches_oracle_pointwise():
    rng = random.Random(13)
    rank0 = [make_family(f) for f in ("endless_path", "grid2d", "ladder")]
    for g in rank0:
        base = 0 if g.family == "ladder" else -3  # ladder rungs sit on naturals
        for _ in range(6):
            ctor = rng.choice(sorted(g.TERM_ARITY))
            terms = []
            for c in (ctor, ctor):
                params = tuple(
                    rng.choice([aff(1, rng.randint(max(base, 0), 3)),
                                Constant(rng.randint(base, 4)),
                                aff(2, rng.randint(0, 2))])
                    for _ in range(g.TERM_ARITY[c]))
                terms.append(NodeTerm(c, params))
            hd = hyperdistance(make_hypernode(g, terms[0]),
                               make_hypernode(g, terms[1]))
            lo = max(sym_start(hd.omega), sym_start(hd.finite))
            for n in range(lo, lo + 8):
                d = g.distance(g.term_node(terms[0], n), g.term_node(terms[1], n))
                assert not isinstance(d, Exhausted)
                assert hd.at(n) == Ordinal(0, d)
                assert Ordinal(sym_value(hd.omega, n), sym_value(hd.finite, n)) == hd.at(n)


def test_hyperdistance_matches_walk_search_pointwise():
    rng = random.Random(29)
    for family in ("diamond_chain", "one_path_of_endless_paths",
                   "ladder_of_endless_paths", "partial_ladder"):
        g = make_one_graph(family)
        ctors = sorted(g.TERM_ARITY)
        for _ in range(5):
            terms = []
            for _ in range(2):
                ctor = rng.choice(ctors)
                params = tuple(
                    rng.choice([aff(1, rng.randint(0, 3)), Constant(rng.randint(0, 4))])
                    for _ in range(g.TERM_ARITY[ctor]))
                terms.append(NodeTerm(ctor, params))
            hd = hyperdistance(make_hypernode(g, terms[0]),
                               make_hypernode(g, terms[1]))
            lo = max(sym_start(hd.omega), sym_start(hd.finite))
            for n in range(lo, lo + 5):
                direct, _ = wdistance_witness(g, g.term_node(terms[0], n),
                                              g.term_node(terms[1], n))
                assert hd.at(n) == direct
                assert Ordinal(sym_value(hd.omega, n), sym_value(hd.finite, n)) == direct


def test_compare_hyperordinals_definite():
    ep = make_family("endless_path")
    a = hyper(ep, "p", aff(1, 0))
    near = hyperdistance(a, hyper(ep, "p", aff(1, 3)))
    far = hyperdistance(a, hyper(ep, "p", Constant(5)))
    assert compare_hyperordinals(near, far) is HyperOrder.LESS
    assert compare_hyperordinals(far, near) is HyperOrder.GREATER
    assert compare_hyperordinals(near, near) is HyperOrder.EQUAL
    dc = make_one_graph("diamond_chain")
    h1 = hyper(dc, "x1", aff(1, 0))
    wide = hyperdistance(h1, hyper(dc, "x1", aff(1, 2)))
    assert compare_hyperordinals(wide, near) is HyperOrder.GREATER
    assert compare_hyperordinals(wide, hyperordinal_from_syms(Aff(0, 4), Aff(0, 0))) \
        is HyperOrder.EQUAL


def test_compare_hyperordinals_filter_dependent():
    dc = make_one_graph("diamond_chain")
    a = hyper(dc, "x1", Parity(aff(1, 0), Constant(0)))
    b = hyper(dc, "x1", Constant(0))
    d = hyperdistance(a, b)
    assert d.at(6) == Ordinal(12, 0) and d.at(7) == Ordinal(0, 0)
    one = hyperordinal_from_syms(Aff(0, 1), Aff(0, 0))
    assert compare_hyperordinals(d, one) is HyperOrder.FILTER_DEPENDENT


def test_compare_hyperordinals_indeterminate_and_tripwire():
    ep = make_family("endless_path")
    opaque = hyperdistance(hyper(ep, "p", Explicit(lambda n: n * n % 7)),
                           hyper(ep, "p", Constant(0)))
    with pytest.raises(IndeterminateError):
        compare_hyperordinals(opaque, hyperordinal_from_syms(Aff(0, 0), Aff(0, 3)))
    # components that lie about the pointwise values must be caught
    liar = Hyperordinal(lambda n: Ordinal(0, 1), Aff(0, 0), Aff(0, 5))
    with pytest.raises(EvidenceError):
        compare_hyperordinals(liar, hyperordinal_from_syms(Aff(0, 0), Aff(0, 3)))


def test_compare_reads_the_finite_sign_only_where_omega_ties():
    # the finite delta has no class, but omega differs on every parity branch
    unclassified = Opaque(lambda n: n % 3, lo=0)
    climbing = Hyperordinal(lambda n: Ordinal(n, n % 3), Aff(1, 0), unclassified)
    one = hyperordinal_from_syms(Aff(0, 1), Aff(0, 0))
    assert compare_hyperordinals(climbing, one) is HyperOrder.GREATER
    assert compare_hyperordinals(one, climbing) is HyperOrder.LESS
    split = Hyperordinal(lambda n: Ordinal(n % 2 * n, n % 3),
                         parity_sym(Aff(0, 0), Aff(1, 0)), unclassified)
    assert compare_hyperordinals(split, one) is HyperOrder.FILTER_DEPENDENT
    # where omega ties, the finite sign is needed and refused
    with pytest.raises(IndeterminateError):
        compare_hyperordinals(Hyperordinal(climbing.fn, Aff(0, 1), unclassified), one)


def test_negative_component_at_the_probe_is_a_refusal():
    # -n + 5 orders below 0, but at the settled probe it is no ordinal
    falling = hyperordinal_from_syms(Aff(0, 0), Aff(-1, 5))
    zero = hyperordinal_from_syms(Aff(0, 0), Aff(0, 0))
    with pytest.raises(IndeterminateError, match="not naturals"):
        compare_hyperordinals(falling, zero)
    with pytest.raises(IndeterminateError, match="not naturals"):
        compare_hyperordinals(zero, falling)


def test_one_disagreeing_probe_refutes_a_claimed_order():
    # the claim reads 5 > 3; the settled probes are n = 10 and 11, and only 11 disagrees
    half_liar = Hyperordinal(lambda n: Ordinal(0, 1 if n == 11 else 5), Aff(0, 0), Aff(0, 5))
    three = hyperordinal_from_syms(Aff(0, 0), Aff(0, 3))
    with pytest.raises(EvidenceError):
        compare_hyperordinals(half_liar, three, horizon=10)


def test_hyperbranch_rank0():
    ep = make_family("endless_path")
    br = make_hyperbranch(ep, NodeTerm("p", (aff(1, 0),)), NodeTerm("p", (aff(1, 1),)))
    assert br.evidence.kind == "cofinite"
    lad = make_family("ladder")
    assert make_hyperbranch(lad, NodeTerm("lad", (aff(1, 0),)),
                            NodeTerm("ladg", ())).evidence.kind == "cofinite"
    with pytest.raises(NotAHyperbranchError) as err:
        make_hyperbranch(ep, NodeTerm("p", (aff(1, 0),)), NodeTerm("p", (aff(1, 2),)))
    assert err.value.verdict is Trivalent.FALSE


def test_hyperbranch_rank1():
    dc = make_one_graph("diamond_chain")
    chain = aff(1, 0)
    assert make_hyperbranch(dc, NodeTerm("j", (chain, Constant(3))),
                            NodeTerm("l", (chain, Constant(3)))).evidence.kind == "cofinite"
    assert make_hyperbranch(dc, NodeTerm("j", (chain, Constant(3))),
                            NodeTerm("l", (chain, Constant(2)))).evidence.kind == "cofinite"
    with pytest.raises(NotAHyperbranchError) as err:
        make_hyperbranch(dc, NodeTerm("j", (chain, Constant(3))),
                         NodeTerm("j", (chain, Constant(4))))
    assert err.value.verdict is Trivalent.FALSE
    with pytest.raises(NotAHyperbranchError) as err:
        make_hyperbranch(dc, NodeTerm("l", (chain, Constant(3))),
                         NodeTerm("r", (chain, Constant(3))))
    assert err.value.verdict is Trivalent.FALSE
    # adjacent on the evens only: depth matches half the time
    with pytest.raises(NotAHyperbranchError) as err:
        make_hyperbranch(dc, NodeTerm("j", (chain, Parity(Constant(3), Constant(5)))),
                         NodeTerm("l", (chain, Constant(3))))
    assert err.value.verdict is Trivalent.FILTER_DEPENDENT


def _index_sequences():
    """Constant, affine and parity parameters with small coefficients."""
    plain = (st.integers(0, 9).map(Constant)
             | st.builds(Affine, st.integers(-1, 2), st.integers(0, 9)))
    return plain | st.builds(Parity, plain, plain)


def _term(graph, data):
    ctor = data.draw(st.sampled_from(sorted(graph.TERM_ARITY)))
    return NodeTerm(ctor, tuple(data.draw(_index_sequences())
                                for _ in range(graph.TERM_ARITY[ctor])))


def _shifted(seq, k):
    if isinstance(seq, Parity):
        return Parity(_shifted(seq.even, k), _shifted(seq.odd, k))
    return Affine(seq.a, seq.b + k) if isinstance(seq, Affine) else Constant(seq.value(0) + k)


def _nearby_term(graph, data, term):
    """Parameters of `term` moved by at most one, on one parity or both: often adjacent."""
    ctors = sorted(c for c, arity in graph.TERM_ARITY.items() if arity == len(term.params))
    params = []
    for p in term.params:
        q = _shifted(p, data.draw(st.integers(-1, 1)))
        params.append(data.draw(st.sampled_from([q, Parity(p, q), Parity(q, p)])))
    return NodeTerm(data.draw(st.sampled_from(ctors)), tuple(params))


ADJACENCY_FAMILIES = sorted(FAMILIES) + sorted(ONE_FAMILIES)
# edits among the small constants that the terms draw
ADJACENCY_EDITS = [{"op": "add", "a": (0, 0), "b": (2, 2)},
                   {"op": "remove", "a": (1, 0), "b": (1, 1)}]


@pytest.mark.parametrize("family", ADJACENCY_FAMILIES)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_adjacency_truthset_matches_pointwise_adjacency(family, data):
    """The distance-one rule agrees with a search or closed form it never reads."""
    if family in ONE_FAMILIES:
        g = make_one_graph(family)
    else:
        g = make_family(family, ADJACENCY_EDITS if family == "perturbed_grid" else None)
    ta = _term(g, data)
    tb = _nearby_term(g, data, ta) if data.draw(st.booleans()) else _term(g, data)
    evidence = g.adjacency_truthset(ta, tb)
    if evidence is None:
        return  # a refusal never guesses
    settled = evidence.threshold + evidence.threshold % 2
    indices = range(settled, settled + 4)  # two evens, two odds
    for n in indices:
        try:
            x, y = g.term_node(ta, n), g.term_node(tb, n)
        except NotAMemberError:
            assume(False)
        if g.rank:
            adjacent = wdistance_witness(g, x, y)[0] == Ordinal(0, 1)
        elif g.has_closed_form:
            adjacent = g.closed_form_distance(x, y) == 1
        else:
            adjacent = bfs_distance(g, x, y) == 1
        assert adjacent == evidence.holds_at(n), (ta, tb, evidence, n)


def test_perturbation_invariance():
    ep = make_family("endless_path")
    dc = make_one_graph("diamond_chain")
    for h, overrides in [
        (hyper(ep, "p", aff(1, 0)), {0: (9,), 3: (1,)}),
        (hyper(dc, "x1", aff(1, 2)), {1: (0,), 5: (2,)}),
        (hyper(dc, "j", aff(1, 0), Constant(1)), {2: (0, 0)}),
    ]:
        p = perturb_hypernode(h, overrides)
        assert hypernode_eq(h, p) is Trivalent.TRUE
        assert is_standard(p) is is_standard(h)
        d = hyperdistance(h, p)
        lo = max(sym_start(d.omega), sym_start(d.finite))
        assert all(d.at(n) == Ordinal(0, 0) for n in range(lo, lo + 6))


def test_perturbation_rejections():
    dc = make_one_graph("diamond_chain")
    pl = make_one_graph("partial_ladder")
    h = hyper(dc, "j", aff(1, 0), Constant(1))
    with pytest.raises(ValueError):
        perturb_hypernode(hyper(dc, "x1", aff(1, 0)), {2: (5, 1)})
    with pytest.raises(NotAMemberError):
        perturb_hypernode(h, {2: (5, -1)})
    with pytest.raises(ValueError):
        perturb_hypernode(hyper(pl, "xg"), {0: ()})


def test_profile_is_an_anchor_profile():
    lad = make_one_graph("ladder_of_endless_paths")
    h = hyper(lad, "xg")
    assert isinstance(h.profile, AnchorProfile)
    assert sym_value(h.profile.omega, 9) == 0
    assert sym_value(h.profile.finite, 9) == 0


def test_ordering_is_transitive_across_random_presentations():
    rng = random.Random(47)
    ep = make_family("endless_path")
    anchor = hyper(ep, "p", Constant(0))
    pool = [hyper(ep, "p", aff(a, b))
            for a in (0, 1, 2) for b in (0, 3, 7)]
    dists = [hyperdistance(anchor, h) for h in pool]
    for _ in range(60):
        x, y, z = (rng.choice(dists) for _ in range(3))
        vxy = compare_hyperordinals(x, y)
        vyz = compare_hyperordinals(y, z)
        if vxy is vyz is HyperOrder.LESS:
            assert compare_hyperordinals(x, z) is HyperOrder.LESS
        if vxy is vyz is HyperOrder.EQUAL:
            assert compare_hyperordinals(x, z) is HyperOrder.EQUAL
