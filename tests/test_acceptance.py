"""End-to-end acceptance battery: ten criteria, one verdict line each.

Run with -s to see the verdict ledger. Expected values come from closed
forms and the independent bounded-enumeration oracle, derived before
being frozen here; nothing is tuned to the search implementation.
"""

import itertools
import random
import time

from nsgraph.checks import run_check_suite
from nsgraph.galaxy import (GalaxyRelation, anchor_hypernode,
                            boundary_ray_witness, build_galaxy_chain,
                            closer_than, in_principal_galaxy,
                            konig_ray_witness, limitedly_distant,
                            verify_partial_order)
from nsgraph.graphs import FAMILIES, NodeTerm, NotAMemberError, make_family
from nsgraph.kernel import (Trivalent, cofinite_set, finite_set, in_filter,
                            parity_split, verdict)
from nsgraph.ordinal import Ordinal
from nsgraph.oracles import enumeration_wdistance
from nsgraph.sequences import Aff, Affine, Constant, Parity
from nsgraph.transfinite import is_boundary, make_one_graph, wdistance, wdistance_witness
from nsgraph.ultrapower import (HyperOrder, compare_hyperordinals,
                                hyperdistance, hypernode_eq,
                                hyperordinal_from_syms, is_standard,
                                make_hyperbranch, make_hypernode, node_at)
from support import check_separation_bound, perturb_hypernode

GRID_EDITS = [{"op": "add", "a": [0, 0], "b": [2, 2]},
              {"op": "remove", "a": [0, 0], "b": [0, 1]}]


def _verdict(num: int, label: str, problems: list, note: str = "") -> None:
    tag = "PASS" if not problems else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"criterion {num:2d} {label}: {tag}{suffix}")
    assert not problems, problems[:3]


def _ladder_mix(rng: random.Random) -> NodeTerm:
    kind = rng.randrange(4)
    if kind == 0:
        return NodeTerm("ladg", ())
    if kind == 1:
        return NodeTerm("lad", (Constant(rng.randrange(50)),))
    if kind == 2:
        return NodeTerm("lad", (Affine(rng.randrange(1, 5), rng.randrange(30)),))
    return NodeTerm("lad", (Parity(Constant(rng.randrange(20)),
                                   Affine(rng.randrange(1, 4), rng.randrange(12))),))


def test_01_ladder_is_a_single_galaxy():
    started = time.perf_counter()
    lad = make_family("ladder")
    rng = random.Random(0)
    points = [make_hypernode(lad, _ladder_mix(rng)) for _ in range(200)]
    problems = []
    for a, b in itertools.combinations(points, 2):
        v = limitedly_distant(a, b)
        if (v.relation is not GalaxyRelation.SAME
                or v.certified_bound.finite_part > 2):
            problems.append((a.describe(), b.describe(), v))
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(1, "ladder pairwise same-galaxy, bound <= 2", problems,
             f"19900 pairs, {elapsed:.2f}s")


def test_02_one_ended_path_galaxy_structure():
    started = time.perf_counter()
    oep = make_family("one_ended_path")
    problems = []
    seed = make_hypernode(oep, NodeTerm("p", (Affine(1, 0),)))
    if in_principal_galaxy(seed).relation is not GalaxyRelation.DIFFERENT:
        problems.append("seed not outside the principal galaxy")
    one = hyperordinal_from_syms(Aff(0, 0), Aff(0, 1))
    from nsgraph.sequences import Patched
    neighbors = [
        NodeTerm("p", (Affine(1, 1),)),
        NodeTerm("p", (Patched(Affine(1, -1), ((0, 1),)),)),
    ]
    for term in neighbors:
        branch = make_hyperbranch(oep, seed.term, term)
        d = hyperdistance(branch.u, branch.v)
        if compare_hyperordinals(d, one) is not HyperOrder.EQUAL:
            problems.append(("neighbor not at hyperdistance 1", term))
    chain = build_galaxy_chain(seed, 5)
    if len(chain.entries) != 11:
        problems.append(f"{len(chain.entries)} entries")
    base = anchor_hypernode(oep)
    ordered = sum(
        closer_than(base, a.hypernode, b.hypernode) is Trivalent.TRUE
        for a, b in itertools.combinations(chain.entries, 2))
    if ordered != 55:
        problems.append(f"only {ordered}/55 pairs strictly ordered")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(2, "one-ended path: two unit neighbors, 11-entry chain",
             problems, f"55/55 ordered, {elapsed:.2f}s")


def test_03_greedy_rays_walk_exact_shells():
    problems = []
    for family in ("grid2d", "endless_path"):
        g = make_family(family)
        w = konig_ray_witness(g)
        origin = g.anchor()
        for n in range(51):
            if g.distance(origin, node_at(w, n)) != n:
                problems.append((family, n))
        if in_principal_galaxy(w).relation is not GalaxyRelation.DIFFERENT:
            problems.append((family, "not outside the principal galaxy"))
    _verdict(3, "ray witnesses sit on shell n for n <= 50", problems)


def test_04_metric_axioms_across_the_catalog():
    problems = []
    checked = 0
    for family in FAMILIES:
        edits = GRID_EDITS if family == "perturbed_grid" else None
        rep = run_check_suite(make_family(family, edits), "metric")
        checked += sum(r.checked for r in rep.results)
        problems += [(family, r.name, r.detail)
                     for r in rep.results if not r.passed]
    rep = run_check_suite(make_one_graph("diamond_chain"), "metric")
    checked += sum(r.checked for r in rep.results)
    problems += [("diamond_chain", r.name, r.detail)
                 for r in rep.results if not r.passed]
    _verdict(4, "metric axioms, both ranks", problems, f"{checked} checks")


def _diamond_named_nodes(limit: int = 7) -> list:
    g = make_one_graph("diamond_chain")
    named = []
    for ctor, arity in sorted(g.TERM_ARITY.items()):
        for k in range(limit):
            slots = [(k,)] if arity == 1 else [(k, i) for i in range(-2, 3)]
            for args in slots:
                term = NodeTerm(ctor, tuple(Constant(a) for a in args))
                try:
                    named.append(g.term_node(term, 0))
                except NotAMemberError:
                    pass
    return named


def test_05_search_equals_enumeration_on_diamond_chains():
    g = make_one_graph("diamond_chain")
    named = _diamond_named_nodes()
    problems = []
    pairs = 0
    for a, b in itertools.combinations(named, 2):
        pairs += 1
        want = enumeration_wdistance("diamond_chain", a, b)
        for how, got in (("closed form", wdistance(g, a, b)),
                         ("search", wdistance_witness(g, a, b)[0])):
            if got != want:
                problems.append((how, a, b, got, want))
    x0 = lambda k: g.term_node(NodeTerm("x0", (Constant(k),)), 0)
    for k in range(7):
        for m in range(7):
            if wdistance(g, x0(k), x0(m)) != Ordinal(2 * abs(m - k), 0):
                problems.append(("closed form", k, m))
    _verdict(5, "quotient search equals bounded enumeration", problems,
             f"{pairs} named pairs + closed form")


def _ladder_oep_points(rng: random.Random, ctor: str, arity: int, count: int):
    g = make_one_graph("ladder_of_endless_paths")
    out = []
    while len(out) < count:
        params = []
        for _ in range(arity):
            kind = rng.randrange(3)
            if kind == 0:
                params.append(Constant(rng.randrange(10)))
            elif kind == 1:
                params.append(Affine(rng.randrange(1, 4), rng.randrange(8)))
            else:
                params.append(Parity(Constant(rng.randrange(10)),
                                     Affine(rng.randrange(1, 3), rng.randrange(6))))
        try:
            out.append(make_hypernode(g, NodeTerm(ctor, tuple(params))))
        except NotAMemberError:
            continue
    return out


def test_06_ladder_of_paths_stays_within_stated_caps():
    rng = random.Random(5)
    ones = _ladder_oep_points(rng, "x1", 1, 12)
    zeros = (_ladder_oep_points(rng, "v", 2, 6)
             + _ladder_oep_points(rng, "h", 2, 6))
    problems = []
    for cap, points in ((4, ones), (6, zeros)):
        for a, b in itertools.combinations(points, 2):
            d = hyperdistance(a, b)
            for n in range(0, 33, 4):
                if d.at(n).omega_coeff > cap:
                    problems.append((a.describe(), b.describe(), n, d.at(n)))
    for h in ones + zeros:
        if in_principal_galaxy(h).relation is not GalaxyRelation.SAME:
            problems.append((h.describe(), "left the principal galaxy"))
    _verdict(6, "walk distances capped at w*4 / w*6, one galaxy", problems,
             f"{len(ones) + len(zeros)} points")


def test_07_separation_laws_on_diamond_chain():
    g = make_one_graph("diamond_chain")
    x1 = lambda k: g.term_node(NodeTerm("x1", (Constant(k),)), 0)
    problems = []
    applicable = 0
    for k, m in itertools.combinations(range(9), 2):
        v = check_separation_bound(g, x1(k), x1(m))
        if v.applicable:
            applicable += 1
            if not v.passed:
                problems.append((k, m, v))
    if applicable != 28:
        problems.append(f"expected 28 non-adjacent pairs, saw {applicable}")
    rng = random.Random(9)
    crossings = 0
    for _ in range(40):
        a, b = g.sample_maximal_nodes(rng, 2, span=6)
        total, walk = wdistance_witness(g, a, b)
        count = 0
        for i in range(1, len(walk.stops) - 1):
            stop = walk.stops[i]
            if not hasattr(stop, "kind"):
                continue
            if walk.legs[i - 1].via != walk.legs[i].via and is_boundary(g, stop):
                count += 1
                if not (walk.legs[i - 1].cost.omega_coeff
                        or walk.legs[i].cost.omega_coeff):
                    problems.append(("tipless crossing", a, b, stop))
        crossings += count
        if total.omega_coeff < count:
            problems.append(("walk under crossing count", a, b, total, count))
    _verdict(7, "boundary crossings always cost a tip", problems,
             f"28 separated pairs, {crossings} crossings")


def test_08_rank1_galaxy_structure_from_the_boundary_ray():
    g = make_one_graph("diamond_chain")
    problems = []
    w = boundary_ray_witness(g)
    if in_principal_galaxy(w).relation is not GalaxyRelation.DIFFERENT:
        problems.append("witness not outside the principal 1-galaxy")
    chain = build_galaxy_chain(w, 3)
    base = anchor_hypernode(g)
    ordered = sum(
        closer_than(base, a.hypernode, b.hypernode) is Trivalent.TRUE
        for a, b in itertools.combinations(chain.entries, 2))
    if (len(chain.entries), ordered) != (7, 21):
        problems.append(f"{len(chain.entries)} entries, {ordered}/21 ordered")
    sample = [make_hypernode(g, NodeTerm("x1", (p,))) for p in (
        Constant(0), Constant(4), Affine(1, 0), Affine(1, 9), Affine(2, 1),
        Parity(Constant(2), Affine(1, 0)))]
    report = verify_partial_order(sample, base)
    if report.transitivity_violations:
        problems.append(report.transitivity_violations)
    _verdict(8, "rank-1 chain and order laws from the boundary ray", problems,
             "7 entries, 21/21 ordered")


def test_09_kernel_soundness_and_trichotomy():
    problems = []
    for t in range(32):
        if in_filter(lambda n: n >= t, cofinite_set(t)) is not Trivalent.TRUE:
            problems.append(("cofinite", t))
        if in_filter(lambda n: n < t, finite_set(t)) is not Trivalent.FALSE:
            problems.append(("finite", t))
        for even in (True, False):
            got = in_filter(lambda n: (n % 2 == 0) == even,
                            parity_split(even, t))
            if got is not Trivalent.FILTER_DEPENDENT:
                problems.append(("split", even, t))
        complements = [(cofinite_set(t), finite_set(t)),
                       (parity_split(True, t), parity_split(False, t))]
        for ts, co in complements:
            if verdict(ts) is Trivalent.TRUE and verdict(co) is Trivalent.TRUE:
                problems.append(("complement", ts, co))
    rng = random.Random(4)
    flip = {HyperOrder.LESS: HyperOrder.GREATER,
            HyperOrder.EQUAL: HyperOrder.EQUAL,
            HyperOrder.GREATER: HyperOrder.LESS}
    decidable = 0
    for _ in range(150):
        a = hyperordinal_from_syms(Aff(rng.randrange(3), rng.randrange(6)),
                                   Aff(rng.randrange(3), rng.randrange(6)))
        b = hyperordinal_from_syms(Aff(rng.randrange(3), rng.randrange(6)),
                                   Aff(rng.randrange(3), rng.randrange(6)))
        v = compare_hyperordinals(a, b)
        if v is HyperOrder.FILTER_DEPENDENT:
            continue
        decidable += 1
        if compare_hyperordinals(b, a) is not flip[v]:
            problems.append(("asymmetry", v))
    _verdict(9, "kernel verdicts sound, order trichotomous", problems,
             f"{decidable} decidable pairs")


def test_10_ten_entry_perturbations_change_no_verdict():
    rng = random.Random(17)
    problems = []

    def bumps(vec_fn, count=10):
        return {i: vec_fn() for i in rng.sample(range(40), count)}

    lad = make_family("ladder")
    a = make_hypernode(lad, NodeTerm("lad", (Constant(5),)))
    b = make_hypernode(lad, NodeTerm("lad", (Affine(2, 1),)))
    pa = perturb_hypernode(a, bumps(lambda: (rng.randrange(30),)))
    pb = perturb_hypernode(b, bumps(lambda: (rng.randrange(30),)))
    if limitedly_distant(pa, pb) != limitedly_distant(a, b):
        problems.append("ladder verdict moved")

    oep = make_family("one_ended_path")
    seed = make_hypernode(oep, NodeTerm("p", (Affine(1, 0),)))
    pseed = perturb_hypernode(seed, bumps(lambda: (rng.randrange(25),)))
    if in_principal_galaxy(pseed).relation is not GalaxyRelation.DIFFERENT:
        problems.append("perturbed seed fell into the principal galaxy")
    if len(build_galaxy_chain(pseed, 5).entries) != 11:
        problems.append("perturbed chain lost entries")
    succ = make_hypernode(oep, NodeTerm("p", (Affine(1, 1),)))
    psucc = perturb_hypernode(succ, bumps(lambda: (rng.randrange(25),)))
    if make_hyperbranch(oep, pseed.term, psucc.term).evidence.kind != "cofinite":
        problems.append("perturbed branch lost its evidence")

    grid = make_family("grid2d")
    w = konig_ray_witness(grid)
    pw = perturb_hypernode(w, bumps(
        lambda: (rng.randrange(-12, 12), rng.randrange(-12, 12))))
    if in_principal_galaxy(pw).relation is not GalaxyRelation.DIFFERENT:
        problems.append("perturbed ray witness reclassified")

    dc = make_one_graph("diamond_chain")
    h0 = make_hypernode(dc, NodeTerm("x0", (Constant(3),)))
    ph0 = perturb_hypernode(h0, bumps(lambda: (rng.randrange(12),)))
    if (hypernode_eq(ph0, h0), is_standard(ph0)) != (Trivalent.TRUE,
                                                     Trivalent.TRUE):
        problems.append("perturbed named node lost identity or standardness")

    ldr = make_one_graph("ladder_of_endless_paths")
    hx = make_hypernode(ldr, NodeTerm("x1", (Affine(2, 1),)))
    phx = perturb_hypernode(hx, bumps(lambda: (rng.randrange(20),)))
    if in_principal_galaxy(phx) != in_principal_galaxy(hx):
        problems.append("rank-1 cap verdict moved")

    base = anchor_hypernode(dc)
    sample = [make_hypernode(dc, NodeTerm("x1", (p,))) for p in (
        Constant(0), Constant(4), Affine(1, 0), Affine(1, 9), Affine(2, 1),
        Parity(Constant(2), Affine(1, 0)))]
    psample = [perturb_hypernode(h, bumps(lambda: (rng.randrange(15),)))
               for h in sample]
    if verify_partial_order(psample, base) != verify_partial_order(sample, base):
        problems.append("order report moved")
    _verdict(10, "ten-entry perturbations preserve every verdict", problems)
