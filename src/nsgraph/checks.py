"""Invariant suites: metric axioms, partition laws, order laws, oracles.

Each suite re-derives its expectations on the spot, from the axioms, the
bounded enumeration oracle, or the closed forms, instead of comparing
against stored constants. A pass therefore certifies the implementation
on freshly sampled inputs for the given seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .galaxy import (GalaxyRelation, GalaxyVerdict, anchor_hypernode,
                     limitedly_distant, verify_partial_order)
from .graphs import Exhausted, GraphInstance, NodeTerm, NotAMemberError
from .kernel import (Trivalent, cofinite_set, finite_set, in_filter,
                     parity_split, verdict)
from .literals import graph_label
from .ordinal import HyperOrder, Ordinal, compare, natural_sum
from .oracles import enumeration_wdistance, oracle_distance
from .sequences import Aff, Affine, Constant
from .transfinite import promote, wdistance, wdistance_witness
from .ultrapower import compare_hyperordinals, hyperordinal_from_syms, make_hypernode

__all__ = ["CheckResult", "SuiteReport", "SUITES", "run_check_suite"]

SUITES = ("metric", "galaxy-partition", "order", "walk-oracle", "kernel")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    family: str
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_check_suite(graph: GraphInstance, suite: str, *, seed: int = 0,
                    samples: int | None = None) -> SuiteReport:
    runner = _RUNNERS.get(suite)
    if runner is None:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    if samples is not None and samples < 1:  # a suite of no samples checks nothing
        raise ValueError(f"a suite needs at least 1 sample, got {samples}")
    rng = random.Random(seed)
    results = runner(graph, rng, samples)
    return SuiteReport(suite, graph.family, tuple(results))


class CheckTally:
    """Accumulates a sweep's outcomes, keeping the first counterexample.

    A detail is a zero-argument callable, called only when its check fails:
    a passing check formats nothing.
    """

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures = 0
        self.first = ""

    def check(self, ok: bool, detail: Callable[[], str]) -> None:
        self.checked += 1
        if not ok:
            self.failures += 1
            self.first = self.first or detail()

    def fail(self, detail: Callable[[], str]) -> None:
        self.check(False, detail)

    def result(self) -> CheckResult:
        detail = f"{self.failures} failed; first: {self.first}" if self.failures else ""
        return CheckResult(self.name, not self.failures, self.checked, detail)


# ====== sampling helpers ======

def _random_term(graph, rng: random.Random) -> NodeTerm:
    ctor = rng.choice(sorted(graph.TERM_ARITY))
    params = []
    for _ in range(graph.TERM_ARITY[ctor]):
        if rng.randrange(2):
            params.append(Constant(rng.randrange(12)))
        else:
            # slopes of both signs: neither of p:n and p:-n is closer
            params.append(Affine(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(8)))
    return NodeTerm(ctor, tuple(params))


def _sample_hypernodes(graph, rng: random.Random, count: int) -> list:
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count:
            raise NotAMemberError(
                f"could not sample {count} presentations on {graph.family}")
        try:
            out.append(make_hypernode(graph, _random_term(graph, rng)))
        except NotAMemberError:
            continue  # e.g. a position argument outside its segment
    return out


def _counterexample(*parts) -> str:
    return " ".join(repr(p) for p in parts)


# ====== metric ======

def _metric_rank0(graph, rng: random.Random, triples: int) -> list[CheckResult]:
    identity = CheckTally("identity: d(x,y) = 0 exactly when x = y")
    symmetry = CheckTally("symmetry: d(x,y) = d(y,x)")
    triangle = CheckTally("triangle: d(x,z) <= d(x,y) + d(y,z)")
    for _ in range(triples):
        x, y, z = graph.sample_nodes(rng, 3)
        dxy, dyx, dyz, dxz = (graph.distance(*p)
                              for p in ((x, y), (y, x), (y, z), (x, z)))
        if any(isinstance(d, Exhausted) for d in (dxy, dyx, dyz, dxz)):
            identity.fail(lambda: _counterexample("search exhausted", x, y, z))
            continue
        identity.check((dxy == 0) == (x == y) and graph.distance(x, x) == 0,
                       lambda: _counterexample(x, y, dxy))
        symmetry.check(dxy == dyx, lambda: _counterexample(x, y, dxy, dyx))
        triangle.check(dxz <= dxy + dyz, lambda: _counterexample(x, y, z, dxz, dxy, dyz))
    return [identity.result(), symmetry.result(), triangle.result()]


def _metric_rank1(graph, rng: random.Random, triples: int) -> list[CheckResult]:
    identity = CheckTally("identity: wd(x,y) = 0 exactly on promotion classes")
    symmetry = CheckTally("symmetry: wd(x,y) = wd(y,x)")
    triangle = CheckTally("triangle under the natural sum")
    for _ in range(triples):
        x, y, z = graph.sample_maximal_nodes(rng, 3)
        dxy, dyx, dyz, dxz = (wdistance(graph, *p)
                              for p in ((x, y), (y, x), (y, z), (x, z)))
        same = promote(graph, x) == promote(graph, y)
        identity.check((dxy == Ordinal(0, 0)) == same
                       and wdistance(graph, x, x) == Ordinal(0, 0),
                       lambda: _counterexample(x, y, dxy))
        symmetry.check(dxy == dyx, lambda: _counterexample(x, y, dxy, dyx))
        bound = natural_sum(dxy, dyz)
        triangle.check(compare(dxz, bound) is not HyperOrder.GREATER,
                       lambda: _counterexample(x, y, z, dxz, bound))
    return [identity.result(), symmetry.result(), triangle.result()]


def _suite_metric(graph, rng: random.Random, samples: int | None) -> list[CheckResult]:
    if graph.rank == 0:
        return _metric_rank0(graph, rng, samples or 1000)
    return _metric_rank1(graph, rng, samples or 200)


# ====== galaxy partition ======

def _suite_partition(graph, rng: random.Random,
                     samples: int | None) -> list[CheckResult]:
    points = _sample_hypernodes(graph, rng, samples or 24)
    reflexive = CheckTally("reflexivity: every point is limited from itself")
    symmetric = CheckTally("symmetry: verdicts agree in both directions")
    additive = CheckTally("transitivity: same-galaxy bounds add")
    separating = CheckTally("separation: limited + unlimited stays unlimited")
    decided: dict[tuple[int, int], GalaxyVerdict] = {}

    def verdict_of(x, y):
        # one verdict per ordered pair: (y, x) is decided apart from (x, y)
        key = (id(x), id(y))
        if key not in decided:
            decided[key] = limitedly_distant(x, y)
        return decided[key]

    for x in points:
        v = verdict_of(x, x)
        reflexive.check(v.relation is GalaxyRelation.SAME
                        and v.certified_bound == Ordinal(0, 0),
                        lambda: _counterexample(x.describe(), v))
    for _ in range(len(points) * 4):
        x, y, z = (rng.choice(points) for _ in range(3))
        vxy = verdict_of(x, y)
        symmetric.check(verdict_of(y, x) == vxy,
                        lambda: _counterexample(x.describe(), y.describe()))
        vyz = verdict_of(y, z)
        vxz = verdict_of(x, z)
        if (vxy.relation is GalaxyRelation.SAME
                and vyz.relation is GalaxyRelation.SAME):
            cap = natural_sum(vxy.certified_bound, vyz.certified_bound)
            additive.check(vxz.relation is GalaxyRelation.SAME
                           and compare(vxz.certified_bound, cap)
                           is not HyperOrder.GREATER,
                           lambda: _counterexample(x.describe(), y.describe(),
                                                   z.describe(), vxz))
        if (vxy.relation is GalaxyRelation.SAME
                and vyz.relation is GalaxyRelation.DIFFERENT):
            separating.check(vxz.relation is GalaxyRelation.DIFFERENT,
                             lambda: _counterexample(x.describe(), y.describe(),
                                                     z.describe(), vxz))
    return [reflexive.result(), symmetric.result(), additive.result(),
            separating.result()]


# ====== order ======

def _suite_order(graph, rng: random.Random,
                 samples: int | None) -> list[CheckResult]:
    points = _sample_hypernodes(graph, rng, samples or 6)
    report = verify_partial_order(points, anchor_hypernode(graph))
    detail = (f"{len(report.same_galaxy_pairs)} same-galaxy, "
              f"{len(report.incomparable_pairs)} incomparable, "
              f"{len(report.filter_dependent_pairs)} filter-dependent, "
              f"{len(report.indeterminate_pairs)} indeterminate")
    return [
        CheckResult("irreflexivity", not report.reflexivity_violations,
                    report.pairs_checked, detail),
        CheckResult("antisymmetry", not report.antisymmetry_violations,
                    report.pairs_checked,
                    _counterexample(*report.antisymmetry_violations)),
        CheckResult("transitivity", not report.transitivity_violations,
                    report.triples_checked,
                    _counterexample(*report.transitivity_violations)),
    ]


# ====== walk oracle ======

def _suite_walk_oracle(graph, rng: random.Random,
                       samples: int | None) -> list[CheckResult]:
    count = samples or 35
    if graph.rank == 1:
        # wdistance answers from closed forms; the quotient search is checked apart
        closed = CheckTally("wdistance equals bounded enumeration")
        searched = CheckTally("quotient search equals bounded enumeration")
        for _ in range(count):
            a, b = graph.sample_maximal_nodes(rng, 2, span=5)
            want = enumeration_wdistance(graph.family, promote(graph, a),
                                         promote(graph, b))
            got = wdistance(graph, a, b)
            closed.check(got == want, lambda: _counterexample(a, b, got, want))
            total, _ = wdistance_witness(graph, a, b)
            searched.check(total == want, lambda: _counterexample(a, b, total, want))
        return [closed.result(), searched.result()]
    agree = CheckTally("search equals bounded enumeration")
    edits = None
    label = graph_label(graph)
    if isinstance(label, dict):
        edits = label["edits"]
    pairs = [tuple(graph.sample_nodes(rng, 2, span=8)) for _ in range(count)]
    got = [graph.distance(a, b) for a, b in pairs]
    want = oracle_distance(graph.family, pairs, 30, edits)
    for (a, b), g, w in zip(pairs, got, want):
        agree.check(g == w, lambda: _counterexample(a, b, g, w))
    return [agree.result()]


# ====== kernel ======

def _suite_kernel(graph, rng: random.Random,
                  samples: int | None) -> list[CheckResult]:
    span = samples or 24
    sound = CheckTally("class soundness: cofinite/finite/split verdicts")
    excl = CheckTally("exclusion: complementary classes never both hold")
    tri = CheckTally("trichotomy: definite comparisons pick one side")
    for t in range(span):
        sound.check(in_filter(lambda n: n >= t, cofinite_set(t))
                    is Trivalent.TRUE, lambda: f"cofinite {t}")
        sound.check(in_filter(lambda n: n < t, finite_set(t))
                    is Trivalent.FALSE, lambda: f"finite {t}")
        for even in (True, False):
            sound.check(in_filter(lambda n: (n % 2 == 0) == even,
                                  parity_split(even, t))
                        is Trivalent.FILTER_DEPENDENT, lambda: f"split {even} {t}")
        pairs = [(cofinite_set(t), finite_set(t)),
                 (parity_split(True, t), parity_split(False, t))]
        for ts, co in pairs:
            both = verdict(ts) is Trivalent.TRUE and verdict(co) is Trivalent.TRUE
            excl.check(not both, lambda: _counterexample(ts, co))
    definite = {HyperOrder.LESS: HyperOrder.GREATER,
                HyperOrder.EQUAL: HyperOrder.EQUAL,
                HyperOrder.GREATER: HyperOrder.LESS}
    for _ in range(span * 4):
        a = hyperordinal_from_syms(Aff(rng.randrange(3), rng.randrange(6)),
                                   Aff(rng.randrange(3), rng.randrange(6)))
        b = hyperordinal_from_syms(Aff(rng.randrange(3), rng.randrange(6)),
                                   Aff(rng.randrange(3), rng.randrange(6)))
        v = compare_hyperordinals(a, b)
        if v is HyperOrder.FILTER_DEPENDENT:
            continue
        tri.check(compare_hyperordinals(b, a) is definite[v],
                  lambda: _counterexample(a, b, v))
    return [sound.result(), excl.result(), tri.result()]


_RUNNERS = {
    "metric": _suite_metric,
    "galaxy-partition": _suite_partition,
    "order": _suite_order,
    "walk-oracle": _suite_walk_oracle,
    "kernel": _suite_kernel,
}
