"""Every verdict read from the eventual-behaviour class agrees with the values.

Symbolic forms are drawn as `Aff`, a `ParityS` of two `Aff`, or an `Opaque`
whose evaluator honours its declared range or divergence.  The order, galaxy
and closeness verdicts read only the class; the assertions read only the
values, at one even and one odd index far past every root, offset and range
the strategies can draw.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgraph.galaxy import GalaxyRelation, closer_than, in_principal_galaxy
from nsgraph.graphs import NodeTerm, make_family
from nsgraph.kernel import IndeterminateError, Trivalent
from nsgraph.ordinal import HyperOrder, Ordinal, compare
from nsgraph.sequences import Aff, Constant, Opaque, parity_sym, sym_value
from nsgraph.transfinite import make_one_graph
from nsgraph.ultrapower import (AnchorProfile, Hypernode, compare_hyperordinals,
                                hyperordinal_from_syms)

SETTLED = (4000, 4001)
LARGE = 2000  # every bounded form stays below it, every divergent one passes it
REVERSED = {HyperOrder.LESS: HyperOrder.GREATER, HyperOrder.EQUAL: HyperOrder.EQUAL,
            HyperOrder.GREATER: HyperOrder.LESS,
            HyperOrder.FILTER_DEPENDENT: HyperOrder.FILTER_DEPENDENT}
RANK0, RANK1 = make_family("endless_path"), make_one_graph("diamond_chain")


@st.composite
def sym_ints(draw, natural: bool = False):
    """A symbolic form; with natural=True every value is a natural."""
    kinds = ["aff", "parity", "range", "pinf", "lower"] + ([] if natural else ["ninf"])
    kind = draw(st.sampled_from(kinds))
    low = 0 if natural else -20
    if kind in ("aff", "parity"):
        affs = st.builds(Aff, st.integers(0 if natural else -3, 3), st.integers(low, 20))
        return draw(affs) if kind == "aff" else parity_sym(draw(affs), draw(affs))
    if kind == "range":
        lo, width = draw(st.integers(low, 20)), draw(st.integers(0, 6))
        step = draw(st.integers(1, 7))
        return Opaque(lambda n: lo + n * step % (width + 1), lo=lo, hi=lo + width)
    slope, offset = draw(st.integers(1, 3)), draw(st.integers(0, 20))
    if kind == "pinf":
        return Opaque(lambda n: slope * n + offset + n % 3, to_pinf=True)
    if kind == "ninf":
        return Opaque(lambda n: -slope * n - offset - n % 3, to_ninf=True)
    # declared only from below: the class is unknown
    return Opaque(lambda n: offset + slope * (n % 5), lo=offset)


def point(rank: int, ident: int, omega, finite) -> Hypernode:
    graph, ctor = (RANK1, "x1") if rank else (RANK0, "p")
    return Hypernode(graph, NodeTerm(ctor, (Constant(ident),)), rank,
                     AnchorProfile(omega, finite))


@settings(max_examples=400, deadline=None)
@given(sym_ints(natural=True), sym_ints(natural=True),
       sym_ints(natural=True), sym_ints(natural=True))
def test_order_agrees_with_settled_values_and_is_antisymmetric(o1, f1, o2, f2):
    a, b = hyperordinal_from_syms(o1, f1), hyperordinal_from_syms(o2, f2)
    try:
        order = compare_hyperordinals(a, b)
    except IndeterminateError:
        with pytest.raises(IndeterminateError):
            compare_hyperordinals(b, a)
        return
    assert compare_hyperordinals(b, a) is REVERSED[order]
    even, odd = (compare(a.at(n), b.at(n)) for n in SETTLED)
    if order is HyperOrder.FILTER_DEPENDENT:
        assert even is not odd
    else:
        assert even is odd is order


@settings(max_examples=400, deadline=None)
@given(sym_ints(), sym_ints(natural=True), sym_ints(natural=True))
def test_galaxy_bound_dominates_settled_values(finite, omega1, finite1):
    for x in (point(0, 1, Aff(0, 0), finite), point(1, 1, omega1, finite1)):
        try:
            verdict = in_principal_galaxy(x)
        except IndeterminateError:
            continue
        values = [Ordinal(abs(sym_value(x.profile.omega, n)), abs(sym_value(x.profile.finite, n)))
                  for n in SETTLED]
        # an unlimited finite part stays inside one omega step
        large = [(value.omega_coeff if x.rank else value.finite_part) > LARGE for value in values]
        if verdict.relation is GalaxyRelation.SAME:
            assert all(value <= verdict.certified_bound for value in values)
        elif verdict.relation is GalaxyRelation.DIFFERENT:
            assert all(large)
        else:
            assert large[0] != large[1]


@settings(max_examples=400, deadline=None)
@given(sym_ints(natural=True), sym_ints(natural=True), st.sampled_from([0, 1]))
def test_gap_verdict_agrees_with_settled_values(near, far, rank):
    def at(scalar, ident):
        return point(rank, ident, scalar, Aff(0, 0)) if rank else point(0, ident, Aff(0, 0), scalar)

    try:
        verdict = closer_than(at(Aff(0, 0), 0), at(near, 1), at(far, 2))
    except IndeterminateError:
        return
    outgrown = [sym_value(far, n) - sym_value(near, n) > LARGE for n in SETTLED]
    expected = {(True, True): Trivalent.TRUE, (False, False): Trivalent.FALSE}
    assert verdict is expected.get(tuple(outgrown), Trivalent.FILTER_DEPENDENT)
