"""Three-valued membership verdicts and their evidence records."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsgraph.kernel import (EvidenceError, IndeterminateError, Trivalent,
                            TruthSet, cofinite_set, finite_set, in_filter,
                            intersect, parity_split, verdict)


def test_verdicts():
    assert verdict(cofinite_set()) == Trivalent.TRUE
    assert verdict(finite_set()) == Trivalent.FALSE
    assert verdict(parity_split()) == Trivalent.FILTER_DEPENDENT
    assert verdict(finite_set()) != Trivalent.TRUE
    assert Trivalent.FILTER_DEPENDENT.is_filter_dependent


def test_truth_set_holds_at():
    ts = cofinite_set(threshold=5)
    assert ts.holds_at(5) and ts.holds_at(100)
    ts = finite_set(threshold=3)
    assert not ts.holds_at(3) and not ts.holds_at(40)
    ts = parity_split(even_true=True, threshold=0)
    assert ts.holds_at(4) and not ts.holds_at(7)


def test_complement():
    assert verdict(cofinite_set().complement()) == Trivalent.FALSE
    assert verdict(finite_set().complement()) == Trivalent.TRUE
    flipped = parity_split(even_true=True).complement()
    assert verdict(flipped) == Trivalent.FILTER_DEPENDENT
    assert flipped.holds_at(7) and not flipped.holds_at(4)


def test_in_filter_accepts_matching_evidence():
    assert in_filter(lambda n: n >= 3, cofinite_set(threshold=3)) == Trivalent.TRUE
    assert in_filter(lambda n: n < 3, finite_set(threshold=3)) == Trivalent.FALSE
    assert in_filter(lambda n: n % 2 == 0, parity_split(even_true=True)) \
        == Trivalent.FILTER_DEPENDENT


def test_in_filter_rejects_contradicted_evidence():
    with pytest.raises(EvidenceError):
        in_filter(lambda n: n % 3 == 0, cofinite_set())
    with pytest.raises(EvidenceError):
        in_filter(lambda n: n % 2 == 0, finite_set())
    with pytest.raises(EvidenceError):
        in_filter(lambda n: n % 2 == 1, parity_split(even_true=True))


def test_in_filter_requires_evidence():
    with pytest.raises(IndeterminateError):
        in_filter(lambda n: bin(n).count("1") % 2 == 0, None)


def test_intersect_table():
    assert intersect(cofinite_set(), cofinite_set()).kind == "cofinite"
    assert intersect(cofinite_set(), finite_set()).kind == "finite"
    assert intersect(finite_set(), None).kind == "finite"
    assert intersect(cofinite_set(), None) is None
    split = parity_split(even_true=True)
    assert intersect(cofinite_set(), split).kind == "split"
    assert intersect(split, split).kind == "split"
    opposite = parity_split(even_true=False)
    assert intersect(split, opposite).kind == "finite"


def test_intersect_matches_pointwise_conjunction():
    rng = random.Random(5)
    pool = [cofinite_set, finite_set,
            lambda t=0: parity_split(even_true=True, threshold=t),
            lambda t=0: parity_split(even_true=False, threshold=t)]
    for _ in range(200):
        a = rng.choice(pool)()
        b = rng.choice(pool)()
        both = intersect(a, b)
        assert both is not None
        for n in range(both.threshold, both.threshold + 64):
            assert both.holds_at(n) == (a.holds_at(n) and b.holds_at(n))


def test_threshold_validation():
    with pytest.raises(ValueError):
        TruthSet("cofinite", -1)
    with pytest.raises(ValueError):
        TruthSet("sometimes", 0)


def _per_index_sweep(predicate, evidence, horizon):
    """Reference: the sweep as one holds_at call per sampled index."""
    for n in range(evidence.threshold, max(evidence.threshold, horizon) + 1):
        if bool(predicate(n)) != evidence.holds_at(n):
            return n
    return None


@given(kind=st.sampled_from(["cofinite", "finite", "split"]),
       threshold=st.integers(0, 41), even_true=st.booleans(),
       truth=st.sampled_from(["cofinite", "finite", "split-even", "split-odd"]),
       flip=st.one_of(st.none(), st.integers(0, 70)),
       horizon=st.integers(0, 64))
def test_in_filter_agrees_with_a_per_index_sweep(kind, threshold, even_true,
                                                 truth, flip, horizon):
    evidence = TruthSet(kind, threshold, even_true)
    base = {"cofinite": lambda n: True, "finite": lambda n: False,
            "split-even": lambda n: n % 2 == 0,
            "split-odd": lambda n: n % 2 == 1}[truth]

    def predicate(n):  # the base truth, negated at one index
        return base(n) != (n == flip)

    first = _per_index_sweep(predicate, evidence, horizon)
    if first is None:
        assert in_filter(predicate, evidence, horizon) is verdict(evidence)
    else:
        with pytest.raises(EvidenceError, match=f"at n={first}$"):
            in_filter(predicate, evidence, horizon)
