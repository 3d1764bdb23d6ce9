"""Definable index sequences and the symbolic integer layer above them.

The symbolic operations are checked pointwise against direct evaluation on a
seeded random mix of sequence shapes; classification claims are then checked
against long-horizon sampling.
"""

import random

import pytest

from nsgraph.kernel import IndeterminateError
from nsgraph.ordinal import HyperOrder
from nsgraph.sequences import (Aff, Affine, Band, BoundedDecl, Constant,
                               Explicit, Floor, MonotoneUnboundedDecl,
                               Opaque, Parity, ParityS, Patched,
                               SequenceDeclarationError, classify,
                               eq_truthset, parity_sym, perturb_sequence,
                               sym_abs, sym_add, sym_neg, sym_scale, sym_start,
                               sym_sub, sym_value, validate_declaration,
                               zone_by_magnitude)
from nsgraph.ultrapower import compare_hyperordinals, hyperordinal_from_syms


def test_sequence_values():
    assert Constant(4).value(99) == 4
    assert Affine(2, -3).value(5) == 7
    assert Parity(Constant(0), Affine(1, 0)).value(6) == 0
    assert Parity(Constant(0), Affine(1, 0)).value(7) == 7
    p = Patched(Affine(1, 0), ((2, 50), (5, -1)))
    assert p.value(2) == 50 and p.value(5) == -1 and p.value(3) == 3
    e = Explicit(lambda n: n * n, MonotoneUnboundedDecl())
    assert e.value(9) == 81
    f = Floor(3, -1, 4, 2)
    assert [f.value(n) for n in (0, 1, 2, 6)] == [-1, -1, 2, 5]


def test_patched_rejects_bad_overrides():
    with pytest.raises(ValueError):
        Patched(Constant(0), ((2, 1), (2, 3)))
    with pytest.raises(ValueError):
        Patched(Constant(0), ((-1, 5),))


def test_perturb_sequence_merges():
    p = perturb_sequence(Affine(1, 0), {3: 99})
    assert p.value(3) == 99 and p.value(4) == 4
    q = perturb_sequence(p, {3: 7, 10: 0})
    assert q.value(3) == 7 and q.value(10) == 0 and q.value(4) == 4


def test_validate_declaration():
    validate_declaration(Explicit(lambda n: n % 5, BoundedDecl(4)))
    validate_declaration(Explicit(lambda n: n * n, MonotoneUnboundedDecl()))
    with pytest.raises(SequenceDeclarationError):
        validate_declaration(Explicit(lambda n: n, BoundedDecl(10)))
    with pytest.raises(SequenceDeclarationError):
        validate_declaration(Explicit(lambda n: -n, MonotoneUnboundedDecl()))


def _random_sequence(rng):
    shape = rng.randrange(4)
    if shape == 0:
        return Constant(rng.randint(-8, 8))
    if shape == 1:
        return Affine(rng.randint(0, 3), rng.randint(-8, 8))
    if shape == 2:
        return Parity(Constant(rng.randint(-8, 8)),
                      Affine(rng.randint(0, 2), rng.randint(-4, 4)))
    tail = Affine(rng.randint(0, 2), rng.randint(-4, 4))
    overrides = tuple((i, rng.randint(-9, 9)) for i in rng.sample(range(6), 2))
    return Patched(tail, overrides)


def test_sym_ops_agree_pointwise():
    rng = random.Random(2026)
    for _ in range(300):
        s, t = _random_sequence(rng), _random_sequence(rng)
        x, y = s.to_sym(), t.to_sym()
        k = rng.randint(0, 3)
        add, sub, mag = sym_add(x, y), sym_sub(x, y), sym_abs(x)
        neg, scaled = sym_neg(x), sym_scale(k, x)
        start = max(sym_start(v) for v in (add, sub, mag, neg, scaled))
        for n in range(start, start + 40):
            assert sym_value(add, n) == s.value(n) + t.value(n)
            assert sym_value(sub, n) == s.value(n) - t.value(n)
            assert sym_value(mag, n) == abs(s.value(n))
            assert sym_value(neg, n) == -s.value(n)
            assert sym_value(scaled, n) == k * s.value(n)


def test_affine_forms_stay_exact():
    x = sym_add(Aff(2, 1), Aff(3, -4))
    assert isinstance(x, Aff) and (x.a, x.b) == (5, -3)
    y = sym_sub(Aff(2, 1), Aff(2, 5))
    assert isinstance(y, Aff) and (y.a, y.b) == (0, -4)
    z = sym_abs(Aff(1, -10))
    assert isinstance(z, Aff) and z.start >= 10
    assert sym_value(z, 10) == 0 and sym_value(z, 13) == 3


def test_classify_shapes():
    assert classify(Aff(0, 7)).exact and classify(Aff(0, 7)).lo == 7
    assert classify(Aff(2, -5)).kind == "pinf"
    assert classify(sym_neg(Aff(1, 0))).kind == "ninf"
    c = classify(Opaque(lambda n: n % 3, lo=0, hi=2))
    assert c.kind == "range" and (c.lo, c.hi) == (0, 2) and not c.exact
    assert classify(parity_sym(Aff(0, 1), Aff(1, 0))).kind == "split"
    # a branch is read on its own parity only, also when built nested by hand
    even, odd = classify(ParityS(ParityS(Aff(1, 0), Aff(0, 3)), Aff(0, 2))).branches
    assert even.kind == "pinf" and odd.value == 2


def test_growth_classes():
    assert classify(Aff(1, 0)).diverges and classify(Aff(1, 0)).magnitude is None
    assert classify(Aff(0, 5)).magnitude == (5, True)
    assert classify(Aff(0, -3)).magnitude == (3, True)
    assert classify(Opaque(lambda n: n % 4, lo=0, hi=3)).magnitude == (3, False)
    split = classify(parity_sym(Aff(0, 2), Aff(1, 0)))
    assert split.magnitude is None and not split.diverges
    even, odd = split.branches
    assert even.magnitude == (2, True)
    assert odd.diverges


def test_growth_class_magnitude_on_negative_divergence():
    c = classify(sym_neg(Aff(1, 0)))
    assert c.diverges and c.magnitude is None


def test_eq_truthset():
    assert eq_truthset(Aff(0, 0)).kind == "cofinite"
    assert eq_truthset(Aff(0, 3)).kind == "finite"
    assert eq_truthset(Aff(1, -5)).kind == "finite"
    assert eq_truthset(Opaque(lambda n: n % 2, lo=0, hi=1)) is None
    ts = eq_truthset(parity_sym(Aff(0, 0), Aff(0, 1)))
    assert ts.kind == "split" and ts.even_true


def test_order_pattern():
    assert classify(Aff(1, 1)).sign is HyperOrder.GREATER
    assert classify(sym_neg(Aff(1, 1))).sign is HyperOrder.LESS
    assert classify(Aff(0, 0)).sign is HyperOrder.EQUAL
    split = classify(parity_sym(Aff(0, -2), Aff(1, 1)))
    assert [b.sign for b in split.branches] == [HyperOrder.LESS, HyperOrder.GREATER]
    wobble = Opaque(lambda n: (-1) ** n, lo=-1, hi=1)
    assert classify(wobble).sign is None
    with pytest.raises(IndeterminateError):
        compare_hyperordinals(hyperordinal_from_syms(Aff(0, 0), wobble),
                              hyperordinal_from_syms(Aff(0, 0), Aff(0, 0)))


def test_floor_bands_order_and_normalise():
    half, quarter = Floor(1, 0, 2).to_sym(), Floor(1, 3, 4, 1).to_sym()
    assert isinstance(half, Band) and classify(half).kind == "pinf"
    assert classify(sym_sub(half, quarter)).kind == "pinf"
    assert classify(sym_sub(quarter, half)).kind == "ninf"
    # the band of two floors of equal slope is flat: a range, not a value
    flat = classify(sym_sub(Floor(2, 0, 2).to_sym(), Floor(1, 0, 1).to_sym()))
    assert flat.kind == "range" and (flat.lo, flat.hi) == (-1, 0) and not flat.exact
    # a unit divisor or a zero coefficient is affine
    assert Floor(3, 1, 1, 2).to_sym() == Aff(3, 7)
    assert Floor(0, 5, 4, 1).to_sym() == Aff(0, 5)
    # floor(n/2) = 40 last at n = 81; 9 - floor(n/2) <= 0 from n = 18 on
    zeros = eq_truthset(sym_sub(half, Aff(0, 40)))
    assert zeros.kind == "finite" and zeros.threshold == 82
    assert sym_start(sym_abs(Floor(-1, 9, 2).to_sym())) == 18


def test_explicit_sym():
    e = Explicit(lambda n: n % 4, BoundedDecl(3))
    c = classify(e.to_sym())
    assert c.kind == "range" and c.lo == -3 and c.hi == 3
    m = Explicit(lambda n: n * n, MonotoneUnboundedDecl())
    assert classify(m.to_sym()).kind == "pinf"
    undeclared = Explicit(lambda n: n % 7)
    assert classify(undeclared.to_sym()).kind == "unknown"


def test_eq_truthset_threshold_clears_affine_roots():
    ts = eq_truthset(Aff(-2, 4))  # zero exactly at n = 2
    assert ts.kind == "finite" and ts.threshold == 3
    assert all(not ts.holds_at(n) for n in range(3, 40))
    ts = eq_truthset(parity_sym(Aff(0, 2), Aff(-1, 1)))
    assert ts.kind == "finite" and ts.threshold == 2
    assert eq_truthset(Aff(2, 1)).threshold == 0  # no integer root


def test_zone_by_magnitude_waits_for_divergence():
    z = zone_by_magnitude(Aff(-1, 4), (0, 1, 9))  # |delta| reaches 2 at n = 6
    assert sym_start(z) == 6
    assert sym_value(z, 6) == 9
    assert zone_by_magnitude(Opaque(lambda n: n, to_pinf=True), (0, 1, 9)) is None
    flat = zone_by_magnitude(Aff(0, -1), (7, 8, 9))
    assert sym_value(flat, 0) == 8
