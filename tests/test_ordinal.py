"""Ordinal arithmetic below w**2: construction, sums, order, text form."""

import random

import pytest

from nsgraph.ordinal import (OMEGA, ZERO, HyperOrder, Ordinal, compare,
                             natural_sum, parse_ordinal, render_ordinal)


def test_construction_validates():
    with pytest.raises(ValueError):
        Ordinal(-1, 0)
    with pytest.raises(ValueError):
        Ordinal(0, -2)
    with pytest.raises(TypeError):
        Ordinal(1.5, 0)
    assert Ordinal(0, 0) == ZERO
    assert Ordinal(1, 0) == OMEGA


def test_natural_sum_is_componentwise():
    assert natural_sum(Ordinal(2, 3), Ordinal(1, 4)) == Ordinal(3, 7)
    assert Ordinal(2, 3) + Ordinal(1, 4) == Ordinal(3, 7)
    # the natural sum ignores the order of the summands
    assert natural_sum(OMEGA, Ordinal(0, 1)) == natural_sum(Ordinal(0, 1), OMEGA)


def test_natural_sum_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        a = Ordinal(rng.randint(0, 9), rng.randint(0, 9))
        b = Ordinal(rng.randint(0, 9), rng.randint(0, 9))
        c = Ordinal(rng.randint(0, 9), rng.randint(0, 9))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + ZERO == a


def test_order_is_lexicographic():
    assert compare(Ordinal(0, 100), OMEGA) == HyperOrder.LESS
    assert compare(OMEGA, Ordinal(0, 100)) == HyperOrder.GREATER
    assert compare(Ordinal(2, 0), Ordinal(1, 50)) == HyperOrder.GREATER
    assert compare(Ordinal(3, 4), Ordinal(3, 4)) == HyperOrder.EQUAL
    assert Ordinal(1, 2) < Ordinal(1, 3) < Ordinal(2, 0)


def test_order_total_random():
    rng = random.Random(11)
    for _ in range(200):
        a = Ordinal(rng.randint(0, 5), rng.randint(0, 5))
        b = Ordinal(rng.randint(0, 5), rng.randint(0, 5))
        verdicts = [compare(a, b) == HyperOrder.LESS,
                    compare(a, b) == HyperOrder.EQUAL,
                    compare(a, b) == HyperOrder.GREATER]
        assert sum(verdicts) == 1
        if compare(a, b) == HyperOrder.LESS:
            assert compare(b, a) == HyperOrder.GREATER


def test_render_canonical():
    assert render_ordinal(ZERO) == "0"
    assert render_ordinal(Ordinal(0, 5)) == "5"
    assert render_ordinal(OMEGA) == "w*1"
    assert render_ordinal(Ordinal(3, 4)) == "w*3+4"
    assert render_ordinal(Ordinal(2, 0)) == "w*2"


def test_parse_render_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        o = Ordinal(rng.randint(0, 50), rng.randint(0, 50))
        assert parse_ordinal(render_ordinal(o)) == o
    assert parse_ordinal("w*3+4") == Ordinal(3, 4)
    assert parse_ordinal("w*1") == OMEGA
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("w*2+0") == Ordinal(2, 0)


def test_parse_rejects_junk():
    for bad in ("", "w*", "w", "3+4", "w*3+", "-1", "w*-2", "w*1+2+3", "omega"):
        with pytest.raises(ValueError):
            parse_ordinal(bad)


def test_is_finite():
    assert Ordinal(0, 9).is_finite
    assert ZERO.is_finite
    assert not OMEGA.is_finite
    assert not Ordinal(1, 3).is_finite
