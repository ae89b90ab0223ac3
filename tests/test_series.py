from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import DimensionError, HSeries, Poly, TruncationError
from qcenter.sampling import random_poly


def test_slot_count_is_explicit():
    # the zero series stores no order, yet answers every order up to N
    s = HSeries.zero(2, 5)
    assert s.order == 5
    assert s.terms == {}
    assert all(s.coefficient(r).is_zero() for r in range(6))


def test_truncation_mismatch_raises():
    a = HSeries.one(2, 3)
    b = HSeries.one(2, 4)
    with pytest.raises(TruncationError):
        a + b
    with pytest.raises(TruncationError):
        a * b


def test_product_discards_high_orders():
    q = Poly.variable(2, 0)
    a = HSeries.from_poly(q, 2).hbar_shift(2)   # q h^2
    b = HSeries.from_poly(q, 2).hbar_shift(1)   # q h
    assert (a * b).is_zero()  # order 3 > truncation 2


def test_multiplication_agrees_with_higher_truncation():
    rng = random.Random(1729)
    for _ in range(10):
        low, high = 4, 9
        terms_a = {r: random_poly(rng, 2, 3) for r in range(low + 1)}
        terms_b = {r: random_poly(rng, 2, 3) for r in range(low + 1)}
        a_low = HSeries(2, low, terms_a)
        b_low = HSeries(2, low, terms_b)
        a_high = HSeries(2, high, terms_a)
        b_high = HSeries(2, high, terms_b)
        assert {
            r: f for r, f in (a_high * b_high).terms.items() if r <= low
        } == (a_low * b_low).terms


def test_hbar_shift_weights_and_substitution():
    q = Poly.variable(2, 0)
    s = HSeries.from_poly(q, 3) + HSeries.from_poly(
        Poly.constant(2, Fraction(1, 2)), 3
    ).hbar_shift(1)
    assert s.coefficient(1) == Poly.constant(2, Fraction(1, 2))
    assert s.substitute_unit() == q + Poly.constant(2, Fraction(1, 2))


def test_hbar_shift_moves_every_slot_and_drops_the_overflow():
    order = 4
    q = Poly.variable(2, 0)
    s = HSeries(2, order, {r: q.scale(r + 1) for r in range(order + 1)})
    for j in range(2 * order + 4):
        shifted = s.hbar_shift(j)
        assert shifted.order == order
        assert shifted.terms == {r: s.terms[r - j] for r in range(j, order + 1)}


def test_series_weight_detection():
    # q1 p1 + (1/2) h^2 is homogeneous for weights (-1,-1), parameter weight 2
    space_weights = (-1, -1)
    qp = Poly(2, {(1, 1): Fraction(1)})
    s = HSeries.from_poly(qp, 4) + HSeries.from_poly(
        Poly.constant(2, Fraction(1, 2)), 4
    ).hbar_shift(1)
    assert s.series_weight(space_weights, 2) == -2
    mixed = HSeries.from_poly(qp + Poly.variable(2, 0), 4)
    assert mixed.series_weight(space_weights, 2) is None


def test_first_nonzero_order():
    q = Poly.variable(2, 0)
    s = HSeries.from_poly(q, 5).hbar_shift(3)
    assert s.first_nonzero_order() == 3
    assert list(s.terms) == [3]
    assert s.terms[3] == q
    assert HSeries.zero(2, 2).first_nonzero_order() is None


def test_product_is_the_truncated_convolution():
    rng = random.Random(57)
    order = 4
    for _ in range(6):
        a = HSeries(4, order, {r: random_poly(rng, 4, 2) for r in range(order + 1)})
        b = HSeries(4, order, {r: random_poly(rng, 4, 2) for r in range(order)})
        product = a * b
        for r in range(order + 1):
            expected = Poly.zero(4)
            for i in range(r + 1):
                expected = expected + a.coefficient(i) * b.coefficient(r - i)
            assert product.coefficient(r) == expected
    # terms that cancel across pairs leave no stored order
    q = Poly.variable(2, 0)
    x = HSeries(2, 1, {0: q, 1: q})
    y = HSeries(2, 1, {0: q, 1: -q})
    assert (x * y).coefficient(1).is_zero()
    assert list((x * y).terms) == [0]



def test_terms_keep_only_nonzero_orders_in_increasing_order():
    q = Poly.variable(2, 0)
    s = HSeries(2, 6, {5: q, 0: Poly.zero(2), 2: q.scale(3)})
    assert list(s.terms) == [2, 5]
    assert s.classical_part().is_zero()
    assert (s + (-s)).terms == {}
    assert s.scale(0).terms == {}


def test_terms_outside_the_truncation_or_space_are_refused():
    q = Poly.variable(2, 0)
    with pytest.raises(TruncationError):
        HSeries(2, 3, {4: q})
    with pytest.raises(TruncationError):
        HSeries(2, 3, {-1: q})
    with pytest.raises(DimensionError):
        HSeries(3, 3, {0: q})


def test_a_huge_truncation_costs_only_the_nonzero_orders():
    q = Poly.variable(2, 0)
    order = 10**9
    s = HSeries.from_poly(q, order) + HSeries.one(2, order).hbar_shift(order)
    assert list(s.terms) == [0, order]
    assert (s * s).terms == {0: q * q, order: q.scale(2)}
    assert s.hbar_shift(1).terms == {1: q}
    assert s.substitute_unit() == q + Poly.constant(2, 1)
