from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import HSeries, Poly, TruncationError
from qcenter.sampling import random_poly


def test_slot_count_is_explicit():
    s = HSeries.zero(2, 5)
    assert len(s.coeffs) == 6
    assert all(f.is_zero() for f in s.coeffs)


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
        coeffs_a = [random_poly(rng, 2, 3) for _ in range(low + 1)]
        coeffs_b = [random_poly(rng, 2, 3) for _ in range(low + 1)]
        a_low = HSeries(2, low, coeffs_a)
        b_low = HSeries(2, low, coeffs_b)
        a_high = HSeries(2, high, coeffs_a)
        b_high = HSeries(2, high, coeffs_b)
        assert (a_high * b_high).truncate(low) == a_low * b_low


def test_hbar_shift_weights_and_substitution():
    q = Poly.variable(2, 0)
    s = HSeries.from_poly(q, 3) + HSeries.from_poly(
        Poly.constant(2, Fraction(1, 2)), 3
    ).hbar_shift(1)
    assert s.coefficient(1) == Poly.constant(2, Fraction(1, 2))
    assert s.substitute_unit() == q + Poly.constant(2, Fraction(1, 2))


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
    assert s.vanishes_below(3)
    assert not s.vanishes_below(4)
    assert HSeries.zero(2, 2).first_nonzero_order() is None


def test_product_is_the_truncated_convolution():
    rng = random.Random(57)
    order = 4
    for _ in range(6):
        a = HSeries(4, order, [random_poly(rng, 4, 2) for _ in range(order + 1)])
        b = HSeries(4, order, [random_poly(rng, 4, 2) for _ in range(order)])
        product = a * b
        for r in range(order + 1):
            expected = Poly.zero(4)
            for i in range(r + 1):
                expected = expected + a.coefficient(i) * b.coefficient(r - i)
            assert product.coefficient(r) == expected
    # terms that cancel across pairs leave an explicit zero slot
    q = Poly.variable(2, 0)
    x = HSeries(2, 1, [q, q])
    y = HSeries(2, 1, [q, -q])
    assert (x * y).coefficient(1).is_zero()

