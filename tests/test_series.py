from __future__ import annotations

from fractions import Fraction

import pytest

from qcenter import DimensionError, HSeries, Poly, TruncationError


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
        b + a


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
    assert (s + s).terms == {0: q.scale(2), order: Poly.constant(2, 2)}
    assert s.hbar_shift(1).terms == {1: q}
    assert s.substitute_unit() == q + Poly.constant(2, 1)


def test_there_is_no_plain_product():
    a = HSeries.one(2, 3)
    for other in (a, Poly.variable(2, 0), 2):
        with pytest.raises(TypeError):
            a * other
