from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import (
    HSeries,
    Poly,
    SymplecticSpace,
    ValidationError,
    algebraically_independent,
    invariants_up_to,
    weyl_commutator,
    weyl_specialize,
)

from oracle import random_homogeneous_poly, weyl_product


def test_specialize_quadratic_with_half(space1, star1):
    qp = space1.q(1) * space1.p(1)
    series = HSeries.from_poly(qp, star1.order) + HSeries.from_poly(
        Poly.constant(2, Fraction(1, 2)), star1.order
    ).hbar_shift(1)
    assert weyl_specialize(series, space1) == qp + Poly.constant(2, Fraction(1, 2))


def test_specialize_identity_on_plain_polynomials(space2, star2):
    f = space2.q(1) * space2.p(2)
    assert weyl_specialize(HSeries.from_poly(f, star2.order), space2) == f


def test_specialize_rejects_mixed_weights(space1, star1):
    mixed = (
        HSeries.from_poly(space1.q(1), star1.order)
        + HSeries.one(2, star1.order).hbar_shift(1)
    )
    # q1 has weight -1 while the shifted constant has weight -2
    with pytest.raises(ValidationError):
        weyl_specialize(mixed, space1)


def test_specialization_intertwines_products(space2, star2):
    rng = random.Random(90210)
    for _ in range(10):
        d1 = rng.randint(1, 3)
        d2 = rng.randint(1, 3)
        f = random_homogeneous_poly(rng, 4, d1)
        g = random_homogeneous_poly(rng, 4, d2)
        F, G = HSeries.from_poly(f, star2.order), HSeries.from_poly(g, star2.order)
        lhs = weyl_specialize(star2.star(F, G), space2)
        rhs = weyl_product(space2, weyl_specialize(F, space2), weyl_specialize(G, space2))
        assert lhs == rhs


def test_weyl_commutator_canonical_pair(space1, star1):
    q, p = space1.q(1), space1.p(1)
    assert weyl_commutator(star1, q, p) == space1.one()


def test_sl2_lift_central_at_unit_parameter(sl2_action):
    sp = sl2_action.space
    star = sl2_action.star
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    symbol = weyl_specialize(HSeries.from_poly(tr, star.order), sp)
    inv = invariants_up_to(sl2_action, 2)
    for degree in inv.degrees():
        for u in inv.basis(degree):
            assert weyl_commutator(star, symbol, u).is_zero()
    # and against the hamiltonians themselves
    for h in sl2_action.hamiltonians:
        assert weyl_commutator(star, symbol, h).is_zero()


def test_algebraic_independence():
    space = SymplecticSpace(2)
    q1p1 = space.q(1) * space.p(1)
    q2p2 = space.q(2) * space.p(2)
    assert algebraically_independent([q1p1, q2p2], space)
    assert algebraically_independent([q1p1 + q2p2], space)
    assert not algebraically_independent([q1p1, q1p1 * q1p1], space)
    assert algebraically_independent([], space)
