"""Every public contraction of ``StarProduct`` against the brute-force
expansion of ``oracle.py``.

The kernel works on integer numerators over common denominators, so the
operands include rational bivector entries across pairs, mixed
denominators, zero and constants.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import HSeries, Poly, StarProduct, SymplecticSpace
from qcenter.sampling import sample_triples

from oracle import brute_force_product, brute_force_term, random_poly

RATIONAL_BIVECTOR = [
    ["0", "1/3", "1", "0"],
    ["-1/3", "0", "1/2", "1"],
    ["-1", "-1/2", "0", "2/3"],
    ["0", "-1", "-2/3", "0"],
]
SPACES = {
    "standard": SymplecticSpace(2),
    "rational": SymplecticSpace(2, bivector=RATIONAL_BIVECTOR),
}


def _operands(space: SymplecticSpace, seed: int) -> list[Poly]:
    rng = random.Random(seed)
    nv = space.nvars
    mixed = Poly(nv, {
        (1, 0, 1, 0): Fraction(1, 3),
        (0, 2, 0, 1): Fraction(-5, 7),
        (0, 0, 0, 0): Fraction(2, 5),
    })
    return [random_poly(rng, nv, 3) for _ in range(3)] + [
        mixed, Poly.zero(nv), Poly.constant(nv, Fraction(-2, 3)),
    ]


def _pairs(space: SymplecticSpace, seed: int):
    ops = _operands(space, seed)
    return [(f, g) for f in ops for g in ops[::2]]


def _combine(space, expansions) -> dict[int, Poly]:
    """Sum of {order: Poly} maps, zero orders dropped."""
    out: dict[int, Poly] = {}
    for expansion in expansions:
        for r, term in expansion.items():
            out[r] = out.get(r, Poly.zero(space.nvars)) + term
    return {r: f for r, f in out.items() if not f.is_zero()}


def _oracle_commutator(space, f, g) -> dict[int, Poly]:
    fg = brute_force_product(space, f, g)
    gf = brute_force_product(space, g, f)
    minus = {r: -term for r, term in gf.items()}
    return _combine(space, [fg, minus])


def _oracle_series(space, A, B, cap, commutator=False) -> dict[int, Poly]:
    """sum_{a,b} hbar^(a+b) (A[a] B[b] or its commutator), orders <= cap."""
    pieces = []
    for a, fa in A.items():
        for b, gb in B.items():
            if fa.is_zero() or gb.is_zero():
                continue
            terms = (_oracle_commutator if commutator else brute_force_product)(
                space, fa, gb
            )
            pieces.append({
                a + b + level: term
                for level, term in terms.items()
                if cap is None or a + b + level <= cap
            })
    return _combine(space, pieces)


def _capped(expansion: dict[int, Poly], cap: int) -> dict[int, Poly]:
    return {r: f for r, f in expansion.items() if r <= cap}


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_product_terms_match_oracle(kind):
    space = SPACES[kind]
    star = StarProduct(space, 3)
    for f, g in _pairs(space, 11):
        full = brute_force_product(space, f, g)
        assert star.product_terms(f, g) == full
        for cap in range(4):
            capped = StarProduct(space, cap)
            product = capped.star(
                HSeries.from_poly(f, capped.order), HSeries.from_poly(g, capped.order)
            )
            assert product.terms == _capped(full, cap)


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_bidifferential_matches_oracle_at_each_level(kind):
    space = SPACES[kind]
    star = StarProduct(space, 3)
    for f, g in _pairs(space, 12):
        for level in range(4):
            assert star.bidifferential(f, g, level) == brute_force_term(
                space, f, g, level
            )
        # operands have degree at most 3
        assert star.bidifferential(f, g, 4).is_zero()


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_commutator_terms_and_poisson_match_oracle(kind):
    space = SPACES[kind]
    star = StarProduct(space, 3)
    for f, g in _pairs(space, 13):
        full = _oracle_commutator(space, f, g)
        assert star.commutator_terms(f, g) == full
        for cap in range(4):
            assert star.commutator_terms(f, g, cap) == _capped(full, cap)
        bracket = Poly.zero(space.nvars)
        for i, j, value in space.bivector_entries():
            bracket = bracket + (f.partial(i) * g.partial(j)).scale(value)
        assert star.poisson(f, g) == bracket == full.get(1, Poly.zero(space.nvars))


def _series(space, rng, order) -> HSeries:
    terms = {r: random_poly(rng, space.nvars, 3) for r in range(order + 1)}
    terms[1] = Poly.zero(space.nvars)
    terms[order] = terms[order].scale(Fraction(1, 3))
    return HSeries(space.nvars, order, terms)


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_series_products_match_oracle(kind):
    space = SPACES[kind]
    order = 3
    star = StarProduct(space, order)
    rng = random.Random(14)
    for _ in range(3):
        F, G = _series(space, rng, order), _series(space, rng, order)
        A, B = F.terms, G.terms
        product = _oracle_series(space, A, B, order)
        commutator = _oracle_series(space, A, B, order, commutator=True)
        zero = Poly.zero(space.nvars)
        for r in range(order + 1):
            assert star.star(F, G).coefficient(r) == product.get(r, zero)
            assert star.star_commutator(F, G).coefficient(r) == commutator.get(r, zero)
        assert star.expansion_product(A, B) == _oracle_series(space, A, B, None)


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_expansion_product_edge_operands(kind):
    space = SPACES[kind]
    star = StarProduct(space, 2)
    f, g, mixed, zero, const = _operands(space, 15)[1:]
    assert star.expansion_product({}, {0: f}) == {}
    assert star.expansion_product({0: zero, 2: zero}, {0: f}) == {}
    assert star.expansion_product({1: const}, {0: mixed}) == {1: const * mixed}
    A = {0: mixed, 3: g}
    B = {1: f, 2: mixed.scale(7)}
    assert star.expansion_product(A, B) == _oracle_series(space, A, B, None)


def test_wide_fields_match_oracle():
    # exponent sums of 16 and 32 need packed fields of 5 and 6 bits
    space = SymplecticSpace(1)
    star = StarProduct(space, 4)
    q, p = space.q(1), space.p(1)
    f = (q * p) ** 2 - q.scale(Fraction(1, 2))
    for g in (q**12 + p**5, q**13 * p**15 + (q * p) ** 7, p**28 - q**2):
        assert star.product_terms(f, g) == brute_force_product(space, f, g)
        prepared = star.prepare(g)
        assert star.product_terms(prepared, star.prepare(f)) == brute_force_product(
            space, g, f
        )


def test_high_levels_on_a_rational_bivector_match_oracle():
    # the symbol powers past level 3 carry the bivector's denominators
    # through their integer numerators; the other operands stop at degree 3
    space = SPACES["rational"]
    star = StarProduct(space, 5)
    q1, p1, q2, p2 = (space.q(1), space.p(1), space.q(2), space.p(2))
    f = (q1 * q1 * p2 * p2).scale(Fraction(2, 5)) - q2 * p1 * p1 * p2 + q1
    g = q1 * q2 * p1 * p2 - (p1 ** 4).scale(Fraction(1, 3)) + q2 ** 5
    for a, b in ((f, g), (g, f), (f, f)):
        expected = brute_force_product(space, a, b)
        assert max(expected) >= 4
        assert star.product_terms(a, b) == expected


def _uneven_expansion(space) -> dict[int, Poly]:
    """Low orders of small degree and denominator; the top order holds both
    the highest degree and the largest denominator."""
    q1, p1, q2, p2 = (space.q(1), space.p(1), space.q(2), space.p(2))
    return {
        0: q1 * p2 + p1.scale(Fraction(1, 2)),
        1: q2 * q2 - Poly.constant(space.nvars, 3),
        3: (q1 * q1 * p1 * p2 + q2 * p2 * p2).scale(Fraction(5, 11)),
    }


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_capped_expansion_drops_the_slot_that_sets_its_facts(kind):
    space = SPACES[kind]
    A = _uneven_expansion(space)
    f, g = _operands(space, 16)[:2]
    B = {0: f, 2: g}
    full = StarProduct(space, 3)
    pA, pB = full.prepare(A), full.prepare(B)
    assert full.product_terms(pA, pB) == _oracle_series(space, A, B, None)
    for cap in range(4):
        star = StarProduct(space, cap)
        # the truncation drops order 3 of A, and order 2 of B below cap 2
        qA, qB = star.prepare(A), star.prepare(B)
        assert star.star(qA, qB).terms == _oracle_series(space, A, B, cap)
        assert star.star_commutator(qA, qB).terms == _oracle_series(
            space, A, B, cap, commutator=True
        )
        assert full.commutator_terms(pA, pB, cap) == _oracle_series(
            space, A, B, cap, commutator=True
        )
        assert full.commutator_terms(pB, pA, cap) == _oracle_series(
            space, B, A, cap, commutator=True
        )


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_one_slot_shared_at_two_shifts(kind):
    space = SPACES[kind]
    star = StarProduct(space, 4)
    f, g, h = _operands(space, 17)[:3]
    pf = star.prepare(f)
    first = star.prepare({0: pf, 2: g})
    second = star.prepare({1: pf, 3: star.prepare(h)})
    A, B = {0: f, 2: g}, {1: f, 3: h}
    assert star.expansion_product(first, second) == _oracle_series(space, A, B, None)
    assert star.expansion_product(second, first) == _oracle_series(space, B, A, None)
    assert star.star(first, second).terms == _oracle_series(space, A, B, 4)
    assert star.commutator_terms(second, pf) == _oracle_series(
        space, B, {0: f}, None, commutator=True
    )


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_series_products_are_what_the_checking_constructor_keeps(kind):
    space = SPACES[kind]
    star = StarProduct(space, 3)
    rng = random.Random(18)
    for _ in range(3):
        F, G = _series(space, rng, 3), _series(space, rng, 3)
        for result in (star.star(F, G), star.star_commutator(F, G),
                       star.star(F, star.prepare(_uneven_expansion(space)))):
            checked = HSeries(space.nvars, 3, result.terms)
            assert list(result.terms.items()) == list(checked.terms.items())


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_equal_coefficients_of_two_products_are_one_object(kind):
    # (f*g)*h and f*(g*h) put their terms over different denominators; the
    # product's value table hands both sides the same Fraction per value
    space = SPACES[kind]
    star = StarProduct(space, 4)
    for f, g, h in sample_triples(19, space, 30, max_degree=4):
        left = star.expansion_product(star.product_terms(f, g), h)
        right = star.expansion_product(f, star.product_terms(g, h))
        assert left.keys() == right.keys()
        for r, term in left.items():
            assert term.terms.keys() == right[r].terms.keys()
            for e, c in term.terms.items():
                assert c is right[r].terms[e]
