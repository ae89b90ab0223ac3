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
from qcenter.sampling import random_poly

from oracle import brute_force_product, brute_force_term

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
            out[r] = out.get(r, space.zero()) + term
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
            assert star.product_terms(f, g, cap) == _capped(full, cap)


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
        bracket = space.zero()
        for i, j, value in space.bivector_entries():
            bracket = bracket + (f.partial(i) * g.partial(j)).scale(value)
        assert star.poisson(f, g) == bracket == full.get(1, space.zero())


def _series(space, rng, order) -> HSeries:
    slots = [random_poly(rng, space.nvars, 3) for _ in range(order + 1)]
    slots[1] = space.zero()
    slots[-1] = slots[-1].scale(Fraction(1, 3))
    return HSeries(space.nvars, order, slots)


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_series_products_match_oracle(kind):
    space = SPACES[kind]
    order = 3
    star = StarProduct(space, order)
    rng = random.Random(14)
    for _ in range(3):
        F, G = _series(space, rng, order), _series(space, rng, order)
        A, B = dict(enumerate(F.coeffs)), dict(enumerate(G.coeffs))
        product = _oracle_series(space, A, B, order)
        commutator = _oracle_series(space, A, B, order, commutator=True)
        for r in range(order + 1):
            assert star.star(F, G).coefficient(r) == product.get(r, space.zero())
            assert star.star_commutator(F, G).coefficient(r) == commutator.get(
                r, space.zero()
            )
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

