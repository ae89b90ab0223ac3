"""Properties of the contraction kernel on generated operands.

Star associativity and the expansion terms are checked against the
brute-force formula of ``oracle.py``; a prepared operand reused against
partners of growing degree is checked against fresh operands.  The partners'
degree sums cross the packed-field boundaries at 16 and 32, so the reused
operand is repacked wider between calls.  Products alternating between
narrow and wide fields on one product object check that unpacked output
monomials are remembered per field width.  Operands that share monomials,
multiplied on one product object at several field widths, check the
derivative lists the product keeps per width and monomial; a spy shows each
list is built once.  Output coefficients are built once per product object
and shared between results, while every result stays a fresh dict that its
caller may change.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcenter import HSeries, Poly, StarProduct, SymplecticSpace  # noqa: E402
from qcenter.sampling import sample_triples  # noqa: E402
from qcenter.star import _Width, check_axioms  # noqa: E402

from oracle import brute_force_product  # noqa: E402

SPACE = SymplecticSpace(2, bivector=[
    ["0", "1/3", "1", "0"],
    ["-1/3", "0", "1/2", "1"],
    ["-1", "-1/2", "0", "2/3"],
    ["0", "-1", "-2/3", "0"],
])
STAR = StarProduct(SPACE, 6)
NV = SPACE.nvars
ZERO = Poly.zero(NV)

coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)
)


def exponents(max_degree: int):
    return st.tuples(*[st.integers(0, max_degree)] * NV).filter(
        lambda e: sum(e) <= max_degree
    )


def polys(max_degree: int, max_terms: int = 4):
    return st.dictionaries(exponents(max_degree), coefficients,
                           max_size=max_terms).map(lambda terms: Poly(NV, terms))


@st.composite
def sharing(draw):
    """Three polynomials whose terms come from one pool of at most five
    monomials of degree at most 3, so most of their monomials are shared."""
    pool = draw(st.lists(exponents(3), min_size=2, max_size=5, unique=True))
    return [
        Poly(NV, {e: draw(coefficients) for e in pool if draw(st.booleans())})
        for _ in range(3)
    ]


def homogeneous(degree: int):
    """Two-term polynomials of exactly ``degree`` in q1 and p1, plus a term
    in the other pair."""
    return st.tuples(
        st.integers(0, degree), st.integers(0, degree), coefficients, coefficients
    ).map(lambda t: Poly(NV, {
        (t[0], 0, degree - t[0], 0): t[2],
        (t[1], 0, degree - t[1], 0): t[2] + 1,
        (0, 1, 0, 1): t[3],
    }))


SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@SETTINGS
@given(polys(3), polys(3), polys(3))
def test_star_is_associative(f, g, h):
    left = STAR.expansion_product(STAR.product_terms(f, g), {0: h})
    right = STAR.expansion_product({0: f}, STAR.product_terms(g, h))
    assert left == right


@SETTINGS
@given(polys(3), polys(3))
def test_expansion_terms_match_oracle(f, g):
    fg = brute_force_product(SPACE, f, g)
    gf = brute_force_product(SPACE, g, f)
    assert STAR.product_terms(f, g) == fg
    commutator = {
        r: fg.get(r, ZERO) - gf.get(r, ZERO) for r in fg.keys() | gf.keys()
    }
    assert STAR.commutator_terms(f, g) == {
        r: c for r, c in commutator.items() if not c.is_zero()
    }


# degree exactly 4: a degree-4 term no draw of ``polys(3)`` can cancel
quartic = st.tuples(polys(3), coefficients).map(
    lambda t: t[0] + Poly.monomial(NV, (1, 1, 1, 1), t[1])
)


@SETTINGS
@given(quartic, homogeneous(2), homogeneous(12), homogeneous(28), polys(3))
def test_prepared_operand_reused_across_widths(a, small, mid, large, last):
    pa = STAR.prepare(a)
    widths = []
    # degree sums 6, 16, 32, 6 and at most 7: fields of 4, 5, 6 bits, and
    # the reused operand stays at 6 once widened
    for partner in (small, mid, large, small, last):
        prepared = STAR.prepare(partner)
        assert STAR.product_terms(pa, prepared) == STAR.product_terms(a, partner)
        assert STAR.commutator_terms(prepared, pa, 5) == STAR.commutator_terms(
            partner, a, 5
        )
        assert STAR.star(pa, prepared) == STAR.star(
            HSeries.from_poly(a, STAR.order), HSeries.from_poly(partner, STAR.order)
        )
        assert STAR.poisson(pa, partner) == STAR.poisson(a, partner)
        widths.append(pa.slots[0].bits)
    assert widths == [4, 5, 6, 6, 6]


@SETTINGS
@given(polys(3), polys(3), homogeneous(14), homogeneous(2))
def test_unpacked_monomials_are_kept_per_width(f, g, wide_f, wide_g):
    # degree sums at most 6, then 16, then at most 6 again: 4-bit fields,
    # then 5-bit fields, whose packed keys overlap the 4-bit ones
    star = StarProduct(SPACE, 6)
    for a, b in ((f, g), (wide_f, wide_g), (f, g)):
        assert star.product_terms(a, b) == brute_force_product(SPACE, a, b)


@SETTINGS
@given(polys(3), polys(3))
def test_equal_output_coefficients_are_one_object(f, g):
    # even orders of f*g and g*f are equal: D_l(g, f) = (-1)^l D_l(f, g)
    star = StarProduct(SPACE, 6)
    fg = star.product_terms(f, g)
    gf = star.product_terms(g, f)
    assert fg == brute_force_product(SPACE, f, g)
    assert gf == brute_force_product(SPACE, g, f)
    for r in fg.keys() & gf.keys():
        assert fg[r].terms is not gf[r].terms
        if r % 2 == 0:
            assert all(c is gf[r].terms[e] for e, c in fg[r].terms.items())


@SETTINGS
@given(polys(3), polys(3))
def test_mutating_a_result_leaves_later_products_alone(f, g):
    star = StarProduct(SPACE, 6)
    expected = brute_force_product(SPACE, f, g)
    first = star.product_terms(f, g)
    for r, term in list(first.items()):
        term.terms.popitem()
        first[r] = term.scale(2)
    first[99] = Poly.constant(NV, 1)
    assert star.product_terms(f, g) == expected
    assert star.product_terms(star.prepare(f), star.prepare(g)) == expected


@SETTINGS
@given(sharing())
def test_shared_monomials_across_widths_match_oracle(fgh):
    # one product object: partners of degree 16 and 32 put the shared
    # monomials into 5- and 6-bit fields between products at 4 bits
    f, g, h = fgh
    w16 = g + Poly.monomial(NV, (4, 4, 4, 4), 3)
    w32 = h + Poly.monomial(NV, (8, 8, 8, 8), Fraction(-1, 2))
    star = StarProduct(SPACE, 6)
    for a, b in ((f, g), (f, w16), (h, w32), (w16, g), (w32, f), (g, h)):
        assert star.product_terms(a, b) == brute_force_product(SPACE, a, b)


def test_each_derivative_list_is_built_once(monkeypatch):
    built = []
    derivatives = _Width.derivatives

    def spy(width, k, level):
        have = len(width.monomials.get(k, ()))
        levels = derivatives(width, k, level)
        built.extend((width.bits, k, l) for l in range(have, len(levels)))
        return levels

    monkeypatch.setattr(_Width, "derivatives", spy)
    star = StarProduct(SPACE, 6)
    triples = sample_triples(5, SPACE, 20, max_degree=4)
    # a degree-16 partner puts the sample monomials into 5-bit fields too
    wide = Poly.monomial(NV, (4, 4, 4, 4))
    for f, _, _ in triples:
        star.product_terms(f, wide)
    assert check_axioms(star, triples).passed
    assert {bits for bits, _, _ in built} == {4, 5}
    assert len(built) == len(set(built))
    built.clear()
    assert check_axioms(star, triples).passed
    assert built == []
