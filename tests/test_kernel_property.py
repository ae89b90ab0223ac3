"""Properties of the contraction kernel on generated operands.

Star associativity and the expansion terms are checked against the
brute-force formula of ``oracle.py``; a prepared operand reused against
partners of growing degree is checked against fresh operands.  The partners'
degree sums cross the packed-field boundaries at 16 and 32, so the reused
operand is repacked wider between calls.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qcenter import Poly, StarProduct, SymplecticSpace  # noqa: E402

from oracle import brute_force_product  # noqa: E402

SPACE = SymplecticSpace(2, bivector=[
    ["0", "1/3", "1", "0"],
    ["-1/3", "0", "1/2", "1"],
    ["-1", "-1/2", "0", "2/3"],
    ["0", "-1", "-2/3", "0"],
])
STAR = StarProduct(SPACE, 6)
NV = SPACE.nvars

coefficients = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)
)


def polys(max_degree: int, max_terms: int = 4):
    exponents = st.tuples(*[st.integers(0, max_degree)] * NV).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Poly(NV, terms)
    )


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
        r: fg.get(r, SPACE.zero()) - gf.get(r, SPACE.zero()) for r in fg.keys() | gf.keys()
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
        assert STAR.star(pa, prepared) == STAR.star(STAR.embed(a), STAR.embed(partner))
        assert STAR.poisson(pa, partner) == STAR.poisson(a, partner)
        widths.append(pa.slots[0].bits)
    assert widths == [4, 5, 6, 6, 6]
