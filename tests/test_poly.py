from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import DimensionError, Poly, monomials_of_degree
from qcenter.poly import monomial_key


def poly_of(text_terms):
    """Helper: dict {exponent: coeff} -> Poly with inferred nvars."""
    nvars = len(next(iter(text_terms)))
    return Poly(nvars, {e: Fraction(c) for e, c in text_terms.items()})


def test_difference_of_squares():
    q = Poly.variable(2, 0)
    p = Poly.variable(2, 1)
    assert (q + p) * (q - p) == q * q - p * p


def test_multiplication_by_zero_annihilates():
    f = poly_of({(2, 1): 3, (0, 0): Fraction(-1, 2)})
    assert (f * Poly.zero(2)).is_zero()
    assert (Poly.zero(2) * f).is_zero()


def test_binomial_expansion():
    q = Poly.variable(2, 0)
    one = Poly.constant(2, 1)
    cube = (q + one) ** 3
    expected = poly_of({(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 1})
    assert cube == expected


def test_zero_coefficients_never_stored():
    f = poly_of({(1, 0): 1})
    g = poly_of({(1, 0): -1})
    assert (f + g).terms == {}
    assert Poly(2, {(1, 0): Fraction(0)}).terms == {}


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        Poly.variable(2, 0) + Poly.variable(4, 0)
    with pytest.raises(DimensionError):
        Poly.variable(2, 0) * Poly.variable(4, 1)


def test_partial_derivative_power_rule():
    # d/dq1 (q1^2 p1) = 2 q1 p1
    f = poly_of({(2, 1): 1})
    assert f.partial(0) == poly_of({(1, 1): 2})


def test_partial_derivative_independent_variable():
    q1 = Poly.variable(4, 0)
    assert q1.partial(3).is_zero()


def test_mixed_partials():
    f = poly_of({(1, 1): 1})  # q1 p1 over n=1
    assert f.partial(0).partial(1) == Poly.constant(2, 1)


def test_partial_out_of_range():
    with pytest.raises(DimensionError):
        Poly.variable(2, 0).partial(5)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20240611)
    for nvars in (2, 4, 6):
        for _ in range(12):
            polys = []
            for _ in range(3):
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    deg = rng.randint(0, 8)
                    mons = monomials_of_degree(nvars, deg)
                    exp = mons[rng.randrange(len(mons))]
                    terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                polys.append(Poly(nvars, terms))
            a, b, c = polys
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a


def test_weight_decompose_matches_example():
    # q1 p1 + q1 with weights (-1, -1) splits into weights -2 and -1
    f = poly_of({(1, 1): 1, (1, 0): 1})
    parts = f.weight_decompose((-1, -1))
    assert set(parts) == {-2, -1}
    assert parts[-2] == poly_of({(1, 1): 1})
    assert parts[-1] == poly_of({(1, 0): 1})
    total = Poly.zero(2)
    for part in parts.values():
        total = total + part
    assert total == f


def test_weight_decompose_homogeneous_is_singleton():
    f = poly_of({(2, 0): 1, (1, 1): -3})
    assert list(f.weight_decompose((-1, -1))) == [-2]
    assert f.weight((-1, -1)) == -2


def test_weight_decompose_zero_is_empty():
    assert Poly.zero(2).weight_decompose((-1, -1)) == {}


def test_each_component_is_weight_eigenvector():
    rng = random.Random(7)
    weights = (2, -1, 3, -2)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exp = tuple(rng.randint(0, 3) for _ in range(4))
            terms[exp] = Fraction(rng.randint(-3, 3) or 1)
        f = Poly(4, terms)
        for w, part in f.weight_decompose(weights).items():
            assert part.weight(weights) == w


def test_canonical_term_order():
    # q1 < q2 < p1 < p2 within a fixed degree
    names_order = [
        (1, 0, 0, 0),  # q1
        (0, 1, 0, 0),  # q2
        (0, 0, 1, 0),  # p1
        (0, 0, 0, 1),  # p2
    ]
    keys = [monomial_key(m) for m in names_order]
    assert keys == sorted(keys)
    # grading dominates: any degree-1 monomial sorts before any degree-2 one
    assert monomial_key((0, 0, 0, 1)) < monomial_key((2, 0, 0, 0))


def test_divide_exact_roundtrip():
    rng = random.Random(99)
    for _ in range(15):
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 3) for _ in range(3))
                terms[exp] = Fraction(rng.randint(-3, 3) or 2)
            return Poly(3, terms)

        f, g = rand_poly(), rand_poly()
        product = f * g
        if g.is_zero():
            continue
        quotient = product.divide_exact(g)
        assert quotient == f


def test_divide_exact_detects_failure():
    q = Poly.variable(2, 0)
    one = Poly.constant(2, 1)
    assert one.divide_exact(q) is None
    assert (q + one).divide_exact(q) is None


def test_substitute_composes():
    # z(x, y) = x^2 + y evaluated on (q1 p1, q2) over n=2
    z = poly_of({(2, 0): 1, (0, 1): 1})
    q1p1 = Poly(4, {(1, 0, 1, 0): Fraction(1)})
    q2 = Poly.variable(4, 1)
    image = z.substitute([q1p1, q2])
    assert image == q1p1 * q1p1 + q2


def test_to_string_roundtrips_through_parser():
    from qcenter import parse_poly
    from qcenter.poly import default_names

    rng = random.Random(5)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            exp = tuple(rng.randint(0, 3) for _ in range(4))
            terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        f = Poly(4, terms)
        names = default_names(4)
        assert parse_poly(f.to_string(names), names) == f
