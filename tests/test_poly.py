from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from qcenter import DimensionError, Poly, SymplecticSpace, monomials_of_degree
from qcenter.poly import monomial_key, monomial_table, poly_sum
from qcenter.sampling import sample_homogeneous_pairs, sample_polys, sample_triples

from oracle import random_poly


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


@pytest.mark.parametrize("nvars", range(7))
def test_monomials_of_degree_list_every_monomial_in_canonical_order(nvars):
    for degree in range(-1, 9):
        brute = sorted(
            (e for e in itertools.product(range(degree + 1), repeat=nvars)
             if sum(e) == degree),
            key=monomial_key,
        )
        assert monomials_of_degree(nvars, degree) == brute
    assert monomial_table(nvars, 8) == [
        monomials_of_degree(nvars, d) for d in range(9)
    ]


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


def test_poly_sum_matches_repeated_addition():
    rng = random.Random(31)
    for _ in range(20):
        polys = [random_poly(rng, 4, 3) for _ in range(rng.randint(0, 6))]
        polys.append(-polys[0] if polys else Poly.zero(4))  # cancels a whole addend
        expected = Poly.zero(4)
        for f in polys:
            expected = expected + f
        total = poly_sum(4, polys)
        assert total == expected
        assert all(c != 0 for c in total.terms.values())
    assert poly_sum(4, []) == Poly.zero(4)
    with pytest.raises(DimensionError):
        poly_sum(4, [Poly.variable(2, 0)])



def _oracle_terms(pairs) -> dict:
    """Sum of (exponent, coefficient) pairs, accumulated from zero with
    cancelled terms dropped at the end."""
    out: dict = {}
    for exp, coeff in pairs:
        out[exp] = out.get(exp, Fraction(0)) + coeff
    return {e: c for e, c in out.items() if c}


def _assert_clean(f: Poly):
    assert all(type(c) is Fraction and c != 0 for c in f.terms.values())


def test_ring_operations_match_oracle_and_store_only_nonzero_terms():
    rng = random.Random(41)
    for _ in range(60):
        a = random_poly(rng, 4, 3, max_terms=6)
        b = random_poly(rng, 4, 3, max_terms=6)
        # share some of a's terms, negated or repeated, so sums cancel
        for exp, coeff in list(a.terms.items())[: rng.randint(0, 3)]:
            b = b + Poly.monomial(4, exp, rng.choice([-coeff, coeff]))
        for result, expected in (
            (a + b, _oracle_terms([*a.terms.items(), *b.terms.items()])),
            (a - b, _oracle_terms([*a.terms.items(),
                                   *((e, -c) for e, c in b.terms.items())])),
            (a * b, _oracle_terms(
                (tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                for e1, c1 in a.terms.items() for e2, c2 in b.terms.items()
            )),
        ):
            assert result.terms == expected
            _assert_clean(result)
    f = random_poly(rng, 4, 3)
    assert (f - f).terms == {} and (f + -f).terms == {}
    assert (f * Poly.zero(4)).terms == {}


def test_weight_and_is_homogeneous_agree_with_weight_decompose():
    rng = random.Random(43)
    weights = (2, -1, 3, -2)
    polys = [Poly.zero(4), Poly.constant(4, 5)] + [
        random_poly(rng, 4, 4, max_terms=rng.randint(1, 4)) for _ in range(40)
    ]
    for f in polys:
        # the weights of the weight decomposition's components
        parts = {sum(w * e for w, e in zip(weights, exp)) for exp in f.terms}
        assert f.weight(weights) == (next(iter(parts)) if len(parts) == 1 else None)
        assert f.is_homogeneous(weights) == (len(parts) <= 1)
    assert Poly.zero(4).weight(weights) is None
    assert Poly.zero(4).is_homogeneous(weights)
    for f in (Poly.zero(4), Poly.variable(4, 0)):
        for query in (f.weight, f.is_homogeneous):
            with pytest.raises(DimensionError):
                query((1, 1, 1))


def _sample_digest(samples) -> str:
    """SHA-256 over the canonically sorted terms of every sampled polynomial."""
    h = hashlib.sha256()
    for item in samples:
        for f in item if isinstance(item, tuple) else (item,):
            h.update(repr([(e, str(c)) for e, c in f.sorted_terms()]).encode())
            h.update(b";")
        h.update(b"\n")
    return h.hexdigest()


def test_seeded_samples_are_pinned():
    # reports are built from these samples, so a sampler change that moves
    # one coefficient or one random draw changes the report bytes
    space = SymplecticSpace(2)
    assert _sample_digest(sample_triples(7, space, 200, 4)) == (
        "86cab9bdf58d36a36f3ed64fdec9f64181cb4dcceccd977b98c363689c4ac1fc"
    )
    assert _sample_digest(sample_homogeneous_pairs(7, space, 200, 4)) == (
        "dfc7cbc8c8bf3ec2b23e202c596dc4c33f32ead8dc0dce2fce91f3f450b671a4"
    )
    assert _sample_digest(sample_polys(7, space, 200, 6)) == (
        "de284c887c4e594474d4705d03c1be8f5128a2a7daae2237e1870482e3060dc8"
    )
    for f in sample_polys(7, space, 200, 6):
        _assert_clean(f)
