from __future__ import annotations

from fractions import Fraction

import pytest

from qcenter import ParseError, Poly, parse_poly
from qcenter.errors import DegreeCapError


NAMES = ["q1", "p1"]


def test_basic_terms():
    assert parse_poly("q1", NAMES) == Poly.variable(2, 0)
    assert parse_poly("3/2", NAMES) == Poly.constant(2, Fraction(3, 2))
    assert parse_poly("q1*p1", NAMES) == Poly(2, {(1, 1): Fraction(1)})


def test_signs_and_powers():
    f = parse_poly("-q1^2 + 2*p1 - 1/3", NAMES)
    assert f == Poly(
        2, {(2, 0): Fraction(-1), (0, 1): Fraction(2), (0, 0): Fraction(-1, 3)}
    )


def test_parentheses():
    f = parse_poly("(q1 + p1)^2", NAMES)
    assert f == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("q1 + z", NAMES)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_poly("q1 )", NAMES)
    with pytest.raises(ParseError):
        parse_poly("q1 q1", NAMES)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse_poly("q1^(1/2)", NAMES)
    with pytest.raises(ParseError):
        parse_poly("q1^1/2 + ", NAMES)


def test_non_string_rejected():
    with pytest.raises(ParseError):
        parse_poly(12, NAMES)  # type: ignore[arg-type]


@pytest.mark.parametrize(
    "text, cap, degree",
    [
        ("(q1 + p1)^3000", 24, 3000),  # refused before the power is expanded
        ("q1^13 * p1^12", 24, 25),     # a product: the sum of the degrees
        ("q1^30 - q1^30", 24, 30),     # a partial result over the cap
        ("q1*p1*q1", 2, 3),
        ("q1", 0, 1),                  # the whole expression is capped too
    ],
)
def test_degree_cap_refuses_before_expanding(text, cap, degree):
    with pytest.raises(DegreeCapError) as info:
        parse_poly(text, NAMES, max_degree=cap)
    assert info.value.degree == degree


def test_degree_cap_admits_the_cap_itself():
    f = parse_poly("(q1 + p1)^24 - p1^24", NAMES, max_degree=24)
    assert f == parse_poly("(q1 + p1)^24 - p1^24", NAMES)
    assert f.degree() == 24
    assert parse_poly("0*q1^30", NAMES, max_degree=30).is_zero()


@pytest.mark.parametrize("text", ["2^100000", "(1/2)^8000", "(-3)^10000000000"])
def test_large_power_of_a_constant_is_refused(text):
    with pytest.raises(ParseError, match="power of a constant is too large"):
        parse_poly(text + "*q1", NAMES, max_degree=24)


def test_powers_of_constants_within_the_literal_size_parse():
    assert parse_poly("2^100*q1", NAMES) == Poly.monomial(2, (1, 0), 2**100)
    assert parse_poly("(-2/3)^3", NAMES) == Poly.constant(2, Fraction(-8, 27))
    # 0 and +-1 stay small whatever the exponent
    assert parse_poly("(-1)^100001 + 1^99999999 + 0^99999999", NAMES).is_zero()
