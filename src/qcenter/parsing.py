"""Tiny expression parser for polynomials in scenario files and tests.

Grammar (whitespace-insensitive)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' integer)?
    atom   := rational | name | '(' expr ')'

Rationals are written ``3``, ``-1/2``; a zero denominator or a number
longer than ``int`` converts is a ``ParseError``.  Names must appear in
the supplied variable list.  Coefficients stay exact.  Under a degree
cap, a product or power is refused (``DegreeCapError``) before it is
expanded when the degrees of its operands add up past the cap, so a
later cancellation does not save it.  A power of a constant other than 0
and +-1 is refused (``ParseError``) before it is computed when its
coefficient could outgrow the longest literal, about 14,300 bits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import DegreeCapError, ParseError, echo
from .poly import Poly

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = match.end()
        for kind in ("number", "name", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    tokens.append(("end", ""))
    return tokens


def _number(value: str, convert):
    """``convert(value)`` for a number token; a zero denominator or more
    digits than ``int`` converts is a parse error."""
    try:
        return convert(value)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {echo(value)}") from None
    except ValueError:
        raise ParseError(f"number of {len(value)} characters is too long") from None


# bit length of the largest number of 4300 digits, the longest literal
# ``int`` converts by default
_LITERAL_BITS = 14_285


def _check_constant_power(base: Poly, exponent: int) -> None:
    """Refuse a power of a constant other than 0 and +-1 before it is
    computed when its numerator or denominator could grow past the longest
    literal."""
    (c,) = base.terms.values()
    if abs(c) == 1:
        return
    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
    if exponent * bits > _LITERAL_BITS:
        raise ParseError(
            f"power of a constant is too large: over {_LITERAL_BITS} bits"
        )


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], names: Sequence[str],
                 max_degree: int | None):
        self.tokens = tokens
        self.max_degree = max_degree
        self.pos = 0
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def capped(self, degree: int) -> None:
        """Refuse a result of this degree when it is over the cap."""
        if self.max_degree is not None and degree > self.max_degree:
            raise DegreeCapError(degree, self.max_degree)

    def expect_op(self, op: str):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {echo(value)}")

    def parse_expr(self) -> Poly:
        sign = 1
        kind, value = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        result = self.parse_term().scale(sign)
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                term = self.parse_term()
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.take()
                factor = self.parse_factor()
                self.capped(result.degree() + factor.degree())
                result = result * factor
            else:
                return result

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value = self.take()
            if kind != "number" or "/" in value:
                raise ParseError("exponent must be a non-negative integer")
            exponent = _number(value, int)
            self.capped(base.degree() * exponent)
            if base.degree() == 0:
                _check_constant_power(base, exponent)
            base = base ** exponent
        return base

    def parse_atom(self) -> Poly:
        kind, value = self.take()
        if kind == "number":
            return Poly.constant(self.nvars, _number(value, Fraction))
        if kind == "name":
            if value not in self.index:
                raise ParseError(
                    f"unknown variable {echo(value)} (known: {echo(', '.join(self.names))})"
                )
            return Poly.variable(self.nvars, self.index[value])
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.parse_atom()
        raise ParseError(f"unexpected token {echo(value)}")


def parse_poly(text: str, names: Sequence[str], *,
               max_degree: int | None = None) -> Poly:
    """Parse an expression into a polynomial over the named variables,
    of degree at most ``max_degree`` when one is given."""
    if not isinstance(text, str):
        raise ParseError(f"polynomial must be a string, got {type(text).__name__}")
    parser = _Parser(_tokenize(text), names, max_degree)
    result = parser.parse_expr()
    parser.capped(result.degree())
    kind, value = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting at {echo(value)}")
    return result
