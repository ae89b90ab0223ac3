"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent tuples to ``fractions.Fraction``
coefficients.  Exponent tuple entry ``i`` is the power of variable ``i``;
on a symplectic space with ``n`` pairs the variables are ordered
``q_1, ..., q_n, p_1, ..., p_n``.  Zero coefficients are never stored, so
equality of the term maps is equality of polynomials.

The canonical term order is graded lexicographic: terms are compared first
by total degree, then by exponent tuple read from the *last* variable down
to the first, which makes ``q_1 < q_2 < ... < q_n < p_1 < ... < p_n`` as
variables.  All deterministic choices in the package (iteration order,
pivoting, printed output, leading terms for exact division) derive from
this order.

Substitution names its target ring: ``f.substitute(values, nvars)``
evaluates ``f`` on polynomials over ``nvars`` variables, so a polynomial
over no variables, a constant, is carried into any ring.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError

Exponent = tuple[int, ...]

#: Values accepted wherever a scalar is expected.
ScalarLike = "Fraction | int | str"


def as_scalar(value) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to an exact rational.

    Booleans are refused: a JSON ``true`` is not a number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact scalar: {value!r}")


def scalar_str(value: Fraction) -> str:
    """Render a rational as 'num' or 'num/den'."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def monomial_key(exponent: Exponent) -> tuple:
    """Graded-lex sort key; ascending sort yields the canonical order."""
    return (sum(exponent), tuple(reversed(exponent)))


class Poly:
    """Immutable sparse polynomial with exact rational coefficients.

    Instances are treated as immutable after construction; all operations
    return new objects, so values can be shared freely across threads.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = as_scalar(coeff)
                if coeff == 0:
                    continue
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise DimensionError(
                        f"exponent {exp} invalid for {nvars} variables"
                    )
                clean[exp] = coeff
        _set_nvars(self, nvars)
        _set_terms(self, clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap a term dict without copying or checking it.  Only for dicts
        the caller built itself: exponents of length ``nvars`` and nonzero
        ``Fraction`` coefficients."""
        self = object.__new__(cls)
        _set_nvars(self, nvars)
        _set_terms(self, terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: as_scalar(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return Poly(nvars, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(nvars: int, exponent: Sequence[int], coeff=1) -> "Poly":
        return Poly(nvars, {tuple(exponent): as_scalar(coeff)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in the canonical graded-lex order (ascending)."""
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Largest term in the canonical order; raises on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=monomial_key)
        return exp, self.terms[exp]

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def _check_same(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"operands over {self.nvars} and {other.nvars} variables"
            )

    # The ring operations start from clean operands, so their results need
    # no check: only terms that cancel are dropped.

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        out = dict(self.terms)
        get = out.get
        for exp, coeff in other.terms.items():
            val = get(exp)
            if val is None:
                out[exp] = coeff
            elif val := val + coeff:
                out[exp] = val
            else:
                del out[exp]
        return Poly._trusted(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        out = dict(self.terms)
        get = out.get
        for exp, coeff in other.terms.items():
            val = get(exp)
            if val is None:
                out[exp] = -coeff
            elif val := val - coeff:
                out[exp] = val
            else:
                del out[exp]
        return Poly._trusted(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, value) -> "Poly":
        value = as_scalar(value)
        if value == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {e: c * value for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same(other)
        out: dict[Exponent, Fraction] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                val = get(exp)
                out[exp] = c1 * c2 if val is None else val + c1 * c2
        return Poly._trusted(self.nvars, {e: c for e, c in out.items() if c})

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = Poly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    # -- calculus and grading -----------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise DimensionError(f"variable index {index} out of range")
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if exp[index]:
                lowered = list(exp)
                lowered[index] -= 1
                out[tuple(lowered)] = coeff * exp[index]
        return Poly(self.nvars, out)

    def _term_weights(self, weights: Sequence[int]) -> set[int]:
        """The set of weights of the terms under the grading."""
        if len(weights) != self.nvars:
            raise DimensionError("weight vector length must match variable count")
        return {sum(map(mul, weights, exp)) for exp in self.terms}

    def weight(self, weights: Sequence[int]) -> int | None:
        """Weight if homogeneous under the grading, else None. Zero -> None."""
        found = self._term_weights(weights)
        return found.pop() if len(found) == 1 else None

    def is_homogeneous(self, weights: Sequence[int]) -> bool:
        return len(self._term_weights(weights)) <= 1

    # -- division and substitution -------------------------------------------

    def divide_exact(self, divisor: "Poly") -> "Poly | None":
        """Return self / divisor when the division is exact, else None."""
        self._check_same(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly.zero(self.nvars)
        lead_exp, lead_coeff = divisor.leading_term()
        remainder = self
        quotient: dict[Exponent, Fraction] = {}
        while not remainder.is_zero():
            rexp, rcoeff = remainder.leading_term()
            diff = tuple(a - b for a, b in zip(rexp, lead_exp))
            if any(d < 0 for d in diff):
                return None
            factor = rcoeff / lead_coeff
            old = quotient.get(diff)
            quotient[diff] = factor if old is None else old + factor
            remainder = remainder - divisor * Poly.monomial(self.nvars, diff, factor)
        return Poly(self.nvars, quotient)

    def substitute(self, values: Sequence["Poly"], nvars: int) -> "Poly":
        """Evaluate on polynomial arguments over ``nvars`` variables, one per
        variable; a polynomial over no variables gives its constant."""
        if len(values) != self.nvars:
            raise DimensionError("substitution needs one value per variable")
        for v in values:
            if v.nvars != nvars:
                raise DimensionError("substitution values over another ring")
        # cache powers per variable
        max_exp = [0] * self.nvars
        for exp in self.terms:
            for i, e in enumerate(exp):
                max_exp[i] = max(max_exp[i], e)
        powers: list[list[Poly]] = []
        for i, v in enumerate(values):
            col = [Poly.constant(nvars, 1)]
            for _ in range(max_exp[i]):
                col.append(col[-1] * v)
            powers.append(col)
        summands = []
        for exp, coeff in self.sorted_terms():
            term = Poly.constant(nvars, coeff)
            for i, e in enumerate(exp):
                if e:
                    term = term * powers[i][e]
            summands.append(term)
        return poly_sum(nvars, summands)

    # -- formatting ----------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        """Canonical human-readable form, parseable by the expression parser."""
        if names is None:
            names = default_names(self.nvars)
        if self.is_zero():
            return "0"
        pieces: list[str] = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = scalar_str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = scalar_str(abs(coeff)) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self.to_string()})"


# Poly's slot setters: they bypass the refusing ``__setattr__`` at less than
# half the cost of ``object.__setattr__``
_set_nvars = Poly.nvars.__set__
_set_terms = Poly.terms.__set__


def poly_sum(nvars: int, polys: Iterable[Poly]) -> Poly:
    """Sum of polynomials over ``nvars`` variables, accumulated in one term
    dict (no intermediate polynomial per addend)."""
    out: dict[Exponent, Fraction] = {}
    get = out.get
    for f in polys:
        if f.nvars != nvars:
            raise DimensionError(f"operand over {f.nvars} variables, not {nvars}")
        for exp, coeff in f.terms.items():
            out[exp] = get(exp, 0) + coeff
    return Poly._trusted(nvars, {e: c for e, c in out.items() if c})


def default_names(nvars: int) -> list[str]:
    """Symplectic coordinate names q1..qn, p1..pn when nvars is even."""
    if nvars % 2 == 0:
        n = nvars // 2
        return [f"q{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    return [f"x{i+1}" for i in range(nvars)]


def monomial_table(nvars: int, max_degree: int) -> list[list[Exponent]]:
    """``table[d]`` lists the exponent tuples of total degree ``d``, for
    every ``d`` up to ``max_degree``, canonically ordered.

    The table grows one variable at a time, the new variable's exponent
    ascending outermost: ``monomial_key`` reads a tuple from the last
    variable down, so this is the canonical order and nothing is sorted."""
    table: list[list[Exponent]] = [[()]] + [[] for _ in range(max_degree)]
    for _ in range(nvars):
        table = [
            [t + (e,) for e in range(d + 1) for t in table[d - e]]
            for d in range(max_degree + 1)
        ]
    return table


def weight_zero_table(nvars: int, max_degree: int,
                      rows: Sequence[Sequence[int]]) -> list[list[Exponent]]:
    """``table[d]`` is ``weight_zero_monomials(nvars, d, rows)`` for every
    ``d`` up to ``max_degree``.  With no rows it is ``monomial_table``."""
    if not rows:
        return monomial_table(nvars, max_degree)
    return [weight_zero_monomials(nvars, degree, rows)
            for degree in range(max_degree + 1)]


def weight_zero_monomials(nvars: int, degree: int,
                          rows: Sequence[Sequence[int]]) -> list[Exponent]:
    """The exponent tuples ``e`` of total degree ``degree`` with
    ``sum(e_j * w_j) == 0`` for every integer row ``w`` in ``rows``,
    canonically ordered: the monomials of that degree filtered row by row.

    The list is a walk over the variables from the last to the first,
    each exponent ascending, so the last variable is outermost and the
    order is canonical without a sort.  Before variable ``v`` is assigned,
    each row knows the least and greatest weight ``lo``, ``hi`` of the
    variables below ``v``; with partial weight ``s`` and remaining degree
    ``m``, exponent ``e`` of ``v`` is feasible only if
    ``lo * (m - e) <= -(s + w_v * e) <= hi * (m - e)``.  That is linear in
    ``e``, so each row bounds ``e`` to an integer interval and the walk
    visits only their intersection.  Variable 0 takes the rest: below
    variable 1, ``lo == hi == w_0``, so there the bounds are exact."""
    if nvars < 2:  # at most one exponent, the degree itself
        free = nvars and not any(row[0] for row in rows)
        return [(degree,) * nvars] if free or not degree else []
    # steps[v]: the rows' weights w_v, and per row (w_v, lo, hi) with lo
    # and hi taken over the variables below v
    steps = [None] + [
        ([w[v] for w in rows], [(w[v], min(w[:v]), max(w[:v])) for w in rows])
        for v in range(1, nvars)
    ]

    def walk(v: int, m: int, sums: list[int], suffix: Exponent,
             out: list[Exponent]):
        weights, row_bounds = steps[v]
        first, last = 0, m
        for (w, lo, hi), s in zip(row_bounds, sums):
            a, b = w - lo, -s - lo * m  # a * e <= b
            if a > 0:
                last = min(last, b // a)
            elif a < 0:
                first = max(first, -(-b // a))
            elif b < 0:
                return
            a, b = w - hi, -s - hi * m  # a * e >= b
            if a > 0:
                first = max(first, -(-b // a))
            elif a < 0:
                last = min(last, b // a)
            elif b > 0:
                return
        if v == 1:
            out += [(m - e, e) + suffix for e in range(first, last + 1)]
            return
        for e in range(first, last + 1):
            walk(v - 1, m - e, [s + w * e for s, w in zip(sums, weights)],
                 (e,) + suffix, out)

    out: list[Exponent] = []
    walk(nvars - 1, degree, [0] * len(rows), (), out)
    return out


def weight_count_table(nvars: int, max_degree: int,
                       rows: Sequence[Sequence[int]]
                       ) -> list[dict[tuple[int, ...], int]]:
    """``table[d][w]`` counts the exponent tuples ``e`` of total degree
    ``d`` with ``W e == w``, ``W`` the matrix of the integer ``rows``, for
    every ``d`` up to ``max_degree``; a weight no monomial has is absent.
    Nothing is enumerated: the counts are the coefficients of
    ``prod_j 1 / (1 - t * x^(c_j))``, ``c_j`` the column of variable ``j``,
    and one pass per variable multiplies its factor in by
    ``N_d[w] += N_(d-1)[w - c_j]`` with ``d`` ascending, so ``N_(d-1)``
    already counts every power of ``x_j``."""
    table = [{(0,) * len(rows): 1}] + [{} for _ in range(max_degree)]
    for column in (zip(*rows) if rows else [()] * nvars):
        for below, here in zip(table, table[1:]):
            for w, n in below.items():
                key = tuple(map(add, w, column))
                here[key] = here.get(key, 0) + n
    return table


# the size budget: monomials of degree at most a run's test cutoff
MAX_CANDIDATES = 10**6


def monomial_count(nvars: int, degree: int, limit: int) -> int:
    """C(nvars + degree, degree), the number of monomials of degree at
    most ``degree`` in ``nvars`` variables, or the first partial product
    above ``limit``.  Each step at least doubles the count, so this takes
    at most about log2(limit) steps however large the inputs are."""
    k = min(nvars, degree)
    count = 1
    for i in range(1, k + 1):
        count = count * (nvars + degree - k + i) // i
        if count > limit:
            break
    return count
