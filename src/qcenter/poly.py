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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionError

Exponent = tuple[int, ...]

#: Values accepted wherever a scalar is expected.
ScalarLike = "Fraction | int | str"


def as_scalar(value) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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

    __slots__ = ("nvars", "terms", "_hash")

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
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Exponent, Fraction]) -> "Poly":
        """Wrap a term dict without copying or checking it.  Only for dicts
        the caller built itself: exponents of length ``nvars`` and nonzero
        ``Fraction`` coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
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

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in the canonical graded-lex order (ascending)."""
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def leading_term(self) -> tuple[Exponent, Fraction]:
        """Largest term in the canonical order; raises on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=monomial_key)
        return exp, self.terms[exp]

    def __iter__(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.sorted_terms())

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def _check_same(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"operands over {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            val = out.get(exp, Fraction(0)) + coeff
            if val:
                out[exp] = val
            else:
                out.pop(exp, None)
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            val = out.get(exp, Fraction(0)) - coeff
            if val:
                out[exp] = val
            else:
                out.pop(exp, None)
        return Poly(self.nvars, out)

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
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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

    def __hash__(self) -> int:
        if self._hash is None:
            value = hash((self.nvars, tuple(self.sorted_terms())))
            object.__setattr__(self, "_hash", value)
        return self._hash

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

    def weight_decompose(self, weights: Sequence[int]) -> dict[int, "Poly"]:
        """Split into weight-homogeneous components under the given grading.

        The weight of a term is the dot product of its exponent tuple with
        ``weights``.  Components sum back to the original polynomial; the
        zero polynomial yields an empty map.
        """
        if len(weights) != self.nvars:
            raise DimensionError("weight vector length must match variable count")
        buckets: dict[int, dict[Exponent, Fraction]] = {}
        for exp, coeff in self.terms.items():
            w = sum(wi * ei for wi, ei in zip(weights, exp))
            buckets.setdefault(w, {})[exp] = coeff
        return {w: Poly(self.nvars, t) for w, t in sorted(buckets.items())}

    def weight(self, weights: Sequence[int]) -> int | None:
        """Weight if homogeneous under the grading, else None. Zero -> None."""
        parts = self.weight_decompose(weights)
        if len(parts) == 1:
            return next(iter(parts))
        return None

    def is_homogeneous(self, weights: Sequence[int]) -> bool:
        return len(self.weight_decompose(weights)) <= 1

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
            quotient[diff] = quotient.get(diff, Fraction(0)) + factor
            remainder = remainder - divisor * Poly.monomial(self.nvars, diff, factor)
        return Poly(self.nvars, quotient)

    def substitute(self, values: Sequence["Poly"]) -> "Poly":
        """Evaluate on polynomial arguments, one per variable."""
        if len(values) != self.nvars:
            raise DimensionError("substitution needs one value per variable")
        if not values:
            # no variables: the polynomial is a constant in a 0-variable ring
            raise DimensionError("cannot substitute into a 0-variable polynomial")
        target_nvars = values[0].nvars
        for v in values:
            if v.nvars != target_nvars:
                raise DimensionError("substitution values over different rings")
        # cache powers per variable
        max_exp = [0] * self.nvars
        for exp in self.terms:
            for i, e in enumerate(exp):
                max_exp[i] = max(max_exp[i], e)
        powers: list[list[Poly]] = []
        for i, v in enumerate(values):
            col = [Poly.constant(target_nvars, 1)]
            for _ in range(max_exp[i]):
                col.append(col[-1] * v)
            powers.append(col)
        result = Poly.zero(target_nvars)
        for exp, coeff in self.sorted_terms():
            term = Poly.constant(target_nvars, coeff)
            for i, e in enumerate(exp):
                if e:
                    term = term * powers[i][e]
            result = result + term
        return result

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


def monomials_of_degree(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, canonically ordered."""
    if degree < 0:
        return []
    out: list[Exponent] = []

    def rec(prefix: list[int], remaining: int, slot: int):
        if slot == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slot + 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    rec([], degree, 0)
    out.sort(key=monomial_key)
    return out

