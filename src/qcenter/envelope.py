"""Deformed enveloping algebra on sorted-word normal forms.

Elements are finite sums of words in the Lie algebra basis with
polynomial coefficients in the central deformation parameter, truncated at
a fixed order.  Words are kept sorted non-decreasingly; the rewriting rule

    x_j x_i  ->  x_i x_j + h [x_j, x_i]      (j > i)

is applied until sorted.  The rewriting terminates and is confluent, so
normal forms are well defined.  Setting the parameter to zero and reading
words as commutative monomials is the classical limit; averaging a
monomial over all orderings gives the symmetrization section, a linear
right inverse of the classical limit that carries invariants to central
elements.  The average is built by the first-letter recurrence
``sym(x^a) = sum_i (a_i / n) x_i sym(x^(a - e_i))``, one element per
exponent below the monomial rather than one word per ordering.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DimensionError, TruncationError, ValidationError
from .liealg import LieAlgebraData
from .poly import Poly, as_scalar

Word = tuple[int, ...]
HPoly = dict[int, Fraction]  # parameter power -> coefficient


def _hpoly_add(a: HPoly, b: HPoly) -> HPoly:
    out = dict(a)
    for r, c in b.items():
        v = out.get(r)
        if v is None:
            out[r] = c
        elif v := v + c:
            out[r] = v
        else:
            del out[r]
    return out


def _hpoly_mul(a: HPoly, b: HPoly, order: int) -> HPoly:
    out: HPoly = {}
    for r1, c1 in a.items():
        for r2, c2 in b.items():
            r = r1 + r2
            if r > order:
                continue
            v = out.get(r)
            if v is None:
                out[r] = c1 * c2
            elif v := v + c1 * c2:
                out[r] = v
            else:
                del out[r]
    return out


def _hpoly_scale(a: HPoly, s: Fraction) -> HPoly:
    if s == 0:
        return {}
    return {r: c * s for r, c in a.items()}


def _hpoly_shift(a: HPoly, j: int, order: int) -> HPoly:
    return {r + j: c for r, c in a.items() if r + j <= order}


def normalize_word(lie: LieAlgebraData, word: Word) -> dict[Word, HPoly]:
    """Normal form of a single word as {sorted word: parameter polynomial}.

    The leftmost descent is rewritten first; results are cached on the
    algebra.  The rewriting is confluent, so any other descent order gives
    the same normal form.
    """
    if word in lie._normal_forms:
        return lie._normal_forms[word]
    descents = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if not descents:
        result = {word: {0: Fraction(1)}}
        lie._normal_forms[word] = result
        return result
    pos = descents[0]
    b, a = word[pos], word[pos + 1]
    swapped = word[:pos] + (a, b) + word[pos + 2 :]
    acc: dict[Word, HPoly] = {}
    for w, hp in normalize_word(lie, swapped).items():
        acc[w] = _hpoly_add(acc.get(w, {}), hp)
    for k, coeff in sorted(lie.bracket(b, a).items()):
        contracted = word[:pos] + (k,) + word[pos + 2 :]
        for w, hp in normalize_word(lie, contracted).items():
            shifted = {r + 1: c * coeff for r, c in hp.items()}
            acc[w] = _hpoly_add(acc.get(w, {}), shifted)
    result = {w: hp for w, hp in acc.items() if hp}
    lie._normal_forms[word] = result
    return result


class UEnvElement:
    """Normal-form element of the deformed enveloping algebra."""

    __slots__ = ("lie", "order", "terms")

    def __init__(
        self,
        lie: LieAlgebraData,
        order: int,
        terms: Mapping[Word, Mapping[int, Fraction]] | None = None,
    ):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        clean: dict[Word, HPoly] = {}
        if terms:
            for word, hpoly in terms.items():
                word = tuple(word)
                if any(not 0 <= i < lie.dim for i in word):
                    raise DimensionError(f"word {word} uses indices out of range")
                if list(word) != sorted(word):
                    raise ValidationError(f"word {word} is not in normal form")
                hp = {
                    int(r): as_scalar(c)
                    for r, c in hpoly.items()
                    if as_scalar(c) != 0 and 0 <= int(r) <= order
                }
                if hp:
                    clean[word] = hp
        object.__setattr__(self, "lie", lie)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("UEnvElement is immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(lie: LieAlgebraData, order: int) -> "UEnvElement":
        return UEnvElement(lie, order)

    @staticmethod
    def one(lie: LieAlgebraData, order: int) -> "UEnvElement":
        return UEnvElement(lie, order, {(): {0: Fraction(1)}})

    @staticmethod
    def generator(lie: LieAlgebraData, index: int, order: int) -> "UEnvElement":
        return UEnvElement(lie, order, {(index,): {0: Fraction(1)}})

    # -- structure ------------------------------------------------------------

    def _check(self, other: "UEnvElement"):
        if self.lie is not other.lie:
            raise DimensionError("elements over different algebras")
        if self.order != other.order:
            raise TruncationError("truncation mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "UEnvElement") -> "UEnvElement":
        self._check(other)
        acc = {w: dict(hp) for w, hp in self.terms.items()}
        for w, hp in other.terms.items():
            acc[w] = _hpoly_add(acc.get(w, {}), hp)
        return UEnvElement(self.lie, self.order, acc)

    def __sub__(self, other: "UEnvElement") -> "UEnvElement":
        return self + other.scale(-1)

    def scale(self, value) -> "UEnvElement":
        s = as_scalar(value)
        return UEnvElement(
            self.lie,
            self.order,
            {w: _hpoly_scale(hp, s) for w, hp in self.terms.items()},
        )

    def hbar_shift(self, j: int) -> "UEnvElement":
        return UEnvElement(
            self.lie,
            self.order,
            {w: _hpoly_shift(hp, j, self.order) for w, hp in self.terms.items()},
        )

    def __mul__(self, other: "UEnvElement") -> "UEnvElement":
        """Concatenate and normalize, bilinearly; truncates parameter powers."""
        self._check(other)
        acc: dict[Word, HPoly] = {}
        for w1, h1 in self.terms.items():
            for w2, h2 in other.terms.items():
                base = _hpoly_mul(h1, h2, self.order)
                if not base:
                    continue
                for w, hp in normalize_word(self.lie, w1 + w2).items():
                    total = _hpoly_mul(base, hp, self.order)
                    if total:
                        acc[w] = _hpoly_add(acc.get(w, {}), total)
        return UEnvElement(self.lie, self.order, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UEnvElement)
            and self.lie is other.lie
            and self.order == other.order
            and self.terms == other.terms
        )

    # -- algebra maps ------------------------------------------------------------

    def classical_limit(self) -> Poly:
        """Set the parameter to zero; words become commutative monomials."""
        out: dict[tuple[int, ...], Fraction] = {}
        for word, hp in self.terms.items():
            c = hp.get(0)
            if not c:
                continue
            exp = [0] * self.lie.dim
            for i in word:
                exp[i] += 1
            key = tuple(exp)
            old = out.get(key)
            out[key] = c if old is None else old + c
        return Poly(self.lie.dim, out)

    def commutator(self, other: "UEnvElement") -> "UEnvElement":
        return self * other - other * self


# -- symmetrization and centrality ------------------------------------------------


def symmetrize(lie: LieAlgebraData, s: Poly, order: int) -> UEnvElement:
    """Linear section of the classical limit by averaging over orderings.

    Each commutative monomial maps to the average of the normal forms of
    all its orderings, built by the first-letter recurrence: a fraction
    ``a_i / n`` of the orderings of ``x^a`` (degree ``n``) start with
    ``x_i``, and their tails run uniformly over the orderings of
    ``x^(a - e_i)``, so ``sym(x^a) = sum_i (a_i / n) x_i sym(x^(a - e_i))``
    with ``sym(1) = 1``.  One memo serves every term of ``s``: the cost is
    one element per exponent below a term, not one per ordering.
    Composing with ``classical_limit`` returns the input exactly, and
    adjoint-invariant inputs land in the center.
    """
    if s.nvars != lie.dim:
        raise DimensionError("polynomial does not live on this algebra")
    memo = {(0,) * lie.dim: UEnvElement.one(lie, order)}

    def sym(exp: tuple[int, ...]) -> UEnvElement:
        if exp not in memo:
            n = sum(exp)
            acc = UEnvElement.zero(lie, order)
            for i, e in enumerate(exp):
                if e:
                    first = UEnvElement.generator(lie, i, order)
                    tail = sym(exp[:i] + (e - 1,) + exp[i + 1 :])
                    acc = acc + (first * tail).scale(Fraction(e, n))
            memo[exp] = acc
        return memo[exp]

    result = UEnvElement.zero(lie, order)
    for exp, coeff in s.sorted_terms():
        result = result + sym(exp).scale(coeff)
    return result


def adjoint_invariant_check(a: UEnvElement) -> bool:
    """True iff the element commutes with every basis generator.

    For a reductive algebra this is exactly centrality of the element in
    the deformed enveloping algebra.
    """
    for i in range(a.lie.dim):
        gen = UEnvElement.generator(a.lie, i, a.order)
        if not gen.commutator(a).is_zero():
            return False
    return True


def central_section(lie: LieAlgebraData, name: str, order: int) -> UEnvElement:
    """Central lift of a designated invariant generator.

    Symmetrization plus the generator's recorded central correction terms.
    The result is validated to be central with unchanged classical part.
    """
    gen = lie.generator(name)
    lifted = symmetrize(lie, gen.poly, order)
    for r, corr in sorted(gen.corrections().items()):
        if r <= order:
            lifted = lifted + symmetrize(lie, corr, order).hbar_shift(r)
    if lifted.classical_limit() != gen.poly:
        raise ValidationError(
            f"section of {name!r} does not reduce to the generator"
        )
    if not adjoint_invariant_check(lifted):
        raise ValidationError(f"section of {name!r} is not central")
    return lifted
