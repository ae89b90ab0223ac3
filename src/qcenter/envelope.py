"""Deformed enveloping algebra on sorted-word normal forms.

Elements are finite sums of words in the Lie algebra basis with
polynomial coefficients in the central deformation parameter, truncated at
a fixed order.  Words are kept sorted non-decreasingly; the rewriting rule

    x_j x_i  ->  x_i x_j + h [x_j, x_i]      (j > i)

is applied until sorted.  The rewriting terminates and is confluent, so
normal forms are well defined.  An element, and the cached normal form of
a word, is one flat map ``{(sorted word, parameter power): coefficient}``
with no zero coefficients and no power above the truncation, so every
operation is one loop over one dict.  Setting the parameter to zero and reading
words as commutative monomials is the classical limit; averaging a
monomial over all orderings gives the symmetrization section, a linear
right inverse of the classical limit.  The average is built by the
first-letter recurrence ``sym(x^a) = sum_i (a_i / n) x_i sym(x^(a - e_i))``,
one element per exponent below the monomial rather than one word per
ordering.

The central section of a designated generator ``z`` is ``sym(z)`` plus
``h^r sym(c_r)`` for its corrections ``c_r``, and it is central with
classical limit ``z`` by construction, so neither is checked again.
Symmetrization commutes with the adjoint action, ``[x, sym(s)] =
h sym(ad_x s)`` for a basis element ``x``: ``ad x`` is a derivation of
the tensor algebra and of the symmetric algebra, and it maps symmetric
tensors to symmetric tensors (Dixmier, *Enveloping Algebras*, 2.4).
``LieAlgebraData`` checks that ``z`` and every ``c_r`` are ad-invariant,
so each ``sym`` term commutes with every generator, and so does its
product with the central parameter.  Each correction starts at order 1
or later, which ``LieAlgebraData`` checks too, so its term has classical
limit zero, and ``sym`` is a section.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DimensionError, TruncationError, ValidationError
from .liealg import LieAlgebraData
from .poly import Poly, as_scalar

Word = tuple[int, ...]
Key = tuple[Word, int]  # (sorted word, parameter power)


def _accumulate(acc: dict, key, value: Fraction) -> None:
    """Add ``value`` to ``acc[key]``, dropping the entry if it cancels."""
    old = acc.get(key)
    if old is None:
        acc[key] = value
    elif total := old + value:
        acc[key] = total
    else:
        del acc[key]


def normalize_word(lie: LieAlgebraData, word: Word) -> dict[Key, Fraction]:
    """Normal form of a single word as {(sorted word, parameter power):
    coefficient}.

    The leftmost descent is rewritten first; results are cached on the
    algebra.  The rewriting is confluent, so any other descent order gives
    the same normal form.
    """
    if word in lie._normal_forms:
        return lie._normal_forms[word]
    descents = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if not descents:
        result = {(word, 0): Fraction(1)}
    else:
        pos = descents[0]
        b, a = word[pos], word[pos + 1]
        result = dict(normalize_word(lie, word[:pos] + (a, b) + word[pos + 2 :]))
        for k, coeff in sorted(lie.bracket(b, a).items()):
            contracted = word[:pos] + (k,) + word[pos + 2 :]
            for (w, r), c in normalize_word(lie, contracted).items():
                _accumulate(result, (w, r + 1), c * coeff)
    lie._normal_forms[word] = result
    return result


class UEnvElement:
    """Normal-form element of the deformed enveloping algebra."""

    __slots__ = ("lie", "order", "terms")

    def __init__(
        self,
        lie: LieAlgebraData,
        order: int,
        terms: Mapping[Key, Fraction] | None = None,
    ):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        clean: dict[Key, Fraction] = {}
        for (word, r), c in (terms or {}).items():
            word, r, c = tuple(word), int(r), as_scalar(c)
            if any(not 0 <= i < lie.dim for i in word):
                raise DimensionError(f"word {word} uses indices out of range")
            if list(word) != sorted(word):
                raise ValidationError(f"word {word} is not in normal form")
            if c and 0 <= r <= order:
                clean[word, r] = c
        object.__setattr__(self, "lie", lie)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, lie: LieAlgebraData, order: int,
                 terms: dict[Key, Fraction]) -> "UEnvElement":
        """Wrap a term map without copying or checking it.  Only for maps
        the caller built itself from checked terms: sorted words over the
        algebra's indices, powers in 0..order and nonzero ``Fraction``
        coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "lie", lie)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("UEnvElement is immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(lie: LieAlgebraData, order: int) -> "UEnvElement":
        return UEnvElement(lie, order)

    @staticmethod
    def one(lie: LieAlgebraData, order: int) -> "UEnvElement":
        return UEnvElement(lie, order, {((), 0): Fraction(1)})

    @staticmethod
    def generator(lie: LieAlgebraData, index: int, order: int) -> "UEnvElement":
        return UEnvElement(lie, order, {((index,), 0): Fraction(1)})

    # -- structure ------------------------------------------------------------

    def _check(self, other: "UEnvElement"):
        if self.lie is not other.lie:
            raise DimensionError("elements over different algebras")
        if self.order != other.order:
            raise TruncationError("truncation mismatch")

    def __add__(self, other: "UEnvElement") -> "UEnvElement":
        self._check(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(acc, key, c)
        return UEnvElement._trusted(self.lie, self.order, acc)

    def scale(self, value) -> "UEnvElement":
        s = as_scalar(value)
        scaled = {key: c * s for key, c in self.terms.items()} if s else {}
        return UEnvElement._trusted(self.lie, self.order, scaled)

    def hbar_shift(self, j: int) -> "UEnvElement":
        shifted = {(w, r + j): c for (w, r), c in self.terms.items()
                   if 0 <= r + j <= self.order}
        return UEnvElement._trusted(self.lie, self.order, shifted)

    def __mul__(self, other: "UEnvElement") -> "UEnvElement":
        """Concatenate and normalize, bilinearly; truncates parameter powers.
        A pair whose powers already pass the truncation normalizes no word."""
        self._check(other)
        acc: dict[Key, Fraction] = {}
        for (w1, r1), c1 in self.terms.items():
            for (w2, r2), c2 in other.terms.items():
                r12 = r1 + r2
                if r12 > self.order:
                    continue
                c12 = c1 * c2
                for (w, r), c in normalize_word(self.lie, w1 + w2).items():
                    if r12 + r <= self.order:
                        _accumulate(acc, (w, r12 + r), c12 * c)
        return UEnvElement._trusted(self.lie, self.order, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UEnvElement)
            and self.lie is other.lie
            and self.order == other.order
            and self.terms == other.terms
        )

    # -- algebra maps ------------------------------------------------------------

    def classical_limit(self) -> Poly:
        """Set the parameter to zero; words become commutative monomials.
        Distinct sorted words give distinct monomials."""
        out: dict[tuple[int, ...], Fraction] = {}
        for (word, r), c in self.terms.items():
            if r == 0:
                exp = [0] * self.lie.dim
                for i in word:
                    exp[i] += 1
                out[tuple(exp)] = c
        return Poly(self.lie.dim, out)


# -- symmetrization and the central section -------------------------------------


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


def central_section(lie: LieAlgebraData, name: str, order: int) -> UEnvElement:
    """Central lift of a designated invariant generator: symmetrization
    plus the generator's recorded central correction terms.  It is central
    with classical limit the generator (module docstring)."""
    gen = lie.generator(name)
    lifted = symmetrize(lie, gen.poly, order)
    for r, corr in gen.section_correction:
        if r <= order:
            lifted = lifted + symmetrize(lie, corr, order).hbar_shift(r)
    return lifted
