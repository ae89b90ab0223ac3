"""Deterministic random polynomial samples for executable checks.

All sampling is seeded; two runs with the same seed produce identical
samples, keeping reports byte-stable.  Each ``sample_*`` call lists the
monomials of every degree once and draws from those tables; homogeneous
pairs regroup them by weight under the space's weights, so each factor is
weight-homogeneous whatever the grading.  A coefficient
is drawn as a numerator and then a denominator, each by one uniform index,
and read from a table of the 18 pairs built once at import, so drawing
builds no ``Fraction``; only terms drawn twice add.  Terms that cancel are
dropped.  Every index is drawn by ``_below``, which makes the same
``getrandbits`` calls as ``randrange``, ``randint`` and ``choice`` without
their wrappers, so the samples are those of the ``random`` methods.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction

from .poly import Exponent, Poly, monomial_table
from .space import SymplecticSpace

# Every coefficient a sample can draw: one row per numerator, over the
# denominators 1, 1 and 2.  Picking a row and then an entry makes the same
# two draws as drawing a numerator and then a denominator.
_COEFFICIENTS = [[Fraction(num, den) for den in (1, 1, 2)]
                 for num in (-3, -2, -1, 1, 2, 3)]
_WHOLE = [row[0] for row in _COEFFICIENTS]
# A sample has between 1 and this many terms, before any cancel.
_MAX_TERMS = 4


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)`` for ``n >= 1``, drawn from
    ``getrandbits`` exactly as ``Random._randbelow_with_getrandbits`` draws
    it, so ``_below(rng.getrandbits, n)`` is ``rng.randrange(n)``,
    ``a + _below(rng.getrandbits, b - a + 1)`` is ``rng.randint(a, b)`` and
    ``seq[_below(rng.getrandbits, len(seq))]`` is ``rng.choice(seq)``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_poly(bits: Callable[[int], int], nvars: int,
               tables: list[list[Exponent]]) -> Poly:
    terms: dict[Exponent, Fraction] = {}
    for _ in range(1 + _below(bits, _MAX_TERMS)):
        mons = tables[_below(bits, len(tables))]
        exp = mons[_below(bits, len(mons))]
        row = _COEFFICIENTS[_below(bits, len(_COEFFICIENTS))]
        _add_term(terms, exp, row[_below(bits, len(row))])
    return _poly(nvars, terms)


def _draw_homogeneous(bits: Callable[[int], int], nvars: int,
                      mons: list[Exponent]) -> Poly:
    terms: dict[Exponent, Fraction] = {}
    for _ in range(1 + _below(bits, min(_MAX_TERMS, len(mons)))):
        exp = mons[_below(bits, len(mons))]
        _add_term(terms, exp, _WHOLE[_below(bits, len(_WHOLE))])
    return _poly(nvars, terms)


def _add_term(terms: dict[Exponent, Fraction], exp: Exponent, c: Fraction):
    old = terms.get(exp)
    terms[exp] = c if old is None else old + c


def _poly(nvars: int, terms: dict[Exponent, Fraction]) -> Poly:
    return Poly._trusted(nvars, {e: c for e, c in terms.items() if c})


def sample_triples(
    seed: int, space: SymplecticSpace, count: int, max_degree: int
) -> list[tuple[Poly, Poly, Poly]]:
    bits = random.Random(seed).getrandbits
    nv = space.nvars
    tables = monomial_table(nv, max_degree)
    out = []
    for _ in range(count):
        out.append(
            (
                _draw_poly(bits, nv, tables),
                _draw_poly(bits, nv, tables),
                _draw_poly(bits, nv, tables),
            )
        )
    return out


def _weight_classes(space: SymplecticSpace, max_degree: int
                    ) -> list[list[Exponent]]:
    """Monomials of degree at most ``max_degree`` grouped by their weight
    under the space's weights, in the order the degree tables first reach
    each weight.  Under the uniform weights class d is the degree-d table."""
    classes: dict[int, list[Exponent]] = {}
    for mons in monomial_table(space.nvars, max_degree):
        for m in mons:
            weight = sum(e * w for e, w in zip(m, space.weights))
            classes.setdefault(weight, []).append(m)
    return list(classes.values())


def sample_homogeneous_pairs(
    seed: int, space: SymplecticSpace, count: int, max_degree: int
) -> list[tuple[Poly, Poly]]:
    """Pairs of weight-homogeneous polynomials of degree at most
    ``max_degree``, each factor drawn from one weight class."""
    bits = random.Random(seed).getrandbits
    nv = space.nvars
    classes = _weight_classes(space, max_degree)
    out = []
    for _ in range(count):
        c1 = _below(bits, len(classes))
        c2 = _below(bits, len(classes))
        out.append(
            (
                _draw_homogeneous(bits, nv, classes[c1]),
                _draw_homogeneous(bits, nv, classes[c2]),
            )
        )
    return out


def sample_polys(
    seed: int, space: SymplecticSpace, count: int, max_degree: int
) -> list[Poly]:
    bits = random.Random(seed).getrandbits
    tables = monomial_table(space.nvars, max_degree)
    return [_draw_poly(bits, space.nvars, tables) for _ in range(count)]
