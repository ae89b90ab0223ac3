"""Deterministic random polynomial samples for executable checks.

All sampling is seeded; two runs with the same seed produce identical
samples, keeping reports byte-stable.  Each ``sample_*`` call lists the
monomials of every degree once and draws from those tables; homogeneous
pairs regroup them by weight under the space's weights, so each factor is
weight-homogeneous whatever the grading.  A coefficient
is drawn as a numerator and then a denominator, each by one ``choice``, and
read from a table of the 18 pairs built once at import, so drawing builds no
``Fraction``; only terms drawn twice add.  Terms that cancel are dropped.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import Exponent, Poly, monomial_table
from .space import SymplecticSpace

# Every coefficient a sample can draw: one row per numerator, over the
# denominators 1, 1 and 2.  Picking a row and then an entry makes the same
# two ``choice`` calls as drawing a numerator and then a denominator.
_COEFFICIENTS = [[Fraction(num, den) for den in (1, 1, 2)]
                 for num in (-3, -2, -1, 1, 2, 3)]
_WHOLE = [row[0] for row in _COEFFICIENTS]
# A sample has between 1 and this many terms, before any cancel.
_MAX_TERMS = 4


def _draw_poly(rng: random.Random, nvars: int, tables: list[list[Exponent]]
               ) -> Poly:
    terms: dict[Exponent, Fraction] = {}
    for _ in range(rng.randint(1, _MAX_TERMS)):
        mons = tables[rng.randint(0, len(tables) - 1)]
        exp = mons[rng.randrange(len(mons))]
        _add_term(terms, exp, rng.choice(rng.choice(_COEFFICIENTS)))
    return _poly(nvars, terms)


def _draw_homogeneous(rng: random.Random, nvars: int, mons: list[Exponent]
                      ) -> Poly:
    terms: dict[Exponent, Fraction] = {}
    for _ in range(rng.randint(1, min(_MAX_TERMS, len(mons)))):
        exp = mons[rng.randrange(len(mons))]
        _add_term(terms, exp, rng.choice(_WHOLE))
    return _poly(nvars, terms)


def _add_term(terms: dict[Exponent, Fraction], exp: Exponent, c: Fraction):
    old = terms.get(exp)
    terms[exp] = c if old is None else old + c


def _poly(nvars: int, terms: dict[Exponent, Fraction]) -> Poly:
    return Poly._trusted(nvars, {e: c for e, c in terms.items() if c})


def sample_triples(
    seed: int, space: SymplecticSpace, count: int, max_degree: int
) -> list[tuple[Poly, Poly, Poly]]:
    rng = random.Random(seed)
    nv = space.nvars
    tables = monomial_table(nv, max_degree)
    out = []
    for _ in range(count):
        out.append(
            (
                _draw_poly(rng, nv, tables),
                _draw_poly(rng, nv, tables),
                _draw_poly(rng, nv, tables),
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
    rng = random.Random(seed)
    nv = space.nvars
    classes = _weight_classes(space, max_degree)
    out = []
    for _ in range(count):
        c1 = rng.randint(0, len(classes) - 1)
        c2 = rng.randint(0, len(classes) - 1)
        out.append(
            (
                _draw_homogeneous(rng, nv, classes[c1]),
                _draw_homogeneous(rng, nv, classes[c2]),
            )
        )
    return out


def sample_polys(
    seed: int, space: SymplecticSpace, count: int, max_degree: int
) -> list[Poly]:
    rng = random.Random(seed)
    tables = monomial_table(space.nvars, max_degree)
    return [_draw_poly(rng, space.nvars, tables) for _ in range(count)]
