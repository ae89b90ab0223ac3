"""The Jacobi check and the adjoint derivation against brute-force sums.

``LieAlgebraData`` visits only the basis triples that hold a stated pair
and sums the adjoint derivation over the variables present in the
polynomial.  Seeded sparse tables, a stated zero and both orientations
among them, are compared with ``oracle.jacobi_failure``, the sum over
every triple, and ``oracle.ad_by_every_variable``, the sum over every
variable: the same verdict, the same message and the same polynomial.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import LieAlgebraData, ValidationError

from oracle import ad_by_every_variable, jacobi_failure, random_poly

SEEDS = range(10)
TABLES = 120  # per seed


def random_brackets(rng: random.Random, dim: int) -> dict:
    """Up to four stated brackets, each under a random orientation with up
    to two components; a bracket with none is a stated zero."""
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {}
    for i, j in rng.sample(pairs, rng.randint(0, min(4, len(pairs)))):
        if rng.random() < 0.5:
            i, j = j, i
        brackets[i, j] = {k: Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
                          for k in rng.sample(range(dim), rng.randint(0, 2))}
    return brackets


@pytest.mark.parametrize("seed", SEEDS)
def test_jacobi_verdicts_and_ad_apply_match_the_brute_force_sums(seed):
    rng = random.Random(seed)
    failing = 0
    for _ in range(TABLES):
        dim = rng.randint(3, 8)
        labels = [f"y{i}" for i in range(dim)]
        brackets = random_brackets(rng, dim)
        expected = jacobi_failure(dim, brackets)
        if expected is not None:
            failing += 1
            with pytest.raises(ValidationError) as info:
                LieAlgebraData(dim, labels, brackets)
            triple = ", ".join(labels[t] for t in expected)
            assert str(info.value) == f"Jacobi identity fails on basis triple ({triple})"
            continue
        lie = LieAlgebraData(dim, labels, brackets)
        s = random_poly(rng, dim, 3)
        for i in range(dim):
            assert lie.ad_apply(i, s) == ad_by_every_variable(dim, brackets, i, s)
    assert failing >= TABLES // 5
