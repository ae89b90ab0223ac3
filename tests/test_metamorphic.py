"""Metamorphic check of the center comparison: it does not depend on
linear symplectic coordinates.

A diagonal torus action (``h_k = sum_i w_ki q_i p_i`` with small integer
weights) is pushed through a seeded product of rational symplectic
transvections, ``x -> x + c {x, l} l`` for a linear form ``l``: the time-1
flow of the hamiltonian ``c l^2 / 2``, so a Poisson map that the Moyal
product respects.  No pushed hamiltonian is diagonal, so the invariant
solve takes the general elimination path instead of the weight-zero
shortcut.  Invariant dimensions, Poisson-center dimensions, quantum ranks
and the verdict must match the diagonal original at every degree.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import (
    HamiltonianAction,
    Poly,
    StarProduct,
    SymplecticSpace,
    compare_centers,
)
from qcenter.centers import _coordinate_brackets, _diagonal_weights

from oracle import abelian_data

# the pushed coefficients grow with each transvection, so the degrees are
# kept small enough for tier-1 time on three pairs
TRUNCATION, DEGREE = 4, 4
SEEDS = range(6)


def diagonal_torus(rng: random.Random, pairs: int) -> tuple[StarProduct, list[Poly]]:
    space = SymplecticSpace(pairs)
    rank = rng.randint(1, min(pairs, 2))
    hamiltonians = []
    for _ in range(rank):
        weights = [rng.choice((-2, -1, 1, 2)) for _ in range(pairs)]
        h = Poly.zero(space.nvars)
        for i, w in enumerate(weights, start=1):
            h = h + (space.q(i) * space.p(i)).scale(w)
        hamiltonians.append(h)
    return StarProduct(space, TRUNCATION), hamiltonians


def transvections(rng: random.Random, star: StarProduct, count: int) -> list[Poly]:
    """Images of the coordinates under a product of ``count`` transvections."""
    nv = star.space.nvars
    coordinates = [Poly.variable(nv, j) for j in range(nv)]
    images = coordinates
    for _ in range(count):
        form = Poly.zero(nv)
        while form.is_zero():
            for x in coordinates:
                form = form + x.scale(rng.randint(-2, 2))
        c = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
        step = [x + form.scale(c * star.poisson(x, form).constant_term())
                for x in coordinates]
        images = [f.substitute(step) for f in images]
    return images


def action(star: StarProduct, hamiltonians: list[Poly]) -> HamiltonianAction:
    names = [f"t{k}" for k in range(1, len(hamiltonians) + 1)]
    return HamiltonianAction(abelian_data(len(names), names), star, hamiltonians)


def profile(act: HamiltonianAction) -> tuple:
    """Per degree: invariant and Poisson-center dimensions and quantum
    rank; and the verdict."""
    report = compare_centers(act, DEGREE, DEGREE)
    rows = [(row.invariant_dim, row.poisson_dim, row.quantum_rank) for row in report.rows]
    return rows, report.passed


@pytest.mark.parametrize("seed", SEEDS)
def test_center_comparison_is_invariant_under_symplectic_transvections(seed):
    rng = random.Random(seed)
    pairs = 1 + seed % 3
    star, hamiltonians = diagonal_torus(rng, pairs)
    images = transvections(rng, star, 2 + seed % 2)
    nv = star.space.nvars
    # the images are a Poisson map: coordinate brackets are preserved
    for i in range(nv):
        for j in range(nv):
            expected = star.poisson(Poly.variable(nv, i), Poly.variable(nv, j))
            assert star.poisson(images[i], images[j]) == expected
    original = action(star, hamiltonians)
    pushed = action(star, [h.substitute(images) for h in hamiltonians])
    for act, diagonal in ((original, True), (pushed, False)):
        for h in act.hamiltonians:
            weights = _diagonal_weights(_coordinate_brackets(act, h))
            assert (weights is not None) is diagonal
    assert profile(pushed) == profile(original)
