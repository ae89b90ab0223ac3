"""Metamorphic checks: the results do not depend on linear coordinates,
symplectic ones or those of the Lie algebra.

A diagonal torus action (``h_k = sum_i w_ki q_i p_i`` with small integer
weights) is pushed through a seeded product of rational symplectic
transvections, ``x -> x + c {x, l} l`` for a linear form ``l``: the time-1
flow of the hamiltonian ``c l^2 / 2``, so a Poisson map that the Moyal
product respects.  No pushed hamiltonian is diagonal, so the invariant
solve takes the general elimination path instead of the weight-zero
shortcut.  Invariant dimensions, Poisson-center dimensions, quantum ranks
and the verdict must match the diagonal original at every degree.

The ``sl2_tstar_k2`` document is rewritten in a seeded rational basis
``y = M x`` of its Lie algebra: the labels, the structure constants, the
hamiltonians ``H_y = sum_i M_yi H_i`` and the generator with its section
correction, whose variables become ``x = M^-1 y``.  Symmetrization does not
depend on the basis and the comoment is linear, so every pullback, central
lift and lift is the same, and so is the whole JSON report, byte for byte.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from qcenter import (
    HamiltonianAction,
    Poly,
    StarProduct,
    SymplecticSpace,
    ValidationError,
    compare_centers,
)
from qcenter.centers import poisson_center_up_to, quantum_center_up_to
from qcenter.action import _diagonal_weights
from qcenter.parsing import parse_poly
from qcenter.poly import default_names
from qcenter.report import to_json
from qcenter.scenario import load_scenario, parse_scenario, preset_path, run_scenario

from oracle import abelian_data, center_inputs

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
        step = [x + form.scale(c * star.poisson(x, form).coefficient((0,) * nv))
                for x in coordinates]
        images = [f.substitute(step, nv) for f in images]
    return images


def action(star: StarProduct, hamiltonians: list[Poly]) -> HamiltonianAction:
    names = [f"t{k}" for k in range(1, len(hamiltonians) + 1)]
    return HamiltonianAction(abelian_data(len(names), names), star, hamiltonians)


def profile(act: HamiltonianAction) -> tuple:
    """Per degree: invariant and Poisson-center dimensions and quantum
    rank; and the verdict.  They are solved by ``compare_centers``' steps
    (``center_inputs``), which do not check the cutoff: a diagonal
    original below its exact cutoff is refused by ``compare_centers``, but
    the computation at one cutoff must still not depend on coordinates."""
    inputs = center_inputs(act, DEGREE, DEGREE)
    poisson = poisson_center_up_to(act, DEGREE, *inputs)
    quantum = quantum_center_up_to(act, DEGREE, *inputs)
    rows = [(inputs[0].dimension(d), poisson.dimension(d), quantum[d].rank)
            for d in range(DEGREE + 1)]
    return rows, all(p == rank for _, p, rank in rows)


def reported(act: HamiltonianAction) -> tuple:
    """``profile`` read off ``compare_centers``' report."""
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
    pushed = action(star, [h.substitute(images, nv) for h in hamiltonians])
    for act, diagonal in ((original, True), (pushed, False)):
        for brackets in act.coordinate_brackets:
            weights = _diagonal_weights(brackets)
            assert (weights is not None) is diagonal
    assert profile(pushed) == profile(original) == reported(pushed)
    # the pushed torus is not diagonal, so its cutoff is assumed; the
    # original's is exact, and seed 5 is below it (it needs 11)
    if seed == 5:
        with pytest.raises(ValidationError, match="below the exact cutoff 11"):
            reported(original)
    else:
        assert reported(original) == profile(original)


# -- a rotated Lie basis ----------------------------------------------------------


def inverse(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse of a square rational matrix, or None."""
    n = len(m)
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def rotated_lie_basis(doc: dict, rng: random.Random) -> dict:
    """The document with its Lie algebra written in a seeded basis."""
    lie = doc["lie_algebra"]
    old, dim = lie["labels"], lie["dim"]
    new = [f"y{a}" for a in range(1, dim + 1)]
    m, m_inv = None, None
    while m_inv is None:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
             for _ in range(dim)]
        m_inv = inverse(m)
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in lie["brackets"]:  # [x_i, x_j] = sum_k table[i][j][k] x_k
        i, j = old.index(entry["left"]), old.index(entry["right"])
        for label, c in entry["components"].items():
            k = old.index(label)
            table[i][j][k], table[j][i][k] = Fraction(c), -Fraction(c)
    brackets = []
    for a in range(dim):
        for b in range(a + 1, dim):
            components = {}
            for c in range(dim):
                value = sum(m[a][i] * m[b][j] * table[i][j][k] * m_inv[k][c]
                            for i in range(dim) for j in range(dim) for k in range(dim))
                if value:
                    components[new[c]] = str(value)
            if components:
                brackets.append({"left": new[a], "right": new[b],
                                 "components": components})
    old_in_new = [sum((Poly.variable(dim, c).scale(m_inv[k][c]) for c in range(dim)),
                      Poly.zero(dim)) for k in range(dim)]

    def rewritten(expr: str) -> str:
        return parse_poly(expr, old).substitute(old_in_new, dim).to_string(new)

    names = default_names(2 * doc["space"]["pairs"])
    hams = [parse_poly(doc["hamiltonians"][label], names) for label in old]
    rotated = json.loads(json.dumps(doc))
    rotated["lie_algebra"] = {
        "dim": dim,
        "labels": new,
        "brackets": brackets,
        "invariant_generators": [
            {**gen, "poly": rewritten(gen["poly"]), "section_correction": {
                r: rewritten(corr) for r, corr in gen.get("section_correction", {}).items()
            }}
            for gen in lie["invariant_generators"]
        ],
    }
    rotated["hamiltonians"] = {
        label: sum((h.scale(c) for h, c in zip(hams, row)), Poly.zero(len(names)))
        .to_string(names)
        for label, row in zip(new, m)
    }
    return rotated


@pytest.fixture(scope="module")
def sl2_report() -> str:
    return to_json(run_scenario(load_scenario("sl2_tstar_k2")))


@pytest.mark.parametrize("seed", range(4))
def test_sl2_report_is_invariant_under_a_rotated_lie_basis(seed, sl2_report):
    doc = json.loads(preset_path("sl2_tstar_k2").read_text())
    rotated = rotated_lie_basis(doc, random.Random(seed))
    assert rotated["lie_algebra"]["labels"] != doc["lie_algebra"]["labels"]
    assert to_json(run_scenario(parse_scenario(rotated))) == sl2_report
