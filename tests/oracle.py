"""Independent reference implementations used only to cross-check results.

These deliberately avoid the package's contraction engine: the deformed
product is expanded by brute force over index sequences straight from its
defining formula, and products on several pairs can also be assembled from
single-pair factors.  The linear algebra references work on dense rows with
textbook pivoting, or with no elimination at all.  Enveloping-algebra words
are rewritten without a cache, in any descent order, and symmetrized by
averaging over every ordering.  Slow but unambiguous.

The ready-made Lie algebras and the seeded polynomial samplers that the
tests build their inputs from live here too, and so do the inputs of the
two center slices, built the way ``compare_centers`` builds them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product as iproduct
from math import factorial
from typing import Callable

from qcenter import (
    InvariantGenerator,
    LieAlgebraData,
    Poly,
    SymplecticSpace,
    UEnvElement,
    monomials_of_degree,
)
from qcenter import centers
from qcenter.poly import monomial_table


def brute_force_term(space: SymplecticSpace, f: Poly, g: Poly, level: int) -> Poly:
    """Order-``level`` expansion term summed over raw index sequences."""
    if level == 0:
        return f * g
    entries = space.bivector_entries()
    nv = space.nvars
    acc = Poly.zero(nv)
    for seq in iproduct(entries, repeat=level):
        ff, gg = f, g
        coeff = Fraction(1)
        for i, j, value in seq:
            coeff *= value
            ff = ff.partial(i)
            if ff.is_zero():
                break
            gg = gg.partial(j)
            if gg.is_zero():
                break
        else:
            acc = acc + (ff * gg).scale(coeff)
    return acc.scale(Fraction(1, 2**level * factorial(level)))


def brute_force_product(space: SymplecticSpace, f: Poly, g: Poly
                        ) -> dict[int, Poly]:
    """Full exact expansion {order: coefficient} straight from the formula."""
    out: dict[int, Poly] = {}
    bound = min(f.degree(), g.degree())
    for level in range(max(bound, 0) + 1):
        term = brute_force_term(space, f, g, level)
        if not term.is_zero():
            out[level] = term
    return out


def weyl_product(space: SymplecticSpace, a: Poly, b: Poly) -> Poly:
    """Exact product at parameter value 1: every order of the brute-force
    expansion summed."""
    return sum(brute_force_product(space, a, b).values(), Poly.zero(space.nvars))


def weight_zero_monomials(space: SymplecticSpace, torus_weights: list[int],
                          degree: int) -> list[Poly]:
    """Brute-force enumeration of monomials killed by a torus flow.

    ``torus_weights`` gives the weight of each q coordinate; the matching p
    coordinate carries the opposite weight.
    """
    n = space.pairs
    full = list(torus_weights) + [-w for w in torus_weights]
    out = []
    for exp in monomials_of_degree(space.nvars, degree):
        if sum(w * e for w, e in zip(full, exp)) == 0:
            out.append(Poly.monomial(space.nvars, exp))
    return out


def dense_rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Textbook Gauss–Jordan on a dense copy: sweep the columns left to
    right, swap a pivot row up, scale it to a leading 1 and clear the
    column in every other row."""
    m = [[Fraction(v) for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        pick = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if pick is None:
            continue
        m[top], m[pick] = m[pick], m[top]
        lead = m[top][col]
        m[top] = [v / lead for v in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
        top += 1
    return m[:top], pivots


def dense_nullspace(rows: list[list], ncols: int) -> list[list[Fraction]]:
    """Kernel basis read off ``dense_rref``: one vector per free column,
    ascending, with a 1 in its free column."""
    echelon, pivots = dense_rref(rows) if rows else ([], [])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pivot in zip(echelon, pivots):
            vec[pivot] = -row[free]
        basis.append(vec)
    return basis


def dense_in_span(f: Poly, polys: list[Poly]) -> bool:
    """Whether ``sum c_i polys[i] = f`` is solvable: Gauss–Jordan on the
    dense augmented matrix, one row per support monomial."""
    support = sorted({m for g in [*polys, f] for m in g.terms})
    rows = [[g.coefficient(m) for g in polys] + [f.coefficient(m)]
            for m in support]
    _, pivots = dense_rref(rows) if rows else ([], [])
    return len(polys) not in pivots


def spans_equal(a: list[Poly], b: list[Poly]) -> bool:
    """Equality of spans: each side lies in the span of the other, checked
    with ``dense_in_span``."""
    return (all(dense_in_span(f, b) for f in a)
            and all(dense_in_span(g, a) for g in b))


def power_products(generators: list[Poly], degree: int, nvars: int
                   ) -> list[Poly]:
    """Every product of powers of homogeneous generators of positive
    degree whose total degree is ``degree``, one per exponent tuple."""
    degrees = [g.degree() for g in generators]
    out = []
    for exps in iproduct(*(range(degree // d + 1) for d in degrees)):
        if sum(e * d for e, d in zip(exps, degrees)) == degree:
            prod = Poly.constant(nvars, 1)
            for g, e in zip(generators, exps):
                prod = prod * g**e
            out.append(prod)
    return out


def leibniz_determinant(matrix: list[list]) -> Fraction:
    """Determinant as the signed sum over permutations; no elimination."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(matrix[i][j])
            if term == 0:
                break
        total += term
    return total


def rewrite_word(lie: LieAlgebraData, word: tuple[int, ...],
                 pick: Callable[[list[int]], int]
                 ) -> dict[tuple[int, ...], dict[int, Fraction]]:
    """Sorted-word normal form by ``x_j x_i -> x_i x_j + h [x_j, x_i]``,
    rewriting at the position ``pick`` chooses from the list of descents.
    Nothing is cached, so every picker runs its own rewrite sequence."""
    descents = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if not descents:
        return {word: {0: Fraction(1)}}
    pos = pick(descents)
    b, a = word[pos], word[pos + 1]
    acc: dict[tuple[tuple[int, ...], int], Fraction] = {}
    branches = [(word[:pos] + (a, b) + word[pos + 2:], 0, Fraction(1))]
    branches += [(word[:pos] + (k,) + word[pos + 2:], 1, c)
                 for k, c in lie.bracket(b, a).items()]
    for w, shift, scale in branches:
        for v, hp in rewrite_word(lie, w, pick).items():
            for r, c in hp.items():
                acc[v, r + shift] = acc.get((v, r + shift), Fraction(0)) + c * scale
    out: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (v, r), c in acc.items():
        if c:
            out.setdefault(v, {})[r] = c
    return out


def symmetrize_by_orderings(lie: LieAlgebraData, s: Poly, order: int,
                            pick: Callable[[list[int]], int]) -> UEnvElement:
    """Symmetrization by its definition: each monomial's word averaged over
    all ``n!`` entries of ``permutations``, repeated orderings included,
    each rewritten by ``rewrite_word``; parameter powers above ``order``
    are dropped."""
    acc: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for exp, coeff in s.sorted_terms():
        word = tuple(i for i, e in enumerate(exp) for _ in range(e))
        orderings = list(permutations(word))
        weight = coeff / len(orderings)
        for perm in orderings:
            for v, hp in rewrite_word(lie, perm, pick).items():
                slot = acc.setdefault(v, {})
                for r, c in hp.items():
                    if r <= order:
                        slot[r] = slot.get(r, Fraction(0)) + c * weight
    return UEnvElement(lie, order, acc)


# -- ready-made algebras -------------------------------------------------------


def sl2_data() -> LieAlgebraData:
    """The rank-1 simple algebra on basis (e, h, f) with [h,e]=2e, [h,f]=-2f,
    [e,f]=h; the designated invariant is the quadratic Casimir."""
    brackets = {
        (1, 0): {0: Fraction(2)},   # [h, e] = 2e
        (1, 2): {2: Fraction(-2)},  # [h, f] = -2f
        (0, 2): {1: Fraction(1)},   # [e, f] = h
    }
    casimir = Poly(3, {(0, 2, 0): 1, (1, 0, 1): 4})  # h^2 + 4 e f
    return LieAlgebraData(3, ("e", "h", "f"), brackets,
                          [InvariantGenerator("casimir", casimir)])


def abelian_data(dim: int, labels: list[str] | None = None) -> LieAlgebraData:
    """Abelian algebra; every coordinate is a designated invariant."""
    labels = tuple(labels) if labels else tuple(f"t{i+1}" for i in range(dim))
    gens = [InvariantGenerator(labels[i], Poly.variable(dim, i)) for i in range(dim)]
    return LieAlgebraData(dim, labels, {}, gens)


# -- center inputs ---------------------------------------------------------------


def center_inputs(act, max_degree: int, test_degree: int, invariants=None):
    """``(invariants, table)`` for ``poisson_center_up_to`` and
    ``quantum_center_up_to``, by ``compare_centers``' steps: the invariants
    up to ``test_degree`` (unless given), their generators, the quantum test
    set and one commutator table to the action's truncation.  The steps are
    looked up in ``qcenter.centers`` at call time, so a test that
    monkeypatches one of them changes these inputs too."""
    centers.check_slicing_grading(act.space)
    if invariants is None:
        invariants = centers.invariants_up_to(act, test_degree)
    generators = centers.invariant_generators(invariants, test_degree)
    tests = centers.quantum_tests(act, invariants, test_degree, generators)
    table = centers._commutator_table(act, invariants, max_degree, tests,
                                      max(act.order, 1))
    return invariants, table


def poly_key(f: Poly) -> tuple:
    """A hashable key equal for equal polynomials (``Poly`` is unhashable)."""
    return f.nvars, tuple(f.sorted_terms())


# -- seeded samplers -------------------------------------------------------------

# A coefficient is a numerator, then a denominator out of (1, 1, 2), each
# drawn by one ``choice``: the draws of ``qcenter.sampling``.
_NUMERATORS = (-3, -2, -1, 1, 2, 3)
_DENOMINATORS = (1, 1, 2)


def random_poly(rng: random.Random, nvars: int, max_degree: int,
                max_terms: int = 4) -> Poly:
    """Sparse random polynomial of degree at most ``max_degree`` with 1 to
    ``max_terms`` drawn terms and small rational coefficients."""
    tables = monomial_table(nvars, max_degree)
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        mons = tables[rng.randint(0, len(tables) - 1)]
        exp = mons[rng.randrange(len(mons))]
        num = rng.choice(_NUMERATORS)
        terms[exp] = terms.get(exp, 0) + Fraction(num, rng.choice(_DENOMINATORS))
    return Poly(nvars, terms)


def random_homogeneous_poly(rng: random.Random, nvars: int, degree: int,
                            max_terms: int = 4) -> Poly:
    """Random homogeneous polynomial of the given degree with integer
    coefficients."""
    mons = monomials_of_degree(nvars, degree)
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, min(max_terms, len(mons)))):
        exp = mons[rng.randrange(len(mons))]
        terms[exp] = terms.get(exp, 0) + rng.choice(_NUMERATORS)
    return Poly(nvars, terms)
