"""Independent reference implementations used only to cross-check results.

These deliberately avoid the package's contraction engine: the deformed
product is expanded by brute force over index sequences straight from its
defining formula, and products on several pairs can also be assembled from
single-pair factors.  The linear algebra references work on dense rows with
textbook pivoting, or with no elimination at all.  Enveloping-algebra words
are rewritten without a cache, in any descent order, symmetrized by
averaging over every ordering, and multiplied by concatenation and
rewriting to test centrality.  The Jacobi identity is summed over every
basis triple and the adjoint derivation over every variable, from a dense
table of structure constants.  Slow but unambiguous.

The quantum condition is walked over every monomial up to the order of
the operator it states, and closure is checked with the deformed
commutator of every pair of quantum hamiltonians, both on the brute-force
product; the package reads both off the coefficients instead.

The ready-made Lie algebras, an action class that skips validation and
the seeded polynomial samplers that the tests build their inputs from live
here too, and so do the inputs of the two center slices, built the way
``compare_centers`` builds them, and the polynomial recurrence that the
invariant solve's generators must equal, whichever route finds them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from math import factorial
from typing import Callable

from qcenter import (
    HamiltonianAction,
    HSeries,
    InvariantGenerator,
    LieAlgebraData,
    Poly,
    StarProduct,
    SymplecticSpace,
    UEnvElement,
)
from qcenter import centers
from qcenter.linalg import independent_extension
from qcenter.poly import monomial_table, poly_sum


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


def brute_force_commutator(space: SymplecticSpace, F: dict[int, Poly],
                           G: dict[int, Poly], order: int) -> dict[int, Poly]:
    """``F*G - G*F`` of two expansions ``{order: coefficient}`` up to
    ``order``, its nonzero orders only, from the brute-force product of
    every pair of coefficients in both orders."""
    out: dict[int, Poly] = {}
    zero = Poly.zero(space.nvars)
    for (r, f), (s, g) in iproduct(F.items(), G.items()):
        fg, gf = brute_force_product(space, f, g), brute_force_product(space, g, f)
        for level in fg.keys() | gf.keys():
            if r + s + level <= order:
                out[r + s + level] = (out.get(r + s + level, zero)
                                      + fg.get(level, zero) - gf.get(level, zero))
    return {m: c for m, c in out.items() if not c.is_zero()}


def quantum_condition_holds(act: HamiltonianAction) -> bool:
    """``[H_hat, f] = hbar {H, f}`` modulo ``hbar^(N + 1)`` for every
    generator, by the exhaustive walk: the coefficient ``H^(r)`` enters
    only through contractions of order at most ``min(deg H^(r), N - r)``,
    so both sides differ by a differential operator of order at most the
    largest of these, which vanishes once it vanishes on every monomial up
    to that degree.  Each monomial is tried with the brute-force
    commutator."""
    space, order = act.space, act.order
    for h, hq in zip(act.hamiltonians, act.quantum_hamiltonians):
        bound = max((min(f.degree(), order - r) for r, f in hq.terms.items()),
                    default=0)
        for degree in range(bound + 1):
            for exp in monomial_table(space.nvars, degree)[degree]:
                f = Poly.monomial(space.nvars, exp)
                bracket = brute_force_term(space, h, f, 1).scale(2)
                expected = {1: bracket} if order >= 1 and not bracket.is_zero() else {}
                if brute_force_commutator(space, hq.terms, {0: f}, order) != expected:
                    return False
    return True


def quantum_hamiltonians_close(act: HamiltonianAction) -> bool:
    """``[H_hat_i, H_hat_j] = hbar sum_k c_ij^k H_hat_k`` modulo
    ``hbar^(N + 1)`` for every pair, by the brute-force commutator of the
    series."""
    for i, j in combinations(range(act.lie.dim), 2):
        rhs = HSeries.zero(act.space.nvars, act.order)
        for k, c in act.lie.bracket(i, j).items():
            rhs = rhs + act.quantum_hamiltonians[k].scale(c)
        lhs = brute_force_commutator(act.space, act.quantum_hamiltonians[i].terms,
                                     act.quantum_hamiltonians[j].terms, act.order)
        if lhs != rhs.hbar_shift(1).terms:
            return False
    return True


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
    for exp in monomial_table(space.nvars, degree)[degree]:
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


def densified(vectors: list[dict], ncols: int) -> list[list[Fraction]]:
    """Sparse ``{index: value}`` vectors written out as dense rows of
    ``ncols`` entries, for comparison with the dense references."""
    out = []
    for vec in vectors:
        row = [Fraction(0)] * ncols
        for col, value in vec.items():
            row[col] = value
        out.append(row)
    return out


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
                 ) -> dict[tuple[tuple[int, ...], int], Fraction]:
    """Sorted-word normal form by ``x_j x_i -> x_i x_j + h [x_j, x_i]``,
    as ``{(sorted word, parameter power): coefficient}``, rewriting at the
    position ``pick`` chooses from the list of descents.  Nothing is
    cached, so every picker runs its own rewrite sequence."""
    descents = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
    if not descents:
        return {(word, 0): Fraction(1)}
    pos = pick(descents)
    b, a = word[pos], word[pos + 1]
    acc: dict[tuple[tuple[int, ...], int], Fraction] = {}
    branches = [(word[:pos] + (a, b) + word[pos + 2:], 0, Fraction(1))]
    branches += [(word[:pos] + (k,) + word[pos + 2:], 1, c)
                 for k, c in lie.bracket(b, a).items()]
    for w, shift, scale in branches:
        for (v, r), c in rewrite_word(lie, w, pick).items():
            acc[v, r + shift] = acc.get((v, r + shift), Fraction(0)) + c * scale
    return {key: c for key, c in acc.items() if c}


def symmetrize_by_orderings(lie: LieAlgebraData, s: Poly, order: int,
                            pick: Callable[[list[int]], int]) -> UEnvElement:
    """Symmetrization by its definition: each monomial's word averaged over
    all ``n!`` entries of ``permutations``, repeated orderings included,
    each rewritten by ``rewrite_word``; parameter powers above ``order``
    are dropped."""
    acc: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for exp, coeff in s.sorted_terms():
        word = tuple(i for i, e in enumerate(exp) for _ in range(e))
        orderings = list(permutations(word))
        weight = coeff / len(orderings)
        for perm in orderings:
            for (v, r), c in rewrite_word(lie, perm, pick).items():
                if r <= order:
                    acc[v, r] = acc.get((v, r), Fraction(0)) + c * weight
    return UEnvElement(lie, order, acc)


def central_in_envelope(a: UEnvElement) -> bool:
    """Whether ``x a = a x`` for every basis element ``x``, that is,
    whether ``a`` is central.  Each product concatenates the words and
    rewrites them with ``rewrite_word`` at the first descent, dropping
    parameter powers above ``a.order``."""
    def product(left: dict, right: dict) -> dict:
        acc: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (w1, r1), c1 in left.items():
            for (w2, r2), c2 in right.items():
                for (w, r), c in rewrite_word(a.lie, w1 + w2, min).items():
                    if r1 + r2 + r <= a.order:
                        key = w, r1 + r2 + r
                        acc[key] = acc.get(key, Fraction(0)) + c1 * c2 * c
        return {key: c for key, c in acc.items() if c}

    generators = ({((i,), 0): Fraction(1)} for i in range(a.lie.dim))
    return all(product(x, a.terms) == product(a.terms, x) for x in generators)


# -- structure constants -------------------------------------------------------


def dense_structure_constants(dim: int, brackets: dict) -> list[list[dict[int, Fraction]]]:
    """``table[i][j]`` holds ``[x_i, x_j]`` as ``{k: c}`` for every pair,
    each stated bracket written under both orientations."""
    table: list[list[dict[int, Fraction]]] = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), comps in brackets.items():
        for k, c in comps.items():
            if c:
                table[i][j][k] = Fraction(c)
                table[j][i][k] = -Fraction(c)
    return table


def jacobi_failure(dim: int, brackets: dict) -> tuple[int, int, int] | None:
    """The first basis triple ``i < j < k`` in lexicographic order whose
    Jacobi sum is nonzero, summed over every triple; None when the
    identity holds."""
    table = dense_structure_constants(dim, brackets)
    for i, j, k in combinations(range(dim), 3):
        total = [Fraction(0)] * dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cab in table[a][b].items():
                for l, cmc in table[m][c].items():
                    total[l] += cab * cmc
        if any(total):
            return i, j, k
    return None


def ad_by_every_variable(dim: int, brackets: dict, i: int, s: Poly) -> Poly:
    """The adjoint derivation of ``x_i``: ``[x_i, x_j] * ds/dx_j`` summed
    over every variable ``x_j``."""
    table = dense_structure_constants(dim, brackets)
    acc = Poly.zero(dim)
    for j in range(dim):
        bracket = Poly(dim, {tuple(int(t == k) for t in range(dim)): c
                             for k, c in table[i][j].items()})
        acc = acc + s.partial(j) * bracket
    return acc


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


def diagonal_torus_action(seed: int, truncation: int = 2, paired: bool = False
                          ) -> tuple[HamiltonianAction, list[list[int]]]:
    """A seeded diagonal torus and its pair weights: 1-3 pairs and 0-2
    hamiltonians ``sum_i w_i q_i p_i``, each weight in -3..3.  When
    ``paired``, the bivector pairs each ``q_i`` with a seeded ``p_s(i)``, a
    permutation ``s`` of the pairs, at a seeded nonzero scale, and each
    hamiltonian is ``sum_i w_i q_i p_s(i)`` with the same rows."""
    rng = random.Random(seed)
    pairs = rng.randint(1, 3)
    rows = [[rng.randint(-3, 3) for _ in range(pairs)] for _ in range(rng.randint(0, 2))]
    space = SymplecticSpace(pairs)
    partner = list(range(pairs))
    if paired:
        scales = [rng.choice([-2, -1, Fraction(1, 2), 2, 3]) for _ in range(pairs)]
        rng.shuffle(partner)
        bivector = [[0] * space.nvars for _ in range(space.nvars)]
        for i, (j, c) in enumerate(zip(partner, scales)):
            bivector[i][pairs + j], bivector[pairs + j][i] = c, -c
        space = SymplecticSpace(pairs, bivector=bivector)
    hamiltonians = [poly_sum(space.nvars, [(space.q(i + 1) * space.p(j + 1)).scale(w)
                                           for i, (j, w) in enumerate(zip(partner, row))])
                    for row in rows]
    return HamiltonianAction(abelian_data(len(rows)), StarProduct(space, truncation),
                             hamiltonians), rows


class UncheckedAction(HamiltonianAction):
    """An action whose constructor runs no validation, for tests that
    break the moment checks on purpose.  Its quantum hamiltonians are
    prepared again from their own series once it is built: a package
    action's share the classical hamiltonians' slots, which only
    validation makes equal to their classical parts."""

    def __init__(self, *args):
        super().__init__(*args)
        self.prepared_quantum = tuple(map(self.star.prepare, self.quantum_hamiltonians))

    def validate(self):
        pass


# -- center inputs ---------------------------------------------------------------


def center_inputs(act, max_degree: int, test_degree: int, invariants=None):
    """``(invariants, table)`` for ``poisson_center_up_to`` and
    ``quantum_center_up_to``, by ``compare_centers``' steps: the invariants
    up to ``test_degree`` (unless given), their generators of degree at
    most ``test_degree``, which are the test set of both centers on a
    validated action, and one commutator table against them to the
    action's truncation.  The steps are looked up in ``qcenter.centers`` at
    call time, so a test that monkeypatches one of them changes these
    inputs too."""
    centers.check_slicing_grading(act.space)
    if invariants is None:
        invariants = centers.invariants_up_to(act, test_degree)
    generators = [g for g in invariants.generators if g.degree() <= test_degree]
    table = centers._commutator_table(act, invariants, max_degree, generators,
                                      max(act.order, 1))
    return invariants, table


def full_basis(invariants):
    """``invariants`` with its whole basis, constants included, as its
    generators: the test set the generators stand for."""
    return centers.Invariants._trusted(
        invariants.nvars, invariants.slices,
        [u for degree in sorted(invariants.slices) for u in invariants.basis(degree)])


def polynomial_generators(invariants, test_degree: int) -> list[Poly]:
    """The generators up to ``test_degree`` by the polynomial recurrence,
    whatever the input: going up degree by degree, the basis elements
    outside the span of the ``Poly`` products ``g * v`` of the generators
    kept so far with the basis of the complementary degree, by
    ``independent_extension``."""
    generators: list[Poly] = []
    for degree in sorted(invariants.slices):
        if 0 < degree <= test_degree:
            products = [g * v for g in generators
                        for v in invariants.basis(degree - g.degree())]
            generators += independent_extension(products, invariants.basis(degree))
    return generators


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
    mons = monomial_table(nvars, degree)[degree]
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, min(max_terms, len(mons)))):
        exp = mons[rng.randrange(len(mons))]
        terms[exp] = terms.get(exp, 0) + rng.choice(_NUMERATORS)
    return Poly(nvars, terms)
