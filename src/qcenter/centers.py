"""Degree-by-degree invariants, Poisson centers and quantum centers.

Invariance is infinitesimal: a polynomial is invariant when its bracket
with every hamiltonian vanishes (the group is connected, so this is
equivalent to invariance under the group).  Centers are computed per
degree as exact kernels:

* the Poisson-center slice collects invariants whose bracket with every
  invariant basis element up to a test cutoff vanishes;
* the quantum-center slice collects series with invariant homogeneous
  coefficients whose deformed commutator with every such test element
  vanishes modulo the truncation the action's product carries.

The scaling grading ties the coefficient degree at series order r to
``d - k*r``, which makes each quantum slice finite-dimensional.  The
constraint system of a slice is linear in all its series coefficients at
once: the rows of every test element go into one elimination, and the
kernel is read once per slice.

Both systems are shrunk without changing any answer:

* *Weight-zero candidates.*  A hamiltonian is diagonal when its bracket
  with each coordinate is a multiple of it, ``{h, x_j} = w_j * x_j``
  (tested through the bracket, so any constant bivector works).  The
  bracket is a derivation, so it scales the monomial ``x^e`` by
  ``sum(e_j * w_j)``; only monomials of weight zero for every diagonal
  hamiltonian can be invariant, and only the other hamiltonians are
  eliminated.  The dropped columns are unit rows of the full system,
  which the canonical kernel sets to zero, so every basis is unchanged.
  The same derivation rule, ``{h, x^e} = sum_j e_j x^(e - eps_j) {h, x_j}``,
  builds the rows of the other hamiltonians from their coordinate
  brackets: each hamiltonian is bracketed with the coordinates once per
  solve, and no candidate goes through the kernel.
* *Generators as test elements.*  ``invariant_generators`` keeps, degree
  by degree, the invariants that are not products of lower-degree ones.
  The bracket is a biderivation, so an invariant that brackets to zero
  with the generators does so with every invariant up to the cutoff.  The
  deformed commutator is a derivation of the product, and when every
  hamiltonian has degree at most 2 the product is invariant under the
  action, so ``g * v`` is the deformed product of ``g`` and ``v`` minus
  higher-order terms that are invariants of lower degree; by induction on
  the degree, commuting with the generators modulo the truncation is then
  commuting with every invariant.  Both centers use the generators under
  that condition and the full test set otherwise (``quantum_tests``).
  Either way the solution space is the same, and the kernel bases are
  canonical.  The argument holds for any series, so the scenario's lift
  tasks test centrality against the same set.  ``compare_centers``
  computes the invariants and their generators once and returns the
  generators with its report.

Both centers read one commutator table: ``commutator_terms(b, u)`` for
every invariant basis element ``b`` up to the degree bound and every test
element ``u``, each pair expanded once, with ``b`` and ``u`` prepared
(``StarProduct.prepare``) once.  ``compare_centers`` builds the table once,
to the action's truncation, and hands it and the invariants to both center
functions; the table lives for one call.  Both slices go through one
kernel routine (``_center_kernel``): in every test column, block ``(r, b)``
reads the orders of its entry up to a top order minus ``r``, raised by
``r``.  The quantum slice reads up to the truncation, and a basis element
that stands at several series orders is expanded once, not once per
order.  The Poisson slice is the case ``r = 0`` with top order 1: the
Poisson bracket is the order-1 term of the commutator.

The reported quantum rank counts classical parts: it is the dimension of
the image of the slice under reduction modulo the deformation parameter.
Series divisible by the parameter are exactly the lifts of lower-degree
slices shifted up, so this rank is the number against which the classical
Poisson-center dimension is compared.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import NamedTuple, Sequence

from .action import HamiltonianAction
from .errors import ValidationError
from .linalg import (
    EchelonAccumulator,
    GradedSubspace,
    independent_extension,
    reduce_poly_span,
    span_combinations,
)
from .poly import Exponent, Poly, monomial_key, monomial_table, poly_sum
from .series import HSeries


def invariants_up_to(act: HamiltonianAction, max_degree: int) -> GradedSubspace:
    """Per-degree bases of polynomials killed by every hamiltonian bracket.

    Candidates are the monomials of weight zero for every diagonal
    hamiltonian; the rows of the others come from their brackets with
    the coordinates, taken once (``_add_bracket_rows``).
    """
    if max_degree < 0:
        raise ValidationError("degree bound must be non-negative")
    nv = act.space.nvars
    weights: list[list[int]] = []
    others = []  # _derivation_terms of each non-diagonal hamiltonian
    for h in act.hamiltonians:
        brackets = _coordinate_brackets(act, h)
        w = _diagonal_weights(brackets)
        if w is None:
            others.append(_derivation_terms(brackets, max_degree))
        else:  # only the zero set matters: scale to integers
            scale = lcm(*(x.denominator for x in w))
            weights.append([int(x * scale) for x in w])
    one = Fraction(1)
    slices: dict[int, list[Poly]] = {}
    for degree, candidates in enumerate(monomial_table(nv, max_degree)):
        for w in weights:
            candidates = [m for m in candidates if not sum(map(mul, m, w))]
        if not others:
            slices[degree] = [Poly._trusted(nv, {m: one}) for m in candidates]
            continue
        solver = EchelonAccumulator(len(candidates))
        for terms in others:
            _add_bracket_rows(solver, terms, candidates)
        slices[degree] = [
            Poly._trusted(nv, {m: c for m, c in zip(candidates, vec) if c})
            for vec in solver.kernel()
        ]
    return GradedSubspace(nv, slices)


def _coordinate_brackets(act: HamiltonianAction, h: Poly) -> list[Poly]:
    """``{h, x_j}`` for every coordinate ``x_j``."""
    nv = act.space.nvars
    ph = act.star.prepare(h)
    return [act.star.poisson(ph, Poly.variable(nv, j)) for j in range(nv)]


def _diagonal_weights(brackets: Sequence[Poly]) -> list[Fraction] | None:
    """The weights ``w_j`` with ``{h, x_j} = w_j * x_j`` read off the
    coordinate brackets of ``h``, or None when they are not diagonal."""
    weights = []
    for j, bracket in enumerate(brackets):
        (exp,) = Poly.variable(bracket.nvars, j).terms
        if bracket.terms.keys() - {exp}:
            return None
        weights.append(bracket.terms.get(exp, Fraction(0)))
    return weights


def _derivation_terms(brackets: Sequence[Poly], max_degree: int) -> list:
    """``terms[j][k]`` lists the terms of ``k * {h, x_j} / x_j`` for the
    coordinate brackets ``brackets[j] = {h, x_j}`` and every ``k`` up to
    ``max_degree`` (none for 0); an exponent may read -1 at ``j``."""
    out = []
    for j, bracket in enumerate(brackets):
        lowered = [(tuple(a - (i == j) for i, a in enumerate(mono)), coeff)
                   for mono, coeff in bracket.terms.items()]
        out.append([[]] + [[(mono, coeff * k) for mono, coeff in lowered]
                           for k in range(1, max_degree + 1)])
    return out


def _add_bracket_rows(solver: EchelonAccumulator, terms: list,
                      candidates: Sequence[Exponent]):
    """Require ``{h, sum_c v_c * x^c} == 0`` over the candidate monomials,
    given the ``_derivation_terms`` of ``h``.  The bracket is a derivation,
    ``{h, x^e} = sum_j e_j * x^(e - eps_j) * {h, x_j}``, so these are the
    rows ``_add_coefficient_rows`` makes of the brackets ``{h, x^e}``: one
    per output monomial in canonical order, columns in candidate order,
    cancelled entries dropped."""
    rows: dict[Exponent, dict[int, Fraction]] = {}
    for col, e in enumerate(candidates):
        for ej, scaled in zip(e, terms):
            for mono, coeff in scaled[ej]:
                row = rows.setdefault(tuple(map(add, mono, e)), {})
                old = row.get(col)
                row[col] = coeff if old is None else old + coeff
    for key in sorted(rows, key=monomial_key):
        row = {col: value for col, value in rows[key].items() if value}
        if row:
            solver.add_row(row)


def _add_coefficient_rows(solver: EchelonAccumulator,
                          expansions: Sequence[dict[int, Poly]]):
    """Require ``sum_j x_j * expansions[j] == 0`` for expansions
    ``{order: Poly}``: one sparse row per support ``(order, monomial)``,
    fed by series order, then canonical monomial order."""
    rows: dict[tuple[int, tuple], dict[int, Fraction]] = {}
    for col, expansion in enumerate(expansions):
        for s, f in expansion.items():
            for mono, coeff in f.terms.items():
                rows.setdefault((s, mono), {})[col] = coeff
    for key in sorted(rows, key=lambda item: (item[0], monomial_key(item[1]))):
        solver.add_row(rows[key])


def _combine(candidates: Sequence[Poly], vector: Sequence[Fraction], nv: int) -> Poly:
    return poly_sum(nv, [
        cand.scale(coeff) for coeff, cand in zip(vector, candidates) if coeff
    ])


def moment_image_basis(act: HamiltonianAction, max_degree: int) -> GradedSubspace:
    """Per-degree bases of the subalgebra generated by the designated
    invariant generators' pullbacks.

    Slice 0 is the constants; slice ``d`` is the span of the products
    ``g * v`` of a pullback ``g`` with the basis of slice ``d - deg g``,
    the same recurrence ``invariant_generators`` builds its spans with.
    """
    nv = act.space.nvars
    pullbacks: list[Poly] = []
    for gen in act.lie.invariant_generators:
        g = act.moment_pullback(gen.poly)
        if g.is_zero() or g.degree() == 0:
            continue  # constants generate nothing new
        if not g.is_homogeneous((1,) * nv):
            raise ValidationError(
                f"pullback of generator {gen.name!r} is not homogeneous"
            )
        pullbacks.append(g)
    slices: dict[int, list[Poly]] = {0: [Poly.constant(nv, 1)]}
    for degree in range(1, max_degree + 1):
        products = [
            g * v for g in pullbacks for v in slices.get(degree - g.degree(), [])
        ]
        slices[degree] = reduce_poly_span(products, nv)
    return GradedSubspace(nv, slices)


def invariant_generators(invariants: GradedSubspace, test_degree: int
                         ) -> list[Poly]:
    """Generators of the invariant algebra up to ``test_degree``.

    Going up degree by degree, a basis element is kept when it is not in
    the span of the products ``g * v`` of the generators kept so far with
    the invariant basis of the complementary degree (nor of the elements
    kept before it).  Every basis element up to ``test_degree`` is then a
    polynomial in the generators.
    """
    generators: list[Poly] = []
    for degree in invariants.degrees():
        if not 0 < degree <= test_degree:
            continue  # constants commute with everything
        products = [
            g * v
            for g in generators
            for v in invariants.basis(degree - g.degree())
        ]
        generators += independent_extension(products, invariants.basis(degree))
    return generators


# ``table[degree][i][j]``: ``commutator_terms(b, u, cap)`` of the i-th
# invariant basis element ``b`` of that degree with the j-th test element
_Table = dict[int, list[list[dict[int, Poly]]]]


def _commutator_table(act: HamiltonianAction, invariants: GradedSubspace,
                      max_degree: int, tests: Sequence[Poly], cap: int
                      ) -> _Table:
    """Each commutator once, up to order ``cap``: every basis element and
    every test element is prepared once."""
    prepare = act.star.prepare
    commutator = act.star.commutator_terms
    prepared = [prepare(u) for u in tests]
    return {
        degree: [
            [commutator(pb, pu, cap) for pu in prepared]
            for pb in map(prepare, invariants.basis(degree))
        ]
        for degree in range(max_degree + 1)
    }


def _center_kernel(blocks: Sequence[tuple[int, list[dict[int, Poly]]]],
                   top: int) -> list[list[Fraction]]:
    """Kernel of the commutation constraints of the blocks ``(r, row)``,
    one unknown per block: in every test column, block ``(r, row)`` reads
    the orders of its table row up to ``top - r``, raised by ``r``."""
    solver = EchelonAccumulator(len(blocks))
    for j in range(len(blocks[0][1])):
        _add_coefficient_rows(solver, [
            {r + s: t for s, t in row[j].items() if s <= top - r}
            for r, row in blocks
        ])
    return solver.kernel()


def poisson_center_up_to(act: HamiltonianAction, max_degree: int,
                         invariants: GradedSubspace, commutators: _Table
                         ) -> GradedSubspace:
    """Invariants whose bracket with every invariant basis element up to
    the test cutoff vanishes.  ``invariants`` is the run's
    ``invariants_up_to(act, test_degree)`` and ``commutators`` its table
    up to ``max_degree`` against ``quantum_tests``, to order 1 at least.
    The bracket is the order-1 term of each commutator, read in every test
    column: the test set holds the generators, and the bracket is a
    biderivation, so the full basis gives the same kernel."""
    nv = act.space.nvars
    slices: dict[int, list[Poly]] = {}
    for degree in range(max_degree + 1):
        entries = commutators[degree]
        if not entries:
            continue
        candidates = invariants.basis(degree)
        basis = [
            _combine(candidates, vec, nv)
            for vec in _center_kernel([(0, row) for row in entries], 1)
        ]
        if basis:
            slices[degree] = basis
    return GradedSubspace(nv, slices)


class QuantumCenterSlice(NamedTuple):
    """Quantum-center data at one degree."""

    degree: int
    basis: list[HSeries]          # kernel of the commutation constraints
    rank: int                     # dimension of the classical-part image
    representatives: list[HSeries]  # lifts whose classical parts are a basis


def quantum_center_up_to(act: HamiltonianAction, max_degree: int,
                         invariants: GradedSubspace, commutators: _Table
                         ) -> dict[int, QuantumCenterSlice]:
    """Per-degree quantum-center slices at the action's truncation, solved
    exactly.

    Requires the default uniform grading (every coordinate of weight -1)
    with a graded bivector (``check_slicing_grading``); the coefficient of
    series order r in the degree-d slice is then an invariant of degree
    ``d - k*r``.  ``invariants`` and ``commutators`` are as for
    ``poisson_center_up_to``, the table to the action's truncation at
    least.
    """
    k = act.space.hbar_weight
    order = act.order
    out: dict[int, QuantumCenterSlice] = {}
    for degree in range(max_degree + 1):
        blocks: list[tuple[int, Poly]] = []
        entries: list[tuple[int, list[dict[int, Poly]]]] = []
        for r in range(min(order, degree // k) + 1):
            blocks += [(r, b) for b in invariants.basis(degree - k * r)]
            entries += [(r, row) for row in commutators[degree - k * r]]
        if not blocks:
            out[degree] = QuantumCenterSlice(degree, [], 0, [])
            continue
        basis = [
            _series_from_vector(act, blocks, vec)
            for vec in _center_kernel(entries, order)
        ]
        rank, representatives = _classical_part_rank(act, basis)
        out[degree] = QuantumCenterSlice(degree, basis, rank, representatives)
    return out


def check_slicing_grading(space):
    """Require of a ``SymplecticSpace`` the grading quantum-center slicing
    needs: the uniform default weights with a graded bivector, so the
    parameter has weight 2 and each slice has finitely many series
    orders."""
    if not space.grading_is_uniform():
        raise ValidationError(
            "quantum-center slicing requires the uniform default weights"
        )
    space.check_graded_bivector()


def quantum_tests(act: HamiltonianAction, invariants: GradedSubspace,
                  test_degree: int, generators: list[Poly] | None
                  ) -> list[Poly]:
    """The test set against which commuting with every invariant up to the
    test cutoff is decided, modulo the truncation: the generators when
    every hamiltonian has degree at most 2, else the whole invariant basis
    up to the cutoff.  ``generators``, when given, must be the
    ``invariant_generators`` of ``invariants``."""
    if all(h.degree() <= 2 for h in act.hamiltonians):
        # the product is invariant, so products of generators expand into
        # lower-degree invariants
        if generators is None:
            return invariant_generators(invariants, test_degree)
        return generators
    return [
        u
        for degree in invariants.degrees()
        if degree <= test_degree
        for u in invariants.basis(degree)
    ]


def _series_from_vector(act, blocks, vector) -> HSeries:
    nv = act.space.nvars
    terms: dict[int, Poly] = {}
    for coeff, (r, b) in zip(vector, blocks):
        if coeff:
            terms[r] = terms.get(r, Poly.zero(nv)) + b.scale(coeff)
    return HSeries(nv, act.order, terms)


def _classical_part_rank(act, basis: list[HSeries]) -> tuple[int, list[HSeries]]:
    """Rank of the classical-part image with tracked representatives."""
    representatives: list[HSeries] = []
    for combo in span_combinations([v.classical_part() for v in basis]):
        rep = HSeries.zero(act.space.nvars, basis[0].order)
        for c, v in zip(combo, basis):
            if c:
                rep = rep + v.scale(c)
        representatives.append(rep)
    return len(representatives), representatives


class CenterRow(NamedTuple):
    degree: int
    invariant_dim: int
    poisson_dim: int
    quantum_rank: int
    poisson_basis: list[str]
    quantum_representatives: list[str]

    @property
    def equal(self) -> bool:
        return self.poisson_dim == self.quantum_rank

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "invariant_dim": self.invariant_dim,
            "poisson_center_dim": self.poisson_dim,
            "quantum_center_rank": self.quantum_rank,
            "equal": self.equal,
            "poisson_basis": self.poisson_basis,
            "quantum_representatives": self.quantum_representatives,
        }


class CenterReport(NamedTuple):
    max_degree: int
    test_degree: int
    order: int
    rows: list[CenterRow]
    generators: list[Poly]  # of the invariants; kept for reuse, not printed

    @property
    def passed(self) -> bool:
        return all(row.equal for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "test_degree": self.test_degree,
            "truncation": self.order,
            "passed": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
        }


def compare_centers(
    act: HamiltonianAction, max_degree: int, test_degree: int
) -> CenterReport:
    """Assemble the per-degree comparison table of both centers."""
    check_slicing_grading(act.space)
    if test_degree < max_degree:
        raise ValidationError("test cutoff must be at least the degree bound")
    invariants = invariants_up_to(act, test_degree)
    generators = invariant_generators(invariants, test_degree)
    tests = quantum_tests(act, invariants, test_degree, generators)
    commutators = _commutator_table(act, invariants, max_degree, tests,
                                    max(act.order, 1))
    poisson = poisson_center_up_to(act, max_degree, invariants, commutators)
    quantum = quantum_center_up_to(act, max_degree, invariants, commutators)
    names = act.space.names
    rows = []
    for degree in range(max_degree + 1):
        slice_q = quantum[degree]
        rows.append(
            CenterRow(
                degree=degree,
                invariant_dim=invariants.dimension(degree),
                poisson_dim=poisson.dimension(degree),
                quantum_rank=slice_q.rank,
                poisson_basis=[f.to_string(names) for f in poisson.basis(degree)],
                quantum_representatives=[
                    v.to_string(names) for v in slice_q.representatives
                ],
            )
        )
    return CenterReport(max_degree, test_degree, act.order, rows, generators)
