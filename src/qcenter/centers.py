"""Degree-by-degree invariants, Poisson centers and quantum centers.

Invariance is infinitesimal: a polynomial is invariant when its bracket
with every hamiltonian vanishes (the group is connected, so this is
equivalent to invariance under the group).  Centers are computed per
degree as exact kernels:

* the Poisson-center slice collects invariants whose bracket with every
  invariant basis element up to a test cutoff vanishes;
* the quantum-center slice collects truncated series with invariant
  homogeneous coefficients whose deformed commutator with every such test
  element vanishes modulo the truncation.

The scaling grading ties the coefficient degree at series order r to
``d - k*r``, which makes each quantum slice finite-dimensional.  The
constraint system is linear in all series coefficients at once and is
solved jointly (the order-by-order triangular structure is implied), then
certified against the full test set; if certification finds a violated
test element its constraints are added and the kernel is recomputed, so
the fixed point equals the kernel of the full system.

Both systems are shrunk without changing any answer:

* *Weight-zero candidates.*  A hamiltonian is diagonal when its bracket
  with each coordinate is a multiple of it, ``{h, x_j} = w_j * x_j``
  (tested through the bracket, so any constant bivector works).  The
  bracket is a derivation, so it scales the monomial ``x^e`` by
  ``sum(e_j * w_j)``; only monomials of weight zero for every diagonal
  hamiltonian can be invariant, and only the other hamiltonians are
  eliminated.  The dropped columns are unit rows of the full system,
  which the canonical kernel sets to zero, so every basis is unchanged.
* *Generators as test elements.*  ``invariant_generators`` keeps, degree
  by degree, the invariants that are not products of lower-degree ones.
  The bracket is a biderivation, so an invariant that brackets to zero
  with the generators does so with every invariant up to the cutoff: the
  Poisson center is always tested against the generators.  The deformed
  commutator is a derivation of the product, and when every hamiltonian
  has degree at most 2 the product is invariant under the action, so
  ``g * v`` is the deformed product of ``g`` and ``v`` minus higher-order
  terms that are invariants of lower degree; by induction on the degree,
  commuting with the generators modulo the truncation is then commuting
  with every invariant.  The quantum center uses the generators under
  that condition and the full test set otherwise.  Either way the
  solution space is the same, and the kernel bases are canonical.
  ``compare_centers`` computes the invariants and their generators once
  and hands both to the two center functions.

The reported quantum rank counts classical parts: it is the dimension of
the image of the slice under reduction modulo the deformation parameter.
Series divisible by the parameter are exactly the lifts of lower-degree
slices shifted up, so this rank is the number against which the classical
Poisson-center dimension is compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .action import HamiltonianAction
from .errors import ValidationError
from .linalg import (
    EchelonAccumulator,
    GradedSubspace,
    independent_extension,
    reduce_poly_span,
    span_combinations,
)
from .poly import Poly, monomial_key, monomials_of_degree
from .series import HSeries


def invariants_up_to(act: HamiltonianAction, max_degree: int) -> GradedSubspace:
    """Per-degree bases of polynomials killed by every hamiltonian bracket.

    Candidates are the monomials of weight zero for every diagonal
    hamiltonian; only the other hamiltonians are eliminated.
    """
    if max_degree < 0:
        raise ValidationError("degree bound must be non-negative")
    nv = act.space.nvars
    weights: list[list[int]] = []
    others: list[Poly] = []
    for h in act.hamiltonians:
        w = _diagonal_weights(act, h)
        if w is None:
            others.append(h)
        else:  # only the zero set matters: scale to integers
            scale = lcm(*(x.denominator for x in w))
            weights.append([int(x * scale) for x in w])
    slices: dict[int, list[Poly]] = {}
    for degree in range(max_degree + 1):
        candidates = [
            Poly.monomial(nv, m)
            for m in monomials_of_degree(nv, degree)
            if not any(sum(map(mul, m, w)) for w in weights)
        ]
        if others:
            solver = EchelonAccumulator(len(candidates))
            for h in others:
                _add_coefficient_rows(
                    solver, [act.star.poisson(h, c) for c in candidates]
                )
            candidates = [
                _combine(candidates, vec, nv) for vec in solver.kernel()
            ]
        slices[degree] = candidates
    return GradedSubspace(nv, slices)


def _diagonal_weights(act: HamiltonianAction, h: Poly) -> list[Fraction] | None:
    """The weights ``w_j`` with ``{h, x_j} = w_j * x_j`` for every
    coordinate, or None when the bracket with ``h`` is not diagonal."""
    nv = act.space.nvars
    weights = []
    for j in range(nv):
        x = Poly.variable(nv, j)
        (exp,) = x.terms
        bracket = act.star.poisson(h, x).terms
        if bracket.keys() - {exp}:
            return None
        weights.append(bracket.get(exp, Fraction(0)))
    return weights


def _add_coefficient_rows(solver: EchelonAccumulator, polys: Sequence[Poly]):
    """Require ``sum_j x_j * polys[j] == 0``: one sparse row per support
    monomial, fed in canonical monomial order."""
    rows: dict[tuple, dict[int, Fraction]] = {}
    for col, f in enumerate(polys):
        for mono, coeff in f.terms.items():
            rows.setdefault(mono, {})[col] = coeff
    for mono in sorted(rows, key=monomial_key):
        solver.add_row(rows[mono])


def _combine(candidates: Sequence[Poly], vector: Sequence[Fraction], nv: int) -> Poly:
    out = Poly.zero(nv)
    for coeff, cand in zip(vector, candidates):
        if coeff:
            out = out + cand.scale(coeff)
    return out


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


def poisson_center_up_to(
    act: HamiltonianAction,
    max_degree: int,
    test_degree: int,
    invariants: GradedSubspace | None = None,
    generators: list[Poly] | None = None,
) -> GradedSubspace:
    """Invariants whose bracket with every invariant basis element up to
    the test cutoff vanishes, tested against the generators (the bracket
    is a biderivation).  ``invariants`` and ``generators``, when given,
    must be ``invariants_up_to(act, test_degree)`` and its
    ``invariant_generators``."""
    if test_degree < max_degree:
        raise ValidationError("test cutoff must be at least the degree bound")
    nv = act.space.nvars
    if invariants is None:
        invariants = invariants_up_to(act, test_degree)
    test_elements = generators
    if test_elements is None:
        test_elements = invariant_generators(invariants, test_degree)
    slices: dict[int, list[Poly]] = {}
    for degree in range(max_degree + 1):
        candidates = invariants.basis(degree)
        if not candidates:
            continue
        solver = EchelonAccumulator(len(candidates))
        for u in test_elements:
            _add_coefficient_rows(
                solver, [act.star.poisson(c, u) for c in candidates]
            )
        basis = [_combine(candidates, vec, nv) for vec in solver.kernel()]
        if basis:
            slices[degree] = basis
    return GradedSubspace(nv, slices)


@dataclass
class QuantumCenterSlice:
    """Quantum-center data at one degree."""

    degree: int
    basis: list[HSeries]          # kernel of the commutation constraints
    rank: int                     # dimension of the classical-part image
    representatives: list[HSeries]  # lifts whose classical parts are a basis


def quantum_center_up_to(
    act: HamiltonianAction,
    max_degree: int,
    test_degree: int,
    order: int,
    invariants: GradedSubspace | None = None,
    generators: list[Poly] | None = None,
) -> dict[int, QuantumCenterSlice]:
    """Per-degree quantum-center slices, solved exactly.

    Requires the default uniform grading (every coordinate of weight -1);
    the coefficient of series order r in the degree-d slice is then an
    invariant of degree ``d - k*r``.  ``invariants`` and ``generators``
    are as for ``poisson_center_up_to``.
    """
    if not act.space.grading_is_uniform():
        raise ValidationError(
            "quantum-center slicing requires the uniform default weights"
        )
    if test_degree < max_degree:
        raise ValidationError("test cutoff must be at least the degree bound")
    k = act.space.hbar_weight
    nv = act.space.nvars
    if invariants is None:
        invariants = invariants_up_to(act, test_degree)
    if all(h.degree() <= 2 for h in act.hamiltonians):
        # the product is invariant, so products of generators expand into
        # lower-degree invariants
        test_elements = generators
        if test_elements is None:
            test_elements = invariant_generators(invariants, test_degree)
    else:
        test_elements = [
            u
            for degree in invariants.degrees()
            if degree <= test_degree
            for u in invariants.basis(degree)
        ]
    # cheap constraints first; certification adds the rest on demand
    initial_cutoff = min(test_degree, max(2, _generator_degree_bound(act)))
    initial = [u for u in test_elements if u.degree() <= initial_cutoff]
    remaining = [u for u in test_elements if u.degree() > initial_cutoff]

    out: dict[int, QuantumCenterSlice] = {}
    for degree in range(max_degree + 1):
        blocks: list[tuple[int, Poly]] = []
        for r in range(min(order, degree // k if k else order) + 1):
            for b in invariants.basis(degree - k * r):
                blocks.append((r, b))
        if not blocks:
            out[degree] = QuantumCenterSlice(degree, [], 0, [])
            continue
        active = list(initial)
        pool = list(remaining)
        while True:
            kernel = _solve_commutation_kernel(act, blocks, active, order)
            basis = [_vector_to_series(act, blocks, vec, order) for vec in kernel]
            violator = _first_violator(act, basis, pool, order)
            if violator is None:
                break
            active.append(violator)
            pool.remove(violator)
        rank, representatives = _classical_part_rank(act, basis)
        out[degree] = QuantumCenterSlice(degree, basis, rank, representatives)
    return out


def _generator_degree_bound(act: HamiltonianAction) -> int:
    degrees = [h.degree() for h in act.hamiltonians if not h.is_zero()]
    return max(degrees, default=2)


def _solve_commutation_kernel(act, blocks, test_elements, order):
    solver = EchelonAccumulator(len(blocks))
    nv = act.space.nvars
    for u in test_elements:
        rows: dict[tuple[int, tuple], dict[int, Fraction]] = {}
        for col, (r, b) in enumerate(blocks):
            for level, term in act.star.commutator_terms(b, u, order - r).items():
                s = r + level
                for mono, coeff in term.terms.items():
                    rows.setdefault((s, mono), {})[col] = coeff
        for key in sorted(rows, key=lambda item: (item[0], monomial_key(item[1]))):
            solver.add_row(rows[key])
    return solver.kernel()


def _first_violator(act, basis: list[HSeries], pool: list[Poly], order: int
                    ) -> Poly | None:
    """First test element whose commutator with some kernel series survives."""
    for u in pool:
        test = HSeries.from_poly(u, order)
        for series in basis:
            if not act.star.star_commutator(series, test).is_zero():
                return u
    return None


def _vector_to_series(act, blocks, vector, order) -> HSeries:
    nv = act.space.nvars
    slots: dict[int, Poly] = {}
    for coeff, (r, b) in zip(vector, blocks):
        if coeff:
            slots[r] = slots.get(r, Poly.zero(nv)) + b.scale(coeff)
    return HSeries.from_terms(nv, order, slots)


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


@dataclass
class CenterRow:
    degree: int
    invariant_dim: int
    poisson_dim: int
    quantum_rank: int
    poisson_basis: list[str] = field(default_factory=list)
    quantum_representatives: list[str] = field(default_factory=list)

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


@dataclass
class CenterReport:
    max_degree: int
    test_degree: int
    order: int
    rows: list[CenterRow]

    @property
    def passed(self) -> bool:
        return all(row.equal for row in self.rows)

    def mismatched_degrees(self) -> list[int]:
        return [row.degree for row in self.rows if not row.equal]

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "test_degree": self.test_degree,
            "truncation": self.order,
            "passed": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
        }


def compare_centers(
    act: HamiltonianAction, max_degree: int, test_degree: int, order: int
) -> CenterReport:
    """Assemble the per-degree comparison table of both centers."""
    invariants = invariants_up_to(act, test_degree)
    generators = invariant_generators(invariants, test_degree)
    poisson = poisson_center_up_to(
        act, max_degree, test_degree, invariants, generators
    )
    quantum = quantum_center_up_to(
        act, max_degree, test_degree, order, invariants, generators
    )
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
    return CenterReport(max_degree, test_degree, order, rows)
