"""Order-by-order central lifting of integral elements.

Given a homogeneous invariant ``f`` satisfying a monic relation

    f^n + a_{n-1} f^{n-1} + ... + a_0 = 0

with homogeneous coefficients in the subalgebra generated by the
designated invariant generators, and central quantum coefficients
``a_hat_i`` whose classical parts are the ``a_i``, the lift recursion
produces a series ``f_hat`` with classical part ``f`` whose deformed
evaluation of the relation vanishes modulo the truncation.

Every series here is at the truncation ``N`` of the action's product,
and every check runs through that whole truncation.  The hamiltonians
come prepared with the action; every other operand a check loop meets
more than once (the lift, each test element) is prepared for the
contraction kernel once per loop, and each deformed power of a lift is
taken once (``_star_powers``).  A prepared polynomial stands for its
expansion at the truncation.

A relation is its quantum coefficients; the classical coefficients are
their classical parts.  A scenario takes each ``a_hat_i`` as
``star_evaluate`` of a polynomial ``a`` in the generator names on the
central lifts, and two facts hold of it by construction, so neither is
checked again:

* Its classical part is ``a`` on the moment pullbacks.  The order-0 term
  of the deformed product is the plain product, so the comoment image of
  a word reduces to the product of the classical hamiltonians, and each
  central section reduces to its generator (``envelope`` module
  docstring): each central lift reduces to its generator's pullback.
* It commutes with every invariant modulo ``hbar^(N+1)``.  On a validated
  action ``[H_hat_i, u] = hbar {H_i, u}`` vanishes for each invariant
  ``u``, so every deformed word in the quantum hamiltonians commutes with
  ``u`` (the Leibniz rule of the commutator), and so does every comoment
  image, each central lift among them, and every deformed polynomial in
  the central lifts.

``verify_lift`` still checks the lift itself against the test elements
and reports each failing order.

The recursion walks the nonzero orders of the defect, the relation
evaluated on the partial lift: while the defect is nonzero, its lowest
order m is corrected.  Adding ``f_m`` at order m perturbs that coefficient
by ``P'(f) f_m`` and leaves the lower orders alone, so the correction is
the exact polynomial quotient of the defect by the relation derivative,
and the lowest order of the next defect lies strictly above m.  Orders
where the defect already vanishes cost nothing: the relation is evaluated
once per correction and once more to see it vanish.  When the
quotient does not exist in the polynomial ring the recursion stops with an
obstruction report: the correction would only live on the open locus where
the derivative is invertible, and extending it back would need completion
machinery that is out of scope here.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .action import HamiltonianAction
from .centers import moment_image_basis
from .errors import (
    LiftObstructionError,
    NonSimpleRootError,
    RelationViolationError,
    ValidationError,
)
from .linalg import GradedSubspace, in_span
from .poly import Poly
from .series import HSeries
from .star import Prepared, StarProduct


class MonicRelation:
    """A monic relation by its quantum coefficients.

    ``quantum_coefficients[i]`` is the series coefficient of the i-th
    deformed power, i = 0..n-1 (the leading coefficient is 1), at the
    action's truncation; ``coefficients`` are their classical parts, the
    classical relation.  Immutable after construction.
    """

    __slots__ = ("coefficients", "quantum_coefficients")

    def __init__(self, quantum_coefficients: tuple[HSeries, ...]):
        if not quantum_coefficients:
            raise ValidationError("a monic relation needs degree at least 1")
        object.__setattr__(self, "quantum_coefficients", quantum_coefficients)
        object.__setattr__(self, "coefficients", tuple(
            ahat.classical_part() for ahat in quantum_coefficients))

    def __setattr__(self, name, value):
        raise AttributeError("MonicRelation is immutable")

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def classical_value(self, f: Poly) -> Poly:
        """f^n + a_{n-1} f^{n-1} + ... + a_0, exactly, by Horner's rule."""
        result = Poly.constant(f.nvars, 1)
        for a in reversed(self.coefficients):
            result = result * f + a
        return result

    def derivative_value(self, f: Poly) -> Poly:
        """n f^(n-1) + (n-1) a_{n-1} f^(n-2) + ... + a_1, by Horner's rule."""
        result = Poly.constant(f.nvars, self.degree)
        for i in range(self.degree - 1, 0, -1):
            result = result * f + self.coefficients[i].scale(i)
        return result


def _star_powers(star: StarProduct, x: HSeries | Prepared, n: int
                 ) -> list[HSeries]:
    """The deformed powers ``x^0 .. x^n``, with ``x`` prepared once."""
    px = star.prepare(x)
    powers = [HSeries.one(star.space.nvars, star.order)]
    for _ in range(n):
        powers.append(star.star(powers[-1], px))
    return powers


def relation_defect(star: StarProduct, rel: MonicRelation,
                    fhat: HSeries | Prepared) -> HSeries:
    """Deformed evaluation of the monic relation on a candidate lift."""
    powers = _star_powers(star, fhat, rel.degree)
    result = powers[-1]
    for ahat, power in zip(rel.quantum_coefficients, powers):
        result = result + star.star(ahat, power)
    return result


def minimality_holds(f: Poly, rel: MonicRelation, subalgebra: GradedSubspace
                     ) -> bool:
    """No monic relation of smaller degree over the subalgebra kills f.

    For each smaller degree ``m`` the question is whether ``f**m`` lies in
    the span of the products ``b * f**j``, j = 0..m-1, with ``b`` running
    over a graded slice basis of the subalgebra; all data is homogeneous,
    so the coefficient of the j-th power has degree ``(m - j) * deg f``.
    """
    if f.is_zero():
        return rel.degree == 1  # no monic relation has degree below 1
    deg_f = f.degree()
    powers = [f**j for j in range(rel.degree)]
    for m in range(1, rel.degree):
        products = [
            b * powers[j] for j in range(m) for b in subalgebra.basis((m - j) * deg_f)
        ]
        if in_span(powers[m], products):
            return False
    return True


def check_invariant(act: HamiltonianAction, f: Poly, what: str) -> None:
    """Refuse ``f`` unless every hamiltonian brackets it to zero."""
    pf = act.star.prepare(f)
    for h, label in zip(act.prepared_hamiltonians, act.lie.labels):
        if not act.star.poisson(h, pf).is_zero():
            raise ValidationError(f"{what} is not invariant under {label}")


def hensel_lift(f: Poly, rel: MonicRelation, act: HamiltonianAction) -> HSeries:
    """Lift ``f`` through the action's truncation.

    Preconditions checked exactly: the classical relation holds, the
    relation derivative at ``f`` is nonzero, ``f`` is invariant, and no
    smaller monic relation exists over the subalgebra generated by the
    designated invariant generators (its slices up to the highest degree
    ``minimality_holds`` reads).  The quantum coefficients must be
    central; a relation evaluated on the central lifts is by construction
    (module docstring), so that is not checked here.  Each produced
    correction is verified invariant, and the lowest order of the defect
    must rise strictly with each correction; for weight-homogeneous input
    data the corrections are automatically homogeneous of the weight that
    keeps the whole lift at the weight of ``f``.
    """
    if not rel.classical_value(f).is_zero():
        raise ValidationError("classical relation does not annihilate the target")
    derivative = rel.derivative_value(f)
    if derivative.is_zero():
        raise NonSimpleRootError(
            "the relation derivative vanishes identically at the target"
        )
    check_invariant(act, f, "lift target")
    subalgebra = moment_image_basis(act, (rel.degree - 1) * f.degree())
    if not minimality_holds(f, rel, subalgebra):
        raise ValidationError(
            "a smaller monic relation over the subalgebra annihilates the target"
        )
    fhat = HSeries.from_poly(f, act.order)
    corrected = 0
    defect = relation_defect(act.star, rel, fhat)
    while not defect.is_zero():
        m = defect.first_nonzero_order()
        if m <= corrected:
            raise ValidationError(f"internal recursion invariant broken at order {m}")
        defect_coeff = defect.terms[m]
        correction = (-defect_coeff).divide_exact(derivative)
        if correction is None:
            raise LiftObstructionError(m, defect_coeff)
        check_invariant(act, correction, f"correction at order {m}")
        fhat = fhat + HSeries(act.space.nvars, act.order, {m: correction})
        corrected = m
        defect = relation_defect(act.star, rel, fhat)
    return fhat


class LiftReport(NamedTuple):
    target: str
    relation_first_failure: int | None
    centrality_failures: list[tuple[str, int]]
    classical_relation_holds: bool
    weight: int | None

    @property
    def passed(self) -> bool:
        return (
            self.relation_first_failure is None
            and not self.centrality_failures
            and self.classical_relation_holds
        )

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "passed": self.passed,
            "relation_first_failure": self.relation_first_failure,
            "centrality_failures": [
                {"against": u, "order": r} for u, r in self.centrality_failures
            ],
            "classical_relation_holds": self.classical_relation_holds,
            "weight": self.weight,
        }


def verify_lift(
    fhat: HSeries,
    rel: MonicRelation,
    act: HamiltonianAction,
    test_elements: Sequence[Poly],
) -> LiftReport:
    """Independent re-expansion of the relation and centrality of a lift.

    Recomputes the full deformed evaluation from scratch and the
    commutators against the given invariants at the action's truncation,
    reporting the lowest failing order of each.  An empty test set checks
    the relation only.
    """
    pf = act.star.prepare(fhat)
    relation_first = relation_defect(act.star, rel, pf).first_nonzero_order()

    centrality: list[tuple[str, int]] = []
    for u in test_elements:
        comm = act.star.star_commutator(pf, act.star.prepare(u))
        first = comm.first_nonzero_order()
        if first is not None:
            centrality.append((u.to_string(act.space.names), first))

    classical_ok = rel.classical_value(fhat.classical_part()).is_zero()
    weight = fhat.series_weight(act.space.weights, act.space.hbar_weight)
    return LiftReport(
        target=fhat.classical_part().to_string(act.space.names),
        relation_first_failure=relation_first,
        centrality_failures=centrality,
        classical_relation_holds=classical_ok,
        weight=weight,
    )


class IsoEntry(NamedTuple):
    name: str
    classical: str
    lift: str
    weight_matches: bool
    triangle_holds: bool


class IsoReport(NamedTuple):
    entries: list[IsoEntry]
    relations: list[tuple[str, bool]]

    @property
    def passed(self) -> bool:
        return all(e.weight_matches and e.triangle_holds for e in self.entries) and all(
            ok for _, ok in self.relations
        )

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "generators": [e._asdict() for e in self.entries],
            "relations": [
                {"relation": text, "holds": ok} for text, ok in self.relations
            ],
        }


def star_evaluate(
    star: StarProduct, relation: Poly, lifts: Sequence[HSeries]
) -> HSeries:
    """Evaluate a commutative polynomial on lifts with the deformed product.

    The lifts are expected to be mutually commuting (central elements):
    powers and products are taken left to right in generator order.
    """
    nv = star.space.nvars
    result = HSeries.zero(nv, star.order)
    # each lift's powers up to the highest exponent the relation gives it
    tops = map(max, zip(*relation.terms))
    powers = [_star_powers(star, fhat, top) for fhat, top in zip(lifts, tops)]
    for exp, coeff in relation.sorted_terms():
        term = HSeries.one(nv, star.order).scale(coeff)
        for i, e in enumerate(exp):
            if e:
                term = star.star(term, powers[i][e])
        result = result + term
    return result


def build_center_iso(
    entries: Sequence[tuple[str, Poly, HSeries]],
    relations: Sequence[tuple[str, Poly]],
    act: HamiltonianAction,
) -> IsoReport:
    """Generator table of the center identification with its verifications.

    Checks for every generator that the lift reduces to the classical
    element and has the same weight, and that every supplied polynomial
    relation among the classical generators still vanishes on the lifts
    under the deformed product modulo the truncation.  A violated relation
    raises with the offending relation and order.
    """
    iso_entries: list[IsoEntry] = []
    names = act.space.names
    for name, f, fhat in entries:
        classical_w = act.space.poly_weight(f)
        lift_w = fhat.series_weight(act.space.weights, act.space.hbar_weight)
        iso_entries.append(
            IsoEntry(
                name=name,
                classical=f.to_string(names),
                lift=fhat.to_string(names),
                weight_matches=(classical_w == lift_w),
                triangle_holds=(fhat.classical_part() == f),
            )
        )
    relation_rows: list[tuple[str, bool]] = []
    lifts = [fhat for _, _, fhat in entries]
    for text, rel_poly in relations:
        first = star_evaluate(act.star, rel_poly, lifts).first_nonzero_order()
        if first is not None:
            raise RelationViolationError(text, first)
        relation_rows.append((text, True))
    return IsoReport(iso_entries, relation_rows)
