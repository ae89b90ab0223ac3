"""Order-by-order central lifting of integral elements.

Given a homogeneous invariant ``f`` satisfying a monic relation

    f^n + a_{n-1} f^{n-1} + ... + a_0 = 0

with homogeneous coefficients in a designated subalgebra, and central
quantum coefficients reducing to the classical ones, the lift recursion
produces a truncated series ``f_hat`` with classical part ``f`` whose
deformed evaluation of the relation vanishes modulo the truncation.

At each step the relation evaluated on the partial lift has its lowest
surviving order extracted; appending ``f_{m+1}`` at order m+1 perturbs
that coefficient by ``P'(f) f_{m+1}``, so the correction is the exact
polynomial quotient of the defect by the relation derivative.  When the
quotient does not exist in the polynomial ring the recursion stops with an
obstruction report: the correction would only live on the open locus where
the derivative is invertible, and extending it back would need completion
machinery that is out of scope here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .action import HamiltonianAction
from .errors import (
    LiftObstructionError,
    NonSimpleRootError,
    RelationViolationError,
    TruncationError,
    ValidationError,
)
from .linalg import GradedSubspace, in_span
from .poly import Poly
from .series import HSeries
from .star import StarProduct


@dataclass(frozen=True)
class MonicRelation:
    """Monic polynomial data with classical and quantum coefficients.

    ``coefficients[i]`` is the classical coefficient of the i-th power,
    i = 0..n-1 (the leading coefficient is 1); ``quantum_coefficients``
    are central series reducing to them, at the action's truncation.
    """

    coefficients: tuple[Poly, ...]
    quantum_coefficients: tuple[HSeries, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.quantum_coefficients):
            raise ValidationError("classical and quantum coefficient counts differ")
        if not self.coefficients:
            raise ValidationError("a monic relation needs degree at least 1")
        for a, ahat in zip(self.coefficients, self.quantum_coefficients):
            if ahat.classical_part() != a:
                raise ValidationError(
                    "quantum coefficient does not reduce to its classical part"
                )

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def classical_value(self, f: Poly) -> Poly:
        """f^n + a_{n-1} f^{n-1} + ... + a_0, exactly."""
        result = f ** self.degree
        power = Poly.constant(f.nvars, 1)
        for a in self.coefficients:
            result = result + a * power
            power = power * f
        return result

    def derivative_value(self, f: Poly) -> Poly:
        """Value of the derivative of the relation polynomial at f."""
        result = (f ** (self.degree - 1)).scale(self.degree)
        for i, a in enumerate(self.coefficients):
            if i >= 1:
                result = result + a.scale(i) * f ** (i - 1)
        return result

    def validate_centrality(
        self, act: HamiltonianAction, test_elements: Sequence[Poly], order: int
    ):
        """Each quantum coefficient must commute with the test elements."""
        for idx, ahat in enumerate(self.quantum_coefficients):
            for u in test_elements:
                comm = act.star.star_commutator(ahat, act.star.embed(u))
                if not comm.truncate(order).is_zero():
                    raise ValidationError(
                        f"quantum coefficient {idx} is not central against "
                        f"{u.to_string(act.space.names)}"
                    )


def relation_defect(star: StarProduct, rel: MonicRelation, fhat: HSeries
                    ) -> HSeries:
    """Deformed evaluation of the monic relation on a candidate lift."""
    n = rel.degree
    powers = [HSeries.one(star.space.nvars, fhat.order)]
    for _ in range(n):
        powers.append(star.star(powers[-1], fhat))
    result = powers[n]
    for i, ahat in enumerate(rel.quantum_coefficients):
        result = result + star.star(ahat, powers[i])
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
        return False
    deg_f = f.degree()
    for m in range(1, rel.degree):
        products = [
            b * f**j for j in range(m) for b in subalgebra.basis((m - j) * deg_f)
        ]
        if in_span(f**m, products):
            return False
    return True


def hensel_lift(
    f: Poly,
    rel: MonicRelation,
    act: HamiltonianAction,
    order: int,
    subalgebra: GradedSubspace | None = None,
) -> HSeries:
    """Lift ``f`` through the given truncation order.

    Preconditions checked exactly: the classical relation holds, the
    relation derivative at ``f`` is nonzero, ``f`` is invariant, and (when
    a subalgebra is supplied) no smaller monic relation exists.  Each
    produced correction is verified invariant; for weight-homogeneous
    input data the corrections are automatically homogeneous of the weight
    that keeps the whole lift at the weight of ``f``.
    """
    if order > act.order:
        raise TruncationError(
            "requested lift order exceeds the action's truncation"
        )
    if not rel.classical_value(f).is_zero():
        raise ValidationError("classical relation does not annihilate the target")
    derivative = rel.derivative_value(f)
    if derivative.is_zero():
        raise NonSimpleRootError(
            "the relation derivative vanishes identically at the target"
        )
    for i, h in enumerate(act.hamiltonians):
        if not act.star.poisson(h, f).is_zero():
            raise ValidationError(
                f"lift target is not invariant under {act.lie.labels[i]}"
            )
    if subalgebra is not None and not minimality_holds(f, rel, subalgebra):
        raise ValidationError(
            "a smaller monic relation over the subalgebra annihilates the target"
        )
    fhat = HSeries.from_poly(f, act.order)
    for m in range(order):
        defect = relation_defect(act.star, rel, fhat)
        if not defect.vanishes_below(m + 1):
            first = defect.first_nonzero_order()
            raise ValidationError(
                f"internal recursion invariant broken at order {first}"
            )
        defect_coeff = defect.coefficient(m + 1)
        if defect_coeff.is_zero():
            continue
        correction = (-defect_coeff).divide_exact(derivative)
        if correction is None:
            raise LiftObstructionError(m + 1, defect_coeff)
        for i, h in enumerate(act.hamiltonians):
            if not act.star.poisson(h, correction).is_zero():
                raise ValidationError(
                    f"correction at order {m+1} is not invariant under "
                    f"{act.lie.labels[i]}"
                )
        fhat = fhat + HSeries.from_poly(correction, act.order).hbar_shift(m + 1)
    final = relation_defect(act.star, rel, fhat)
    if not final.vanishes_below(order + 1):
        first = final.first_nonzero_order()
        raise ValidationError(f"lift verification failed at order {first}")
    return fhat


@dataclass
class LiftReport:
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
    order: int,
    test_elements: Sequence[Poly] = (),
) -> LiftReport:
    """Independent re-expansion of the relation and centrality of a lift.

    Recomputes the full deformed evaluation from scratch and the
    commutators against the supplied invariants, reporting the lowest
    failing order of each.
    """
    defect = relation_defect(act.star, rel, fhat)
    truncated = defect.truncate(order) if order < defect.order else defect
    relation_first = truncated.first_nonzero_order()

    centrality: list[tuple[str, int]] = []
    for u in test_elements:
        comm = act.star.star_commutator(fhat, act.star.embed(u))
        comm = comm.truncate(order) if order < comm.order else comm
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


@dataclass
class IsoEntry:
    name: str
    classical: str
    lift: str
    weight_matches: bool
    triangle_holds: bool


@dataclass
class IsoReport:
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
            "generators": [
                {
                    "name": e.name,
                    "classical": e.classical,
                    "lift": e.lift,
                    "weight_matches": e.weight_matches,
                    "triangle_holds": e.triangle_holds,
                }
                for e in self.entries
            ],
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
    power_cache: list[dict[int, HSeries]] = [
        {0: HSeries.one(nv, star.order)} for _ in lifts
    ]

    def power(i: int, e: int) -> HSeries:
        cache = power_cache[i]
        while e not in cache:
            top = max(cache)
            cache[top + 1] = star.star(cache[top], lifts[i])
        return cache[e]

    for exp, coeff in relation.sorted_terms():
        term = HSeries.one(nv, star.order).scale(coeff)
        for i, e in enumerate(exp):
            if e:
                term = star.star(term, power(i, e))
        result = result + term
    return result


def build_center_iso(
    entries: Sequence[tuple[str, Poly, HSeries]],
    relations: Sequence[tuple[str, Poly]],
    act: HamiltonianAction,
    order: int,
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
        value = star_evaluate(act.star, rel_poly, lifts)
        value = value.truncate(order) if order < value.order else value
        first = value.first_nonzero_order()
        if first is not None:
            raise RelationViolationError(text, first)
        relation_rows.append((text, True))
    return IsoReport(iso_entries, relation_rows)
