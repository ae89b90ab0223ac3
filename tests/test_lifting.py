from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

import qcenter.lifting as lifting
from qcenter import (
    HamiltonianAction,
    HSeries,
    LiftObstructionError,
    MonicRelation,
    NonSimpleRootError,
    Poly,
    RelationViolationError,
    StarProduct,
    SymplecticSpace,
    TruncationError,
    ValidationError,
    build_center_iso,
    hensel_lift,
    invariants_up_to,
    minimality_holds,
    moment_image_basis,
    parse_poly,
    star_evaluate,
    symmetrize,
    verify_lift,
)

from qcenter.scenario import build_scenario, load_scenario, resolve_lift

from oracle import abelian_data, dense_in_span

GOLDEN = Path(__file__).resolve().parent / "golden"


def invariant_tests(act, cutoff=8):
    inv = invariants_up_to(act, cutoff)
    return [u for d in inv.degrees() for u in inv.basis(d)]


@pytest.fixture(scope="module")
def sl2_lift_data(sl2_action):
    """Classical pairing, its monic relation with corrected quantum data."""
    sp = sl2_action.space
    star = sl2_action.star
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    a = tr * tr
    # quantum coefficient with the central order-2 section correction: the
    # exact square of the lifted pairing
    lifted = HSeries.from_poly(tr, star.order)
    ahat = star.star(lifted, lifted)
    rel = MonicRelation((-a, Poly.zero(4)), (-ahat, HSeries.zero(4, star.order)))
    return tr, a, ahat, rel


def test_linear_relation_returns_designated_lift(torus_action):
    sp = torus_action.space
    star = torus_action.star
    qp = sp.q(1) * sp.p(1)
    ahat = HSeries.from_poly(qp, star.order) + HSeries.one(2, star.order).hbar_shift(2).scale(
        Fraction(1, 3)
    )
    # the correction must be central for the relation data to validate
    rel = MonicRelation((-qp,), (-ahat,))
    rel.validate_centrality(torus_action, invariant_tests(torus_action))
    lifted = hensel_lift(qp, rel, torus_action)
    assert lifted == ahat


def test_sl2_lift_succeeds_with_zero_corrections(sl2_action, sl2_lift_data):
    tr, a, ahat, rel = sl2_lift_data
    tests = invariant_tests(sl2_action, 10)
    rel.validate_centrality(sl2_action, tests)
    lifted = hensel_lift(tr, rel, sl2_action)
    assert lifted == HSeries.from_poly(tr, sl2_action.star.order)
    report = verify_lift(lifted, rel, sl2_action, tests)
    assert report.passed
    assert report.weight == -2


def test_sl2_lift_obstruction_with_uncorrected_section(sl2_action):
    """Without the central order-2 correction the defect at order 2 is a
    nonzero constant, which the relation derivative cannot divide."""
    sp = sl2_action.space
    star = sl2_action.star
    lie = sl2_action.lie
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    a = tr * tr
    cas = lie.generator("casimir").poly
    plain_image = sl2_action.comoment(symmetrize(lie, cas, star.order))
    rel = MonicRelation((-a, Poly.zero(4)), (-plain_image, HSeries.zero(4, star.order)))
    with pytest.raises(LiftObstructionError) as info:
        hensel_lift(tr, rel, sl2_action)
    assert info.value.order == 2
    assert info.value.remainder == Poly.constant(4, 1)


def test_perturbed_relation_tracks_quantum_data(torus_action):
    """Shifting the quantum coefficient shifts the lift, not the recursion."""
    sp = torus_action.space
    star = torus_action.star
    qp = sp.q(1) * sp.p(1)
    perturbed = (
        HSeries.from_poly(qp, star.order) + -HSeries.one(2, star.order).hbar_shift(1)
    )
    rel = MonicRelation((-qp,), (-perturbed,))
    lifted = hensel_lift(qp, rel, torus_action)
    assert lifted == perturbed
    assert lifted.coefficient(1) == Poly.constant(2, -1)
    assert verify_lift(lifted, rel, torus_action, invariant_tests(torus_action)).passed


def test_sl2_perturbation_obstructs_at_order_one(sl2_action, sl2_lift_data):
    tr, a, ahat, rel = sl2_lift_data
    star = sl2_action.star
    bumped = MonicRelation(
        rel.coefficients,
        (rel.quantum_coefficients[0] + HSeries.one(4, star.order).hbar_shift(1),
         rel.quantum_coefficients[1]),
    )
    with pytest.raises(LiftObstructionError) as info:
        hensel_lift(tr, bumped, sl2_action)
    assert info.value.order == 1


def test_divisible_perturbation_proceeds_then_obstructs(sl2_action, sl2_lift_data):
    """A defect divisible by the derivative is absorbed; the inhomogeneous
    tail it creates eventually leaves the polynomial ring."""
    tr, a, ahat, rel = sl2_lift_data
    star = sl2_action.star
    bumped = MonicRelation(
        rel.coefficients,
        (
            rel.quantum_coefficients[0]
            + -HSeries.from_poly(a, star.order).hbar_shift(2),
            rel.quantum_coefficients[1],
        ),
    )
    with pytest.raises(LiftObstructionError) as info:
        hensel_lift(tr, bumped, sl2_action)
    assert info.value.order == 4
    # order 2 was solvable: the correction tr/2 divides exactly


def test_nonsimple_root_detected(torus_action):
    sp = torus_action.space
    star = torus_action.star
    qp = sp.q(1) * sp.p(1)
    # (t - qp)^2 as a relation for qp: derivative vanishes at the root
    rel = MonicRelation(
        (qp * qp, (-qp).scale(2)),
        (
            HSeries.from_poly(qp * qp, star.order),
            HSeries.from_poly((-qp).scale(2), star.order),
        ),
    )
    with pytest.raises(NonSimpleRootError):
        hensel_lift(qp, rel, torus_action)


def test_classical_relation_must_hold(torus_action):
    sp = torus_action.space
    star = torus_action.star
    qp = sp.q(1) * sp.p(1)
    rel = MonicRelation(
        (-qp - sp.one(),), (HSeries.from_poly(-qp - sp.one(), star.order),)
    )
    with pytest.raises(ValidationError):
        hensel_lift(qp, rel, torus_action)


def test_minimality_check(sl2_action, sl2_lift_data):
    tr, a, ahat, rel = sl2_lift_data
    sub = moment_image_basis(sl2_action, 10)
    assert minimality_holds(tr, rel, sub)
    # the pullback itself satisfies a linear relation over the subalgebra,
    # so a quadratic one for it is not minimal
    quad_for_a = MonicRelation(
        (Poly.zero(4), a + a),  # placeholder coefficients of matching length
        (HSeries.zero(4, 8), HSeries.from_poly(a + a, sl2_action.star.order)),
    )
    assert not minimality_holds(a, quad_for_a, sub)


@pytest.mark.parametrize("f_text", ["q1*p1", "q1*p1 - 2*q2*p2", "q1*p2*q2*p1"])
def test_minimality_holds_after_infeasible_solves(f_text):
    """Over the subalgebra generated by the pairing every smaller-degree
    system is non-empty but has no solution, so f is minimal only after a
    solve at each degree; a dense solve agrees."""
    space = SymplecticSpace(2)
    tr = space.q(1) * space.p(1) + space.q(2) * space.p(2)
    act = HamiltonianAction(abelian_data(1, ["t"]), StarProduct(space, 2), [tr])
    sub = moment_image_basis(act, 12)
    f = parse_poly(f_text, space.names)
    rel = MonicRelation((Poly.zero(4),) * 3, (HSeries.zero(4, 2),) * 3)
    for m in range(1, rel.degree):
        products = [
            b * f**j for j in range(m) for b in sub.basis((m - j) * f.degree())
        ]
        assert products
        assert not dense_in_span(f**m, products)
    assert minimality_holds(f, rel, sub)
    # the pairing itself satisfies a linear relation
    assert dense_in_span(tr, sub.basis(2))
    assert not minimality_holds(tr, rel, sub)


def test_verify_lift_reports_first_failing_order(torus_action):
    sp = torus_action.space
    star = torus_action.star
    qp = sp.q(1) * sp.p(1)
    corrected = (
        HSeries.from_poly(qp, star.order) + HSeries.one(2, star.order).hbar_shift(1)
    )
    rel = MonicRelation((-qp,), (-corrected,))
    # claim the bare element is the lift although the data demands a shift
    report = verify_lift(HSeries.from_poly(qp, star.order), rel, torus_action)
    assert not report.passed
    assert report.relation_first_failure == 1


def test_verify_lift_order_zero_is_classical_check(torus_action):
    """At truncation 0 only classical parts are compared: the commutator of
    q1 with q1*p1 starts at order 1, so it shows at truncation 8 only."""
    sp = torus_action.space
    q1, qp = sp.q(1), sp.q(1) * sp.p(1)
    act = HamiltonianAction(
        torus_action.lie, StarProduct(sp, 0), torus_action.hamiltonians
    )
    rel = MonicRelation((-q1,), (HSeries.from_poly(-q1, act.star.order),))
    report = verify_lift(HSeries.from_poly(q1, act.star.order), rel, act, [qp])
    assert report.passed
    assert report.classical_relation_holds
    star = torus_action.star
    rel = MonicRelation((-q1,), (HSeries.from_poly(-q1, star.order),))
    report = verify_lift(HSeries.from_poly(q1, star.order), rel, torus_action, [qp])
    assert report.centrality_failures == [("q1*p1", 1)]


def test_verify_lift_centrality_failures(torus_action):
    sp = torus_action.space
    star = torus_action.star
    q1 = sp.q(1)
    rel = MonicRelation((-q1,), (HSeries.from_poly(-q1, star.order),))
    report = verify_lift(
        HSeries.from_poly(q1, star.order), rel, torus_action,
        invariant_tests(torus_action),
    )
    assert report.centrality_failures
    against, order = report.centrality_failures[0]
    assert order == 1


def test_star_evaluate_on_commuting_lifts(sl2_action, sl2_lift_data):
    tr, a, ahat, rel = sl2_lift_data
    star = sl2_action.star
    lifted_tr = HSeries.from_poly(tr, star.order)
    relation = Poly(2, {(2, 0): Fraction(1), (0, 1): Fraction(-1)})  # x^2 - y
    value = star_evaluate(star, relation, [lifted_tr, ahat])
    assert value.is_zero()


def test_build_center_iso_single_generator(torus_action):
    sp = torus_action.space
    star = torus_action.star
    qp = sp.q(1) * sp.p(1)
    entries = [("J", qp, HSeries.from_poly(qp, star.order))]
    report = build_center_iso(entries, [], torus_action)
    assert report.passed
    assert report.entries[0].triangle_holds
    assert report.entries[0].weight_matches


def test_build_center_iso_sl2_relation(sl2_action, sl2_lift_data):
    tr, a, ahat, rel = sl2_lift_data
    star = sl2_action.star
    entries = [
        ("c2", a, ahat),
        ("tr", tr, HSeries.from_poly(tr, star.order)),
    ]
    relation = Poly(2, {(0, 2): Fraction(1), (1, 0): Fraction(-1)})  # tr^2 - c2
    report = build_center_iso(entries, [("tr^2 - c2", relation)], sl2_action)
    assert report.passed
    assert report.relations == [("tr^2 - c2", True)]


def test_build_center_iso_detects_violation(sl2_action, sl2_lift_data):
    tr, a, ahat, rel = sl2_lift_data
    star = sl2_action.star
    lie = sl2_action.lie
    cas = lie.generator("casimir").poly
    plain_image = sl2_action.comoment(symmetrize(lie, cas, star.order))
    entries = [
        ("c2", a, plain_image),       # uncorrected image breaks the relation
        ("tr", tr, HSeries.from_poly(tr, star.order)),
    ]
    relation = Poly(2, {(0, 2): Fraction(1), (1, 0): Fraction(-1)})
    with pytest.raises(RelationViolationError) as info:
        build_center_iso(entries, [("tr^2 - c2", relation)], sl2_action)
    assert info.value.order == 2


def test_lift_order_by_order_uniqueness(sl2_action, sl2_lift_data):
    tr, a, ahat, rel = sl2_lift_data
    first = hensel_lift(tr, rel, sl2_action)
    second = hensel_lift(tr, rel, sl2_action)
    assert first == second


def _off_truncation_calls(act):
    """Relation data or a lift away from the action's truncation 8."""
    qp = act.space.q(1) * act.space.p(1)
    high = MonicRelation((-qp,), (-HSeries.from_poly(qp, 10),))
    low = MonicRelation((-qp,), (-HSeries.from_poly(qp, 6),))
    rel = MonicRelation((-qp,), (-HSeries.from_poly(qp, act.star.order),))
    low_lift = HSeries.from_poly(qp, 6)
    return {
        "hensel_lift": lambda: hensel_lift(qp, high, act),
        "validate_centrality": lambda: low.validate_centrality(act, [qp]),
        "verify_lift": lambda: verify_lift(low_lift, rel, act),
        "star_commutator": lambda: act.star.star_commutator(low_lift, low_lift),
        "prepare": lambda: act.star.prepare(low_lift),
    }


@pytest.mark.parametrize(
    "call",
    ["hensel_lift", "validate_centrality", "verify_lift", "star_commutator", "prepare"],
)
def test_series_off_the_action_truncation_raise(torus_action, call):
    assert torus_action.order == 8
    with pytest.raises(TruncationError):
        _off_truncation_calls(torus_action)[call]()


def test_hensel_lift_checks_minimality_without_a_subalgebra():
    """The pairing satisfies a linear relation over the subalgebra its own
    pullback generates, so a quadratic relation for it is refused."""
    space = SymplecticSpace(2)
    tr = space.q(1) * space.p(1) + space.q(2) * space.p(2)
    act = HamiltonianAction(abelian_data(1, ["t"]), StarProduct(space, 2), [tr])
    lifted = HSeries.from_poly(tr, act.order)
    square = act.star.star(lifted, lifted)
    rel = MonicRelation((-tr * tr, Poly.zero(4)), (-square, HSeries.zero(4, 2)))
    with pytest.raises(ValidationError, match="smaller monic relation"):
        hensel_lift(tr, rel, act)


@pytest.mark.parametrize("preset", ["torus_k2", "sl2_tstar_k2"])
def test_lift_evaluates_the_relation_once_per_correction_and_once_to_finish(
    monkeypatch, preset
):
    golden = json.loads((GOLDEN / f"{preset}.json").read_text())
    expected = {
        g["name"]: g["lift"]
        for task in golden["tasks"] if task["task"] == "iso"
        for g in task["details"]["generators"]
    }
    built = build_scenario(load_scenario(preset))
    calls = []
    defect = lifting.relation_defect

    def counting_defect(*args):
        calls.append(args)
        return defect(*args)

    monkeypatch.setattr(lifting, "relation_defect", counting_defect)
    counts = {}
    for spec in built.scenario.lifts:
        f, rel = resolve_lift(built, spec)
        calls.clear()
        fhat = hensel_lift(f, rel, built.action)
        # every order of the lift above the classical one is one correction
        corrections = len(fhat.terms) - 1
        assert len(calls) == corrections + 1
        assert fhat.to_string(built.space.names) == expected[spec.name]
        counts[spec.name] = len(calls)
    if preset == "torus_k2":
        assert counts == {"J": 1}
    else:
        assert counts == {"c2": 2, "tr": 1}
