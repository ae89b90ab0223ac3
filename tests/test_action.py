from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from qcenter import (
    HamiltonianAction,
    HSeries,
    InvalidActionError,
    Poly,
    StarProduct,
    UEnvElement,
    ValidationError,
    central_section,
    check_classical_limit_triangle,
    check_quantum_moment_condition,
    symmetrize,
)
import qcenter.scenario as scenario_mod
from qcenter.scenario import load_scenario, run_scenario

from oracle import UncheckedAction, brute_force_product, random_poly


def test_equivariance_is_validated(sl2, star2):
    sp = star2.space
    bad = [sp.q(2) * sp.p(1), sp.q(1) * sp.p(1), sp.q(1) * sp.p(2)]
    with pytest.raises(ValidationError):
        HamiltonianAction(sl2, star2, bad)


def test_quantum_condition_rejects_noncentral_corrections(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    broken = HSeries.from_poly(h, 8) + HSeries.from_poly(sp.q(1), 8).hbar_shift(1)
    with pytest.raises(InvalidActionError):
        HamiltonianAction(torus1, star1, [h], [broken])


def test_quantum_constant_correction_allowed(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    shifted = HSeries.from_poly(h, 8) + HSeries.from_poly(
        Poly.constant(2, Fraction(1, 2)), 8
    ).hbar_shift(1)
    act = HamiltonianAction(torus1, star1, [h], [shifted])
    assert act.quantum_hamiltonians[0].coefficient(1) == Poly.constant(
        2, Fraction(1, 2)
    )


def test_moment_condition_on_samples(torus_action):
    sp = torus_action.space
    report = check_quantum_moment_condition(
        torus_action, [sp.q(1), sp.one(), sp.q(1) * sp.q(1) * sp.p(1)]
    )
    assert report.passed
    # the defining example: the commutator with q1 is minus the parameter times q1
    comm = torus_action.star.star_commutator(
        torus_action.quantum_hamiltonians[0],
        HSeries.from_poly(sp.q(1), torus_action.order),
    )
    expected = HSeries.from_poly(-sp.q(1), torus_action.star.order).hbar_shift(1)
    assert comm == expected
    assert torus_action.star.poisson(torus_action.hamiltonians[0], sp.q(1)) == -sp.q(1)


def test_moment_condition_zero_residual_on_random_samples(sl2_action):
    rng = random.Random(8080)
    samples = [random_poly(rng, 4, 6) for _ in range(20)]
    report = check_quantum_moment_condition(sl2_action, samples)
    assert report.passed


def test_moment_condition_reports_the_first_residual_order(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    # hbar*q1 is not central: [hbar q1, p1^2] = 2 hbar^2 p1, a residual at order 2
    hq = HSeries.from_poly(h, 8) + HSeries.from_poly(sp.q(1), 8).hbar_shift(1)
    act = UncheckedAction(torus1, star1, [h], [hq])
    report = check_quantum_moment_condition(
        act, [sp.q(1), sp.p(1) * sp.p(1), sp.one()]
    )
    assert report.to_json_dict() == {
        "name": "quantum-moment-condition",
        "passed": False,
        "checks": 3,
        "failures": [{"label": "sample 1, generator t", "detail": "residual from order 2"}],
    }


def test_moment_condition_reports_the_lowest_of_several_orders(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    # the doubled classical part misses at order 1 wherever {h, f} != 0, and
    # hbar*q1 at order 2 wherever {q1, f} != 0
    hq = HSeries.from_poly(h.scale(2), 8) + HSeries.from_poly(sp.q(1), 8).hbar_shift(1)
    act = UncheckedAction(torus1, star1, [h], [hq])
    report = check_quantum_moment_condition(
        act, [sp.one(), h, sp.p(1), sp.p(1) * sp.p(1)]
    )
    assert report.to_json_dict()["failures"] == [
        {"label": "sample 1, generator t", "detail": "residual from order 2"},
        {"label": "sample 2, generator t", "detail": "residual from order 1"},
        {"label": "sample 3, generator t", "detail": "residual from order 1"},
    ]


def test_moment_condition_needs_matching_truncations(torus1, star1):
    # the action prepares its quantum hamiltonians when it is built, so a
    # truncation other than the product's is refused there, before any check
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    with pytest.raises(ValidationError, match="quantum hamiltonian truncation mismatch"):
        UncheckedAction(torus1, star1, [h], [HSeries.from_poly(h, 4)])


def test_comoment_generators_and_unit(sl2_action):
    for i in range(3):
        gen = UEnvElement.generator(sl2_action.lie, i, sl2_action.order)
        assert sl2_action.comoment(gen) == HSeries.from_poly(
            sl2_action.hamiltonians[i], sl2_action.order
        )
    one = UEnvElement.one(sl2_action.lie, sl2_action.order)
    assert sl2_action.comoment(one) == HSeries.one(4, sl2_action.order)


def test_comoment_is_homomorphism(sl2_action):
    rng = random.Random(63)
    lie = sl2_action.lie
    for _ in range(10):
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(
                    sorted(rng.randrange(3) for _ in range(rng.randint(0, 3)))
                )
                terms[word, rng.randint(0, 1)] = Fraction(rng.randint(-2, 2) or 1)
            return UEnvElement(lie, sl2_action.order, terms)

        a, b = rand_elem(), rand_elem()
        lhs = sl2_action.comoment(a * b)
        rhs = sl2_action.star.star(sl2_action.comoment(a), sl2_action.comoment(b))
        assert lhs == rhs


def test_comoment_golden_value(sl2_action):
    """The quantum image of the symmetrized quadratic invariant.

    Independently recomputed here from single-factor products: with
    H_e = q2 p1, H_f = q1 p2, H_h = q1 p1 - q2 p2 the images of the words
    are assembled by brute force, giving the pairing squared minus 3/2
    times the squared parameter.
    """
    sp = sl2_action.space
    star = sl2_action.star
    lie = sl2_action.lie
    cas = lie.generator("casimir").poly
    image = sl2_action.comoment(symmetrize(lie, cas, star.order))

    He, Hh, Hf = sl2_action.hamiltonians
    # oracle: raw index-sequence expansions, not the packaged contraction
    def embed_terms(terms):
        out = HSeries.zero(4, star.order)
        for r, poly in terms.items():
            out = out + HSeries.from_poly(poly, star.order).hbar_shift(r)
        return out

    hh = embed_terms(brute_force_product(sp, Hh, Hh))
    ef = embed_terms(brute_force_product(sp, He, Hf))
    h1 = HSeries.from_poly(Hh, star.order).hbar_shift(1)
    oracle = hh + ef.scale(4) + h1.scale(-2)
    assert image == oracle

    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    expected = HSeries.from_poly(tr * tr, star.order) + HSeries.from_poly(
        Poly.constant(4, Fraction(-3, 2)), star.order
    ).hbar_shift(2)
    assert image == expected
    # equivalently: the square of the lifted pairing minus one parameter square
    lifted = HSeries.from_poly(tr, star.order)
    square = star.star(lifted, lifted)
    assert image == square + HSeries.one(4, star.order).hbar_shift(2).scale(-1)


def test_comoment_rejects_inconsistent_quantum_data(sl2, star2, sl2_action, torus1, star1):
    # a constant correction of h at order 1 meets the quantum condition, but
    # [e, f] = h then needs the same constant from [H_hat_e, H_hat_f], which
    # is hbar {H_e, H_f} alone
    quantum = list(sl2_action.quantum_hamiltonians)
    quantum[1] = quantum[1] + HSeries.one(4, 8).hbar_shift(1)
    with pytest.raises(InvalidActionError, match=r"do not close under the "
                                                 r"commutator: \(e, f\)$"):
        HamiltonianAction(sl2, star2, sl2_action.hamiltonians, quantum)
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    act2 = HamiltonianAction(torus1, star1, [h])
    assert act2.comoment(UEnvElement.generator(torus1, 0, 8)) == HSeries.from_poly(h, 8)


def _triangle(act, z):
    """Both classical-limit routes for any polynomial ``z``: its
    symmetrization reduces to ``z``, and its comoment image to its moment
    pullback."""
    lifted = symmetrize(act.lie, z, act.order)
    return (lifted.classical_limit() == z
            and act.comoment(lifted).classical_part() == act.moment_pullback(z))


def test_triangle_abelian_rank_one(torus_action):
    report = check_classical_limit_triangle(torus_action)
    assert report.passed and report.checks == 2
    z = Poly.variable(1, 0)
    assert _triangle(torus_action, z)
    assert torus_action.moment_pullback(z) == torus_action.hamiltonians[0]


def test_triangle_casimir_both_paths(sl2_action):
    report = check_classical_limit_triangle(sl2_action)
    assert report.passed and report.checks == 2
    cas = sl2_action.lie.generator("casimir").poly
    (section,) = sl2_action.central_sections
    assert section.classical_limit() == cas
    sp = sl2_action.space
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    assert sl2_action.pullbacks == (tr * tr,)
    assert sl2_action.central_lifts[0].classical_part() == tr * tr


def test_triangle_reads_the_record(sl2_action):
    # the check reads the action's sections, lifts and pullbacks: a record
    # that does not reduce fails under the check's two labels
    act = copy.copy(sl2_action)
    one = UEnvElement.one(act.lie, act.order)
    act.central_sections = (act.central_sections[0] + one,)
    act.central_lifts = (act.central_lifts[0] + HSeries.one(act.space.nvars, act.order),)
    report = check_classical_limit_triangle(act)
    assert report.checks == 2
    assert [e.label for e in report.failed] == [
        "symmetrization reduces to the input",
        "quantum image reduces to the moment pullback",
    ]


def test_triangle_constant(sl2_action):
    one = Poly.constant(3, 1)
    assert _triangle(sl2_action, one)


def test_random_invariant_combinations_triangle(sl2_action, torus_action):
    rng = random.Random(404)
    cas = sl2_action.lie.generator("casimir").poly
    for _ in range(15):
        z = Poly.zero(3)
        for power in range(rng.randint(1, 2) + 1):
            z = z + (cas**power).scale(Fraction(rng.randint(-3, 3)))
        if z.is_zero():
            continue
        assert _triangle(sl2_action, z)
    t = Poly.variable(1, 0)
    for _ in range(15):
        z = Poly.zero(1)
        for power in range(rng.randint(1, 3) + 1):
            z = z + (t**power).scale(Fraction(rng.randint(-3, 3)))
        if z.is_zero():
            continue
        assert _triangle(torus_action, z)


def _two_generators():
    # casimir^2 first, then casimir: the order of the lifts is visible
    scenario = load_scenario("sl2_tstar_k2")
    (cas,) = scenario.lie_generators
    square = cas._replace(name="square", poly=cas.poly * cas.poly, section_correction=())
    return scenario._replace(lie_generators=(square, cas), lifts=(), relations=(),
                             center_generators=(), tasks=())


@pytest.mark.parametrize("scenario", [
    load_scenario("sl2_tstar_k2"), load_scenario("torus_k4"), _two_generators(),
], ids=["sl2_tstar_k2", "torus_k4", "two_generators"])
def test_the_action_holds_each_generators_central_lift_in_generator_order(scenario):
    act = scenario_mod.build_scenario(scenario).action
    names = [gen.name for gen in act.lie.invariant_generators]
    assert names
    assert act.central_lifts == tuple(
        act.comoment(central_section(act.lie, name, act.order)) for name in names
    )


def test_one_run_prepares_and_brackets_each_hamiltonian_once(monkeypatch):
    # the action builds one record of its hamiltonians, prepared and
    # bracketed with the coordinates, and every task reads it: no
    # hamiltonian is prepared again, not even as the classical part of its
    # quantum hamiltonian, and no bracket {H_i, x_j} is taken again
    scenario = load_scenario("sl2_tstar_k2")
    built = []
    build, prepare, slot, poisson = (
        scenario_mod.build_scenario, StarProduct._prepare, StarProduct._slot,
        StarProduct.poisson,
    )
    slotted = []  # every polynomial given its kernel slot
    forms = {}  # id of a classical hamiltonian -> its prepared forms
    brackets = []  # (prepared form, coordinate polynomial) of every bracket

    def spy_build(scenario):
        built.append(build(scenario))
        return built[-1]

    def spy_prepare(self, x):
        out = prepare(self, x)
        if any(x is h for h in scenario.hamiltonians):
            forms.setdefault(id(x), []).append(out)
        return out

    def spy_slot(self, f):
        slotted.append(f)
        return slot(self, f)

    def spy_poisson(self, f, g):
        if isinstance(g, Poly) and g.degree() == 1:
            brackets.append((f, g))
        return poisson(self, f, g)

    monkeypatch.setattr(scenario_mod, "build_scenario", spy_build)
    monkeypatch.setattr(StarProduct, "_prepare", spy_prepare)
    monkeypatch.setattr(StarProduct, "_slot", spy_slot)
    monkeypatch.setattr(StarProduct, "poisson", spy_poisson)
    report = run_scenario(scenario)
    assert all(task.passed for task in report.tasks)
    (act,) = [b.action for b in built]
    nv = act.space.nvars
    for h, ph, pq in zip(act.hamiltonians, act.prepared_hamiltonians,
                         act.prepared_quantum):
        assert sum(f is h for f in slotted) == 1
        assert pq.slots[0] is ph.slots[0]
        (form,) = forms[id(h)]
        for j in range(nv):
            x = Poly.variable(nv, j)
            assert sum(f is form and g == x for f, g in brackets) == 1


def _entered_by_the_quantum_checks(monkeypatch, scenario) -> list[str]:
    """The ``StarProduct`` methods entered while the quantum condition and
    the closure check run on the scenario's action."""
    inside, entered = [], []
    for name in ("_quantum_condition_failure", "assert_quantum_consistency"):
        def check(self, _real=getattr(HamiltonianAction, name)):
            inside.append(self)
            try:
                return _real(self)
            finally:
                inside.pop()

        monkeypatch.setattr(HamiltonianAction, name, check)
    for name in ("_prepare", "_contract"):
        def spy(self, *args, _name=name, _real=getattr(StarProduct, name), **kwargs):
            if inside:
                entered.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(StarProduct, name, spy)
    scenario_mod.build_scenario(scenario)
    return entered


def test_quantum_condition_prepares_no_monomial(monkeypatch):
    # the quantum condition and closure are read off the coefficients
    # (module docstring of qcenter.action): on sl2_tstar_k2 neither
    # prepares a polynomial or contracts one
    assert _entered_by_the_quantum_checks(monkeypatch, load_scenario("sl2_tstar_k2")) == []


def _one_generator(hamiltonian: str, corrections: dict, truncation: int) -> dict:
    return {
        "space": {"pairs": 3},
        "lie_algebra": {"dim": 1, "labels": ["t"]},
        "hamiltonians": {"t": hamiltonian},
        "quantum_corrections": {"t": corrections},
        "truncation": truncation,
        "tasks": [],
    }


def test_a_cubic_hamiltonian_meets_the_quantum_condition_below_truncation_3():
    # 2 D_3(H, f) is the first term of the defect, at order 3: q1^2*p1 meets
    # the condition at truncation 2 (tests/data/cubic_t2.json) and not at 3
    document = _one_generator("q1^2*p1", {}, 2)
    scenario_mod.build_scenario(scenario_mod.parse_scenario(document))
    document = _one_generator("q1^2*p1", {}, 3)
    with pytest.raises(InvalidActionError) as info:
        scenario_mod.build_scenario(scenario_mod.parse_scenario(document))
    assert str(info.value) == ("quantum condition fails for t: its hamiltonian has "
                               "degree 3 at truncation 3")


def test_quantum_condition_admits_any_correction_at_the_truncation(monkeypatch):
    # the correction q1^24 at order 4 = truncation commutes only to orders
    # past it, so it is admitted without a contraction; one order lower it
    # meets the bracket at order 4 and is refused
    document = _one_generator("q1*p1 + q2*p2 + q3*p3", {"4": "q1^24"}, 4)
    assert _entered_by_the_quantum_checks(
        monkeypatch, scenario_mod.parse_scenario(document)) == []
    document = _one_generator("q1*p1 + q2*p2 + q3*p3", {"3": "q1^24"}, 4)
    with pytest.raises(InvalidActionError) as info:
        scenario_mod.build_scenario(scenario_mod.parse_scenario(document))
    assert str(info.value) == ("quantum condition fails for t: its correction at "
                               "order 3 is not a constant")


def test_quantum_condition_reports_the_first_failure_of_the_first_generator():
    # a's corrections are a constant at order 1 and q2 at order 2; b's
    # hamiltonian is cubic at truncation 4: the failure reported is a's
    # lowest one, generators first
    document = {
        "space": {"pairs": 2},
        "lie_algebra": {"dim": 2, "labels": ["a", "b"]},
        "hamiltonians": {"a": "q1*p1", "b": "q2^3"},
        "quantum_corrections": {"a": {"1": "1", "2": "q2", "3": "p2"}},
        "truncation": 4,
        "tasks": [],
    }
    with pytest.raises(InvalidActionError) as info:
        scenario_mod.build_scenario(scenario_mod.parse_scenario(document))
    assert str(info.value) == ("quantum condition fails for a: its correction at "
                               "order 2 is not a constant")


def test_quantum_condition_stops_at_a_failure_of_the_first_generator():
    # q1^24 on four pairs breaks the condition by its degree, which is read
    # before its corrections: q1 at order 1 is not reported, and none of the
    # C(32, 8) monomials of degree <= 24 in eight variables is tried
    document = {
        "space": {"pairs": 4},
        "lie_algebra": {"dim": 1, "labels": ["t"]},
        "hamiltonians": {"t": "q1^24"},
        "quantum_corrections": {"t": {"1": "q1"}},
        "tasks": [],
    }
    with pytest.raises(InvalidActionError) as info:
        scenario_mod.build_scenario(scenario_mod.parse_scenario(document))
    assert str(info.value) == ("quantum condition fails for t: its hamiltonian has "
                               "degree 24 at truncation 8")
