"""Generators of the invariant algebra as the test set of both centers.

``invariants_up_to`` returns, with the slices, the invariants that are not
products of lower-degree ones.  Commuting with the generators is as strong as
commuting with every invariant up to the test cutoff: the bracket is a
biderivation, the commutator is a derivation of the deformed product, and
the quantum condition a validated action proves makes every term of a
product of invariants below the truncation invariant, whatever the
hamiltonians' degree.  Monkeypatching the generator set back to the full
basis must therefore change no slice and no report, on the presets and on
validated cubic and quartic actions alike.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from qcenter import (
    GradedSubspace,
    HamiltonianAction,
    Poly,
    StarProduct,
    SymplecticSpace,
    in_span,
    invariants_up_to,
    parse_poly,
)
from qcenter import centers, linalg
from qcenter.centers import poisson_center_up_to, quantum_center_up_to
from qcenter.poly import weight_zero_table
from qcenter.scenario import (
    build_scenario,
    list_presets,
    load_scenario,
    parse_scenario,
    preset_path,
)

from oracle import (
    abelian_data,
    center_inputs,
    diagonal_torus_action,
    full_basis,
    poly_key,
    polynomial_generators,
)
from test_metamorphic import rotated_lie_basis

PRESETS = [name for name, _ in list_presets()]
DATA = Path(__file__).resolve().parent / "data"


def _built(name: str):
    built = build_scenario(load_scenario(name))
    inv = invariants_up_to(built.action, built.scenario.test_degree)
    return built, inv


def _keys(polys):
    return {poly_key(f) for f in polys}


def _distinct(polys):
    return list({poly_key(f): f for f in polys}.values())


def _polys(exprs, names):
    return _keys(parse_poly(expr, names) for expr in exprs)


def test_torus_k4_generators_are_the_four_quadratics():
    built, inv = _built("torus_k4")
    names = built.action.space.names
    gens = inv.generators
    assert len(gens) == 4
    assert _keys(gens) == _polys(["q1*p1", "q1*p2", "q2*p1", "q2*p2"], names)


def test_sl2_generator_is_the_pairing():
    built, inv = _built("sl2_tstar_k2")
    gens = inv.generators
    assert gens == [parse_poly("q1*p1 + q2*p2", built.action.space.names)]


def test_generators_stop_at_the_test_degree():
    # found degree by degree: a lower cutoff keeps those of degree at most it
    built, inv = _built("trivial_k2")
    assert invariants_up_to(built.action, 0).generators == []
    gens = [g for g in inv.generators if g.degree() <= 3]
    assert gens == invariants_up_to(built.action, 3).generators
    assert _keys(gens) == _polys(["q1", "p1"], built.action.space.names)


@pytest.mark.parametrize("preset", PRESETS)
def test_every_invariant_is_a_polynomial_in_the_generators(preset):
    built, inv = _built(preset)
    top = built.scenario.test_degree
    gens = inv.generators
    # all products of generators, by degree, each once
    products = {0: [Poly.constant(built.action.space.nvars, 1)]}
    for degree in range(1, top + 1):
        products[degree] = _distinct(
            g * p
            for g in gens
            if g.degree() <= degree
            for p in products[degree - g.degree()]
        )
        for u in inv.basis(degree):
            assert in_span(u, products[degree]), (preset, degree, u)


# -- monomial bases: generators from exponent sums ----------------------------


@pytest.mark.parametrize("seed", range(40))
def test_exponent_sums_match_the_polynomial_recurrence(seed):
    # seeded diagonal weight systems: 0-3 rows, weights -3..3, 2-8
    # variables, D <= 8, slices as the all-diagonal invariant solve builds
    # them, generators up to a cutoff at most D
    rng = random.Random(seed)
    nv = rng.randint(2, 8)
    rows = [[rng.randint(-3, 3) for _ in range(nv)] for _ in range(rng.randint(0, 3))]
    top = rng.randint(0, 8)
    slices = {degree: [Poly(nv, {e: 1}) for e in exponents]
              for degree, exponents in enumerate(weight_zero_table(nv, top, rows))}
    trusted = GradedSubspace._trusted(nv, slices)
    assert trusted.slices == GradedSubspace(nv, slices).slices
    cutoff = rng.randint(0, top)
    gens = centers._monomial_generators(slices)
    assert [g for g in gens if g.degree() <= cutoff] == polynomial_generators(trusted, cutoff)


@pytest.mark.parametrize("pairs, hamiltonians, top, expected", [
    # the six-pair torus: the invariants are the polynomials in the q_j*p_j
    (6, [f"q{j}*p{j}" for j in range(1, 7)], 10,
     [f"q{j}*p{j}" for j in range(1, 7)]),
    # the separating generator q1*p2^11 enters at degree 12
    (2, ["11*q1*p1 + q2*p2"], 12, ["q1*p1", "q2*p2", "q1*p2^11", "q2^11*p1"]),
])
def test_exponent_sums_on_diagonal_tori(pairs, hamiltonians, top, expected):
    space = SymplecticSpace(pairs)
    act = HamiltonianAction(abelian_data(len(hamiltonians)), StarProduct(space, 1),
                            [parse_poly(h, space.names) for h in hamiltonians])
    inv = invariants_up_to(act, top)
    assert inv.slices == GradedSubspace(space.nvars, inv.slices).slices
    gens = inv.generators
    assert gens == polynomial_generators(inv, top)
    assert _keys(gens) == _polys(expected, space.names)
    below = invariants_up_to(act, top - 1).generators
    assert below == [g for g in gens if g.degree() < top]


@pytest.mark.parametrize("case", ["so3_rotation", "cubic_t2", "sl2_two_copies", "sl2_rotated"]
                         + [f"diagonal-{seed}" for seed in range(40)])
def test_the_solve_returns_the_recurrences_generators(case):
    # the uncounted solves (so(3), the cubic, the rotated Lie basis), the
    # counted one (two copies of sl2) and seeded diagonal tori, up to the
    # test cutoff or degree 6: the generators of the solve, in order, are
    # the polynomial recurrence's on its slices
    if case.startswith("diagonal-"):
        act, top = diagonal_torus_action(int(case.split("-")[1]))[0], 6
    else:
        if case == "sl2_rotated":
            doc = json.loads(preset_path("sl2_tstar_k2").read_text())
            scenario = parse_scenario(rotated_lie_basis(doc, random.Random(0)))
        else:
            scenario = load_scenario(str(DATA / f"{case}.json"))
        act, top = build_scenario(scenario).action, scenario.test_degree
    inv = invariants_up_to(act, top)
    assert inv.generators == polynomial_generators(inv, top)


def test_diagonal_invariants_take_no_polynomial_arithmetic(monkeypatch):
    # on torus_k4 at test degree 12, the slices are the enumerated monomials
    # and the generators come from exponent sums: no span is reduced and no
    # polynomial is multiplied (the polynomial route takes 13 and 360)
    act = build_scenario(load_scenario("torus_k4")).action
    calls = {"reduce_poly_span": 0, "__mul__": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, spy)

    counted(linalg, "reduce_poly_span")
    counted(Poly, "__mul__")
    inv = invariants_up_to(act, 12)
    assert calls == {"reduce_poly_span": 0, "__mul__": 0}
    assert len(inv.generators) == 4


# validated actions of one hamiltonian of degree 3 or 4 on two pairs, by
# case id: (hamiltonian, truncation, max_degree, test_degree); the quantum
# condition of each holds at truncations 1 and 2
VALIDATED = {
    f"{expr}-t{truncation}": (expr, truncation, max_degree, test_degree)
    for expr, max_degree, test_degree in [
        ("q1^2*p1", 8, 10), ("q1^3", 6, 8), ("q1^4", 6, 8),
    ]
    for truncation in (1, 2)
}


def _case(case):
    """The action, ``max_degree`` and ``test_degree`` of a preset or of a
    ``VALIDATED`` case."""
    if case in VALIDATED:
        expr, truncation, max_degree, test_degree = VALIDATED[case]
        space = SymplecticSpace(2)
        act = HamiltonianAction(abelian_data(1, ["t"]),
                                StarProduct(space, truncation),
                                [parse_poly(expr, space.names)])
        return act, max_degree, test_degree
    scenario = load_scenario(case)
    return build_scenario(scenario).action, scenario.max_degree, scenario.test_degree


@pytest.mark.parametrize("case", PRESETS + list(VALIDATED))
def test_full_test_set_gives_the_same_slices(case, monkeypatch):
    act, max_degree, test_degree = _case(case)
    inv = invariants_up_to(act, test_degree)
    inputs = center_inputs(act, max_degree, test_degree, inv)
    poisson = poisson_center_up_to(act, max_degree, *inputs)
    quantum = quantum_center_up_to(act, max_degree, *inputs)
    report = centers.compare_centers(act, max_degree, test_degree).to_json_dict()
    solve = centers.invariants_up_to
    monkeypatch.setattr(centers, "invariants_up_to",
                        lambda act, degree: full_basis(solve(act, degree)))
    inputs = center_inputs(act, max_degree, test_degree, full_basis(inv))
    full_poisson = poisson_center_up_to(act, max_degree, *inputs)
    assert full_poisson.slices == poisson.slices
    full = quantum_center_up_to(act, max_degree, *inputs)
    assert full.keys() == quantum.keys()
    for degree, slice_q in quantum.items():
        assert full[degree] == slice_q
    assert centers.compare_centers(act, max_degree, test_degree).to_json_dict() == report


@pytest.mark.parametrize("preset", PRESETS)
def test_compare_centers_finds_the_generators_once(preset, request):
    # one solve, every generator finder inside it, and the same report
    scenario = load_scenario(preset)
    args = (build_scenario(scenario).action, scenario.max_degree, scenario.test_degree)
    expected = centers.compare_centers(*args).to_json_dict()
    calls = request.getfixturevalue("generator_discovery")
    assert centers.compare_centers(*args).to_json_dict() == expected
    names = [name for name, _ in calls]
    assert names[0] == "invariants_up_to" and names.count("invariants_up_to") == 1
    assert len(names) > 1 and all(inside for _, inside in calls)


@pytest.mark.parametrize("case", ["so3_rotation", "cubic_t2"])
def test_an_uncounted_solve_extends_its_generators_once_per_degree(case, request):
    # no weight count: every slice of degree 1 to the bound is solved, and
    # the one degree loop extends the generators once per slice, inside the
    # solve; the all-monomial slices of cubic_t2 take no exponent route
    scenario = load_scenario(str(DATA / f"{case}.json"))
    act, top = build_scenario(scenario).action, scenario.test_degree
    assert act.raising_root is None and act.nondiagonal
    calls = request.getfixturevalue("generator_discovery")
    centers.invariants_up_to(act, top)
    assert calls == [("invariants_up_to", True)] + [("independent_extension", True)] * top
