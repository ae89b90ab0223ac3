"""Generators of the invariant algebra as the test set of both centers.

``invariant_generators`` keeps the invariants that are not products of
lower-degree ones.  Commuting with the generators is as strong as
commuting with every invariant up to the test cutoff: the bracket is a
biderivation, and for hamiltonians of degree at most 2 the commutator is a
derivation of an invariant product.  Monkeypatching the generator set back
to the full basis must therefore change no slice.
"""

from __future__ import annotations

import pytest

from qcenter import (
    HamiltonianAction,
    Poly,
    StarProduct,
    SymplecticSpace,
    abelian_data,
    in_span,
    invariant_generators,
    invariants_up_to,
    parse_poly,
    poisson_center_up_to,
    quantum_center_up_to,
)
from qcenter import centers
from qcenter.scenario import build_scenario, list_presets, load_scenario

PRESETS = [name for name, _ in list_presets()]


def _built(name: str):
    built = build_scenario(load_scenario(name))
    inv = invariants_up_to(built.action, built.scenario.test_degree)
    return built, inv


def _full_basis(invariants, test_degree):
    return [
        u
        for degree in invariants.degrees()
        if degree <= test_degree
        for u in invariants.basis(degree)
    ]


def _polys(exprs, names):
    return {parse_poly(expr, names) for expr in exprs}


def test_torus_k4_generators_are_the_four_quadratics():
    built, inv = _built("torus_k4")
    names = built.space.names
    gens = invariant_generators(inv, built.scenario.test_degree)
    assert len(gens) == 4
    assert set(gens) == _polys(["q1*p1", "q1*p2", "q2*p1", "q2*p2"], names)


def test_sl2_generator_is_the_pairing():
    built, inv = _built("sl2_tstar_k2")
    gens = invariant_generators(inv, built.scenario.test_degree)
    assert gens == [parse_poly("q1*p1 + q2*p2", built.space.names)]


def test_generators_stop_at_the_test_degree():
    built, inv = _built("trivial_k2")
    assert invariant_generators(inv, 0) == []
    gens = invariant_generators(inv, 3)
    assert set(gens) == _polys(["q1", "p1"], built.space.names)


@pytest.mark.parametrize("preset", PRESETS)
def test_every_invariant_is_a_polynomial_in_the_generators(preset):
    built, inv = _built(preset)
    top = built.scenario.test_degree
    gens = invariant_generators(inv, top)
    # all products of generators, by degree
    products = {0: {Poly.constant(built.space.nvars, 1)}}
    for degree in range(1, top + 1):
        products[degree] = {
            g * p
            for g in gens
            if g.degree() <= degree
            for p in products[degree - g.degree()]
        }
        for u in inv.basis(degree):
            assert in_span(u, list(products[degree])), (preset, degree, u)


@pytest.mark.parametrize("preset", PRESETS)
def test_full_test_set_gives_the_same_slices(preset, monkeypatch):
    built, inv = _built(preset)
    scenario = built.scenario
    act = built.action
    args = (act, scenario.max_degree, scenario.test_degree)
    order = scenario.truncation
    poisson = poisson_center_up_to(*args, inv)
    quantum = quantum_center_up_to(*args, order, inv)
    monkeypatch.setattr(centers, "invariant_generators", _full_basis)
    assert poisson_center_up_to(*args, inv) == poisson
    full = quantum_center_up_to(*args, order, inv)
    assert full.keys() == quantum.keys()
    for degree, slice_q in quantum.items():
        assert full[degree] == slice_q


def _spy(monkeypatch) -> list:
    calls = []

    def spy(invariants, test_degree):
        calls.append(test_degree)
        return _full_basis(invariants, test_degree)

    monkeypatch.setattr(centers, "invariant_generators", spy)
    return calls


@pytest.mark.parametrize(
    "expr, uses_generators",
    [("q1*p1", True), ("q1^2 + p1 + 3", True), ("q1^3", False)],
)
def test_quantum_center_uses_generators_only_for_quadratic_actions(
    expr, uses_generators, monkeypatch
):
    space = SymplecticSpace(1)
    h = parse_poly(expr, space.names)
    # a cubic hamiltonian breaks the quantum condition, so skip validation
    act = HamiltonianAction(
        abelian_data(1, ["t"]), StarProduct(space, 4), [h], validate=False
    )
    inv = invariants_up_to(act, 4)
    calls = _spy(monkeypatch)
    quantum_center_up_to(act, 3, 4, 4, inv)
    assert bool(calls) == uses_generators
    calls.clear()
    poisson_center_up_to(act, 3, 4, inv)
    assert calls == [4]


@pytest.mark.parametrize("preset", PRESETS)
def test_compare_centers_finds_the_generators_once(preset, monkeypatch):
    built = build_scenario(load_scenario(preset))
    scenario = built.scenario
    args = (built.action, scenario.max_degree, scenario.test_degree)
    expected = centers.compare_centers(*args, scenario.truncation).to_json_dict()
    calls = []
    real = centers.invariant_generators

    def spy(invariants, test_degree):
        calls.append(test_degree)
        return real(invariants, test_degree)

    monkeypatch.setattr(centers, "invariant_generators", spy)
    assert centers.compare_centers(*args, scenario.truncation).to_json_dict() == expected
    assert calls == [scenario.test_degree]
