"""The facts the lift pipeline takes from construction, checked here.

The package proves these in docstrings and no longer checks them at run
time:

* Each quantum coefficient of a lift relation, ``star_evaluate`` of a
  coefficient on the central lifts, commutes with every invariant basis
  element up to the test cutoff modulo the truncation, and its classical
  part is the coefficient on the moment pullbacks (``lifting`` module
  docstring).
* Each central section commutes with every generator of the deformed
  enveloping algebra, by the independent rewriting of ``oracle``, and
  reduces to its generator (``envelope`` module docstring).
* Below the truncation, every coefficient of a central lift is invariant
  (``scenario`` module docstring), so the build checks only the top one.

They run on the presets, the two documents under ``tests/data`` and the
seeded tori of ``test_metamorphic``, diagonal and pushed through
symplectic transvections.  The tori have no lift requests: their
relations have seeded coefficients in the generators.

Validation reads the quantum condition and closure off the coefficients
(``action`` module docstring).  It must accept and refuse as the
references of ``oracle`` do: the walk over every monomial up to the order
of the operator the condition states, and the deformed commutator of
every pair of quantum hamiltonians, both on the brute-force product.  They
run on seeded one-generator actions (hamiltonians of degree 0 to 3,
corrections of degree 0 to 2 at seeded orders, truncations 0 to 5) and on
``sl2_tstar_k2`` with seeded constant corrections.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from qcenter import (
    HamiltonianAction,
    HSeries,
    InvalidActionError,
    MonicRelation,
    StarProduct,
    SymplecticSpace,
    central_section,
    invariants_up_to,
    star_evaluate,
)
from qcenter.scenario import build_scenario, list_presets, load_scenario

from oracle import (
    UncheckedAction,
    abelian_data,
    central_in_envelope,
    quantum_condition_holds,
    quantum_hamiltonians_close,
    random_homogeneous_poly,
    random_poly,
)
from test_metamorphic import DEGREE, SEEDS, action, diagonal_torus, transvections

DATA = Path(__file__).resolve().parent / "data"
DOCUMENTS = [name for name, _ in list_presets()] + [
    str(DATA / "cubic_t2.json"), str(DATA / "so3_rotation.json")]


def check_construction(act, coefficients, test_degree):
    """Every fact of the module docstring on one validated action, for
    relations with the given coefficients in the generator names."""
    invariants = invariants_up_to(act, test_degree)
    tests = [act.star.prepare(u) for d in sorted(invariants.slices)
             for u in invariants.basis(d)]
    for relation in coefficients:
        rel = MonicRelation(tuple(star_evaluate(act.star, a, act.central_lifts)
                                  for a in relation))
        for a, ahat, classical in zip(relation, rel.quantum_coefficients,
                                      rel.coefficients):
            assert classical == a.substitute(act.pullbacks, act.space.nvars)
            pa = act.star.prepare(ahat)
            for u in tests:
                assert act.star.star_commutator(pa, u).is_zero()
    for gen, pullback, lift in zip(act.lie.invariant_generators, act.pullbacks,
                                   act.central_lifts):
        assert lift.classical_part() == pullback
        section = central_section(act.lie, gen.name, act.order)
        assert section.classical_limit() == gen.poly
        assert central_in_envelope(section)
        for r, coefficient in lift.terms.items():
            if r < act.order:
                for h in act.prepared_hamiltonians:
                    assert act.star.poisson(h, coefficient).is_zero(), (gen.name, r)


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda d: Path(d).stem)
def test_lift_relations_and_sections_of_the_documents(document):
    built = build_scenario(load_scenario(document))
    check_construction(built.action, [spec.relation for spec in built.scenario.lifts],
                       built.scenario.test_degree)


@pytest.mark.parametrize("seed", SEEDS)
def test_lift_relations_and_sections_of_the_seeded_tori(seed):
    rng = random.Random(seed)
    star, hamiltonians = diagonal_torus(rng, 1 + seed % 3)
    images = transvections(rng, star, 2 + seed % 2)
    nv = star.space.nvars
    rank = len(hamiltonians)
    coefficients = [tuple(random_poly(rng, rank, 2) for _ in range(n)) for n in (1, 2)]
    for hams in (hamiltonians, [h.substitute(images, nv) for h in hamiltonians]):
        check_construction(action(star, hams), coefficients, DEGREE)


def _accepted(lie, star, hamiltonians, quantum) -> bool:
    try:
        HamiltonianAction(lie, star, hamiltonians, quantum)
    except InvalidActionError:
        return False
    return True


def test_the_quantum_condition_decides_as_the_monomial_walk():
    verdicts = set()
    for seed in range(60):
        rng = random.Random(seed)
        space, truncation = SymplecticSpace(rng.randint(1, 2)), rng.randint(0, 5)
        nv = space.nvars
        h = random_homogeneous_poly(rng, nv, rng.randint(0, 3))
        orders = rng.sample(range(1, truncation + 1), min(truncation, rng.randint(0, 2)))
        quantum = HSeries(nv, truncation, {0: h, **{
            r: random_homogeneous_poly(rng, nv, rng.randint(0, 2)) for r in orders}})
        lie, star = abelian_data(1, ["t"]), StarProduct(space, truncation)
        accepted = _accepted(lie, star, [h], [quantum])
        walk = quantum_condition_holds(UncheckedAction(lie, star, [h], [quantum]))
        assert accepted == walk, seed
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_closure_decides_as_the_deformed_commutator_on_sl2():
    act = build_scenario(load_scenario("sl2_tstar_k2")).action
    nv, order = act.space.nvars, act.order
    verdicts = set()
    for seed in range(12):
        rng = random.Random(seed)
        quantum = []
        for h in act.hamiltonians:
            hq = HSeries.from_poly(h, order)
            r = rng.choice([None, order, rng.randint(1, order - 1)])
            if r is not None:
                c = rng.choice([-1, Fraction(1, 2), 2])
                hq = hq + HSeries.one(nv, order).scale(c).hbar_shift(r)
            quantum.append(hq)
        accepted = _accepted(act.lie, act.star, act.hamiltonians, quantum)
        unchecked = UncheckedAction(act.lie, act.star, act.hamiltonians, quantum)
        assert accepted == (quantum_condition_holds(unchecked)
                            and quantum_hamiltonians_close(unchecked)), seed
        verdicts.add(accepted)
    assert verdicts == {True, False}
