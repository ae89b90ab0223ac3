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
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from qcenter import MonicRelation, central_section, invariants_up_to, star_evaluate
from qcenter.scenario import build_scenario, list_presets, load_scenario

from oracle import central_in_envelope, random_poly
from test_metamorphic import DEGREE, SEEDS, action, diagonal_torus, transvections

DATA = Path(__file__).resolve().parent / "data"
DOCUMENTS = [name for name, _ in list_presets()] + [
    str(DATA / "cubic_t2.json"), str(DATA / "so3_rotation.json")]


def check_construction(act, coefficients, test_degree):
    """Every fact of the module docstring on one validated action, for
    relations with the given coefficients in the generator names."""
    invariants = invariants_up_to(act, test_degree)
    tests = [act.star.prepare(u) for d in invariants.degrees()
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
