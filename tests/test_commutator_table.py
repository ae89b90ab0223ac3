"""Both center slices read one commutator table.

The Poisson bracket is the order-1 term of the deformed commutator, so
``compare_centers`` expands each pair (invariant basis element, test
element) once and both centers read that expansion: the Poisson slices
its order-1 term in every test column, the quantum block ``(r, b)`` its
orders up to ``order - r``, raised by ``r``.  The reference below builds
the systems the direct way, one bracket per (candidate, generator) and one
capped commutator per (series block, test element), and must give the same
slices.  For a cubic hamiltonian the test set is the full invariant basis,
so there the Poisson slices must agree with the generators' kernel.
"""

from __future__ import annotations

from collections import Counter

import pytest

from qcenter import (
    EchelonAccumulator,
    GradedSubspace,
    HamiltonianAction,
    StarProduct,
    SymplecticSpace,
    compare_centers,
    invariant_generators,
    invariants_up_to,
    parse_poly,
)
from qcenter import centers
from qcenter.centers import (
    QuantumCenterSlice,
    _add_coefficient_rows,
    _classical_part_rank,
    _combine,
    _series_from_vector,
    poisson_center_up_to,
    quantum_center_up_to,
)
from qcenter.scenario import build_scenario, load_scenario

from oracle import abelian_data, center_inputs, poly_key


def _reference(act, max_degree, test_degree, invariants):
    """Poisson and quantum slices with one kernel call per bracket and per
    capped block commutator."""
    star = act.star
    nv = act.space.nvars
    generators = invariant_generators(invariants, test_degree)
    poisson = {}
    for degree in range(max_degree + 1):
        candidates = invariants.basis(degree)
        if not candidates:
            continue
        solver = EchelonAccumulator(len(candidates))
        for u in generators:
            _add_coefficient_rows(
                solver, [{0: star.poisson(c, u)} for c in candidates]
            )
        poisson[degree] = [_combine(candidates, v, nv) for v in solver.kernel()]
    if all(h.degree() <= 2 for h in act.hamiltonians):
        tests = generators
    else:
        tests = [u for d in invariants.degrees() if d <= test_degree
                 for u in invariants.basis(d)]
    k, order = act.space.hbar_weight, act.order
    quantum = {}
    for degree in range(max_degree + 1):
        blocks = [
            (r, b)
            for r in range(min(order, degree // k) + 1)
            for b in invariants.basis(degree - k * r)
        ]
        if not blocks:
            quantum[degree] = QuantumCenterSlice(degree, [], 0, [])
            continue
        solver = EchelonAccumulator(len(blocks))
        for u in tests:
            _add_coefficient_rows(solver, [
                {r + s: t for s, t in star.commutator_terms(b, u, order - r).items()}
                for r, b in blocks
            ])
        basis = [_series_from_vector(act, blocks, v) for v in solver.kernel()]
        rank, representatives = _classical_part_rank(act, basis)
        quantum[degree] = QuantumCenterSlice(degree, basis, rank, representatives)
    return GradedSubspace(nv, poisson), quantum


def _preset_action(name, truncation):
    scenario = load_scenario(name)
    if truncation is not None:
        scenario = scenario._replace(truncation=truncation)
    return build_scenario(scenario).action


def _cubic_action(truncation):
    # a cubic hamiltonian: the quantum center keeps the full test set
    space = SymplecticSpace(2)
    h = parse_poly("q1^3", space.names)
    return HamiltonianAction(
        abelian_data(1, ["t"]), StarProduct(space, truncation), [h],
        validate=False,
    )


CASES = [
    *[("torus_k4", t, 6, 8) for t in (0, 1, None)],
    *[("sl2_tstar_k2", t, 4, 6) for t in (0, 1, None)],
    *[("cubic", t, 4, 6) for t in (0, 1, 4)],
]


@pytest.mark.parametrize("name, truncation, max_degree, test_degree", CASES)
def test_slices_match_the_per_block_reference(name, truncation, max_degree,
                                              test_degree):
    if name == "cubic":
        act = _cubic_action(truncation)
    else:
        act = _preset_action(name, truncation)
    inv = invariants_up_to(act, test_degree)
    poisson, quantum = _reference(act, max_degree, test_degree, inv)
    inputs = center_inputs(act, max_degree, test_degree, inv)
    center = poisson_center_up_to(act, max_degree, *inputs)
    assert center.slices == poisson.slices
    assert quantum_center_up_to(act, max_degree, *inputs) == quantum

    report = compare_centers(act, max_degree, test_degree)
    names = act.space.names
    for row in report.rows:
        assert row.poisson_basis == [
            f.to_string(names) for f in poisson.basis(row.degree)
        ]
        assert row.quantum_rank == quantum[row.degree].rank
        assert row.quantum_representatives == [
            v.to_string(names) for v in quantum[row.degree].representatives
        ]


def test_compare_centers_expands_each_pair_once(monkeypatch):
    act = build_scenario(load_scenario("torus_k4")).action
    inv = invariants_up_to(act, 10)
    generators = invariant_generators(inv, 10)
    # the invariants are solved before the spy goes in: their diagonal
    # test brackets are not part of the center slices
    monkeypatch.setattr(centers, "invariants_up_to", lambda act, degree: inv)
    pairs = Counter()
    brackets = []
    commutator = StarProduct.commutator_terms

    def spy_commutator(self, f, g, max_order=None):
        pairs[poly_key(f.slots[0].poly), poly_key(g.slots[0].poly)] += 1
        return commutator(self, f, g, max_order)

    monkeypatch.setattr(StarProduct, "commutator_terms", spy_commutator)
    monkeypatch.setattr(StarProduct, "poisson",
                        lambda self, f, g: brackets.append((f, g)))
    compare_centers(act, 8, 10)
    expected = Counter(
        (poly_key(b), poly_key(u))
        for d in range(9) for b in inv.basis(d) for u in generators
    )
    assert pairs == expected
    assert brackets == []
