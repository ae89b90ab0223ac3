"""Both center slices read one commutator table.

The Poisson bracket is the order-1 term of the deformed commutator, so
``compare_centers`` expands each pair (invariant basis element, test
element) once and both centers read that expansion: the Poisson slices
its order-1 term in every test column, the quantum block ``(r, b)`` its
orders up to ``order - r``, raised by ``r``.  The reference below builds
the systems the direct way, one bracket per (candidate, generator) and one
capped commutator per (series block, test element), and must give the same
slices.  The test set is the invariant generators on every validated
action, quadratic or not: the cases include a cubic hamiltonian at the
truncations where its quantum condition holds, and a skew torus whose
cubic generators give commutators of orders 1 and 3.
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
    generators = [g for g in invariants.generators if g.degree() <= test_degree]
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
        for u in generators:
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
        # a scenario refuses the centers task at truncation 0, while
        # compare_centers takes it: build the action without the task
        tasks = tuple(task for task in scenario.tasks if task != "centers")
        scenario = scenario._replace(truncation=truncation, tasks=tasks)
    return build_scenario(scenario).action


# validated actions of one hamiltonian on two pairs: a cubic one passes its
# quantum condition up to truncation 2, and the skew torus has the cubic
# invariant generators q2^2*p1 and q1*p2^2
_HAMILTONIANS = {"cubic": "q1^3", "skew": "2*q1*p1 + q2*p2"}


def _validated_action(name, truncation):
    space = SymplecticSpace(2)
    h = parse_poly(_HAMILTONIANS[name], space.names)
    return HamiltonianAction(
        abelian_data(1, ["t"]), StarProduct(space, truncation), [h]
    )


CASES = [
    *[("torus_k4", t, 6, 8) for t in (0, 1, None)],
    *[("sl2_tstar_k2", t, 4, 6) for t in (0, 1, None)],
    *[("cubic", t, 4, 6) for t in (0, 1, 2)],
    ("skew", 4, 4, 6),
    # at degree 6 orders 1 and 3 couple the groups r = 0 and r = 2 around
    # the group r = 1 (see test_a_component_can_interleave_with_another)
    ("skew", 4, 6, 6),
]


@pytest.mark.parametrize("name, truncation, max_degree, test_degree", CASES)
def test_slices_match_the_per_block_reference(name, truncation, max_degree,
                                              test_degree):
    if name in _HAMILTONIANS:
        act = _validated_action(name, truncation)
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
    generators = inv.generators
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


def test_quantum_slices_reuse_the_poisson_kernels(monkeypatch):
    # every block of torus_k4 reads only order 1, so every quantum
    # component is a Poisson system already solved from the same table
    act = build_scenario(load_scenario("torus_k4")).action
    phase = ["poisson"]
    solves = Counter()
    kernel, quantum = centers._center_kernel, centers.quantum_center_up_to

    def spy_kernel(*args):
        solves[phase[0]] += 1
        return kernel(*args)

    def spy_quantum(*args):
        phase[0] = "quantum"
        return quantum(*args)

    monkeypatch.setattr(centers, "_center_kernel", spy_kernel)
    monkeypatch.setattr(centers, "quantum_center_up_to", spy_quantum)
    compare_centers(act, 8, 10)
    assert solves == {"poisson": 5}  # the non-empty degrees 0, 2, 4, 6, 8


def test_a_component_can_interleave_with_another():
    # the skew torus's cubic generators q2^2*p1 and q1*p2^2 give orders 1
    # and 3: at degree 6 the groups r = 0 and r = 2 share order 3 and form
    # one component, while r = 1 between them is solved alone
    act = _validated_action("skew", 4)
    inputs = center_inputs(act, 6, 6)
    quantum_center_up_to(act, 6, *inputs)
    assert ((0, 6, 3), (2, 2, 1)) in inputs[1].kernels
    assert ((0, 4, 1),) in inputs[1].kernels
