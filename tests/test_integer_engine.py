"""The integer elimination engine and the lift test set.

``EchelonAccumulator`` keeps primitive integer rows with a positive lead
and a column index, and builds ``Fraction``s only where a result leaves it.
These tests feed it ``{column: value}`` rows whose numerators and
denominators are large, rows that cancel to zero and plain ``int``
scalars, and check every public answer, written out as dense rows, against
the dense ``Fraction`` reference.  The lift
tasks test centrality against the quantum center's test set; the last
tests show that the generators and the full invariant basis agree on the
real lifts and on a series that is not central.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from qcenter import (
    EchelonAccumulator,
    HSeries,
    MonicRelation,
    Poly,
    hensel_lift,
    invariants_up_to,
    reduce_poly_span,
    rref,
    verify_lift,
)
from qcenter.linalg import span_combinations
from qcenter.poly import monomial_key, monomial_table
from qcenter.scenario import build_scenario, load_scenario, resolve_lift, run_scenario

from oracle import densified, dense_nullspace, dense_rref

BIG = Fraction(10**40, 3**25)
SEEDS = range(8)


def wide_rows(rng: random.Random, nrows: int, ncols: int) -> list[list]:
    """Rows mixing huge rationals, cancelling combinations, zero rows and
    ``int`` scalars; the reference reads each entry as a Fraction."""
    rows: list[list] = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.3 and len(rows) >= 2:
            # a combination of two earlier rows: cancels to zero against them
            a, b = rng.sample(rows, 2)
            s = BIG * rng.choice((-1, 1)) / rng.randint(1, 7)
            rows.append([s * Fraction(x) - Fraction(y) / 3**20 for x, y in zip(a, b)])
        else:
            row: list = []
            for _ in range(ncols):
                pick = rng.random()
                if pick < 0.5:
                    row.append(0)
                elif pick < 0.65:
                    row.append(rng.randint(-5, 5))
                elif pick < 0.8:
                    row.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                else:
                    row.append(BIG * Fraction(rng.randint(-4, 4), rng.randint(1, 5) ** 9))
            rows.append(row)
    return rows


def as_fractions(rows: list[list]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def check_stored_rows(acc: EchelonAccumulator) -> None:
    """Stored rows are primitive integer rows with a positive lead, fully
    reduced, and the column index lists exactly the rows holding a column."""
    holders: dict[int, set[int]] = {}
    for pivot, row in acc._rows.items():
        assert all(type(value) is int and value for value in row.values())
        assert min(row) == pivot and row[pivot] > 0
        assert gcd(*row.values()) == 1
        for col in row:
            assert col == pivot or col not in acc._rows
            if col != pivot:
                holders.setdefault(col, set()).add(pivot)
    assert {col: held for col, held in acc._index.items() if held} == holders


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_rows_match_the_dense_fraction_reference(seed):
    rng = random.Random(7000 + seed)
    for _ in range(3):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 9)
        rows = wide_rows(rng, nrows, ncols)
        reference = as_fractions(rows)
        acc = EchelonAccumulator(ncols)
        for i, row in enumerate(rows):
            before = len(dense_rref(reference[:i])[1]) if i else 0
            after = len(dense_rref(reference[: i + 1])[1])
            # every other row keeps its zero entries
            mapping = {c: v for c, v in enumerate(row) if v or i % 2 == 0}
            added = acc.add_row(mapping)
            assert added is (after > before)
            check_stored_rows(acc)
        assert densified(acc.kernel(), ncols) == dense_nullspace(reference, ncols)
        assert rref(rows) == dense_rref(reference)


@pytest.mark.parametrize("seed", SEEDS)
def test_wide_span_combinations_match_the_dense_reference(seed):
    rng = random.Random(8000 + seed)
    monomials = monomial_table(2, 3)[3]
    polys = [
        Poly(2, dict(zip(monomials, row)))
        for row in as_fractions(wide_rows(rng, rng.randint(1, 8), len(monomials)))
    ]
    combos = densified(span_combinations(polys), len(polys))
    support = sorted({m for g in polys for m in g.terms}, key=monomial_key)
    augmented = [
        [g.terms.get(m, Fraction(0)) for m in support]
        + [Fraction(int(i == j)) for j in range(len(polys))]
        for i, g in enumerate(polys)
    ]
    echelon, pivots = dense_rref(augmented)
    width = len(support)
    assert combos == [row[width:] for row, p in zip(echelon, pivots) if p < width]
    realized = []
    for combo in combos:
        f = Poly.zero(2)
        for c, g in zip(combo, polys):
            f = f + g.scale(c)
        realized.append(f)
    assert realized == reduce_poly_span(polys, 2)


def test_a_row_cancelling_to_zero_adds_no_rank_and_leaves_the_state():
    acc = EchelonAccumulator(3)
    assert acc.add_row({0: BIG, 1: Fraction(1, 3), 2: 0})
    assert acc.add_row({1: 2, 2: -7})
    stored = {pivot: dict(row) for pivot, row in acc._rows.items()}
    # BIG * row0 + 5 * row1, over another denominator
    assert not acc.add_row(
        {0: BIG * BIG / 7, 1: BIG / 21 + Fraction(10, 7), 2: Fraction(-5, 1)})
    assert not acc.add_row({0: 0, 1: 0, 2: Fraction(0)})
    assert {pivot: dict(row) for pivot, row in acc._rows.items()} == stored
    check_stored_rows(acc)


# -- the lift test set -------------------------------------------------------


@pytest.mark.parametrize("preset", ["sl2_tstar_k2", "torus_k4"])
def test_generators_and_full_basis_agree_on_lifts(preset):
    built = build_scenario(load_scenario(preset))
    act = built.action
    test_degree = built.scenario.test_degree
    invariants = invariants_up_to(act, test_degree)
    full = [u for d in sorted(invariants.slices) for u in invariants.basis(d)]
    generators = invariants.generators
    assert len(generators) < len(full)
    for spec in built.scenario.lifts:
        f, rel = resolve_lift(built, spec)
        fhat = hensel_lift(f, rel, act)
        for tests in (generators, full):
            assert verify_lift(fhat, rel, act, tests).passed
    # a series that is not central: both test sets flag it
    q1 = act.space.q(1)
    fhat = HSeries.from_poly(q1 * q1, act.order)
    rel = MonicRelation((fhat.scale(-1),))
    for tests in (generators, full):
        assert verify_lift(fhat, rel, act, tests).centrality_failures


def test_invariant_generators_run_once_per_run_on_torus_k4(generator_discovery):
    # the run's own solve and compare_centers' each find the generators
    # inside invariants_up_to, and nothing else does: the lift tasks read
    # the generators of the run's invariants
    scenario = load_scenario("torus_k4")
    calls = generator_discovery
    assert {"centers", "lift"} <= set(scenario.tasks)
    report = run_scenario(scenario)
    assert report.passed
    assert calls == [("invariants_up_to", True), ("_monomial_generators", True)] * 2
    # without a centers task the lifts read the same solve, found once
    calls.clear()
    report = run_scenario(scenario._replace(tasks=("lift", "iso", "weyl")))
    assert report.passed
    assert calls == [("invariants_up_to", True), ("_monomial_generators", True)]
