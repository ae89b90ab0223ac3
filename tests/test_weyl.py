from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from qcenter import (
    HSeries,
    Poly,
    SymplecticSpace,
    ValidationError,
    algebraically_independent,
    invariants_up_to,
    weyl_commutator,
    weyl_specialize,
)

import qcenter.scenario as scenario_mod
from qcenter.cli import main
from qcenter.scenario import build_scenario, load_scenario, run_scenario

from oracle import random_homogeneous_poly, random_poly, weyl_product

DATA = Path(__file__).resolve().parent / "data"


def test_specialize_quadratic_with_half(space1, star1):
    qp = space1.q(1) * space1.p(1)
    series = HSeries.from_poly(qp, star1.order) + HSeries.from_poly(
        Poly.constant(2, Fraction(1, 2)), star1.order
    ).hbar_shift(1)
    assert weyl_specialize(series, space1) == qp + Poly.constant(2, Fraction(1, 2))


def test_specialize_identity_on_plain_polynomials(space2, star2):
    f = space2.q(1) * space2.p(2)
    assert weyl_specialize(HSeries.from_poly(f, star2.order), space2) == f


def test_specialize_rejects_mixed_weights(space1, star1):
    mixed = (
        HSeries.from_poly(space1.q(1), star1.order)
        + HSeries.one(2, star1.order).hbar_shift(1)
    )
    # q1 has weight -1 while the shifted constant has weight -2
    with pytest.raises(ValidationError):
        weyl_specialize(mixed, space1)


def test_specialization_intertwines_products(space2, star2):
    rng = random.Random(90210)
    for _ in range(10):
        d1 = rng.randint(1, 3)
        d2 = rng.randint(1, 3)
        f = random_homogeneous_poly(rng, 4, d1)
        g = random_homogeneous_poly(rng, 4, d2)
        F, G = HSeries.from_poly(f, star2.order), HSeries.from_poly(g, star2.order)
        lhs = weyl_specialize(star2.star(F, G), space2)
        rhs = weyl_product(space2, weyl_specialize(F, space2), weyl_specialize(G, space2))
        assert lhs == rhs


def test_weyl_commutator_canonical_pair(space1, star1):
    q, p = space1.q(1), space1.p(1)
    assert weyl_commutator(star1, q, p) == space1.one()


def test_sl2_lift_central_at_unit_parameter(sl2_action):
    sp = sl2_action.space
    star = sl2_action.star
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    symbol = weyl_specialize(HSeries.from_poly(tr, star.order), sp)
    inv = invariants_up_to(sl2_action, 2)
    for degree in sorted(inv.slices):
        for u in inv.basis(degree):
            assert weyl_commutator(star, symbol, u).is_zero()
    # and against the hamiltonians themselves
    for h in sl2_action.hamiltonians:
        assert weyl_commutator(star, symbol, h).is_zero()


def test_algebraic_independence():
    space = SymplecticSpace(2)
    q1p1 = space.q(1) * space.p(1)
    q2p2 = space.q(2) * space.p(2)
    assert algebraically_independent([q1p1, q2p2], space)
    assert algebraically_independent([q1p1 + q2p2], space)
    assert not algebraically_independent([q1p1, q1p1 * q1p1], space)
    assert algebraically_independent([], space)


def _some_minor_is_nonzero(polys, nvars):
    """The Jacobian criterion by brute force: every maximal minor, each
    expanded over all permutations."""
    rows = [[f.partial(i) for i in range(nvars)] for f in polys]
    for cols in combinations(range(nvars), len(polys)):
        minor = Poly.zero(nvars)
        for perm in permutations(cols):
            sign = sum(a > b for a, b in combinations(perm, 2)) % 2
            term = Poly.constant(nvars, -1 if sign else 1)
            for row, col in zip(rows, perm):
                term = term * row[col]
            minor = minor + term
        if not minor.is_zero():
            return True
    return False


@pytest.mark.parametrize("seed", range(40))
def test_independence_matches_the_minor_search(seed):
    rng = random.Random(seed)
    space = SymplecticSpace(2)
    polys = [random_poly(rng, 4, 3) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:  # make the last one depend on the others
        a, b = rng.choice(polys), rng.choice(polys)
        polys[-1] = a * b + a.scale(rng.choice((-1, 2))) + Poly.constant(4, 1)
    assert algebraically_independent(polys, space) == _some_minor_is_nonzero(polys, 4)


def test_dependent_lifts_of_six_pairs_exit_1(tmp_path, capsys):
    # n + 1 linear combinations of the n torus generators are dependent:
    # a search over the maximal minors of the Jacobian expands C(12, 7)
    # determinants of size 7, each of them zero
    n = 6
    labels = [f"t{j}" for j in range(1, n + 1)]
    lifts = [
        {"name": f"L{i}",
         "classical": " + ".join(f"{(i * n + j) % 5 + 1}*t{j}" for j in range(1, n + 1))}
        for i in range(1, n + 2)
    ]
    document = {
        "schema": "qcenter-scenario/1",
        "name": "dependent_lifts",
        "space": {"pairs": n},
        "lie_algebra": {"dim": n, "labels": labels, "brackets": [],
                        "invariant_generators": [{"name": t, "poly": t} for t in labels]},
        "hamiltonians": {t: f"q{j}*p{j}" for j, t in enumerate(labels, 1)},
        "lifts": lifts,
        "relations": [],
        "center_generators": [lift["name"] for lift in lifts],
        "tasks": ["weyl"],
    }
    path = tmp_path / "dependent_lifts.json"
    path.write_text(json.dumps(document))
    assert main(["run", str(path), "--report", "json"]) == 1
    (task,) = json.loads(capsys.readouterr().out)["tasks"]
    assert task["details"]["generators_algebraically_independent"] is False
    assert all(entry["central"] for entry in task["details"]["entries"])


def test_the_weyl_task_tests_against_the_quartic_generators(monkeypatch):
    # q1*p1 commutes with the quadratic invariants of the skew torus, not
    # with its quartic generators: handed a lift whose symbol is q1*p1, the
    # weyl task tests it against the run's generators and finds both
    scenario = load_scenario(str(DATA / "skew_torus.json"))._replace(tasks=("weyl",))
    space = SymplecticSpace(2)
    q1p1 = space.q(1) * space.p(1)

    def lifts(built, tests):
        return [("tr", q1p1, HSeries.from_poly(q1p1, built.action.order))], []

    monkeypatch.setattr(scenario_mod, "run_lifts", lifts)
    (task,) = run_scenario(scenario).tasks
    (entry,) = task.details["entries"]
    assert (entry["symbol"], entry["central"]) == ("q1*p1", False)
    assert entry["failures"] == ["q2^3*p1", "q1*p2^3"]
    assert not task.passed


def test_the_weyl_task_is_refused_under_a_cubic_hamiltonian():
    # no test set is proven at parameter 1 once a hamiltonian has degree 3:
    # cubic_t2's lift commutes with the generators and not with q1^4*p1^2.
    # Without a lift, or without the weyl task, nothing is tested there
    scenario = load_scenario(str(DATA / "cubic_t2.json"))
    with pytest.raises(ValidationError, match="the weyl task cannot run: the "
                       "hamiltonian of 't' has degree 3"):
        build_scenario(scenario._replace(tasks=("weyl",)))
    build_scenario(scenario._replace(tasks=("weyl",), lifts=(), center_generators=()))
    build_scenario(scenario)
