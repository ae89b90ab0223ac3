"""``invariants_up_to`` against a full-candidate elimination.

The oracle takes every monomial of each degree as a candidate, expands the
bracket with each hamiltonian by brute force over index sequences
(``brute_force_term``) and reads the kernel off a dense textbook
elimination (``dense_nullspace``).  The package keeps only the monomials of
weight zero for the diagonal hamiltonians and eliminates the others, so
the cases cover diagonal, partly diagonal and non-diagonal actions,
a cubic hamiltonian (nonlinear coordinate brackets, which the package's
rows are built from), rational weights and bivectors other than the
standard one.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from qcenter import (
    GradedSubspace,
    HamiltonianAction,
    Poly,
    StarProduct,
    SymplecticSpace,
    in_span,
    invariants_up_to,
    monomials_of_degree,
    parse_poly,
)
from qcenter.centers import _coordinate_brackets, _diagonal_weights
from qcenter.scenario import build_scenario, load_scenario

from oracle import abelian_data, brute_force_term, dense_nullspace

SCALED_BIVECTOR = [
    ["0", "0", "2", "0"],
    ["0", "0", "0", "1/3"],
    ["-2", "0", "0", "0"],
    ["0", "-1/3", "0", "0"],
]
RATIONAL_BIVECTOR = [
    ["0", "1/3", "1", "0"],
    ["-1/3", "0", "1/2", "1"],
    ["-1", "-1/2", "0", "2/3"],
    ["0", "-1", "-2/3", "0"],
]


def _preset(name: str) -> HamiltonianAction:
    return build_scenario(load_scenario(name)).action


def _torus(expr: str, bivector=None, validate=True) -> HamiltonianAction:
    # a hamiltonian of degree 3 fails the quantum condition: the invariant
    # solve needs only the classical bracket, so those skip the moment checks
    space = SymplecticSpace(2, bivector=bivector)
    h = parse_poly(expr, space.names)
    return HamiltonianAction(abelian_data(1, ["t"]), StarProduct(space, 4), [h],
                             validate=validate)


# name -> (action, top degree, which hamiltonians act diagonally)
CASES = {
    "torus_k4": (lambda: _preset("torus_k4"), 6, [True]),
    "sl2_tstar_k2": (lambda: _preset("sl2_tstar_k2"), 6, [False, True, False]),
    "non_diagonal": (lambda: _torus("q1*p2 + q1^2"), 6, [False]),
    # {h, x_j} is quadratic, so the derivation rule shifts nonlinear terms
    "cubic": (lambda: _torus("q1^2*p2 + q2*p1^2", validate=False), 6, [False]),
    "rational_weights": (lambda: _torus("2*q1*p1 + 1/3*q2*p2"), 7, [True]),
    "rational_weights_low": (lambda: _torus("1/2*q1*p1 - 1/3*q2*p2"), 6, [True]),
    "scaled_bivector": (lambda: _torus("q1*p1 - q2*p2", SCALED_BIVECTOR), 6, [True]),
    "rational_bivector": (lambda: _torus("q1*p1 + q2*p2", RATIONAL_BIVECTOR), 6, [False]),
    "constant": (lambda: _torus("5"), 4, [True]),
}


def _oracle_invariants(act: HamiltonianAction, top: int) -> GradedSubspace:
    space = act.space
    nv = space.nvars
    slices = {}
    for degree in range(top + 1):
        candidates = [Poly.monomial(nv, m) for m in monomials_of_degree(nv, degree)]
        rows: dict[tuple, list[Fraction]] = {}
        for h in act.hamiltonians:
            for col, c in enumerate(candidates):
                bracket = brute_force_term(space, h, c, 1) - brute_force_term(
                    space, c, h, 1
                )
                for mono, coeff in bracket.terms.items():
                    row = rows.setdefault((id(h), mono), [Fraction(0)] * len(candidates))
                    row[col] = coeff
        kernel = dense_nullspace(list(rows.values()), len(candidates))
        slices[degree] = [
            sum(
                (c.scale(v) for v, c in zip(vec, candidates) if v),
                Poly.zero(nv),
            )
            for vec in kernel
        ]
    return GradedSubspace(nv, slices)


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariants_match_full_candidate_elimination(case):
    build, top, diagonal = CASES[case]
    act = build()
    assert [
        _diagonal_weights(_coordinate_brackets(act, h)) is not None
        for h in act.hamiltonians
    ] == diagonal
    assert invariants_up_to(act, top).slices == _oracle_invariants(act, top).slices


def test_diagonal_weights_are_the_bracket_eigenvalues():
    act = _torus("2*q1*p1 + 1/3*q2*p2")
    weights = _diagonal_weights(_coordinate_brackets(act, act.hamiltonians[0]))
    for j, w in enumerate(weights):
        x = Poly.variable(act.space.nvars, j)
        assert act.star.poisson(act.hamiltonians[0], x) == x.scale(w)
    assert sorted(abs(w) for w in weights) == [
        Fraction(1, 3), Fraction(1, 3), 2, 2
    ]


def test_rational_weights_let_mixed_monomials_through():
    # q1 and q2 carry weights of ratio 1/2 : -1/3, so q1^2*q2^3 has weight 0
    act = _torus("1/2*q1*p1 - 1/3*q2*p2")
    inv = invariants_up_to(act, 5)
    target = parse_poly("q1^2*q2^3", act.space.names)
    assert in_span(target, inv.basis(5))
    assert not in_span(parse_poly("q1*q2", act.space.names), inv.basis(2))


@pytest.mark.parametrize("top", [4, 8])
def test_each_hamiltonian_is_bracketed_with_the_coordinates_once(
    monkeypatch, top
):
    # the rows of every candidate come from the coordinate brackets, so the
    # kernel's bracket runs once per (coordinate, hamiltonian), whatever
    # the degree bound
    act = _preset("sl2_tstar_k2")
    calls = []
    poisson = StarProduct.poisson

    def counted(self, f, g):
        calls.append((f, g))
        return poisson(self, f, g)

    monkeypatch.setattr(StarProduct, "poisson", counted)
    invariants_up_to(act, top)
    assert len(calls) == act.space.nvars * len(act.hamiltonians)
