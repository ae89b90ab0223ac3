"""``invariants_up_to`` against a full-candidate elimination.

The oracle takes every monomial of each degree as a candidate, expands the
bracket with each hamiltonian by brute force over index sequences
(``brute_force_term``) and reads the kernel off a dense textbook
elimination (``dense_nullspace``).  The package keeps only the monomials of
weight zero for the diagonal hamiltonians and eliminates the others less
those the sl2 argument discharges (``HamiltonianAction.eliminated``), so
the cases cover diagonal, partly diagonal and non-diagonal actions,
a cubic hamiltonian (nonlinear coordinate brackets, which the package's
rows are built from), rational weights and bivectors other than the
standard one.  Where the dense oracle is out of reach (sl2 on two and
three copies of the plane, up to degree 8), the raising rows alone are
checked against the elimination of every non-diagonal hamiltonian, and
the cases where the argument does not apply pin ``eliminated`` to all of
them.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qcenter import (
    GradedSubspace,
    HamiltonianAction,
    LieAlgebraData,
    Poly,
    StarProduct,
    SymplecticSpace,
    in_span,
    invariants_up_to,
    parse_poly,
)
from qcenter import centers
from qcenter.action import _diagonal_weights
from qcenter.poly import monomial_table, weight_count_table
from qcenter.scenario import build_scenario, load_scenario

from oracle import (
    UncheckedAction, abelian_data, brute_force_term, dense_nullspace, sl2_data,
)

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


def _torus(expr: str, bivector=None,
           action=HamiltonianAction) -> HamiltonianAction:
    # a hamiltonian of degree 3 fails the quantum condition: the invariant
    # solve needs only the classical bracket, so those skip the moment checks
    space = SymplecticSpace(2, bivector=bivector)
    h = parse_poly(expr, space.names)
    return action(abelian_data(1, ["t"]), StarProduct(space, 4), [h])


# name -> (action, top degree, which hamiltonians act diagonally)
CASES = {
    "torus_k4": (lambda: _preset("torus_k4"), 6, [True]),
    "sl2_tstar_k2": (lambda: _preset("sl2_tstar_k2"), 6, [False, True, False]),
    "non_diagonal": (lambda: _torus("q1*p2 + q1^2"), 6, [False]),
    # {h, x_j} is quadratic, so the derivation rule shifts nonlinear terms
    "cubic": (lambda: _torus("q1^2*p2 + q2*p1^2", action=UncheckedAction), 6, [False]),
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
        candidates = [Poly.monomial(nv, m) for m in monomial_table(nv, degree)[degree]]
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
        _diagonal_weights(brackets) is not None
        for brackets in act.coordinate_brackets
    ] == diagonal
    assert invariants_up_to(act, top).slices == _oracle_invariants(act, top).slices


def test_diagonal_weights_are_the_bracket_eigenvalues():
    act = _torus("2*q1*p1 + 1/3*q2*p2")
    weights = _diagonal_weights(act.coordinate_brackets[0])
    for j, w in enumerate(weights):
        x = Poly.variable(act.space.nvars, j)
        assert act.star.poisson(act.hamiltonians[0], x) == x.scale(w)
    assert sorted(abs(w) for w in weights) == [
        Fraction(1, 3), Fraction(1, 3), 2, 2
    ]


def test_the_action_holds_the_weight_rows_of_its_diagonal_hamiltonians():
    # coordinates q1, q2, p1, p2; {q1*p1, q1} = -q1
    torus = _preset("torus_k4")
    assert (torus.weight_rows, torus.nondiagonal) == (((-1, -1, 1, 1),), ())
    sl2 = _preset("sl2_tstar_k2")  # e, h, f: only h is diagonal
    assert (sl2.weight_rows, sl2.nondiagonal) == (((-1, 1, 1, -1),), (0, 2))


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
    # the rows of every candidate come from the coordinate brackets the
    # action holds: they are taken once per (hamiltonian, coordinate) when
    # the action is built, and a solve brackets nothing, whatever the
    # degree bound
    operands = []
    poisson = StarProduct.poisson

    def counted(self, f, g):
        operands.append(g)
        return poisson(self, f, g)

    monkeypatch.setattr(StarProduct, "poisson", counted)
    act = _preset("sl2_tstar_k2")
    coordinates = [g for g in operands if isinstance(g, Poly)]
    assert len(coordinates) == act.space.nvars * len(act.hamiltonians)
    operands.clear()
    invariants_up_to(act, top)
    assert operands == []


# -- raising rows only -------------------------------------------------------------


def _sl2_on_copies(copies: int, seed: int) -> HamiltonianAction:
    """sl2 on ``copies`` copies of the plane, lifted to the cotangent space
    as in ``sl2_tstar_k2``, pushed through a seeded monomial symplectic map
    (a permutation of the pairs, a quarter turn ``(q, p) -> (p, -q)`` per
    pair at random and a rescaling ``q -> c*q, p -> p/c``); seed 0 is the
    identity.  Such a map keeps ``h`` diagonal and every hamiltonian
    quadratic."""
    space = SymplecticSpace(2 * copies)
    q, p, n, nv = space.q, space.p, space.pairs, space.nvars
    images = [q(i) for i in range(1, n + 1)] + [p(i) for i in range(1, n + 1)]
    if seed:
        rng = random.Random(seed)
        for i, j in enumerate(rng.sample(range(1, n + 1), n)):
            c = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
            if rng.random() < 0.5:
                images[i], images[n + i] = p(j).scale(c), q(j).scale(-1 / c)
            else:
                images[i], images[n + i] = q(j).scale(c), p(j).scale(1 / c)
    pairs = [(2 * k + 1, 2 * k + 2) for k in range(copies)]
    e = sum((q(b) * p(a) for a, b in pairs), Poly.zero(nv))
    h = sum((q(a) * p(a) - q(b) * p(b) for a, b in pairs), Poly.zero(nv))
    f = sum((q(a) * p(b) for a, b in pairs), Poly.zero(nv))
    return HamiltonianAction(sl2_data(), StarProduct(space, 2),
                             [g.substitute(images, nv) for g in (e, h, f)])


def _eliminating_every_nondiagonal(act: HamiltonianAction, top: int) -> GradedSubspace:
    # the copy has no raising root, so every slice goes through elimination
    full = copy.copy(act)
    full.eliminated = act.nondiagonal
    assert full.raising_root is None
    return invariants_up_to(full, top)


@pytest.mark.parametrize("copies, top, seeds", [
    (1, 8, range(4)),
    (2, 8, range(4)),
    (3, 6, range(1, 4)),
    (3, 8, [0]),
])
def test_the_rows_of_e_alone_give_the_invariants_of_sl2(copies, top, seeds):
    # a weight-zero polynomial killed by e is a highest-weight vector of
    # weight 0, so f kills it too: f's rows are not fed
    for seed in seeds:
        act = _sl2_on_copies(copies, seed)
        assert (act.nondiagonal, act.eliminated) == ((0, 2), (0,))
        assert (invariants_up_to(act, top).slices
                == _eliminating_every_nondiagonal(act, top).slices)


# -- counted slices ---------------------------------------------------------------


def _counts(act: HamiltonianAction, top: int) -> list[int]:
    """``m_0 - m_alpha`` per degree: the weight-zero monomials less those of
    the raising root's weight."""
    zero = (0,) * len(act.weight_rows)
    return [n.get(zero, 0) - n.get(act.raising_root, 0)
            for n in weight_count_table(act.space.nvars, top, act.weight_rows)]


@pytest.mark.parametrize("copies, top, seeds", [
    (1, 12, range(4)),
    (2, 8, range(4)),
    (3, 6, range(4)),
])
def test_the_weight_count_is_the_dimension_full_elimination_gives(copies, top, seeds):
    for seed in seeds:
        act = _sl2_on_copies(copies, seed)
        full = _eliminating_every_nondiagonal(act, top)
        assert _counts(act, top) == [full.dimension(d) for d in range(top + 1)]


def test_the_weight_count_of_sl2_tstar_k2_is_its_solved_dimension():
    act = _preset("sl2_tstar_k2")
    assert act.raising_root == (2,)  # e = q2*p1 has weight 2 under h
    full = _eliminating_every_nondiagonal(act, 12)
    assert _counts(act, 12) == [full.dimension(d) for d in range(13)] == [1, 0] * 6 + [1]


def test_products_fill_every_slice_of_sl2_above_degree_2(monkeypatch):
    # only the slice of the quadratic generator is solved: every higher
    # slice is spanned by products of lower invariants to its count
    fed = []
    add_bracket_rows = centers._add_bracket_rows

    def spy(solver, terms, candidates):
        before = len(solver._rows)
        add_bracket_rows(solver, terms, candidates)
        if len(solver._rows) > before:
            fed.append(sum(candidates[0]))

    monkeypatch.setattr(centers, "_add_bracket_rows", spy)
    inv = invariants_up_to(_preset("sl2_tstar_k2"), 12)
    assert fed == [2]
    assert [inv.dimension(d) for d in range(13)] == [1, 0] * 6 + [1]


def test_an_uncounted_action_has_no_raising_root():
    assert _preset("torus_k4").raising_root is None  # no non-diagonal element
    for build, _ in KEEP_ALL.values():  # no sl2 rule, or not that alone
        assert build().raising_root is None


def _algebra(labels: str, brackets: dict) -> LieAlgebraData:
    index = {label: i for i, label in enumerate(labels)}
    return LieAlgebraData(len(labels), tuple(labels), {
        (index[a], index[b]): {index[k]: c for k, c in comps.items()}
        for (a, b), comps in brackets.items()
    })


def _action(labels: str, brackets: dict, hamiltonians: list[str], pairs: int,
            action=HamiltonianAction) -> HamiltonianAction:
    space = SymplecticSpace(pairs)
    return action(_algebra(labels, brackets), StarProduct(space, 2),
                  [parse_poly(h, space.names) for h in hamiltonians])


_SL2 = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}

# name -> (action, its non-diagonal indices): none of them may be dropped
KEEP_ALL = {
    # no diagonal element, so no root
    "so3_rotation": (lambda: build_scenario(load_scenario(
        Path(__file__).parent / "data" / "so3_rotation.json")).action, (0, 1, 2)),
    # x and y have opposite roots under h, but [x, y] = 0
    "commuting_pair": (lambda: _action(
        "hxy", {("h", "x"): {"x": -2}, ("h", "y"): {"y": 2}},
        ["q1*p1 - q2*p2", "q1^2", "q2^2"], 2), (1, 2)),
    # [x, y] = 4k - 4r: k and r are not diagonal, though their hamiltonians'
    # difference is
    "bracket_off_the_diagonal": (lambda: _action(
        "hxykr",
        {("h", "x"): {"x": -2}, ("h", "y"): {"y": 2}, ("k", "x"): {"x": -2},
         ("k", "y"): {"y": 2}, ("x", "y"): {"k": 4, "r": -4}},
        ["q1*p1", "q1^2", "p1^2", "q1*p1 + q2^2 + p2^2", "q2^2 + p2^2"], 2),
        (1, 2, 3, 4)),
    # the sl2 structure, with a cubic hamiltonian for f or for e (a cubic
    # fails the quantum condition, which the rule does not read)
    "cubic_f": (lambda: _action(
        "ehf", _SL2, ["q2*p1", "q1*p1 - q2*p2", "q1*p2*q3"], 3,
        UncheckedAction), (0, 2)),
    "cubic_e": (lambda: _action(
        "ehf", _SL2, ["q2*p1*q3", "q1*p1 - q2*p2", "q1*p2"], 3,
        UncheckedAction), (0, 2)),
}


@pytest.mark.parametrize("case", sorted(KEEP_ALL))
def test_every_nondiagonal_hamiltonian_is_eliminated_outside_the_sl2_rule(case):
    build, nondiagonal = KEEP_ALL[case]
    act = build()
    assert act.nondiagonal == act.eliminated == nondiagonal


def test_the_presets_eliminate_e_only_or_nothing():
    assert _preset("sl2_tstar_k2").eliminated == (0,)  # e, h, f: f is dropped
    assert _preset("torus_k4").eliminated == ()


def test_the_weight_count_of_so3_rotation_is_its_solved_dimension():
    # the rotation about the third axis has eigenvalues i, -i and 0 on each
    # of the 3-vectors q and p; a count depends only on the multiset of
    # weights, and the raising element of so(3) complexified raises the
    # weight by 1 in units of i, so m_0 - m_1 counts the invariants
    act = build_scenario(load_scenario(
        Path(__file__).parent / "data" / "so3_rotation.json")).action
    assert act.raising_root is None  # the solve does not count these slices
    counts = weight_count_table(6, 10, [(1, -1, 0, 1, -1, 0)])
    solved = invariants_up_to(act, 10)
    assert [n.get((0,), 0) - n.get((1,), 0) for n in counts] == [
        solved.dimension(d) for d in range(11)] == [1, 0, 3, 0, 6, 0, 10, 0, 15, 0, 21]
