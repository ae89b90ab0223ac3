"""The exact test cutoff of a diagonal action.

When the bivector has one nonzero entry per row, it pairs each coordinate
with one other at some scale, and every diagonal hamiltonian is
``sum_k W_k x_i x_j`` over the pairs ``(i, j)``.  Then the Poisson center
is the polynomials in the hamiltonians: dimension ``C(r + k - 1, k)`` at
degree ``2k``, ``r`` the rank of the weight rows, and 0 at odd degrees.  A
test set up to ``T`` gives that answer exactly when the differences
``e[i] - e[j]`` per pair of the weight-zero exponents ``e`` of degree at
most ``T`` span the kernel of the rows (``centers`` module docstring).
``check_test_cutoff`` refuses a cutoff below the least such ``T``; these
tests hold the solve to the closed form at that ``T`` and show a wrong
degree-2 slice one below it.  Any other bivector keeps the assumed cutoff.
"""

from __future__ import annotations

import json
import re
from math import comb

import pytest

from qcenter import (
    HamiltonianAction,
    StarProduct,
    SymplecticSpace,
    ValidationError,
    compare_centers,
    parse_poly,
)
from qcenter.centers import check_test_cutoff, poisson_center_up_to
from qcenter.cli import main

from oracle import abelian_data, center_inputs, dense_rref, diagonal_torus_action

import refusals

MAX_DEGREE = 4


def exact_cutoff(act: HamiltonianAction) -> int:
    """The least certified cutoff, read off the refusal of cutoff 0."""
    try:
        check_test_cutoff(act, 2, 0)
    except ValidationError as exc:
        return int(re.search(r"exact cutoff (\d+)", str(exc)).group(1))
    return 0


@pytest.mark.parametrize("seed", range(30))
def test_both_centers_are_the_polynomials_in_the_hamiltonians_at_the_exact_cutoff(seed):
    # each q_i is paired with a seeded p_j at a seeded scale
    act, rows = diagonal_torus_action(seed, paired=True)
    r = len(dense_rref(rows)[1]) if rows else 0
    cutoff = exact_cutoff(act)
    report = compare_centers(act, MAX_DEGREE, max(cutoff, MAX_DEGREE))
    for row in report.rows:
        k, odd = divmod(row.degree, 2)
        expected = 0 if odd else comb(r + k - 1, k) if k else 1
        assert (row.poisson_dim, row.quantum_rank) == (expected, expected), row
    if cutoff >= 3:
        # one below, the unchecked solve keeps a linear form in the q_i*p_i
        # outside the hamiltonians' span, and compare_centers refuses it
        inputs = center_inputs(act, 2, cutoff - 1)
        assert poisson_center_up_to(act, 2, *inputs).dimension(2) > r
        with pytest.raises(ValidationError, match=f"exact cutoff {cutoff} "):
            compare_centers(act, 2, cutoff - 1)


def test_the_seeded_tori_reach_past_the_default_cutoff():
    # the cases above are not all certified at low degree
    cutoffs = [exact_cutoff(diagonal_torus_action(seed)[0]) for seed in range(30)]
    assert max(cutoffs) > 10 and min(cutoffs) == 0


def _eleven(space: SymplecticSpace, hamiltonian: str = "11*q1*p1 + q2*p2"
            ) -> HamiltonianAction:
    return HamiltonianAction(abelian_data(1, ["t"]), StarProduct(space, 2),
                             [parse_poly(hamiltonian, space.names)])


def test_scaled_pairs_certify_the_cutoff():
    # the 11:1 torus with every pairing doubled is refused below 12, where
    # the standard bivector's cutoff is, and its degree-2 slice is exact there
    doubled = [[2 * value for value in row] for row in SymplecticSpace(2).bivector]
    act = _eleven(SymplecticSpace(2, bivector=doubled))
    with pytest.raises(ValidationError, match="exact cutoff 12 of this diagonal "
                                              "action, where q2\\^11\\*p1 enters"):
        compare_centers(act, 2, 10)
    assert compare_centers(act, 2, 12).rows[2].poisson_dim == 1


def test_a_cross_paired_bivector_certifies_the_cutoff():
    # pairing q1 with p2 and q2 with p1, the 11:1 torus is still diagonal,
    # and its pairs are read off the bivector: refused below 12, where
    # q1*p1^11 enters, and its degree-2 slice is exact there
    cross = [[0] * 4 for _ in range(4)]
    cross[0][3], cross[3][0], cross[1][2], cross[2][1] = 1, -1, 1, -1
    act = _eleven(SymplecticSpace(2, bivector=cross), "11*q1*p2 + q2*p1")
    assert act.nondiagonal == ()
    with pytest.raises(ValidationError, match="exact cutoff 12 of this diagonal "
                                              "action, where q1\\*p1\\^11 enters"):
        compare_centers(act, 2, 10)
    assert compare_centers(act, 2, 12).rows[2].poisson_dim == 1


def test_a_bivector_with_more_than_one_entry_per_row_keeps_the_assumed_cutoff():
    # the inverse of [[0, B], [-B^T, 0]] with B = [[1, 1], [1, 2]] has eight
    # entries, and q^T B p is diagonal on it with the row (1, 1, -1, -1): no
    # pairs to read, so no cutoff is refused
    form = [[0, 0, 1, 1], [0, 0, 1, 2], [-1, -1, 0, 0], [-1, -2, 0, 0]]
    augmented = [row + [int(i == j) for j in range(4)] for i, row in enumerate(form)]
    space = SymplecticSpace(2, bivector=[row[4:] for row in dense_rref(augmented)[0]])
    assert len(space.bivector_entries()) == 8
    act = _eleven(space, "q1*p1 + q1*p2 + q2*p1 + 2*q2*p2")
    assert (act.nondiagonal, act.weight_rows) == ((), ((1, 1, -1, -1),))
    check_test_cutoff(act, 2, 0)  # not refused


def test_a_non_diagonal_action_keeps_the_assumed_cutoff():
    space = SymplecticSpace(2)
    act = HamiltonianAction(abelian_data(1, ["t"]), StarProduct(space, 2),
                            [parse_poly("11*q1*p1 + q2*p2 + q2^2", space.names)])
    assert act.nondiagonal == (0,)
    check_test_cutoff(act, 2, 2)  # not refused


def test_a_degree_bound_below_2_needs_no_more():
    # degrees 0 and 1 are exact at any cutoff: the 11:1 torus, refused
    # below 12 at bound 2, passes at bound 1 and cutoff 1
    act = _eleven(SymplecticSpace(2))
    with pytest.raises(ValidationError, match="exact cutoff 12 "):
        check_test_cutoff(act, 2, 11)
    check_test_cutoff(act, 1, 1)
    rows = compare_centers(act, 1, 1).rows
    assert [(row.poisson_dim, row.quantum_rank) for row in rows] == [(1, 1), (0, 0)]


@pytest.mark.parametrize("source, edit, cutoff", [
    ("data/skew_torus.json", {"max_degree": 2}, 4),
    (refusals.TORUS_11, None, 12),
    (refusals.TWO_ROWS, None, 25),
    (refusals.TORUS_11_DOUBLED, None, 12),
    (refusals.TORUS_11_CROSSED, None, 12),
])
def test_a_diagonal_document_at_its_exact_cutoff_runs_with_exit_0(
        source, edit, cutoff, tmp_path, capsys):
    # the refusal rows of these documents exit 3 one below
    row = refusals.Row("exact", source, dict(edit or {}, test_degree=cutoff), 0, "")
    path = tmp_path / "scenario.json"
    path.write_bytes(refusals.document(row))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--report", "json"]) == 0
    (centers,) = [task for task in json.loads(capsys.readouterr().out)["tasks"]
                  if task["task"] == "centers"]
    assert centers["passed"] and centers["details"]["test_degree"] == cutoff
