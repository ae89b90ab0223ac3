from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import (
    EchelonAccumulator,
    GradedSubspace,
    Poly,
    ValidationError,
    in_span,
    reduce_poly_span,
    rref,
)

from oracle import dense_nullspace, spans_equal


def _kernel(rows, ncols):
    acc = EchelonAccumulator(ncols)
    for row in rows:
        acc.add_row(row)
    return acc.kernel()


def test_empty_constraints_give_full_standard_basis():
    expected = [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert EchelonAccumulator(4).kernel() == expected


def test_coordinate_kernel():
    # kill the first coordinate on span{q1, p1}: kernel is the second axis
    assert _kernel([[1, 0]], 2) == [[Fraction(0), Fraction(1)]]


def test_rref_idempotent_and_order_independent():
    rng = random.Random(31337)
    for _ in range(10):
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(6)
        ]
        echelon, pivots = rref(rows)
        again, pivots2 = rref(echelon)
        assert echelon == again
        assert pivots == pivots2
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rref(shuffled)[0] == echelon


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(4)
    rows = [[Fraction(rng.randint(-2, 2)) for _ in range(6)] for _ in range(4)]
    for vec in _kernel(rows, 6):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_echelon_accumulator_matches_batch():
    rng = random.Random(11)
    # fewer rows than columns, so the kernel is not empty
    rows = [[Fraction(rng.randint(-2, 2)) for _ in range(7)] for _ in range(4)]
    kernel = _kernel(rows, 7)
    assert len(kernel) == 3
    # the streamed state is the canonical RREF that batch reduction gives
    assert kernel == _kernel(rref(rows)[0], 7)
    assert kernel == dense_nullspace(rows, 7)


def test_reduce_poly_span_canonical():
    q = Poly.variable(2, 0)
    p = Poly.variable(2, 1)
    basis1 = reduce_poly_span([q + p, q - p], 2)
    basis2 = reduce_poly_span([q, p], 2)
    assert basis1 == basis2
    assert spans_equal([q + p, q - p], [p, q])


def test_in_span():
    q = Poly.variable(2, 0)
    p = Poly.variable(2, 1)
    assert in_span(q + p, [q, p])
    assert not in_span(q * p, [q, p])
    assert in_span(Poly.zero(2), [])


def test_graded_subspace_validates_homogeneity():
    q = Poly.variable(2, 0)
    one = Poly.constant(2, 1)
    with pytest.raises(ValidationError):
        GradedSubspace(2, {1: [q + one]})


def test_graded_subspace_reduces_and_reports():
    q = Poly.variable(2, 0)
    p = Poly.variable(2, 1)
    sub = GradedSubspace(2, {1: [q + p, q - p, q], 2: [q * p]})
    assert sub.dimension(1) == 2
    assert sub.dimension(2) == 1
    assert sub.dimension(3) == 0
    assert in_span(q.scale(Fraction(5, 2)), sub.basis(1))
    assert not in_span(q * q, sub.basis(2))
