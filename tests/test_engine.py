"""Cross-checks of the sparse elimination engine against dense references.

Matrices are seeded, sparse and rational, and deliberately include zero
rows, repeated rows and rows that are combinations of earlier ones.  Rows
go into the engine as ``{column: value}`` mappings, and its sparse kernels
and combinations are written out as dense rows (``oracle.densified``) to be
compared with the dense references.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import (
    DimensionError,
    EchelonAccumulator,
    Poly,
    SymplecticSpace,
    ValidationError,
    in_span,
    reduce_poly_span,
    rref,
)
from qcenter.linalg import span_combinations
from qcenter.poly import monomial_key, monomial_table
from oracle import densified, dense_nullspace, dense_rref, leibniz_determinant

SEEDS = range(12)


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    """Sparse rational rows with zero, repeated and dependent rows mixed in."""
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([
                Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                if rng.random() < 0.3 else Fraction(0)
                for _ in range(ncols)
            ])
    return rows


def kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """The canonical kernel every center solve reads, streamed row by row."""
    acc = EchelonAccumulator(ncols)
    for row in rows:
        acc.add_row(dict(enumerate(row)))
    return densified(acc.kernel(), ncols)


def rank(acc: EchelonAccumulator) -> int:
    """Rank read off the kernel: one basis vector per free column."""
    return acc.ncols - len(acc.kernel())


def shapes(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randint(1, 12), rng.randint(1, 10)) for _ in range(4)]


@pytest.mark.parametrize("seed", SEEDS)
def test_rref_and_nullspace_match_dense_reference(seed):
    rng = random.Random(seed)
    for nrows, ncols in shapes(seed):
        rows = random_matrix(rng, nrows, ncols)
        assert rref(rows) == dense_rref(rows)
        assert kernel(rows, ncols) == dense_nullspace(rows, ncols)


@pytest.mark.parametrize("seed", SEEDS)
def test_accumulator_matches_dense_reference_row_by_row(seed):
    rng = random.Random(1000 + seed)
    for nrows, ncols in shapes(seed):
        rows = random_matrix(rng, nrows, ncols)
        acc = EchelonAccumulator(ncols)
        for i, row in enumerate(rows):
            rank_before = len(dense_rref(rows[:i])[1]) if i else 0
            rank_after = len(dense_rref(rows[: i + 1])[1])
            assert acc.add_row(dict(enumerate(row))) is (rank_after > rank_before)
            assert rank(acc) == rank_after
        assert densified(acc.kernel(), ncols) == dense_nullspace(rows, ncols)


@pytest.mark.parametrize("seed", SEEDS)
def test_mapping_and_dense_rows_give_identical_state(seed):
    # a dense row is the mapping of every column, zero entries included
    rng = random.Random(2000 + seed)
    for nrows, ncols in shapes(seed):
        rows = random_matrix(rng, nrows, ncols)
        dense, sparse = EchelonAccumulator(ncols), EchelonAccumulator(ncols)
        for row in rows:
            mapping = {c: v for c, v in enumerate(row) if v}
            assert dense.add_row(dict(enumerate(row))) == sparse.add_row(mapping)
        # the kernel determines the reduced row space, hence the whole state
        assert rank(dense) == rank(sparse)
        assert dense.kernel() == sparse.kernel()


@pytest.mark.parametrize("seed", range(10))
def test_sparse_kernel_vectors_match_the_dense_reference(seed):
    """100 systems per seed, 1,000 in all, fed row by row, so that new
    pivots back-reduce the stored rows that hold them.  Every kernel vector
    stores no zero, has 1 at its free column, which is its largest key, is
    annihilated by every row fed, and written out equals the reference."""
    rng = random.Random(9000 + seed)
    back_reductions = 0
    for _ in range(100):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 8)
        rows = random_matrix(rng, nrows, ncols)
        acc = EchelonAccumulator(ncols)
        for row in rows:
            held = {col for col, pivots in acc._index.items() if pivots}
            before = set(acc._rows)
            acc.add_row({c: v for c, v in enumerate(row) if v})
            back_reductions += bool((acc._rows.keys() - before) & held)
        vectors = acc.kernel()
        assert [max(vec) for vec in vectors] == [
            c for c in range(ncols) if c not in acc._rows
        ]
        for vec in vectors:
            assert vec[max(vec)] == 1 and all(vec.values())
            for row in rows:
                assert sum(row[c] * value for c, value in vec.items()) == 0
        assert densified(vectors, ncols) == dense_nullspace(rows, ncols)
    assert back_reductions >= 20


def test_mapping_rows_are_not_consumed_and_accept_plain_scalars():
    acc = EchelonAccumulator(3)
    row = {0: 2, 2: Fraction(1, 2)}
    assert acc.add_row(row)
    assert row == {0: 2, 2: Fraction(1, 2)}
    assert not acc.add_row({0: Fraction(4), 2: 1})
    assert not acc.add_row({1: 0})
    assert acc.kernel() == [{1: Fraction(1)}, {0: Fraction(-1, 4), 2: Fraction(1)}]


@pytest.mark.parametrize("seed", SEEDS)
def test_solve_linear_matches_dense_reference(seed):
    # A x = b through the live engine: it is solvable exactly when b lies in
    # the span of the columns of A (one variable per equation), and the
    # solutions of A x = 0 are the accumulator's kernel
    rng = random.Random(3000 + seed)
    for nrows, ncols in shapes(seed):
        rows = random_matrix(rng, nrows, ncols)
        rhs = [Fraction(rng.randint(-3, 3)) for _ in rows]
        augmented = [row + [b] for row, b in zip(rows, rhs)]
        feasible = ncols not in dense_rref(augmented)[1]
        unit = [tuple(int(i == k) for k in range(nrows)) for i in range(nrows)]
        columns = [
            Poly(nrows, {unit[i]: row[j] for i, row in enumerate(rows)})
            for j in range(ncols)
        ]
        target = Poly(nrows, dict(zip(unit, rhs)))
        assert in_span(target, columns) is feasible
        assert kernel(rows, ncols) == dense_nullspace(rows, ncols)


@pytest.mark.parametrize("seed", SEEDS)
def test_in_span_matches_dense_rank(seed):
    rng = random.Random(4000 + seed)
    monomials = monomial_table(2, 3)[3]
    for nrows, _ in shapes(seed):
        rows = random_matrix(rng, nrows + 1, len(monomials))
        polys = [Poly(2, dict(zip(monomials, row))) for row in rows]
        *basis, f = polys
        rank = len(dense_rref(rows[:-1])[1]) if basis else 0
        expected = len(dense_rref(rows)[1]) == rank
        assert in_span(f, basis) is expected
        # a combination of the basis always lies in its span
        combo = Poly.zero(2)
        for g in basis:
            combo = combo + g.scale(rng.randint(-2, 2))
        assert in_span(combo, basis)


@pytest.mark.parametrize("seed", SEEDS)
def test_span_combinations_match_dense_augmented_rref(seed):
    rng = random.Random(6000 + seed)
    monomials = monomial_table(2, 3)[3]
    for nrows, _ in shapes(seed):
        polys = [Poly(2, dict(zip(monomials, row)))
                 for row in random_matrix(rng, nrows, len(monomials))]
        combos = densified(span_combinations(polys), len(polys))
        # each combination realizes one canonical echelon basis element
        realized = []
        for combo in combos:
            f = Poly.zero(2)
            for c, g in zip(combo, polys):
                f = f + g.scale(c)
            realized.append(f)
        assert realized == reduce_poly_span(polys, 2)
        # and is the identity part of the dense RREF of [coefficients | I]
        support = sorted({m for g in polys for m in g.terms}, key=monomial_key)
        augmented = [
            [g.terms.get(m, Fraction(0)) for m in support]
            + [Fraction(int(i == j)) for j in range(len(polys))]
            for i, g in enumerate(polys)
        ]
        echelon, pivots = dense_rref(augmented)
        width = len(support)
        assert combos == [row[width:] for row, p in zip(echelon, pivots) if p < width]


@pytest.mark.parametrize("seed", SEEDS)
def test_bivector_invertibility_matches_determinant(seed):
    rng = random.Random(5000 + seed)
    for pairs in (1, 2, 3):
        nvars = 2 * pairs
        upper = [
            [Fraction(rng.randint(-2, 2)) if rng.random() < 0.4 else Fraction(0)
             for _ in range(nvars)]
            for _ in range(nvars)
        ]
        matrix = [
            [upper[i][j] if i < j else -upper[j][i] if i > j else Fraction(0)
             for j in range(nvars)]
            for i in range(nvars)
        ]
        if leibniz_determinant(matrix) == 0:
            with pytest.raises(ValidationError, match="invertible"):
                SymplecticSpace(pairs, bivector=matrix)
        else:
            assert SymplecticSpace(pairs, bivector=matrix).bivector == tuple(
                tuple(row) for row in matrix
            )


def test_ragged_and_wrong_length_rows_raise():
    with pytest.raises(DimensionError):
        rref([[1, 2], [1]])
    acc = EchelonAccumulator(2)
    with pytest.raises(DimensionError):
        acc.add_row({2: 1})
    with pytest.raises(DimensionError):
        acc.add_row({-1: 1})
    assert rank(acc) == 0
