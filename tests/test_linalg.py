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
    invariants_up_to,
    reduce_poly_span,
    rref,
)
from qcenter.linalg import independent_extension
from qcenter.poly import monomial_key, monomial_table
from qcenter.scenario import build_scenario, load_scenario

from oracle import densified, dense_in_span, dense_nullspace, dense_rref, spans_equal


def _kernel(rows, ncols):
    """The kernel of dense rows fed as mappings, written out densely."""
    acc = EchelonAccumulator(ncols)
    for row in rows:
        acc.add_row(dict(enumerate(row)))
    return densified(acc.kernel(), ncols)


def test_empty_constraints_give_full_standard_basis():
    expected = [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert densified(EchelonAccumulator(4).kernel(), 4) == expected


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


# -- spans of single-term polynomials ----------------------------------------


@pytest.fixture
def engines(monkeypatch):
    """The number of ``EchelonAccumulator``s built while the test runs."""
    built = [0]
    init = EchelonAccumulator.__init__

    def counted(self, ncols):
        built[0] += 1
        init(self, ncols)

    monkeypatch.setattr(EchelonAccumulator, "__init__", counted)
    return built


def _dense_span_basis(polys: list[Poly], nvars: int) -> list[Poly]:
    """The canonical basis read off ``dense_rref`` of the coefficient rows
    over the joint support in canonical order."""
    columns = sorted({m for f in polys for m in f.terms}, key=monomial_key)
    rows = [[f.coefficient(m) for m in columns] for f in polys]
    echelon, _ = dense_rref(rows) if rows and columns else ([], [])
    return [Poly(nvars, dict(zip(columns, row))) for row in echelon]


def _dense_extension(base: list[Poly], candidates: list[Poly]) -> list[Poly]:
    kept: list[Poly] = []
    for f in candidates:
        if not dense_in_span(f, [*base, *kept]):
            kept.append(f)
    return kept


def _single_terms(rng: random.Random, nvars: int, count: int) -> list[Poly]:
    """Terms on a few monomials of one degree, so monomials repeat, with
    negative and rational coefficients."""
    degree = rng.randint(0, 3)
    mons = monomial_table(nvars, degree)[degree]
    pool = rng.sample(mons, min(3, len(mons)))
    return [
        Poly(nvars, {rng.choice(pool): Fraction(rng.choice((-3, -1, 1, 2)),
                                                rng.choice((1, 2, 3)))})
        for _ in range(count)
    ]


def _span_cases(seed: int):
    """(polys, whether the engine must run) for single-term lists, the
    empty list, and single-term lists holding one zero or two-term
    polynomial."""
    rng = random.Random(seed)
    nv = 4
    terms = _single_terms(rng, nv, rng.randint(1, 6))
    yield terms, False
    yield [], False
    # the terms have degree at most 3, so the sum keeps two terms
    for odd in (Poly.zero(nv), terms[0] + Poly.variable(nv, 0) ** 4):
        mixed = terms[:]
        mixed.insert(rng.randint(0, len(mixed)), odd)
        yield mixed, True


@pytest.mark.parametrize("seed", range(12))
def test_span_helpers_match_dense_elimination(seed, engines):
    for polys, engine in _span_cases(seed):
        engines[0] = 0
        basis = reduce_poly_span(polys, 4)
        assert (engines[0] > 0) == engine
        assert basis == _dense_span_basis(polys, 4)
        assert spans_equal(basis, polys)
        for cut in range(len(polys) + 1):
            base, candidates = polys[:cut], polys[cut:] + polys[:cut]
            engines[0] = 0
            kept = independent_extension(base, candidates)
            assert engines[0] == 1  # every extension is one elimination
            expected = _dense_extension(base, candidates)
            assert len(kept) == len(expected)
            assert all(a is b for a, b in zip(kept, expected))
        for f in polys + [Poly.variable(4, 1) ** 2]:
            assert in_span(f, basis) == dense_in_span(f, basis)


def test_single_term_slices_reduce_to_their_monomials(engines):
    q = Poly.variable(2, 0)
    p = Poly.variable(2, 1)
    sub = GradedSubspace(2, {
        2: [(q * p).scale(Fraction(-3, 2)), q * q, (q * p).scale(2)],
        1: [p.scale(Fraction(1, 3))],
        3: [],
    })
    assert engines[0] == 0
    assert sorted(sub.slices) == [1, 2]
    assert sub.basis(1) == [p]
    assert sub.basis(2) == [q * q, q * p]
    with pytest.raises(ValidationError):
        GradedSubspace(2, {1: [q * q]})


@pytest.mark.parametrize("preset, eliminates", [
    ("torus_k4", False), ("sl2_tstar_k2", True),
])
def test_weight_zero_monomials_need_no_engine(preset, eliminates, engines):
    act = build_scenario(load_scenario(preset)).action
    engines[0] = 0  # the space checks its bivector with rref
    invariants_up_to(act, 10)  # with its generators
    assert (engines[0] > 0) == eliminates
