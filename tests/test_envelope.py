from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import (
    LieAlgebraData,
    Poly,
    UEnvElement,
    ValidationError,
    central_section,
    symmetrize,
)
from qcenter import envelope
from qcenter.envelope import normalize_word

from oracle import (
    abelian_data,
    central_in_envelope,
    rewrite_word,
    symmetrize_by_orderings,
)


E, H, F = 0, 1, 2  # sl2 basis order e < h < f


def test_structure_constant_validation():
    with pytest.raises(ValidationError):
        # [a,b] = a, [b,c] = b, [a,c] = 0 violates the Jacobi identity:
        # [[a,b],c] + [[b,c],a] + [[c,a],b] = [a,c] + [b,a] = -a
        LieAlgebraData(
            3,
            ["a", "b", "c"],
            {
                (0, 1): {0: Fraction(1)},
                (1, 2): {1: Fraction(1)},
            },
        )


def test_antisymmetry_validation():
    with pytest.raises(ValidationError):
        LieAlgebraData(
            2,
            ["a", "b"],
            {(0, 1): {0: Fraction(1)}, (1, 0): {0: Fraction(1)}},
        )
    # a stated zero mirror contradicts the stated bracket too
    with pytest.raises(ValidationError, match=r"not antisymmetric at \(0,1\)"):
        LieAlgebraData(2, ["a", "b"], {(0, 1): {0: Fraction(1)}, (1, 0): {}})


def test_bracket_reads_both_orientations_antisymmetrically(sl2):
    # each orientation is stored, the stated one and its mirror alike, so
    # reading either builds nothing
    expected = {(H, E): {E: 2}, (H, F): {F: -2}, (E, F): {H: 1}}
    for i in range(3):
        assert sl2.bracket(i, i) == {}
        for j in range(3):
            assert sl2.bracket(j, i) == {k: -c for k, c in sl2.bracket(i, j).items()}
    for (i, j), comps in expected.items():
        assert sl2.bracket(i, j) == comps
        assert sl2.bracket(j, i) == {k: -c for k, c in comps.items()}
        assert sl2.bracket(j, i) is sl2.bracket(j, i)


def test_designated_generator_must_be_invariant(sl2):
    with pytest.raises(ValidationError):
        from qcenter import InvariantGenerator

        LieAlgebraData(
            3,
            ["e", "h", "f"],
            {
                (1, 0): {0: Fraction(2)},
                (1, 2): {2: Fraction(-2)},
                (0, 2): {1: Fraction(1)},
            },
            [InvariantGenerator("bad", Poly.variable(3, 0))],
        )


def test_pbw_single_rewrite(sl2):
    # word h e normalizes to e h + 2 (parameter) e
    result = normalize_word(sl2, (H, E))
    assert result == {
        ((E, H), 0): Fraction(1),
        ((E,), 1): Fraction(2),
    }


def test_pbw_sorted_word_is_fixed(sl2):
    word = (E, E, H, F)
    assert normalize_word(sl2, word) == {(word, 0): Fraction(1)}


def test_pbw_abelian_sorts_without_corrections():
    lie = abelian_data(3)
    result = normalize_word(lie, (2, 0, 1))
    assert result == {((0, 1, 2), 0): Fraction(1)}


def test_pbw_confluence_random_strategies(sl2):
    """The cached leftmost-descent normal form equals an uncached rewrite
    under any descent order."""
    rng = random.Random(314159)
    for _ in range(40):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(2, 5)))
        normal = normalize_word(sl2, word)
        for picker in (
            lambda ds: ds[0],
            lambda ds: ds[-1],
            lambda ds: ds[len(ds) // 2],
            lambda ds: rng.choice(ds),
        ):
            assert rewrite_word(sl2, word, picker) == normal


def test_u_mul_unit_and_defining_commutator(sl2):
    one = UEnvElement.one(sl2, 6)
    e = UEnvElement.generator(sl2, E, 6)
    f = UEnvElement.generator(sl2, F, 6)
    h = UEnvElement.generator(sl2, H, 6)
    assert e * one == e
    assert one * e == e
    assert e * f == f * e + h.hbar_shift(1)


def test_u_mul_parameter_central(sl2):
    h, e, f = (UEnvElement.generator(sl2, i, 6) for i in (H, E, F))
    a = h * e
    b = f * f
    assert a.hbar_shift(1) * b == (a * b).hbar_shift(1)
    assert a * b.hbar_shift(2) == (a * b).hbar_shift(2)


def test_u_mul_associative_random(sl2):
    rng = random.Random(27)
    for _ in range(15):
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(0, 4))))
                terms[word, rng.randint(0, 1)] = Fraction(rng.randint(-3, 3) or 1)
            return UEnvElement(sl2, 6, terms)

        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


def _spy_normalize(monkeypatch) -> list:
    calls = []

    def spy(lie, word):
        calls.append(word)
        return normalize_word(lie, word)

    monkeypatch.setattr(envelope, "normalize_word", spy)
    return calls


def test_u_mul_past_the_truncation_normalizes_no_word(sl2, monkeypatch):
    # the lowest powers sum to 1 + 2 > 2, and every concatenation is unsorted
    a = UEnvElement(sl2, 2, {((F,), 1): Fraction(1), ((H, F), 2): Fraction(3)})
    b = UEnvElement(sl2, 2, {((E,), 2): Fraction(-2), ((E, H), 2): Fraction(1)})
    calls = _spy_normalize(monkeypatch)
    assert a * b == UEnvElement.zero(sl2, 2)
    assert calls == []


def test_u_mul_at_the_truncation_equals_the_rewrite(sl2, monkeypatch):
    # the powers sum to 1 + 2 = 3, the truncation: only the order-0 part of
    # the rewrite of f f e h survives
    a = UEnvElement(sl2, 3, {((F, F), 1): Fraction(2)})
    b = UEnvElement(sl2, 3, {((E, H), 2): Fraction(-1)})
    word = (F, F, E, H)
    expected = UEnvElement(sl2, 3, {
        (w, r + 3): -2 * c
        for (w, r), c in rewrite_word(sl2, word, lambda ds: ds[0]).items()
    })
    calls = _spy_normalize(monkeypatch)
    product = a * b
    assert product == expected
    assert product != UEnvElement.zero(sl2, 3)
    assert calls[0] == word


def test_symmetrize_degree_one_is_identity(sl2):
    for i in range(3):
        xi = Poly.variable(3, i)
        assert symmetrize(sl2, xi, 6) == UEnvElement.generator(sl2, i, 6)


def test_symmetrize_order_two(sl2):
    # the average of the two orderings of e f is e f - (1/2) parameter h
    ef = Poly(3, {(1, 0, 1): Fraction(1)})
    expected = UEnvElement(
        sl2,
        6,
        {((E, F), 0): Fraction(1), ((H,), 1): Fraction(-1, 2)},
    )
    assert symmetrize(sl2, ef, 6) == expected


def test_symmetrize_abelian_is_monomial_identification():
    lie = abelian_data(2)
    s = Poly(2, {(2, 1): Fraction(3)})
    result = symmetrize(lie, s, 4)
    assert result == UEnvElement(lie, 4, {((0, 0, 1), 0): Fraction(3)})


def test_symmetrize_is_right_inverse_of_classical_limit(sl2):
    rng = random.Random(55)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 2) for _ in range(3))
            terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        s = Poly(3, terms)
        assert symmetrize(sl2, s, 6).classical_limit() == s


def _solvable() -> LieAlgebraData:
    # [t, x] = x, [t, y] = 2 y: solvable, and not nilpotent since ad t
    # has nonzero eigenvalues
    return LieAlgebraData(
        3, ["x", "t", "y"], {(1, 0): {0: Fraction(1)}, (1, 2): {2: Fraction(2)}}
    )


@pytest.mark.parametrize("algebra", ["sl2", "solvable"])
def test_symmetrization_matches_the_average_over_all_orderings(sl2, algebra):
    lie = sl2 if algebra == "sl2" else _solvable()
    rng = random.Random(2718)
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(0, 4)
            exp = [0, 0, 0]
            for _ in range(degree):
                exp[rng.randrange(3)] += 1
            terms[tuple(exp)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        s = Poly(3, terms)
        for order in (1, 6):
            expected = symmetrize_by_orderings(lie, s, order, rng.choice)
            assert symmetrize(lie, s, order) == expected


def test_classical_limit_drops_corrections(sl2):
    a = UEnvElement(sl2, 6, {((E, H), 0): Fraction(1), ((E,), 1): Fraction(2)})
    assert a.classical_limit() == Poly(3, {(1, 1, 0): Fraction(1)})
    assert a.hbar_shift(1).classical_limit().is_zero()


def test_casimir_symmetrization_is_central(sl2):
    # both normalizations of the quadratic invariant
    cas = sl2.generator("casimir").poly
    assert central_in_envelope(symmetrize(sl2, cas, 6))
    quarter = cas.scale(Fraction(1, 4))
    assert central_in_envelope(symmetrize(sl2, quarter, 6))


def test_generator_is_not_central(sl2):
    e = UEnvElement.generator(sl2, E, 6)
    assert not central_in_envelope(e)


def test_abelian_everything_central():
    lie = abelian_data(2)
    x0, x1 = (UEnvElement.generator(lie, i, 4) for i in (0, 1))
    a = x1 * x0 * x1
    assert central_in_envelope(a)


def test_central_section_with_correction():
    from qcenter import InvariantGenerator

    cas_poly = Poly(3, {(0, 2, 0): Fraction(1), (1, 0, 1): Fraction(4)})
    lie = LieAlgebraData(
        3,
        ["e", "h", "f"],
        {
            (1, 0): {0: Fraction(2)},
            (1, 2): {2: Fraction(-2)},
            (0, 2): {1: Fraction(1)},
        },
        [
            InvariantGenerator(
                "casimir",
                cas_poly,
                ((2, Poly.constant(3, 1)),),
            )
        ],
    )
    lifted = central_section(lie, "casimir", 6)
    plain = symmetrize(lie, cas_poly, 6)
    assert lifted == plain + UEnvElement.one(lie, 6).hbar_shift(2)
    assert central_in_envelope(lifted)
    assert lifted.classical_limit() == cas_poly
