from __future__ import annotations

from fractions import Fraction

import pytest

from qcenter import (
    DimensionError,
    Poly,
    SymplecticSpace,
    TruncationError,
    UEnvElement,
    ValidationError,
)

from oracle import abelian_data


def test_standard_bivector_default():
    space = SymplecticSpace(2)
    assert space.bivector == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
    )
    entries = {(i, j): v for i, j, v in space.bivector_entries()}
    assert entries == {
        (0, 2): Fraction(1),
        (2, 0): Fraction(-1),
        (1, 3): Fraction(1),
        (3, 1): Fraction(-1),
    }


def test_bivector_must_be_antisymmetric():
    with pytest.raises(ValidationError):
        SymplecticSpace(1, bivector=[["0", "1"], ["1", "0"]])


def test_bivector_must_be_invertible():
    with pytest.raises(ValidationError):
        SymplecticSpace(1, bivector=[["0", "0"], ["0", "0"]])


def test_weight_vector_length_checked():
    with pytest.raises(DimensionError):
        SymplecticSpace(1, weights=[-1, -1, -1])


def test_default_grading_is_compatible():
    space = SymplecticSpace(3)
    space.check_graded_bivector()


def test_incompatible_grading_detected():
    space = SymplecticSpace(1, weights=[-1, -2], hbar_weight=2)
    with pytest.raises(ValidationError):
        space.check_graded_bivector()


def test_coordinate_accessors():
    space = SymplecticSpace(2)
    assert space.q(1) == Poly.variable(4, 0)
    assert space.p(2) == Poly.variable(4, 3)
    with pytest.raises(DimensionError):
        space.q(3)


def test_poly_weight_requires_matching_ring():
    space = SymplecticSpace(1)
    with pytest.raises(DimensionError):
        space.poly_weight(Poly.variable(4, 0))


def test_uenv_mixed_truncations_rejected(sl2):
    a = UEnvElement.generator(sl2, 0, 4)
    b = UEnvElement.generator(sl2, 1, 6)
    with pytest.raises(TruncationError):
        a * b
    with pytest.raises(TruncationError):
        a + b


def test_uenv_mixed_algebras_rejected(sl2):
    other = abelian_data(3)
    a = UEnvElement.generator(sl2, 0, 4)
    b = UEnvElement.generator(other, 0, 4)
    with pytest.raises(DimensionError):
        a * b
