from __future__ import annotations

import pytest

from qcenter import (
    HamiltonianAction,
    LieAlgebraData,
    SymplecticSpace,
    StarProduct,
)

from oracle import abelian_data, sl2_data


@pytest.fixture(scope="session")
def space1() -> SymplecticSpace:
    return SymplecticSpace(1)


@pytest.fixture(scope="session")
def space2() -> SymplecticSpace:
    return SymplecticSpace(2)


@pytest.fixture(scope="session")
def star1(space1) -> StarProduct:
    return StarProduct(space1, 8)


@pytest.fixture(scope="session")
def star2(space2) -> StarProduct:
    return StarProduct(space2, 8)


@pytest.fixture(scope="session")
def sl2() -> LieAlgebraData:
    return sl2_data()


@pytest.fixture(scope="session")
def torus1() -> LieAlgebraData:
    return abelian_data(1, ["t"])


@pytest.fixture(scope="session")
def sl2_action(sl2, star2) -> HamiltonianAction:
    sp = star2.space
    hams = [
        sp.q(2) * sp.p(1),                    # e
        sp.q(1) * sp.p(1) - sp.q(2) * sp.p(2),  # h
        sp.q(1) * sp.p(2),                    # f
    ]
    return HamiltonianAction(sl2, star2, hams)


@pytest.fixture(scope="session")
def torus_action(torus1, star1) -> HamiltonianAction:
    sp = star1.space
    return HamiltonianAction(torus1, star1, [sp.q(1) * sp.p(1)])
