from __future__ import annotations

import pytest

from qcenter import (
    HamiltonianAction,
    LieAlgebraData,
    SymplecticSpace,
    StarProduct,
)

from qcenter import centers, scenario

from oracle import abelian_data, sl2_data


@pytest.fixture
def generator_discovery(monkeypatch) -> list[tuple[str, bool]]:
    """Each call of a generator finder of ``centers`` (the exponent route
    and the span extension) as ``(name, inside)``, with ``inside`` true
    while ``invariants_up_to`` runs; each solve itself is recorded as
    ``("invariants_up_to", True)``.  The solve is patched in every module
    that holds it."""
    calls: list[tuple[str, bool]] = []
    depth = [0]
    for name in ("_monomial_generators", "independent_extension"):
        def finder(*args, _name=name, _real=getattr(centers, name)):
            calls.append((_name, depth[0] > 0))
            return _real(*args)

        monkeypatch.setattr(centers, name, finder)

    def solver(*args, _solve=centers.invariants_up_to):
        calls.append(("invariants_up_to", True))
        depth[0] += 1
        try:
            return _solve(*args)
        finally:
            depth[0] -= 1

    for module in (centers, scenario):
        monkeypatch.setattr(module, "invariants_up_to", solver)
    return calls


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
