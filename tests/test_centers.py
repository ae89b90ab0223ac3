from __future__ import annotations

import pytest

from qcenter import (
    EchelonAccumulator,
    HamiltonianAction,
    HSeries,
    StarProduct,
    SymplecticSpace,
    ValidationError,
    compare_centers,
    in_span,
    invariants_up_to,
    moment_image_basis,
    parse_poly,
    reduce_poly_span,
)
from qcenter import star as star_module
from qcenter.centers import poisson_center_up_to, quantum_center_up_to
from qcenter.liealg import InvariantGenerator, LieAlgebraData

from oracle import (
    abelian_data,
    center_inputs,
    power_products,
    spans_equal,
    weight_zero_monomials,
)


def _poisson(act, max_degree, test_degree, invariants=None):
    inputs = center_inputs(act, max_degree, test_degree, invariants)
    return poisson_center_up_to(act, max_degree, *inputs)


def _quantum(act, max_degree, test_degree):
    inputs = center_inputs(act, max_degree, test_degree)
    return quantum_center_up_to(act, max_degree, *inputs)


@pytest.fixture(scope="module")
def torus4_action():
    space = SymplecticSpace(2)
    star = StarProduct(space, 6)
    lie = abelian_data(1, ["t"])
    tr = space.q(1) * space.p(1) + space.q(2) * space.p(2)
    return HamiltonianAction(lie, star, [tr])


@pytest.fixture(scope="module")
def trivial_action():
    space = SymplecticSpace(1)
    star = StarProduct(space, 6)
    lie = LieAlgebraData(0, [])
    return HamiltonianAction(lie, star, [])


@pytest.fixture(scope="module")
def skew_torus_action():
    """Torus with base weights (3, 1): invariants are not generated in
    degree <= 2, so center computations must consult quartic invariants."""
    space = SymplecticSpace(2)
    star = StarProduct(space, 6)
    lie = abelian_data(1, ["t"])
    h = (space.q(1) * space.p(1)).scale(3) + space.q(2) * space.p(2)
    return HamiltonianAction(lie, star, [h])


def test_torus_invariants_match_enumeration(torus_action):
    inv = invariants_up_to(torus_action, 8)
    sp = torus_action.space
    for degree in range(9):
        oracle = weight_zero_monomials(sp, [1], degree)
        assert spans_equal(inv.basis(degree), oracle)
    # explicit low-degree picture: 1, q1 p1, (q1 p1)^2
    assert inv.dimension(0) == 1
    assert inv.dimension(1) == 0
    qp = sp.q(1) * sp.p(1)
    assert inv.basis(2) == [qp]
    assert inv.basis(4) == [qp * qp]


def test_torus4_invariants_match_enumeration(torus4_action):
    inv = invariants_up_to(torus4_action, 8)
    sp = torus4_action.space
    for degree in range(9):
        oracle = weight_zero_monomials(sp, [1, 1], degree)
        assert spans_equal(inv.basis(degree), oracle)
    assert [inv.dimension(d) for d in range(9)] == [1, 0, 4, 0, 9, 0, 16, 0, 25]


def test_trivial_algebra_gives_everything(trivial_action):
    inv = invariants_up_to(trivial_action, 5)
    for degree in range(6):
        assert inv.dimension(degree) == degree + 1


def test_sl2_invariants(sl2_action):
    inv = invariants_up_to(sl2_action, 8)
    sp = sl2_action.space
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    assert inv.basis(2) == reduce_poly_span([tr], 4)
    assert [inv.dimension(d) for d in range(9)] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    for degree in (2, 4, 6, 8):
        assert spans_equal(inv.basis(degree), [tr ** (degree // 2)])


def test_every_invariant_is_annihilated(sl2_action, torus4_action):
    for act in (sl2_action, torus4_action):
        inv = invariants_up_to(act, 6)
        for degree in sorted(inv.slices):
            for f in inv.basis(degree):
                for h in act.hamiltonians:
                    assert act.star.poisson(h, f).is_zero()


def test_moment_image_torus(torus_action):
    image = moment_image_basis(torus_action, 8)
    sp = torus_action.space
    qp = sp.q(1) * sp.p(1)
    for degree in (0, 2, 4, 6, 8):
        assert spans_equal(image.basis(degree), [qp ** (degree // 2)])
    assert image.dimension(1) == 0
    assert image.dimension(3) == 0


def test_moment_image_sl2_is_even_powers_of_pairing(sl2_action):
    image = moment_image_basis(sl2_action, 8)
    sp = sl2_action.space
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    assert image.dimension(2) == 0  # generated by the degree-4 pullback
    assert spans_equal(image.basis(4), [tr**2])
    assert spans_equal(image.basis(8), [tr**4])


def test_moment_image_trivial(trivial_action):
    image = moment_image_basis(trivial_action, 4)
    assert image.dimension(0) == 1
    for degree in range(1, 5):
        assert image.dimension(degree) == 0


@pytest.mark.parametrize(
    "generators, pullbacks, dim8",
    [
        # degrees 2, 2 and 4, the last one redundant: all 5 products of
        # t-degree 4 in degree 8
        (["t1", "t2", "t1*t2 + t1^2"],
         ["q1*p1", "q2*p2", "q1*p1*q2*p2 + q1^2*p1^2"], 5),
        # degrees 4, 4 and 6: a proper subalgebra, which misses t1*t2^3 and
        # t2^4 in degree 8
        (["t1^2", "t1*t2", "t2^3"],
         ["q1^2*p1^2", "q1*p1*q2*p2", "q2^3*p2^3"], 3),
    ],
)
def test_moment_image_matches_exponent_enumeration(generators, pullbacks, dim8):
    space = SymplecticSpace(2)
    gens = [InvariantGenerator(f"g{i}", parse_poly(text, ["t1", "t2"]))
            for i, text in enumerate(generators)]
    lie = LieAlgebraData(2, ["t1", "t2"], {}, gens)
    act = HamiltonianAction(
        lie, StarProduct(space, 2), [space.q(1) * space.p(1), space.q(2) * space.p(2)]
    )
    pulled = [parse_poly(text, space.names) for text in pullbacks]
    image = moment_image_basis(act, 12)
    for degree in range(13):
        expected = reduce_poly_span(power_products(pulled, degree, 4), 4)
        assert image.basis(degree) == expected
    assert image.dimension(8) == dim8


def test_poisson_center_sl2_everything_central(sl2_action):
    inv = invariants_up_to(sl2_action, 10)
    center = _poisson(sl2_action, 8, 10, inv)
    for degree in range(9):
        assert center.dimension(degree) == inv.dimension(degree)


def test_poisson_center_torus4_is_trace_powers(torus4_action):
    center = _poisson(torus4_action, 6, 8)
    sp = torus4_action.space
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    assert center.dimension(2) == 1
    assert spans_equal(center.basis(2), [tr])
    assert center.dimension(4) == 1
    assert spans_equal(center.basis(4), [tr * tr])
    # invariants are strictly bigger in degree 2
    inv = invariants_up_to(torus4_action, 8)
    assert inv.dimension(2) == 4


def test_poisson_center_trivial_is_constants(trivial_action):
    center = _poisson(trivial_action, 5, 7)
    assert center.dimension(0) == 1
    for degree in range(1, 6):
        assert center.dimension(degree) == 0


def test_moment_image_inside_poisson_center(sl2_action, torus_action, torus4_action):
    for act in (sl2_action, torus_action, torus4_action):
        image = moment_image_basis(act, 6)
        center = _poisson(act, 6, 8)
        for degree in sorted(image.slices):
            if degree > 6:
                continue
            for f in image.basis(degree):
                assert in_span(f, center.basis(degree))


def test_quantum_center_order0_parts_are_poisson_central(torus4_action):
    inputs = center_inputs(torus4_action, 6, 8)
    slices = quantum_center_up_to(torus4_action, 6, *inputs)
    center = poisson_center_up_to(torus4_action, 6, *inputs)
    for degree, data in slices.items():
        for series in data.basis:
            part = series.classical_part()
            if not part.is_zero():
                assert in_span(part, center.basis(degree))


def test_quantum_center_torus4_degree2(torus4_action):
    slices = _quantum(torus4_action, 2, 8)
    sp = torus4_action.space
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    data = slices[2]
    assert data.rank == 1
    classical = [rep.classical_part() for rep in data.representatives]
    assert spans_equal(classical, [tr])
    # every element commutes with all invariants up to the cutoff
    inv = invariants_up_to(torus4_action, 8)
    tests = [u for d in sorted(inv.slices) for u in inv.basis(d)]
    for series in data.basis:
        for u in tests:
            comm = torus4_action.star.star_commutator(
                series, HSeries.from_poly(u, torus4_action.star.order)
            )
            assert comm.is_zero()


def test_quantum_center_below_the_star_truncation(skew_torus_action):
    """Slices of a product built at truncation 3, below the fixture's 6,
    against a test set that holds degree-4 invariants.  The pinned ranks
    and slice dimensions equal those of the truncation-6 slices cut at
    order 3."""
    act = skew_torus_action
    low = HamiltonianAction(act.lie, StarProduct(act.space, 3), act.hamiltonians)
    slices = _quantum(low, 4, 8)
    assert {d: (s.rank, len(s.basis)) for d, s in slices.items()} == {
        0: (1, 1), 1: (0, 0), 2: (1, 2), 3: (0, 0), 4: (1, 3)
    }
    assert all(v.order == 3 for s in slices.values() for v in s.basis)


def test_quantum_center_solves_once_per_slice(skew_torus_action, monkeypatch):
    """One exact solve per degree with candidates (0, 2, 4 and 6), against
    the whole test set, quartic generators included."""
    inputs = center_inputs(skew_torus_action, 6, 8)
    solves = []
    kernel = EchelonAccumulator.kernel

    def spy(self):
        solves.append(self)
        return kernel(self)

    monkeypatch.setattr(EchelonAccumulator, "kernel", spy)
    slices = quantum_center_up_to(skew_torus_action, 6, *inputs)
    assert len(solves) == 4
    assert {d: s.rank for d, s in slices.items() if s.basis} == {
        0: 1, 2: 1, 4: 1, 6: 1
    }


def test_each_operand_is_prepared_once_per_loop(torus4_action, monkeypatch):
    """The kernel builds one slot per nonzero polynomial it prepares.  Each
    candidate and test element is prepared once however many partners it
    meets, so the slot count is the number of operands, not the number of
    pairs."""
    act = torus4_action
    invariants = invariants_up_to(act, 6)
    generators = invariants.generators
    assert len(generators) >= 2
    built = []
    init = star_module._Slot.__init__

    def spy(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(star_module._Slot, "__init__", spy)
    inputs = center_inputs(act, 4, 6, invariants)
    candidates = sum(invariants.dimension(d) for d in range(5))
    assert len(built) == candidates + len(generators)

    # both centers read that one table: a basis element is not prepared
    # again, not even once per series order it stands at
    built.clear()
    poisson_center_up_to(act, 4, *inputs)
    quantum_center_up_to(act, 4, *inputs)
    assert built == []


def test_quantum_center_sl2_everything_invariant_is_central(sl2_action):
    slices = _quantum(sl2_action, 4, 6)
    inv = invariants_up_to(sl2_action, 6)
    for degree in (0, 2, 4):
        assert slices[degree].rank == inv.dimension(degree)


def test_compare_centers_equal_ranks(sl2_action, torus_action, torus4_action,
                                     trivial_action):
    for act, max_deg in (
        (torus_action, 8),
        (trivial_action, 6),
        (torus4_action, 6),
        (sl2_action, 8),
    ):
        report = compare_centers(act, max_deg, max_deg + 2)
        assert report.passed, [r.degree for r in report.rows if not r.equal]
        for row in report.rows:
            assert row.equal
            assert row.invariant_dim >= row.poisson_dim


def test_compare_centers_refuses_a_test_cutoff_below_the_degree_bound(
    torus4_action,
):
    with pytest.raises(ValidationError, match="test cutoff"):
        compare_centers(torus4_action, 6, 4)


def test_compare_centers_trivial_degree_zero(trivial_action):
    report = compare_centers(trivial_action, 0, 2)
    assert report.rows[0].invariant_dim == 1
    assert report.rows[0].poisson_dim == 1
    assert report.rows[0].quantum_rank == 1


def test_skew_torus_invariants_match_enumeration(skew_torus_action):
    inv = invariants_up_to(skew_torus_action, 8)
    sp = skew_torus_action.space
    for degree in range(9):
        oracle = weight_zero_monomials(sp, [3, 1], degree)
        assert spans_equal(inv.basis(degree), oracle)
    # the quartic generators q1*p2^3 and q2^3*p1 appear beyond degree 2
    assert inv.dimension(2) == 2
    assert inv.dimension(4) == 5


def test_skew_torus_center_needs_quartic_tests(skew_torus_action):
    """Commuting with the quadratic invariants alone is not centrality here:
    the quartic invariant q1*p2^3 separates the quadratics."""
    sp = skew_torus_action.space
    star = skew_torus_action.star
    q1p1 = sp.q(1) * sp.p(1)
    quartic = sp.q(1) * sp.p(2) ** 3
    assert star.poisson(skew_torus_action.hamiltonians[0], quartic).is_zero()
    assert star.poisson(q1p1, quartic) == -quartic
    center = _poisson(skew_torus_action, 6, 8)
    h = skew_torus_action.hamiltonians[0]
    assert center.dimension(2) == 1
    assert spans_equal(center.basis(2), [h])
    assert center.dimension(4) == 1
    assert spans_equal(center.basis(4), [h * h])


def test_skew_torus_center_comparison(skew_torus_action):
    report = compare_centers(skew_torus_action, 6, 8)
    assert report.passed, [r.degree for r in report.rows if not r.equal]
    by_degree = {row.degree: row for row in report.rows}
    assert by_degree[2].invariant_dim == 2
    assert by_degree[2].poisson_dim == 1
    assert by_degree[2].quantum_rank == 1
    assert by_degree[4].invariant_dim == 5
    assert by_degree[4].poisson_dim == 1
    assert by_degree[4].quantum_rank == 1
