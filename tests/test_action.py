from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import (
    HamiltonianAction,
    HSeries,
    InvalidActionError,
    Poly,
    TruncationError,
    UEnvElement,
    ValidationError,
    check_classical_limit_triangle,
    check_quantum_moment_condition,
    symmetrize,
)

from oracle import abelian_data, brute_force_product, random_poly


def test_equivariance_is_validated(sl2, star2):
    sp = star2.space
    bad = [sp.q(2) * sp.p(1), sp.q(1) * sp.p(1), sp.q(1) * sp.p(2)]
    with pytest.raises(ValidationError):
        HamiltonianAction(sl2, star2, bad)


def test_quantum_condition_rejects_noncentral_corrections(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    broken = HSeries.from_poly(h, 8) + HSeries.from_poly(sp.q(1), 8).hbar_shift(1)
    with pytest.raises(InvalidActionError):
        HamiltonianAction(torus1, star1, [h], [broken])


def test_quantum_constant_correction_allowed(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    shifted = HSeries.from_poly(h, 8) + HSeries.from_poly(
        Poly.constant(2, Fraction(1, 2)), 8
    ).hbar_shift(1)
    act = HamiltonianAction(torus1, star1, [h], [shifted])
    assert act.quantum_hamiltonians[0].coefficient(1) == Poly.constant(
        2, Fraction(1, 2)
    )


def test_moment_condition_on_samples(torus_action):
    sp = torus_action.space
    report = check_quantum_moment_condition(
        torus_action, [sp.q(1), sp.one(), sp.q(1) * sp.q(1) * sp.p(1)]
    )
    assert report.passed
    # the defining example: the commutator with q1 is minus the parameter times q1
    comm = torus_action.star.star_commutator(
        torus_action.quantum_hamiltonians[0],
        HSeries.from_poly(sp.q(1), torus_action.order),
    )
    expected = HSeries.from_poly(-sp.q(1), torus_action.star.order).hbar_shift(1)
    assert comm == expected
    assert torus_action.star.poisson(torus_action.hamiltonians[0], sp.q(1)) == -sp.q(1)


def test_moment_condition_zero_residual_on_random_samples(sl2_action):
    rng = random.Random(8080)
    samples = [random_poly(rng, 4, 6) for _ in range(20)]
    report = check_quantum_moment_condition(sl2_action, samples)
    assert report.passed


def test_moment_condition_reports_the_first_residual_order(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    # hbar*q1 is not central: [hbar q1, p1^2] = 2 hbar^2 p1, a residual at order 2
    hq = HSeries.from_poly(h, 8) + HSeries.from_poly(sp.q(1), 8).hbar_shift(1)
    act = HamiltonianAction(torus1, star1, [h], [hq], validate=False)
    report = check_quantum_moment_condition(
        act, [sp.q(1), sp.p(1) * sp.p(1), sp.one()]
    )
    assert report.to_json_dict() == {
        "name": "quantum-moment-condition",
        "passed": False,
        "checks": 3,
        "failures": [{"label": "sample 1, generator t", "detail": "residual from order 2"}],
    }


def test_moment_condition_reports_the_lowest_of_several_orders(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    # the doubled classical part misses at order 1 wherever {h, f} != 0, and
    # hbar*q1 at order 2 wherever {q1, f} != 0
    hq = HSeries.from_poly(h.scale(2), 8) + HSeries.from_poly(sp.q(1), 8).hbar_shift(1)
    act = HamiltonianAction(torus1, star1, [h], [hq], validate=False)
    report = check_quantum_moment_condition(
        act, [sp.one(), h, sp.p(1), sp.p(1) * sp.p(1)]
    )
    assert report.to_json_dict()["failures"] == [
        {"label": "sample 1, generator t", "detail": "residual from order 2"},
        {"label": "sample 2, generator t", "detail": "residual from order 1"},
        {"label": "sample 3, generator t", "detail": "residual from order 1"},
    ]


def test_moment_condition_needs_matching_truncations(torus1, star1):
    sp = star1.space
    h = sp.q(1) * sp.p(1)
    act = HamiltonianAction(
        torus1, star1, [h], [HSeries.from_poly(h, 4)], validate=False
    )
    with pytest.raises(TruncationError):
        check_quantum_moment_condition(act, [sp.q(1)])


def test_comoment_generators_and_unit(sl2_action):
    for i in range(3):
        gen = UEnvElement.generator(sl2_action.lie, i, sl2_action.order)
        assert sl2_action.comoment(gen) == HSeries.from_poly(
            sl2_action.hamiltonians[i], sl2_action.order
        )
    one = UEnvElement.one(sl2_action.lie, sl2_action.order)
    assert sl2_action.comoment(one) == HSeries.one(4, sl2_action.order)


def test_comoment_is_homomorphism(sl2_action):
    rng = random.Random(63)
    lie = sl2_action.lie
    for _ in range(10):
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(
                    sorted(rng.randrange(3) for _ in range(rng.randint(0, 3)))
                )
                terms.setdefault(word, {})[rng.randint(0, 1)] = Fraction(
                    rng.randint(-2, 2) or 1
                )
            return UEnvElement(lie, sl2_action.order, terms)

        a, b = rand_elem(), rand_elem()
        lhs = sl2_action.comoment(a * b)
        rhs = sl2_action.star.star(sl2_action.comoment(a), sl2_action.comoment(b))
        assert lhs == rhs


def test_comoment_golden_value(sl2_action):
    """The quantum image of the symmetrized quadratic invariant.

    Independently recomputed here from single-factor products: with
    H_e = q2 p1, H_f = q1 p2, H_h = q1 p1 - q2 p2 the images of the words
    are assembled by brute force, giving the pairing squared minus 3/2
    times the squared parameter.
    """
    sp = sl2_action.space
    star = sl2_action.star
    lie = sl2_action.lie
    cas = lie.generator("casimir").poly
    image = sl2_action.comoment(symmetrize(lie, cas, star.order))

    He, Hh, Hf = sl2_action.hamiltonians
    # oracle: raw index-sequence expansions, not the packaged contraction
    def embed_terms(terms):
        out = HSeries.zero(4, star.order)
        for r, poly in terms.items():
            out = out + HSeries.from_poly(poly, star.order).hbar_shift(r)
        return out

    hh = embed_terms(brute_force_product(sp, Hh, Hh))
    ef = embed_terms(brute_force_product(sp, He, Hf))
    h1 = HSeries.from_poly(Hh, star.order).hbar_shift(1)
    oracle = hh + ef.scale(4) + h1.scale(-2)
    assert image == oracle

    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    expected = HSeries.from_poly(tr * tr, star.order) + HSeries.from_poly(
        Poly.constant(4, Fraction(-3, 2)), star.order
    ).hbar_shift(2)
    assert image == expected
    # equivalently: the square of the lifted pairing minus one parameter square
    lifted = HSeries.from_poly(tr, star.order)
    square = star.star(lifted, lifted)
    assert image == square + -HSeries.one(4, star.order).hbar_shift(2)


def test_comoment_rejects_inconsistent_quantum_data(torus1, star1):
    sp = star1.space
    rank2 = abelian_data(2)
    # abelian data demands commuting quantum hamiltonians; q and p fail that
    act = HamiltonianAction(
        rank2, star1, [sp.q(1), sp.p(1)], validate=False
    )
    with pytest.raises(InvalidActionError):
        act.assert_quantum_consistency()
    h = sp.q(1) * sp.p(1)
    act2 = HamiltonianAction(torus1, star1, [h])
    assert act2.comoment(UEnvElement.generator(torus1, 0, 8)) == HSeries.from_poly(h, 8)


def test_triangle_abelian_rank_one(torus_action):
    z = Poly.variable(1, 0)
    report = check_classical_limit_triangle(torus_action, z)
    assert report.passed
    assert torus_action.moment_pullback(z) == torus_action.hamiltonians[0]


def test_triangle_casimir_both_paths(sl2_action):
    lie = sl2_action.lie
    cas = lie.generator("casimir").poly
    report = check_classical_limit_triangle(sl2_action, cas)
    assert report.passed
    sp = sl2_action.space
    tr = sp.q(1) * sp.p(1) + sp.q(2) * sp.p(2)
    assert sl2_action.moment_pullback(cas) == tr * tr


def test_triangle_constant(sl2_action):
    one = Poly.constant(3, 1)
    assert check_classical_limit_triangle(sl2_action, one).passed


def test_triangle_rejects_noninvariant(sl2_action):
    with pytest.raises(ValidationError):
        check_classical_limit_triangle(sl2_action, Poly.variable(3, 0))


def test_random_invariant_combinations_triangle(sl2_action, torus_action):
    rng = random.Random(404)
    cas = sl2_action.lie.generator("casimir").poly
    for _ in range(15):
        z = Poly.zero(3)
        for power in range(rng.randint(1, 2) + 1):
            z = z + (cas**power).scale(Fraction(rng.randint(-3, 3)))
        if z.is_zero():
            continue
        assert check_classical_limit_triangle(sl2_action, z).passed
    t = Poly.variable(1, 0)
    for _ in range(15):
        z = Poly.zero(1)
        for power in range(rng.randint(1, 3) + 1):
            z = z + (t**power).scale(Fraction(rng.randint(-3, 3)))
        if z.is_zero():
            continue
        assert check_classical_limit_triangle(torus_action, z).passed
