from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qcenter import (
    DimensionError,
    HSeries,
    Poly,
    StarProduct,
    SymplecticSpace,
    TruncationError,
    ValidationError,
    check_axioms,
    check_homogeneity,
)
from qcenter.sampling import (
    random_poly,
    sample_homogeneous_pairs,
    sample_triples,
)

from oracle import brute_force_product, brute_force_term


def test_basic_first_order(star1):
    sp = star1.space
    q, p = sp.q(1), sp.p(1)
    result = star1.moyal(q, p)
    assert result.coefficient(0) == q * p
    assert result.coefficient(1) == Poly.constant(2, Fraction(1, 2))
    assert all(result.coefficient(r).is_zero() for r in range(2, 9))


def test_unit_is_two_sided(star1):
    sp = star1.space
    f = sp.q(1) * sp.q(1) * sp.p(1) + sp.p(1).scale(3)
    one = sp.one()
    assert star1.moyal(one, f) == star1.embed(f)
    assert star1.moyal(f, one) == star1.embed(f)


def test_second_order_self_product(star1):
    sp = star1.space
    qp = sp.q(1) * sp.p(1)
    result = star1.moyal(qp, qp)
    expected = (
        star1.embed(qp * qp)
        + star1.embed(Poly.constant(2, Fraction(-1, 4))).hbar_shift(2)
    )
    assert result == expected


def test_matches_brute_force_expansion(star2):
    rng = random.Random(321)
    sp = star2.space
    for _ in range(8):
        f = random_poly(rng, sp.nvars, 3)
        g = random_poly(rng, sp.nvars, 3)
        assert star2.product_terms(f, g) == brute_force_product(sp, f, g)


def test_general_bivector_supported():
    # a non-standard invertible antisymmetric bivector on one pair
    space = SymplecticSpace(1, bivector=[["0", "2"], ["-2", "0"]])
    star = StarProduct(space, 4)
    q, p = space.q(1), space.p(1)
    assert star.poisson(q, p) == Poly.constant(2, 2)
    assert star.moyal(q, p).coefficient(1) == Poly.constant(2, 1)
    f = q * q * p
    g = q * p
    assert star.product_terms(f, g) == brute_force_product(space, f, g)


def test_star_extends_moyal(star1):
    sp = star1.space
    f = sp.q(1) * sp.p(1)
    g = sp.q(1) + sp.p(1)
    F, G = star1.embed(f), star1.embed(g)
    assert star1.star(F, G) == star1.moyal(f, g)


def test_star_parameter_linearity(star1):
    sp = star1.space
    f = sp.q(1) * sp.p(1)
    g = sp.q(1) * sp.q(1)
    F, G = star1.embed(f), star1.embed(g)
    assert star1.star(F.hbar_shift(1), G) == star1.star(F, G).hbar_shift(1)
    assert star1.star(F.scale(Fraction(2, 3)), G) == star1.star(F, G).scale(
        Fraction(2, 3)
    )


def test_star_unit(star1):
    sp = star1.space
    F = star1.embed(sp.q(1) * sp.p(1)) + star1.embed(sp.q(1)).hbar_shift(3)
    assert star1.star(F, star1.embed(sp.one())) == F
    assert star1.star(star1.embed(sp.one()), F) == F


def test_star_truncation_mismatch(star1):
    sp = star1.space
    F = star1.embed(sp.q(1))
    G = HSeries.from_poly(sp.q(1), 3)
    with pytest.raises(TruncationError):
        star1.star(F, G)


def test_dimension_mismatch(star1):
    with pytest.raises(DimensionError):
        star1.moyal(Poly.variable(4, 0), Poly.variable(4, 1))


def test_poisson_normalization(star1, star2):
    sp1 = star1.space
    assert star1.poisson(sp1.q(1), sp1.p(1)) == sp1.one()
    sp2 = star2.space
    assert star2.poisson(sp2.q(1), sp2.q(2)).is_zero()
    qp = sp1.q(1) * sp1.p(1)
    assert star1.poisson(qp, sp1.q(1)) == -sp1.q(1)


def test_poisson_antisymmetric_leibniz_jacobi(star2):
    rng = random.Random(777)
    sp = star2.space
    for _ in range(12):
        f = random_poly(rng, sp.nvars, 4)
        g = random_poly(rng, sp.nvars, 4)
        h = random_poly(rng, sp.nvars, 4)
        assert star2.poisson(f, g) == -star2.poisson(g, f)
        assert star2.poisson(f, g * h) == star2.poisson(f, g) * h + g * star2.poisson(f, h)
        jacobi = (
            star2.poisson(f, star2.poisson(g, h))
            + star2.poisson(g, star2.poisson(h, f))
            + star2.poisson(h, star2.poisson(f, g))
        )
        assert jacobi.is_zero()


def test_commutator_examples(star1, star2):
    sp = star1.space
    q, p = sp.q(1), sp.p(1)
    comm = star1.commutator_poly(q, p)
    assert comm == star1.embed(sp.one()).hbar_shift(1)
    f = q * q * p + p
    assert star1.commutator_poly(f, f).is_zero()
    sp2 = star2.space
    assert star2.commutator_poly(sp2.q(1), sp2.q(2)).is_zero()


def test_commutator_lowest_orders(star2):
    rng = random.Random(2024)
    sp = star2.space
    for _ in range(10):
        f = random_poly(rng, sp.nvars, 4)
        g = random_poly(rng, sp.nvars, 4)
        comm = star2.commutator_poly(f, g)
        assert comm.coefficient(0).is_zero()
        assert comm.coefficient(1) == star2.poisson(f, g)
        prod = star2.moyal(f, g)
        assert prod.coefficient(0) == f * g


def test_exact_associativity_not_only_truncated(star2):
    # the expansion terminates, so associativity holds with zero residual
    rng = random.Random(606)
    sp = star2.space
    for _ in range(5):
        f = random_poly(rng, sp.nvars, 5)
        g = random_poly(rng, sp.nvars, 5)
        h = random_poly(rng, sp.nvars, 5)
        left = star2.expansion_product(star2.product_terms(f, g), {0: h})
        right = star2.expansion_product({0: f}, star2.product_terms(g, h))
        assert left == right


def test_order_locality(star2):
    rng = random.Random(424242)
    sp = star2.space
    f = random_poly(rng, sp.nvars, 4)
    g = random_poly(rng, sp.nvars, 4)
    noise = random_poly(rng, sp.nvars, 4)
    m = 3
    base = star2.star(star2.embed(f), star2.embed(g))
    pert = star2.star(
        star2.embed(f), star2.embed(g) + star2.embed(noise).hbar_shift(m + 1)
    )
    for r in range(m + 1):
        assert base.coefficient(r) == pert.coefficient(r)


def test_check_axioms_reports_pass(star2):
    triples = sample_triples(13, star2.space, 12, max_degree=4)
    triples.append((star2.space.one(), star2.space.q(1), star2.space.p(2)))
    qp = star2.space.q(1) * star2.space.p(1)
    triples.append((star2.space.q(1), star2.space.p(1), qp))
    report = check_axioms(star2, triples)
    assert report.passed
    assert not report.failures()


def test_check_homogeneity_law(star2):
    sp = star2.space
    # first-order term of q1 with p1 is the constant 1/2: weights -1 + -1 + 2 = 0
    report = check_homogeneity(star2, [(sp.q(1), sp.p(1))])
    assert report.passed
    term = star2.bidifferential(sp.q(1), sp.p(1), 1)
    assert term == Poly.constant(4, Fraction(1, 2))
    assert sp.poly_weight(term) == 0


def test_check_homogeneity_order_zero_law(star2):
    pairs = sample_homogeneous_pairs(3, star2.space, 10, max_degree=4)
    report = check_homogeneity(star2, pairs)
    assert report.passed
    for f, g in pairs:
        if f.is_zero() or g.is_zero():
            continue
        product = f * g
        if product.is_zero():
            continue
        assert star2.space.poly_weight(product) == star2.space.poly_weight(
            f
        ) + star2.space.poly_weight(g)


def test_check_homogeneity_zero_is_vacuous(star2):
    report = check_homogeneity(star2, [(star2.space.zero(), star2.space.q(1))])
    assert report.passed


def test_check_homogeneity_rejects_mixed_input(star2):
    sp = star2.space
    with pytest.raises(ValidationError):
        check_homogeneity(star2, [(sp.q(1) + sp.one(), sp.p(1))])


def test_bidifferential_matches_oracle_per_order(star2):
    sp = star2.space
    f = sp.q(1) * sp.q(1) * sp.p(2)
    g = sp.q(2) * sp.p(1) * sp.p(2)
    for level in range(4):
        assert star2.bidifferential(f, g, level) == brute_force_term(
            sp, f, g, level
        )


class _BrokenStar(StarProduct):
    """Mis-normalizes the order-1 term; used to prove the checker bites."""

    def product_terms(self, f, g, max_order=None):
        terms = StarProduct.product_terms(self, f, g, max_order)
        if 1 in terms:
            terms[1] = terms[1].scale(2)
        return terms


def test_check_axioms_detects_broken_product(space2):
    broken = _BrokenStar(space2, 8)
    sp = space2
    triples = [(sp.q(1), sp.p(1), sp.q(1) * sp.p(1))]
    report = check_axioms(broken, triples)
    assert not report.passed
    labels = {entry.label for entry in report.failures()}
    assert any("commutator" in label for label in labels)
    assert any("associativity" in label for label in labels)
    # failing entries carry a located residual
    assoc = next(e for e in report.failures() if "associativity" in e.label)
    assert "order" in assoc.detail


# Each broken product below overrides one public method and so goes wrong in
# its own way; together they make every label of ``check_axioms`` fail.


class _NoUnitStar(StarProduct):
    """(1 + hbar^3) times the product: associative, with the right
    classical limit, but 1 is no longer a unit."""

    def product_terms(self, f, g, max_order=None):
        terms = StarProduct.product_terms(self, f, g, max_order)
        out = dict(terms)
        for r, term in terms.items():
            out[r + 3] = out[r + 3] + term if r + 3 in out else term
        return out


class _DoubledOrderZeroStar(StarProduct):
    """Twice the plain product at order 0."""

    def product_terms(self, f, g, max_order=None):
        terms = StarProduct.product_terms(self, f, g, max_order)
        return {r: t.scale(2) if r == 0 else t for r, t in terms.items()}


class _SkewOrderZeroStar(StarProduct):
    """Adds the Poisson bracket at order 0, so the commutator has a term
    below order 1 while its order-1 term is still right."""

    def product_terms(self, f, g, max_order=None):
        terms = dict(StarProduct.product_terms(self, f, g, max_order))
        bracket = StarProduct.poisson(self, f, g)
        terms[0] = terms[0] + bracket if 0 in terms else bracket
        return {r: t for r, t in terms.items() if t}


class _DoubledBracketStar(StarProduct):
    """A correct product with a Poisson bracket off by a factor 2."""

    def poisson(self, f, g):
        return StarProduct.poisson(self, f, g).scale(2)


class _NonLocalStar(StarProduct):
    """Adds the whole truncated product, summed over orders, at order 0, so
    low orders see high-order perturbations."""

    def star(self, F, G):
        full = StarProduct.star(self, F, G)
        return full + HSeries.from_poly(full.substitute_unit(), self.order)


def _broken_triples(sp):
    return [
        (sp.q(1), sp.p(1), sp.q(1) * sp.p(1)),
        (sp.q(1) * sp.q(1) + sp.p(2), sp.p(1) * sp.q(2), sp.p(1) * sp.p(1) - sp.q(1)),
    ]


def _failing_kinds(star, triples):
    report = check_axioms(star, triples)
    assert report.to_json_dict()["checks"] == 5 * len(triples)
    return {entry.label.split(": ", 1)[1] for entry in report.failures()}


@pytest.mark.parametrize(
    "broken, kinds",
    [
        (_NoUnitStar, {"unit"}),
        (
            _DoubledOrderZeroStar,
            {"associativity", "unit", "order-0 term is the plain product"},
        ),
        (
            _SkewOrderZeroStar,
            {
                "associativity",
                "order-0 term is the plain product",
                "order-1 commutator is the Poisson bracket",
            },
        ),
        (_DoubledBracketStar, {"order-1 commutator is the Poisson bracket"}),
        (_NonLocalStar, {"order-locality"}),
        (_BrokenStar, {"associativity", "order-1 commutator is the Poisson bracket"}),
    ],
)
def test_check_axioms_failure_labels(space2, broken, kinds):
    triples = _broken_triples(space2)
    assert _failing_kinds(broken(space2, 8), triples) == kinds
    assert _failing_kinds(StarProduct(space2, 8), triples) == set()


def test_check_axioms_associativity_detail(space2):
    triples = _broken_triples(space2)
    report = check_axioms(_DoubledOrderZeroStar(space2, 8), triples)
    details = [e.detail for e in report.failures() if "associativity" in e.label]
    assert details == [
        "residual at order 1: -q1*p1",
        "residual at order 1: -1/2*q1*p1 + 1/2*q2*p2 + 3/2*q1^2*q2 + 1/2*p1^3"
        " - q1*q2*p1^2",
    ]


def test_prepared_operands_stand_for_their_expansions(star2):
    sp = star2.space
    f = sp.q(1) * sp.p(1) + sp.p(2).scale(Fraction(1, 3))
    g = sp.q(2) * sp.q(2) - sp.p(1)
    h = sp.q(1) * sp.p(2)
    pf, pg, ph = star2.prepare(f), star2.prepare(g), star2.prepare(h)
    assert star2.prepare(pf) is pf
    assert star2.product_terms(pf, pg) == star2.product_terms(f, g)
    assert star2.commutator_terms(pg, pf, 2) == star2.commutator_terms(g, f, 2)
    assert star2.poisson(pf, ph) == star2.poisson(f, h)
    assert star2.bidifferential(pf, pg, 1) == star2.bidifferential(f, g, 1)
    G = star2.embed(g) + star2.embed(h).hbar_shift(2)
    assert star2.star(pf, star2.prepare({0: pg, 2: ph})) == star2.star(star2.embed(f), G)
    assert star2.star(star2.prepare(G), pf) == star2.star(G, star2.embed(f))
    fg = star2.product_terms(f, g)
    assert star2.expansion_product(star2.prepare(fg), ph) == star2.expansion_product(
        fg, {0: h}
    )


def test_prepare_rejects_bad_operands(star1, star2):
    sp = star2.space
    pf = star2.prepare(sp.q(1))
    # two parts may not land on one order
    with pytest.raises(ValueError):
        star2.prepare({1: star2.prepare({0: pf, 1: sp.p(1)}), 2: sp.q(2)})
    with pytest.raises(DimensionError):
        star1.prepare(pf)
    with pytest.raises(DimensionError):
        star1.product_terms(sp.q(1), star1.space.q(1))
    with pytest.raises(TruncationError):
        star2.star(pf, HSeries.from_poly(sp.q(1), 3))
