"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every assertion is exact (rational arithmetic, zero residual).  Each test
prints a single pass line on success; run with ``pytest -v -s`` to see
them.  The scenario-level criteria run on the four shipped presets.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from qcenter import (
    Poly,
    StarProduct,
    SymplecticSpace,
    UEnvElement,
    adjoint_invariant_check,
    check_axioms,
    check_classical_limit_triangle,
    check_homogeneity,
    check_quantum_moment_condition,
    compare_centers,
    hensel_lift,
    invariants_up_to,
    symmetrize,
    verify_lift,
    weyl_commutator,
    weyl_specialize,
)
from qcenter.cli import main
from qcenter.envelope import normalize_word
from qcenter.sampling import sample_triples
from qcenter.scenario import build_scenario, load_scenario, resolve_lift, run_lifts

from oracle import (
    abelian_data,
    random_homogeneous_poly,
    random_poly,
    rewrite_word,
    sl2_data,
    spans_equal,
    weight_zero_monomials,
)

PRESETS = ("trivial_k2", "torus_k2", "sl2_tstar_k2", "torus_k4")


def _report(criterion: int, message: str):
    print(f"[criterion {criterion:2d}] PASS - {message}")


@pytest.fixture(scope="module")
def built_presets():
    return {name: build_scenario(load_scenario(name)) for name in PRESETS}


def test_criterion_1_star_product_axioms():
    space = SymplecticSpace(2)
    star = StarProduct(space, 10)
    triples = sample_triples(1001, space, 100, max_degree=6)
    report = check_axioms(star, triples)
    assert report.passed, [e.label for e in report.failed]
    assert report.to_json_dict()["checks"] == 500  # five exact checks per triple
    _report(1, "100 random triples (deg <= 6, order 10): associativity, unit, "
               "classical-limit conditions and order-locality, zero residual")


def test_criterion_2_homogeneity_degree_law():
    space = SymplecticSpace(2)  # default weights, parameter weight 2
    star = StarProduct(space, 10)
    rng = random.Random(2002)
    pairs = []
    while len(pairs) < 50:

        f = random_homogeneous_poly(rng, 4, rng.randint(0, 6))
        g = random_homogeneous_poly(rng, 4, rng.randint(0, 6))
        if not f.is_zero() and not g.is_zero():
            pairs.append((f, g))
    report = check_homogeneity(star, pairs)
    assert report.passed, [e.label for e in report.failed]
    _report(2, "term degree law on 50 homogeneous pairs, zero violations")


def test_criterion_3_quantum_hamiltonian_identity(built_presets):
    for name in ("torus_k2", "sl2_tstar_k2"):
        built = built_presets[name]
        rng = random.Random(3003)
        samples = [
            random_poly(rng, built.space.nvars, 6) for _ in range(50)
        ]
        report = check_quantum_moment_condition(built.action, samples)
        assert report.passed, name
    _report(3, "quantum hamiltonian identity, zero residual on 50 random "
               "samples of degree <= 6 for the torus and sl2 actions")


def test_criterion_4_classical_limit_triangle(built_presets):
    sl2 = sl2_data()
    torus = abelian_data(2)
    rng = random.Random(4004)
    checked = 0
    for lie in (sl2, torus):
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 2) for _ in range(lie.dim))
                terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            s = Poly(lie.dim, terms)
            assert symmetrize(lie, s, 8).classical_limit() == s
            checked += 1
    assert checked == 30
    for name in ("torus_k2", "sl2_tstar_k2", "torus_k4"):
        built = built_presets[name]
        for gen in built.action.lie.invariant_generators:
            report = check_classical_limit_triangle(built.action, gen.poly)
            assert report.passed, (name, gen.name)
    _report(4, "classical limit undoes symmetrization on 30 random inputs; "
               "quantum images of designated invariants reduce to their "
               "moment pullbacks")


def test_criterion_5_enveloping_algebra():
    sl2 = sl2_data()
    rng = random.Random(5005)
    for _ in range(40):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(2, 5)))
        normal = normalize_word(sl2, word)
        assert rewrite_word(sl2, word, lambda ds: ds[0]) == normal
        assert rewrite_word(sl2, word, lambda ds: ds[-1]) == normal
        assert rewrite_word(sl2, word, lambda ds: rng.choice(ds)) == normal
    for _ in range(15):
        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                w = tuple(sorted(rng.randrange(3) for _ in range(rng.randint(0, 4))))
                terms.setdefault(w, {})[rng.randint(0, 1)] = Fraction(
                    rng.randint(-3, 3) or 1
                )
            return UEnvElement(sl2, 6, terms)

        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
    e = UEnvElement.generator(sl2, 0, 6)
    h = UEnvElement.generator(sl2, 1, 6)
    f = UEnvElement.generator(sl2, 2, 6)
    assert e * f - f * e == h.hbar_shift(1)
    cas = sl2.generator("casimir").poly
    assert adjoint_invariant_check(symmetrize(sl2, cas, 6))
    _report(5, "rewriting confluence, product associativity, the defining "
               "commutator and centrality of the symmetrized invariant")


def test_criterion_6_invariants_match_enumeration(built_presets):
    data = (("torus_k2", [1]), ("torus_k4", [1, 1]))
    for name, weights in data:
        built = built_presets[name]
        inv = invariants_up_to(built.action, 8)
        for degree in range(9):
            oracle = weight_zero_monomials(built.space, weights, degree)
            assert spans_equal(inv.basis(degree), oracle), (name, degree)
    _report(6, "invariant solver matches brute-force weight-zero monomial "
               "enumeration through degree 8 on both torus scenarios")


def test_criterion_7_lift_recursion(built_presets):
    built = built_presets["sl2_tstar_k2"]
    spec = next(s for s in built.scenario.lifts if s.name == "tr")
    f, rel = resolve_lift(built, spec)
    assert rel.degree == 2
    assert rel.classical_value(f).is_zero()
    inv = invariants_up_to(built.action, 10)
    tests = [u for d in inv.degrees() for u in inv.basis(d)]
    fhat = hensel_lift(f, rel, built.action)
    report = verify_lift(fhat, rel, built.action, tests)
    assert report.passed
    assert report.relation_first_failure is None
    assert not report.centrality_failures
    assert fhat.classical_part() == f
    _report(7, "order-by-order lift of the pairing against its quadratic "
               "relation succeeds through order 8 and is central against "
               "all invariants up to degree 10")


def test_criterion_8_center_comparison(built_presets):
    for name in PRESETS:
        built = built_presets[name]
        report = compare_centers(built.action, 8, 10)
        assert report.passed, (name, [r.degree for r in report.rows if not r.equal])
        for row in report.rows:
            assert row.equal, (name, row.degree)
        inv = invariants_up_to(built.action, 10)
        test_elements = [u for d in inv.degrees() for u in inv.basis(d)]
        entries, _ = run_lifts(built, test_elements)
        for lift_name, classical, lifted in entries:
            assert lifted.classical_part() == classical, (name, lift_name)
    _report(8, "classical Poisson-center dimension equals quantum-center "
               "rank in every degree <= 8 on all four scenarios; every "
               "lifted generator reduces to its classical part")


def test_criterion_9_weyl_specialization(built_presets):
    independents = {}
    for name in PRESETS:
        built = built_presets[name]
        if not built.scenario.lifts:
            continue
        inv = invariants_up_to(built.action, 10)
        test_elements = [u for d in inv.degrees() for u in inv.basis(d)]
        entries, _ = run_lifts(built, test_elements)
        quadratics = [u for d in (1, 2) for u in inv.basis(d)]
        symbols = {}
        for lift_name, _, lifted in entries:
            symbol = weyl_specialize(lifted, built.space)
            symbols[lift_name] = symbol
            for u in quadratics:
                assert weyl_commutator(built.star, symbol, u).is_zero(), (
                    name,
                    lift_name,
                )
        from qcenter import algebraically_independent

        chosen = [symbols[g] for g in built.scenario.center_generators]
        assert algebraically_independent(chosen, built.space), name
        independents[name] = [g for g in built.scenario.center_generators]
    assert independents  # at least one scenario exhibits generators
    _report(9, "specialized lifts commute with every quadratic invariant at "
               "parameter 1 and the designated center generators are "
               "algebraically independent")


def test_criterion_10_report_determinism(tmp_path):
    for name in PRESETS:
        out1 = tmp_path / f"{name}-1.json"
        out2 = tmp_path / f"{name}-2.json"
        assert main(["run", name, "--report", "json", "--out", str(out1)]) == 0
        assert main(["run", name, "--report", "json", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), name
        parsed = json.loads(out1.read_text())
        assert parsed["passed"] is True
    _report(10, "two full runs of every shipped scenario emit byte-identical "
                "passing reports")
