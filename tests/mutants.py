"""Mutants of the shortcuts that rest on proofs: one table, checked by the
test suite and run by CI.

Several shortcuts replace computation with an argument: the weight-zero
walk prunes exponents it can prove infeasible, the sl2 rule drops the rows
of a lowering element, a central section and the comoment are central by
construction and checked nowhere else, the invariants of an all-diagonal
action are kept as enumerated and their generators read off exponent
sums, a weight count fixes the dimension of each invariant slice of a
rank-one action, the weight-zero differences of a diagonal action
certify its test cutoff, the quantum condition and closure of an
action are read off its coefficients, a quantum hamiltonian shares its
classical one's prepared slot, and the invariant generators test the
lifts at parameter 1 when no hamiltonian has degree above 2.  A refactor
can weaken one of their conditions and still give the right answers on
the inputs at hand, so each row here is a mutant that some test must
notice.  A row holds an id, a
source file under ``src/qcenter``, an exact snippet of it and its
replacement, and the test node ids that must fail once the snippet is
replaced (a node that names a parametrized test stands for all its cases,
of which one must fail).  A mutant that no test can kill, because it gives
the same results on every input it can see, is kept with the reason
instead of nodes (``equivalent``).

``tests/test_mutants.py`` checks, in the tier-1 suite, that every snippet
occurs exactly once in its file and that every node names a test.
``python tests/mutants.py`` applies each row to a fresh copy of ``src/``
in a temporary directory, runs the row's nodes against that copy with
pytest, and exits 1 unless every node fails.  It imports nothing from
``qcenter`` and needs only the standard library and pytest.

Background: mutation analysis, DeMillo, Lipton and Sayward, *Hints on
test data selection*, IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Row(NamedTuple):
    id: str
    file: str  # under src/qcenter
    snippet: str
    replacement: str
    nodes: tuple[str, ...] = ()
    equivalent: str = ""  # why no test can kill it, for a row without nodes


_WEIGHTS = "tests/test_weight_spaces.py::"
_POLY = "tests/test_poly.py::"
_GOLDEN = "tests/test_golden.py::"
_CLI = "tests/test_scenario_cli.py::"
_GENERATORS = "tests/test_generators.py::"
_CUTOFF = "tests/test_cutoff.py::"
_ACTION = "tests/test_action.py::"
_PROOFS = "tests/test_construction_proofs.py::"
_WEYL = "tests/test_weyl.py::"

ROWS = [
    # -- the weight-zero walk (poly.weight_zero_monomials) --------------------
    Row("walk_floor_for_ceiling", "poly.py",
        "elif a < 0:\n                first = max(first, -(-b // a))",
        "elif a < 0:\n                first = max(first, b // a)",
        (_POLY + "test_weight_zero_table_is_the_monomial_table_filtered_row_by_row",)),
    Row("walk_prune_dropped", "poly.py",
        "elif b < 0:\n                return",
        "elif b < 0:\n                pass",
        (_POLY + "test_a_row_of_equal_positive_weights_admits_only_the_constant",)),
    # -- the sl2 rule (action._eliminated) -------------------------------------
    Row("eliminated_without_the_quadratic_condition", "action.py",
        "if h.degree() != 2 or not h.is_homogeneous((1,) * h.nvars):",
        "if False:",
        (_WEIGHTS + "test_every_nondiagonal_hamiltonian_is_eliminated_outside_the_sl2_rule",)),
    Row("eliminated_without_the_diagonal_span_condition", "action.py",
        "\n            and lie.bracket(x, y).keys() <= diagonal",
        "",
        (_WEIGHTS + "test_every_nondiagonal_hamiltonian_is_eliminated_outside_the_sl2_rule",)),
    Row("eliminated_without_the_alpha_x_condition", "action.py",
        "\n            and sum(c * roots[x][d] for d, c in lie.bracket(x, y).items())",
        "",
        (_WEIGHTS + "test_every_nondiagonal_hamiltonian_is_eliminated_outside_the_sl2_rule",)),
    # -- the raising root (HamiltonianAction.raising_root) ---------------------
    Row("raising_root_sign_flipped", "action.py",
        "return tuple(self.lie.bracket(d, x).get(x, Fraction(0)) * scale",
        "return tuple(-self.lie.bracket(d, x).get(x, Fraction(0)) * scale",
        equivalent="the weight-zero part of each slice for the diagonal "
                   "elements that commute with x is an sl2-module, whose "
                   "weights +2 and -2 have equal multiplicities, so the "
                   "count of the opposite root is the same"),
    Row("raising_root_guard_keeps_any_eliminated", "action.py",
        "len(self.nondiagonal) != 2 or self.eliminated != self.nondiagonal[:1]",
        "len(self.nondiagonal) != 2",
        (_WEIGHTS + "test_an_uncounted_action_has_no_raising_root",
         _WEIGHTS + "test_the_rows_of_e_alone_give_the_invariants_of_sl2")),
    Row("raising_root_guard_keeps_any_nondiagonal", "action.py",
        "len(self.nondiagonal) != 2 or self.eliminated != self.nondiagonal[:1]",
        "self.eliminated != self.nondiagonal[:1]",
        (_WEIGHTS + "test_invariants_match_full_candidate_elimination",
         _GOLDEN + "test_cubic_report_bytes_match_golden")),
    # -- sections and the comoment (envelope, HamiltonianAction.comoment) -----
    Row("symmetrization_from_one_ordering", "envelope.py",
        "acc = acc + (first * tail).scale(Fraction(e, n))",
        "acc = first * tail\n                    break",
        ("tests/test_envelope.py::"
         "test_symmetrization_matches_the_average_over_all_orderings",
         "tests/test_construction_proofs.py::"
         "test_lift_relations_and_sections_of_the_documents")),
    Row("section_correction_at_order_0", "envelope.py",
        "symmetrize(lie, corr, order).hbar_shift(r)",
        "symmetrize(lie, corr, order).hbar_shift(0)",
        ("tests/test_envelope.py::test_central_section_with_correction",
         "tests/test_construction_proofs.py::"
         "test_lift_relations_and_sections_of_the_documents")),
    Row("comoment_drops_parameter_powers", "action.py",
        "self._word_chain(word).hbar_shift(r).scale(c)",
        "self._word_chain(word).scale(c)",
        ("tests/test_construction_proofs.py::"
         "test_lift_relations_and_sections_of_the_documents",
         "tests/test_lifting.py::test_build_center_iso_detects_violation")),
    # -- all-diagonal invariants (centers) -------------------------------------
    Row("exponent_sums_keep_every_monomial", "centers.py",
        "if e not in sums:",
        "if True:",
        ("tests/test_generators.py::test_exponent_sums_match_the_polynomial_recurrence",)),
    Row("diagonal_slice_kept_out_of_order", "centers.py",
        "[Poly._trusted(nv, {m: one}) for m in candidates]",
        "[Poly._trusted(nv, {m: one}) for m in reversed(candidates)]",
        ("tests/test_generators.py::test_exponent_sums_on_diagonal_tori",
         _GOLDEN + "test_skew_torus_report_bytes_match_golden")),
    # -- counted slices (centers.invariants_up_to) -----------------------------
    Row("count_off_by_one_up", "centers.py",
        "- counts[degree].get(root, 0)",
        "- counts[degree].get(root, 0) + 1",
        (_WEIGHTS + "test_products_fill_every_slice_of_sl2_above_degree_2",
         _GOLDEN + "test_sl2_two_copies_report_bytes_match_golden")),
    Row("count_off_by_one_down", "centers.py",
        "- counts[degree].get(root, 0)",
        "- counts[degree].get(root, 0) - 1",
        (_WEIGHTS + "test_products_fill_every_slice_of_sl2_above_degree_2",
         _GOLDEN + "test_sl2_two_copies_report_bytes_match_golden")),
    Row("product_span_check_dropped", "centers.py",
        "if len(span) > count:",
        "if False:",
        (_CLI + "test_a_weight_count_off_by_one_fails_the_invariant_tasks_with_exit_1",)),
    Row("solve_check_dropped", "centers.py",
        "if counts is not None and len(basis) != count:",
        "if False:",
        (_CLI + "test_a_weight_count_off_by_one_fails_the_invariant_tasks_with_exit_1",)),
    Row("counted_slice_kept_unreduced", "centers.py",
        "slices[degree] = span",
        "slices[degree] = products",
        (_GOLDEN + "test_sl2_two_copies_report_bytes_match_golden",)),
    # -- generators of solved slices (centers.invariants_up_to) ----------------
    Row("uncounted_extension_dropped", "centers.py",
        "generators += independent_extension(products, basis)",
        "pass",
        (_GENERATORS + "test_the_solve_returns_the_recurrences_generators",
         _GOLDEN + "test_non_diagonal_so3_report_bytes_match_golden")),
    # -- the exact cutoff of a diagonal action (centers.check_test_cutoff) -----
    Row("cutoff_rank_target_off_by_one", "centers.py",
        "missing = n - sum(",
        "missing = n - 1 - sum(",
        (_CUTOFF + "test_both_centers_are_the_polynomials_in_the_hamiltonians_at_the_exact_cutoff",
         _CUTOFF + "test_scaled_pairs_certify_the_cutoff")),
    Row("cutoff_check_skipped", "centers.py",
        "if max_degree < 2 or act.nondiagonal or len(entries) != nv:",
        "if True:",
        (_CUTOFF + "test_both_centers_are_the_polynomials_in_the_hamiltonians_at_the_exact_cutoff",
         _CUTOFF + "test_a_cross_paired_bivector_certifies_the_cutoff")),
    Row("cutoff_support_test_accepts_any_bivector", "centers.py",
        "len(entries) != nv",
        "False",
        (_CUTOFF + "test_a_bivector_with_more_than_one_entry_per_row_keeps_the_assumed_cutoff",)),
    # -- the quantum condition and closure (HamiltonianAction.validate) --------
    Row("quantum_degree_bound_loosened", "action.py",
        "h.degree() >= 3",
        "h.degree() >= 4",
        (_ACTION + "test_a_cubic_hamiltonian_meets_the_quantum_condition_below_truncation_3",
         _PROOFS + "test_the_quantum_condition_decides_as_the_monomial_walk")),
    Row("quantum_truncation_guard_loosened", "action.py",
        "self.order >= 3",
        "self.order >= 4",
        (_ACTION + "test_a_cubic_hamiltonian_meets_the_quantum_condition_below_truncation_3",)),
    Row("quantum_correction_at_the_truncation_refused", "action.py",
        "1 <= s < self.order",
        "1 <= s <= self.order",
        (_ACTION + "test_quantum_condition_admits_any_correction_at_the_truncation",
         _PROOFS + "test_the_quantum_condition_decides_as_the_monomial_walk")),
    Row("closure_check_on_the_constants_dropped", "action.py",
        "if any(0 < s < self.order for s in combination.terms):",
        "if False:",
        (_ACTION + "test_comoment_rejects_inconsistent_quantum_data",
         _PROOFS + "test_closure_decides_as_the_deformed_commutator_on_sl2")),
    Row("quantum_hamiltonians_prepared_again", "action.py",
        "star.prepare({**hq.terms, 0: ph})",
        "star.prepare(hq)",
        (_ACTION + "test_one_run_prepares_and_brackets_each_hamiltonian_once",)),
    # -- the parameter-1 test set (scenario) -----------------------------------
    Row("weyl_tests_the_quadratic_invariants_only", "scenario.py",
        "self.built.scenario.center_generators,\n"
        "                             self.invariants.generators)",
        "self.built.scenario.center_generators,\n"
        "                             [u for d in sorted(self.invariants.slices) if d <= 2\n"
        "                              for u in self.invariants.basis(d)])",
        (_WEYL + "test_the_weyl_task_tests_against_the_quartic_generators",)),
    Row("weyl_degree_guard_loosened", "scenario.py",
        "if h.degree() > 2:",
        "if h.degree() > 3:",
        (_WEYL + "test_the_weyl_task_is_refused_under_a_cubic_hamiltonian",)),
]


def mutated(row: Row, source: str) -> str:
    """``source`` with the row's snippet replaced; the snippet must occur
    exactly once."""
    count = source.count(row.snippet)
    if count != 1:
        raise ValueError(f"{row.id}: snippet occurs {count} times in {row.file}")
    return source.replace(row.snippet, row.replacement)


def survivors(row: Row, output: str) -> list[str]:
    """The row's nodes with no failed case in pytest's ``-rfE`` summary."""
    failed = [line.split()[1] for line in output.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return [node for node in row.nodes
            if not any(f == node or f.startswith(node + "[") for f in failed)]


def run(row: Row) -> list[str]:
    """Problems with one row: its nodes run against a mutated copy of
    ``src/``."""
    with tempfile.TemporaryDirectory() as folder:
        src = Path(folder) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "qcenter" / row.file
        path.write_text(mutated(row, path.read_text()))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *row.nodes],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if result.returncode not in (0, 1):  # 2-5: interrupted, usage, no tests
        return [f"pytest exited {result.returncode}: "
                f"{result.stdout.strip().splitlines()[-1:]}"]
    return [f"{node} passed on the mutant" for node in survivors(row, result.stdout)]


def main() -> int:
    """Every row with nodes against a mutated copy of ``src/``."""
    failed = 0
    for row in ROWS:
        if row.equivalent:
            print(f"equivalent {row.id}: {row.equivalent}")
            continue
        problems = run(row)
        for problem in problems:
            print(f"FAIL {row.id}: {problem}")
        if not problems:
            print(f"killed {row.id}")
        failed += bool(problems)
    print(f"{len(ROWS) - failed} of {len(ROWS)} mutants killed or equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
