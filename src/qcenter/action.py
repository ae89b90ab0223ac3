"""Hamiltonian actions on a symplectic space and their quantum lifts.

An action pairs each Lie algebra basis element with a classical
hamiltonian (a polynomial whose bracket derivation is the velocity field)
and with a quantum hamiltonian (a truncated series reducing to it).  The
defining quantum condition is

    [H_hat_i, f]_star = hbar {H_i, f}   for every polynomial f,

which for each generator is a statement about finitely many differential
operator coefficients: the commutator applies at most deg(H_hat_i)
derivatives to f, so the condition holds for all f once it holds on all
monomials up to that degree.  Validation exploits this to be complete.

The comoment map sends each generator to its quantum hamiltonian and
words to left-to-right deformed products; it is a homomorphism exactly
when the quantum hamiltonians reproduce the structure constants, which is
asserted before use.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .envelope import UEnvElement, central_section, symmetrize
from .errors import (
    DimensionError,
    InvalidActionError,
    TruncationError,
    ValidationError,
)
from .liealg import LieAlgebraData
from .poly import Poly, monomials_of_degree
from .series import HSeries
from .star import CheckReport, Prepared, StarProduct


class HamiltonianAction:
    def __init__(
        self,
        lie: LieAlgebraData,
        star: StarProduct,
        hamiltonians: Sequence[Poly],
        quantum_hamiltonians: Sequence[HSeries] | None = None,
        validate: bool = True,
    ):
        self.lie = lie
        self.star = star
        self.space = star.space
        self.order = star.order
        if len(hamiltonians) != lie.dim:
            raise DimensionError("need one hamiltonian per basis element")
        for h in hamiltonians:
            if h.nvars != self.space.nvars:
                raise DimensionError("hamiltonian over wrong variable count")
        self.hamiltonians = tuple(hamiltonians)
        if quantum_hamiltonians is None:
            quantum_hamiltonians = [
                HSeries.from_poly(h, self.order) for h in hamiltonians
            ]
        if len(quantum_hamiltonians) != lie.dim:
            raise DimensionError("need one quantum hamiltonian per basis element")
        self.quantum_hamiltonians = tuple(quantum_hamiltonians)
        self._chain_cache: dict[tuple[int, ...], HSeries] = {}
        self._quantum_consistency_checked = False
        if validate:
            self.validate()

    # -- validation ---------------------------------------------------------------

    def validate(self):
        """Equivariance, classical parts and the quantum condition, exactly."""
        for i in range(self.lie.dim):
            for j in range(i + 1, self.lie.dim):
                expected = Poly.zero(self.space.nvars)
                for k, c in self.lie.bracket(i, j).items():
                    expected = expected + self.hamiltonians[k].scale(c)
                actual = self.star.poisson(self.hamiltonians[i], self.hamiltonians[j])
                if actual != expected:
                    raise ValidationError(
                        "hamiltonians do not reproduce the structure constants: "
                        f"bracket of {self.lie.labels[i]} and {self.lie.labels[j]}"
                    )
        for i, (h, hq) in enumerate(zip(self.hamiltonians, self.quantum_hamiltonians)):
            if hq.order != self.order:
                raise ValidationError("quantum hamiltonian truncation mismatch")
            if hq.classical_part() != h:
                raise ValidationError(
                    f"quantum hamiltonian of {self.lie.labels[i]} has wrong "
                    "classical part"
                )
        failure = self._quantum_condition_failure()
        if failure is not None:
            i, exp = failure
            raise InvalidActionError(
                f"quantum condition fails for {self.lie.labels[i]} on monomial "
                f"{Poly.monomial(self.space.nvars, exp).to_string(self.space.names)}"
            )
        self.assert_quantum_consistency()

    def _quantum_condition_failure(self):
        """First (generator, monomial) violating the quantum condition.

        Testing all monomials up to the largest coefficient degree of the
        quantum hamiltonians is complete: higher monomials add no new
        operator coefficients.
        """
        bound = 0
        for hq in self.quantum_hamiltonians:
            for f in hq.coeffs:
                bound = max(bound, f.degree())
        quantum, classical = _prepared_hamiltonians(self)
        for i in range(self.lie.dim):
            for degree in range(bound + 1):
                for exp in monomials_of_degree(self.space.nvars, degree):
                    f = self.star.prepare(Poly.monomial(self.space.nvars, exp))
                    if _moment_defect(self, quantum[i], classical[i], f) is not None:
                        return i, exp
        return None

    def assert_quantum_consistency(self):
        """Quantum hamiltonians must reproduce the structure constants."""
        if self._quantum_consistency_checked:
            return
        for i in range(self.lie.dim):
            for j in range(i + 1, self.lie.dim):
                lhs = self.star.star_commutator(
                    self.quantum_hamiltonians[i], self.quantum_hamiltonians[j]
                )
                rhs = HSeries.zero(self.space.nvars, self.order)
                for k, c in self.lie.bracket(i, j).items():
                    rhs = rhs + self.quantum_hamiltonians[k].scale(c)
                if lhs != rhs.hbar_shift(1):
                    raise InvalidActionError(
                        "quantum hamiltonians do not close under the commutator: "
                        f"({self.lie.labels[i]}, {self.lie.labels[j]})"
                    )
        self._quantum_consistency_checked = True

    # -- moment maps -----------------------------------------------------------------

    def moment_pullback(self, z: Poly) -> Poly:
        """Substitute the classical hamiltonians into a basis polynomial."""
        return z.substitute(list(self.hamiltonians))

    def comoment(self, a: UEnvElement) -> HSeries:
        """Algebra map into the quantum algebra: generators to quantum
        hamiltonians, words to left-to-right deformed products."""
        if a.lie is not self.lie:
            raise DimensionError("element over a different algebra")
        if a.order != self.order:
            raise ValidationError("element truncation differs from the action's")
        self.assert_quantum_consistency()
        result = HSeries.zero(self.space.nvars, self.order)
        for word in sorted(a.terms):
            hp = a.terms[word]
            chain = self._word_chain(word)
            for r in sorted(hp):
                result = result + chain.hbar_shift(r).scale(hp[r])
        return result

    def _word_chain(self, word: tuple[int, ...]) -> HSeries:
        if word in self._chain_cache:
            return self._chain_cache[word]
        if not word:
            value = HSeries.one(self.space.nvars, self.order)
        else:
            value = self.star.star(
                self._word_chain(word[:-1]), self.quantum_hamiltonians[word[-1]]
            )
        self._chain_cache[word] = value
        return value

    def central_lift(self, name: str) -> HSeries:
        """Quantum image of a designated invariant generator's central section."""
        return self.comoment(central_section(self.lie, name, self.order))


# -- executable checks ------------------------------------------------------------


def _prepared_hamiltonians(act: HamiltonianAction
                           ) -> tuple[list[Prepared], list[Prepared]]:
    """Quantum and classical hamiltonians in the kernel's prepared form."""
    if any(hq.order != act.order for hq in act.quantum_hamiltonians):
        raise TruncationError("quantum hamiltonian truncation differs from the action's")
    prepare = act.star.prepare
    return (
        [prepare(hq) for hq in act.quantum_hamiltonians],
        [prepare(h) for h in act.hamiltonians],
    )


def _moment_defect(act: HamiltonianAction, hq: Prepared, h: Prepared,
                   f: Prepared) -> int | None:
    """Lowest order at which [H_hat, f]_star and hbar {H, f} differ, up to
    the truncation, or None when they agree.  The commutator expansion is
    compared with the shifted bracket slot by slot; no series is built."""
    lhs = act.star.commutator_terms(hq, f, act.order)
    bracket = act.star.poisson(h, f)
    rhs = {1: bracket} if bracket and act.order >= 1 else {}
    if lhs == rhs:
        return None
    zero = Poly.zero(act.space.nvars)
    return next((r for r in sorted(lhs.keys() | rhs.keys())
                 if lhs.get(r, zero) != rhs.get(r, zero)), None)


def check_quantum_moment_condition(
    act: HamiltonianAction, samples: Iterable[Poly]
) -> CheckReport:
    """Per-sample verification of the quantum condition, zero tolerance.
    The hamiltonians are prepared once per report and each sample once."""
    report = CheckReport("quantum-moment-condition")
    quantum, classical = _prepared_hamiltonians(act)
    for idx, f in enumerate(samples):
        pf = act.star.prepare(f)
        for i in range(act.lie.dim):
            first = _moment_defect(act, quantum[i], classical[i], pf)
            report.add(
                f"sample {idx}, generator {act.lie.labels[i]}",
                first is None,
                "" if first is None else f"residual from order {first}",
            )
    return report


def check_classical_limit_triangle(
    act: HamiltonianAction, z: Poly
) -> CheckReport:
    """Compatibility of the section with both classical-limit routes.

    Requires an adjoint-invariant input; verifies that the symmetrization
    reduces back to the input and that its quantum image agrees with the
    classical moment pullback modulo the deformation parameter.
    """
    if not act.lie.is_invariant(z):
        raise ValidationError("input is not adjoint-invariant")
    report = CheckReport("classical-limit-triangle")
    lifted = symmetrize(act.lie, z, act.order)
    report.add(
        "symmetrization reduces to the input",
        lifted.classical_limit() == z,
    )
    image = act.comoment(lifted)
    report.add(
        "quantum image reduces to the moment pullback",
        image.classical_part() == act.moment_pullback(z),
    )
    return report
