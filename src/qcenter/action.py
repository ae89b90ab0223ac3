"""Hamiltonian actions on a symplectic space and their quantum lifts.

An action pairs each Lie algebra basis element with a classical
hamiltonian (a polynomial whose bracket derivation is the velocity field)
and with a quantum hamiltonian ``H_hat_i = sum_s hbar^s H_i^(s)``
truncated at N and reducing to it.  The defining quantum condition is
``[H_hat_i, f] = hbar {H_i, f}`` modulo hbar^(N + 1) for every polynomial
f.  Odd contractions are antisymmetric, even ones symmetric, and
``2 D_1(H_i, f)`` is the bracket, so the defect is the sum of
``hbar^(s + l) 2 D_l(H_i^(s), f)`` over odd l with ``2 <= s + l <= N``.
``D_l(g, .)`` is a differential operator of pure order l whose
coefficients are the l-th derivatives of g contracted with the invertible
bivector, so it vanishes exactly when ``deg g < l``, and operators of
distinct orders cannot cancel.  So the condition holds exactly when
``min(deg H_i, N) <= 2`` and every ``H_i^(s)`` with ``1 <= s < N`` is a
constant; for quadratic hamiltonians this is their exact Moyal
quantization (Bayen, Flato, Fronsdal, Lichnerowicz and Sternheimer, Ann.
Phys. 111, 1978).  Applied to each coefficient of ``H_hat_j``, it gives
``[H_hat_i, H_hat_j] = hbar {H_i, H_j}``, so the comoment map (generators
to quantum hamiltonians, words to left-to-right deformed products) is a
homomorphism exactly when the hamiltonians are equivariant and
``sum_k c_ij^k H_k^(s) = 0`` for ``1 <= s < N``, which validation checks.

The constructor builds, once, the record every consumer reads: each
classical and quantum hamiltonian prepared for the contraction kernel (a
quantum hamiltonian shares the order-0 slot of its classical one, so each
hamiltonian is prepared once), the coordinate brackets ``{H_i, x_j}``,
and from them the integer weight rows of the diagonal hamiltonians
(``{H_i, x_j} = w_j * x_j``) with the indices of the others
(``nondiagonal``), and among those the indices whose rows the invariant
solve feeds (``eliminated``): all of them less each one an sl2
triple with a kept one and a diagonal element discharges (the rule and its
proof are in the ``centers`` module docstring).  When the rule keeps one
``x`` and drops the only other non-diagonal element, ``raising_root`` reads
``x``'s root on the diagonal elements in the units of their weight rows,
from which the invariant solve counts each slice's dimension (``centers``
module docstring, "Counted slices"); otherwise it is None.  The checks,
the comoment, the invariant solves and the lift recursion read the
record.  Once the action is
validated it also holds, for each designated invariant generator in
generator order, the two halves of the moment map on it: its moment
pullback (``pullbacks``), which the moment-image basis and the lift
targets read, its central section (``central_sections``), and that
section's comoment image, its central lift (``central_lifts``), on which
the lift relations are evaluated.  The triangle check reads this record.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .envelope import UEnvElement, central_section
from .errors import (
    DimensionError,
    InvalidActionError,
    ValidationError,
)
from .liealg import LieAlgebraData
from .poly import Poly, poly_sum
from .series import HSeries
from .star import CheckReport, Prepared, StarProduct


class HamiltonianAction:
    def __init__(
        self,
        lie: LieAlgebraData,
        star: StarProduct,
        hamiltonians: Sequence[Poly],
        quantum_hamiltonians: Sequence[HSeries] | None = None,
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
        for hq in self.quantum_hamiltonians:
            if hq.order != self.order:
                raise ValidationError("quantum hamiltonian truncation mismatch")
        self.prepared_hamiltonians = tuple(map(star.prepare, self.hamiltonians))
        # each series shares its classical slot: validate requires
        # hq.classical_part() == h, and nothing reads these before it runs
        self.prepared_quantum = tuple(
            star.prepare({**hq.terms, 0: ph})
            for hq, ph in zip(self.quantum_hamiltonians, self.prepared_hamiltonians)
        )
        nv = self.space.nvars
        self.coordinate_brackets = tuple(  # [i][j] is {H_i, x_j}
            tuple(star.poisson(h, Poly.variable(nv, j)) for j in range(nv))
            for h in self.prepared_hamiltonians
        )
        rows, scales, nondiagonal = [], [], []
        for i, brackets in enumerate(self.coordinate_brackets):
            w = _diagonal_weights(brackets)
            if w is None:
                nondiagonal.append(i)
            else:  # scaled to integers; raising_root is read in these units
                scales.append(lcm(*(x.denominator for x in w)))
                rows.append(tuple(int(x * scales[-1]) for x in w))
        self.weight_rows = tuple(rows)  # of the diagonal hamiltonians
        self._row_scales = tuple(scales)
        self.nondiagonal = tuple(nondiagonal)  # indices of the others
        # the non-diagonal indices whose rows the invariant solve feeds
        self.eliminated = _eliminated(lie, self.hamiltonians, self.nondiagonal)
        self._chain_cache: dict[tuple[int, ...], HSeries] = {}
        self.validate()
        self.pullbacks = tuple(  # in generator order
            self.moment_pullback(gen.poly) for gen in lie.invariant_generators
        )
        self.central_sections = tuple(  # in generator order
            central_section(lie, gen.name, self.order)
            for gen in lie.invariant_generators
        )
        self.central_lifts = tuple(map(self.comoment, self.central_sections))

    @property
    def raising_root(self) -> tuple[Fraction, ...] | None:
        """The root ``alpha_x(d_i)`` of the kept raising element ``x`` on
        each diagonal element ``d_i``, times the scale of ``d_i``'s weight
        row, when ``x`` and the ``y`` it raises to (the rule of
        ``eliminated``) are the only non-diagonal elements; else None.
        Then the dimension of every invariant slice is a weight count
        (``centers`` module docstring, "Counted slices").  It is read off
        ``eliminated`` on each call, so an action whose ``eliminated`` is
        replaced by every non-diagonal index has none."""
        if len(self.nondiagonal) != 2 or self.eliminated != self.nondiagonal[:1]:
            return None
        (x,) = self.eliminated
        diagonal = [d for d in range(self.lie.dim) if d not in self.nondiagonal]
        return tuple(self.lie.bracket(d, x).get(x, Fraction(0)) * scale
                     for d, scale in zip(diagonal, self._row_scales))

    # -- validation ---------------------------------------------------------------

    def validate(self):
        """Equivariance, classical parts, the quantum condition and closure,
        exactly, in that order (module docstring)."""
        classical = self.prepared_hamiltonians
        for i in range(self.lie.dim):
            for j in range(i + 1, self.lie.dim):
                expected = poly_sum(self.space.nvars, [
                    self.hamiltonians[k].scale(c)
                    for k, c in self.lie.bracket(i, j).items()
                ])
                actual = self.star.poisson(classical[i], classical[j])
                if actual != expected:
                    raise ValidationError(
                        "hamiltonians do not reproduce the structure constants: "
                        f"bracket of {self.lie.labels[i]} and {self.lie.labels[j]}"
                    )
        for i, (h, hq) in enumerate(zip(self.hamiltonians, self.quantum_hamiltonians)):
            if hq.classical_part() != h:
                raise ValidationError(
                    f"quantum hamiltonian of {self.lie.labels[i]} has wrong "
                    "classical part"
                )
        failure = self._quantum_condition_failure()
        if failure is not None:
            raise InvalidActionError(failure)
        self.assert_quantum_consistency()

    def _quantum_condition_failure(self) -> str | None:
        """Why the first generator failing the quantum condition fails it."""
        for label, h, hq in zip(self.lie.labels, self.hamiltonians,
                                self.quantum_hamiltonians):
            if h.degree() >= 3 and self.order >= 3:
                return (f"quantum condition fails for {label}: its hamiltonian "
                        f"has degree {h.degree()} at truncation {self.order}")
            for s in sorted(hq.terms):
                if 1 <= s < self.order and hq.terms[s].degree() > 0:
                    return (f"quantum condition fails for {label}: its correction "
                            f"at order {s} is not a constant")
        return None

    def assert_quantum_consistency(self):
        """Quantum hamiltonians must reproduce the structure constants: on
        a valid action, ``sum_k c_ij^k H_k^(s) = 0`` for ``1 <= s < N``."""
        for i in range(self.lie.dim):
            for j in range(i + 1, self.lie.dim):
                combination = HSeries.zero(self.space.nvars, self.order)
                for k, c in self.lie.bracket(i, j).items():
                    combination = combination + self.quantum_hamiltonians[k].scale(c)
                if any(0 < s < self.order for s in combination.terms):
                    raise InvalidActionError(
                        "quantum hamiltonians do not close under the commutator: "
                        f"({self.lie.labels[i]}, {self.lie.labels[j]})"
                    )

    # -- moment maps -----------------------------------------------------------------

    def moment_pullback(self, z: Poly) -> Poly:
        """Substitute the classical hamiltonians into a basis polynomial."""
        return z.substitute(self.hamiltonians, self.space.nvars)

    def comoment(self, a: UEnvElement) -> HSeries:
        """Algebra map into the quantum algebra: generators to quantum
        hamiltonians, words to left-to-right deformed products."""
        if a.lie is not self.lie:
            raise DimensionError("element over a different algebra")
        if a.order != self.order:
            raise ValidationError("element truncation differs from the action's")
        result = HSeries.zero(self.space.nvars, self.order)
        for (word, r), c in sorted(a.terms.items()):
            result = result + self._word_chain(word).hbar_shift(r).scale(c)
        return result

    def _word_chain(self, word: tuple[int, ...]) -> HSeries:
        if word in self._chain_cache:
            return self._chain_cache[word]
        if not word:
            value = HSeries.one(self.space.nvars, self.order)
        else:
            value = self.star.star(
                self._word_chain(word[:-1]), self.prepared_quantum[word[-1]]
            )
        self._chain_cache[word] = value
        return value


def _diagonal_weights(brackets: Sequence[Poly]) -> list[Fraction] | None:
    """The weights ``w_j`` with ``{h, x_j} = w_j * x_j`` read off the
    coordinate brackets of ``h``, or None when they are not diagonal."""
    weights = []
    for j, bracket in enumerate(brackets):
        (exp,) = Poly.variable(bracket.nvars, j).terms
        if bracket.terms.keys() - {exp}:
            return None
        weights.append(bracket.terms.get(exp, Fraction(0)))
    return weights


def _eliminated(lie: LieAlgebraData, hamiltonians: Sequence[Poly],
                nondiagonal: Sequence[int]) -> tuple[int, ...]:
    """The non-diagonal indices, in order, less each ``y`` that an
    earlier kept ``x`` raises to (``centers`` module docstring, "Raising
    rows only"): ``H_x`` and ``H_y`` homogeneous quadratic, ``y`` a root
    vector of the diagonal elements with root ``alpha`` and ``x`` one with
    root ``-alpha``, and ``[x, y]`` in their span with
    ``alpha_x([x, y]) != 0``, which makes ``alpha`` nonzero."""
    diagonal = set(range(lie.dim)) - set(nondiagonal)

    def root(y: int) -> dict[int, Fraction] | None:
        """``{d: alpha_d}`` with ``[d, y] = alpha_d * y`` for each diagonal
        ``d``, when ``H_y`` is homogeneous quadratic; else None."""
        h = hamiltonians[y]
        if h.degree() != 2 or not h.is_homogeneous((1,) * h.nvars):
            return None
        alpha = {}
        for d in diagonal:
            comps = lie.bracket(d, y)
            if comps.keys() - {y}:
                return None
            alpha[d] = comps.get(y, Fraction(0))
        return alpha

    roots = {y: root(y) for y in nondiagonal}
    kept: list[int] = []
    for y in nondiagonal:
        alpha = roots[y]
        if alpha is not None and any(
            roots[x] == {d: -a for d, a in alpha.items()}
            and lie.bracket(x, y).keys() <= diagonal
            and sum(c * roots[x][d] for d, c in lie.bracket(x, y).items())
            for x in kept
        ):
            continue
        kept.append(y)
    return tuple(kept)


# -- executable checks ------------------------------------------------------------


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
    The action holds the prepared hamiltonians; each sample is prepared once."""
    report = CheckReport("quantum-moment-condition")
    quantum, classical = act.prepared_quantum, act.prepared_hamiltonians
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


def check_classical_limit_triangle(act: HamiltonianAction) -> CheckReport:
    """Both classical-limit routes on the action's record: each designated
    generator's central section reduces to it, and its central lift to its
    moment pullback.  Both facts hold for every polynomial: symmetrization
    is a section of the classical limit, and the order-0 term of the
    deformed product is the plain product.  The section corrections start
    at order 1 or later, so they change neither classical part."""
    report = CheckReport("classical-limit-triangle")
    for gen, section, lift, pullback in zip(act.lie.invariant_generators,
                                            act.central_sections,
                                            act.central_lifts, act.pullbacks):
        report.add("symmetrization reduces to the input",
                   section.classical_limit() == gen.poly)
        report.add("quantum image reduces to the moment pullback",
                   lift.classical_part() == pullback)
    return report
