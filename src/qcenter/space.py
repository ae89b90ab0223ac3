"""Symplectic coordinate systems: Poisson bivector, grading weights.

A space with ``n`` symplectic pairs has ``2n`` variables ordered
``q_1..q_n, p_1..p_n``.  It carries a constant antisymmetric invertible
bivector (default: the standard form with ``P[q_i, p_i] = 1``), a weight
vector for the scaling grading (default: every coordinate has weight -1)
and the grading weight ``k`` of the deformation parameter (default 2).

The series grading assigns ``sum(w_i * e_i) - k*r`` to a monomial carried
by the order-``r`` series slot, so that the term-by-term products of the
deformation stay weight-homogeneous: each bivector contraction raises the
polynomial weight by ``k`` while the order shift lowers it back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, ValidationError
from .linalg import rref
from .poly import Poly, as_scalar, default_names


class SymplecticSpace:
    """Fixed coordinate system for all polynomial and series values."""

    __slots__ = ("pairs", "nvars", "bivector", "weights", "hbar_weight", "names")

    def __init__(
        self,
        pairs: int,
        bivector: Sequence[Sequence] | None = None,
        weights: Sequence[int] | None = None,
        hbar_weight: int = 2,
    ):
        if pairs < 1:
            raise ValidationError("a symplectic space needs at least one pair")
        nvars = 2 * pairs
        if bivector is None:
            rows = [[Fraction(0)] * nvars for _ in range(nvars)]
            for i in range(pairs):
                rows[i][pairs + i] = Fraction(1)
                rows[pairs + i][i] = Fraction(-1)
        else:
            if len(bivector) != nvars or any(len(r) != nvars for r in bivector):
                raise DimensionError("bivector must be 2n x 2n")
            rows = [[as_scalar(v) for v in row] for row in bivector]
        for i in range(nvars):
            for j in range(nvars):
                if rows[i][j] != -rows[j][i]:
                    raise ValidationError("bivector must be antisymmetric")
        if len(rref(rows)[1]) < nvars:
            raise ValidationError("bivector must be invertible")
        if weights is None:
            weights = (-1,) * nvars
        else:
            weights = tuple(int(w) for w in weights)
            if len(weights) != nvars:
                raise DimensionError("weight vector must have 2n entries")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "bivector", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "hbar_weight", int(hbar_weight))
        object.__setattr__(self, "names", tuple(default_names(nvars)))

    def __setattr__(self, name, value):
        raise AttributeError("SymplecticSpace is immutable")

    # -- element constructors -------------------------------------------------

    def one(self) -> Poly:
        return Poly.constant(self.nvars, 1)

    def q(self, i: int) -> Poly:
        """Position coordinate q_i, 1-based."""
        if not 1 <= i <= self.pairs:
            raise DimensionError(f"q index {i} out of range")
        return Poly.variable(self.nvars, i - 1)

    def p(self, i: int) -> Poly:
        """Momentum coordinate p_i, 1-based."""
        if not 1 <= i <= self.pairs:
            raise DimensionError(f"p index {i} out of range")
        return Poly.variable(self.nvars, self.pairs + i - 1)

    # -- bivector access --------------------------------------------------------

    def bivector_entries(self) -> list[tuple[int, int, Fraction]]:
        """Nonzero entries (i, j, P[i][j]) in deterministic order."""
        out = []
        for i in range(self.nvars):
            for j in range(self.nvars):
                if self.bivector[i][j]:
                    out.append((i, j, self.bivector[i][j]))
        return out

    # -- grading -------------------------------------------------------------

    def grading_is_uniform(self) -> bool:
        """True when every coordinate carries weight -1 (the default)."""
        return all(w == -1 for w in self.weights)

    def check_graded_bivector(self):
        """Require each bivector pairing to raise the weight by hbar_weight.

        Homogeneity of the deformation needs ``w_i + w_j = -k`` for every
        nonzero entry ``P[i][j]``.
        """
        for i, j, _ in self.bivector_entries():
            pair = self.weights[i] + self.weights[j]
            if pair != -self.hbar_weight:
                raise ValidationError(
                    "bivector is not graded: weights "
                    f"w[{i}]+w[{j}] = {pair} != {-self.hbar_weight}"
                )

    def poly_weight(self, f: Poly) -> int | None:
        """Weight of a weight-homogeneous polynomial, None if mixed or zero."""
        return f.weight(self.weights)
