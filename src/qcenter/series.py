"""Truncated formal series in the deformation parameter with Poly coefficients.

An ``HSeries`` of truncation order N stores exactly N+1 polynomial slots
(trailing zeros are explicit) and represents an element of the polynomial
algebra extended by a central formal parameter, modulo order N+1.  All
arithmetic discards orders beyond the truncation.

The plain ``*`` product is the commutative one (coefficientwise
convolution); the deformed product lives on ``StarProduct``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, TruncationError
from .poly import Poly, as_scalar, poly_sum


class HSeries:
    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: Sequence[Poly] | None = None):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        slots: list[Poly] = [Poly.zero(nvars)] * (order + 1)
        if coeffs is not None:
            if len(coeffs) > order + 1:
                raise TruncationError("more coefficients than truncation slots")
            for i, f in enumerate(coeffs):
                if f.nvars != nvars:
                    raise DimensionError("coefficient over wrong variable count")
                slots[i] = f
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(slots))

    def __setattr__(self, name, value):
        raise AttributeError("HSeries is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int, order: int) -> "HSeries":
        return HSeries(nvars, order)

    @staticmethod
    def from_poly(f: Poly, order: int) -> "HSeries":
        return HSeries(f.nvars, order, [f])

    @staticmethod
    def one(nvars: int, order: int) -> "HSeries":
        return HSeries.from_poly(Poly.constant(nvars, 1), order)

    @staticmethod
    def from_terms(nvars: int, order: int, terms: dict[int, Poly]) -> "HSeries":
        return HSeries(nvars, order, [
            terms[r] if r in terms else Poly.zero(nvars) for r in range(order + 1)
        ])

    # -- queries ------------------------------------------------------------

    def coefficient(self, r: int) -> Poly:
        if not 0 <= r <= self.order:
            raise TruncationError(f"order {r} outside truncation {self.order}")
        return self.coeffs[r]

    def classical_part(self) -> Poly:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.coeffs)

    def first_nonzero_order(self) -> int | None:
        for r, f in enumerate(self.coeffs):
            if not f.is_zero():
                return r
        return None

    def _check(self, other: "HSeries"):
        if self.nvars != other.nvars:
            raise DimensionError("series over different variable counts")
        if self.order != other.order:
            raise TruncationError(
                f"truncation mismatch: {self.order} vs {other.order}"
            )

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "HSeries") -> "HSeries":
        self._check(other)
        return HSeries(
            self.nvars, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "HSeries":
        return HSeries(self.nvars, self.order, [-f for f in self.coeffs])

    def scale(self, value) -> "HSeries":
        value = as_scalar(value)
        return HSeries(self.nvars, self.order, [f.scale(value) for f in self.coeffs])

    def hbar_shift(self, j: int) -> "HSeries":
        """Multiply by the j-th power of the deformation parameter."""
        if j < 0:
            raise ValueError("negative shifts are not defined")
        slots = [Poly.zero(self.nvars)] * min(j, self.order + 1)
        slots += list(self.coeffs[: max(self.order + 1 - j, 0)])
        return HSeries(self.nvars, self.order, slots)

    def __mul__(self, other):
        """Commutative product (convolution), truncated."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            return HSeries(
                self.nvars, self.order, [f * other for f in self.coeffs]
            )
        self._check(other)
        products: list[list[Poly]] = [[] for _ in range(self.order + 1)]
        for a, fa in enumerate(self.coeffs):
            if fa.is_zero():
                continue
            for b in range(self.order + 1 - a):
                gb = other.coeffs[b]
                if not gb.is_zero():
                    products[a + b].append(fa * gb)
        return HSeries(
            self.nvars, self.order, [poly_sum(self.nvars, ps) for ps in products]
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HSeries)
            and self.nvars == other.nvars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.order, self.coeffs))

    # -- truncation management ----------------------------------------------

    def vanishes_below(self, order: int) -> bool:
        """True when all coefficients of order < ``order`` are zero."""
        return all(f.is_zero() for f in self.coeffs[: min(order, self.order + 1)])

    # -- grading ---------------------------------------------------------------

    def series_weight(self, weights: Sequence[int], hbar_weight: int) -> int | None:
        """Weight if homogeneous (slot r counts as -hbar_weight*r), else None."""
        found: int | None = None
        for r, f in enumerate(self.coeffs):
            if f.is_zero():
                continue
            w = f.weight(weights)
            if w is None:
                return None
            total = w - hbar_weight * r
            if found is None:
                found = total
            elif found != total:
                return None
        return found

    def substitute_unit(self) -> Poly:
        """Set the deformation parameter to 1 (sum of all coefficients)."""
        return poly_sum(self.nvars, self.coeffs)

    # -- formatting -----------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        pieces = []
        for r, f in enumerate(self.coeffs):
            if f.is_zero():
                continue
            body = f.to_string(names)
            if r == 0:
                pieces.append(body)
            else:
                hpow = "hbar" if r == 1 else f"hbar^{r}"
                if body == "1":
                    pieces.append(hpow)
                elif body == "-1":
                    pieces.append(f"-{hpow}")
                else:
                    pieces.append(f"({body})*{hpow}")
        if not pieces:
            return "0"
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"HSeries[{self.order}]({self.to_string()})"
