"""Truncated formal series in the deformation parameter with Poly coefficients.

An ``HSeries`` of truncation order N represents an element of the
polynomial algebra extended by a central formal parameter, modulo order
N+1.  It stores ``terms``, a mapping from each nonzero order r <= N to its
polynomial coefficient, in increasing order; zero coefficients are never
stored, so a series costs what its nonzero orders cost, whatever N is.
This is the format the contraction kernel returns.  All arithmetic
discards orders beyond the truncation.

There is no plain ``*`` product: the deformed product lives on
``StarProduct``, and ``scale`` multiplies by a scalar.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import DimensionError, TruncationError
from .poly import Poly, as_scalar, poly_sum


class HSeries:
    __slots__ = ("nvars", "order", "terms")

    def __init__(self, nvars: int, order: int, terms: Mapping[int, Poly]):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        kept: dict[int, Poly] = {}
        for r in sorted(terms):
            f = terms[r]
            if f.nvars != nvars:
                raise DimensionError("coefficient over wrong variable count")
            if not 0 <= r <= order:
                raise TruncationError(f"order {r} outside truncation {order}")
            if not f.is_zero():
                kept[r] = f
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", kept)

    @classmethod
    def _trusted(cls, nvars: int, order: int, terms: dict[int, Poly]) -> "HSeries":
        """Wrap a terms dict without copying or checking it.  Only for dicts
        the caller built itself: increasing orders in 0..order, each mapped
        to a nonzero polynomial over ``nvars`` variables."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HSeries is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(nvars: int, order: int) -> "HSeries":
        return HSeries(nvars, order, {})

    @staticmethod
    def from_poly(f: Poly, order: int) -> "HSeries":
        return HSeries(f.nvars, order, {0: f})

    @staticmethod
    def one(nvars: int, order: int) -> "HSeries":
        return HSeries.from_poly(Poly.constant(nvars, 1), order)

    # -- queries ------------------------------------------------------------

    def coefficient(self, r: int) -> Poly:
        if not 0 <= r <= self.order:
            raise TruncationError(f"order {r} outside truncation {self.order}")
        return self.terms.get(r) or Poly.zero(self.nvars)

    def classical_part(self) -> Poly:
        return self.terms.get(0) or Poly.zero(self.nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def first_nonzero_order(self) -> int | None:
        return next(iter(self.terms), None)

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
        acc = dict(self.terms)
        for r, f in other.terms.items():
            acc[r] = acc[r] + f if r in acc else f
        return HSeries(self.nvars, self.order, acc)

    def __neg__(self) -> "HSeries":
        return HSeries(self.nvars, self.order, {r: -f for r, f in self.terms.items()})

    def scale(self, value) -> "HSeries":
        value = as_scalar(value)
        return HSeries(
            self.nvars, self.order, {r: f.scale(value) for r, f in self.terms.items()}
        )

    def hbar_shift(self, j: int) -> "HSeries":
        """Multiply by the j-th power of the deformation parameter."""
        if j < 0:
            raise ValueError("negative shifts are not defined")
        return HSeries(self.nvars, self.order, {
            r + j: f for r, f in self.terms.items() if r + j <= self.order
        })

    def __mul__(self, other):
        """Refused, so that a commutative product is never taken for the
        star product by mistake."""
        raise TypeError(
            "HSeries has no plain product: use StarProduct for the deformed "
            "product and scale for a scalar"
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HSeries)
            and self.nvars == other.nvars
            and self.order == other.order
            and self.terms == other.terms
        )

    # -- grading ---------------------------------------------------------------

    def series_weight(self, weights: Sequence[int], hbar_weight: int) -> int | None:
        """Weight if homogeneous (order r counts as -hbar_weight*r), else None."""
        found: int | None = None
        for r, f in self.terms.items():
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
        return poly_sum(self.nvars, self.terms.values())

    # -- formatting -----------------------------------------------------------

    def to_string(self, names: Sequence[str] | None = None) -> str:
        pieces = []
        for r, f in self.terms.items():
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
