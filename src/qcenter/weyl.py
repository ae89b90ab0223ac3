"""Specialization of the deformation parameter to 1.

For a series concentrated in a single weight of the scaling grading only
finitely many orders are populated, so setting the parameter to 1 loses
nothing: the result is the full symbol of an operator in the algebra whose
product is the exact (finitely terminating) sum of all the contraction
terms.  Symbols obtained this way are in symmetric normal form: the
specialization intertwines the truncated series product with the exact
specialized product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ValidationError
from .poly import Poly, poly_sum
from .series import HSeries
from .space import SymplecticSpace
from .star import StarProduct


def weyl_specialize(fhat: HSeries, space: SymplecticSpace) -> Poly:
    """Collapse a single-weight series at parameter value 1.

    Inputs mixing several weights are rejected: for those the series has
    infinitely many potential orders and a truncated specialization would
    silently drop terms.
    """
    if fhat.nvars != space.nvars:
        raise ValidationError("series does not live on this space")
    if not fhat.is_zero():
        weight = fhat.series_weight(space.weights, space.hbar_weight)
        if weight is None:
            raise ValidationError(
                "specialization needs a single weight component"
            )
    return fhat.substitute_unit()


def weyl_product(star: StarProduct, a: Poly, b: Poly) -> Poly:
    """Exact specialized product of two symbols (all orders summed)."""
    return poly_sum(star.space.nvars, star.product_terms(a, b).values())


def weyl_commutator(star: StarProduct, a: Poly, b: Poly) -> Poly:
    return poly_sum(star.space.nvars, star.commutator_terms(a, b).values())


@dataclass
class WeylEntry:
    name: str
    symbol: str
    central: bool
    failures: list[str]


@dataclass
class WeylReport:
    entries: list[WeylEntry]
    independent: bool

    @property
    def passed(self) -> bool:
        return self.independent and all(e.central for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "generators_algebraically_independent": self.independent,
            "entries": [
                {
                    "name": e.name,
                    "symbol": e.symbol,
                    "central": e.central,
                    "failures": e.failures,
                }
                for e in self.entries
            ],
        }


def algebraically_independent(polys: Sequence[Poly], space: SymplecticSpace
                              ) -> bool:
    """Jacobian criterion over a field of characteristic zero.

    The polynomials are independent exactly when some maximal minor of
    their Jacobian matrix is a nonzero polynomial.
    """
    k = len(polys)
    if k == 0:
        return True
    if k > space.nvars:
        return False
    from itertools import combinations

    gradients = [
        [f.partial(i) for i in range(space.nvars)] for f in polys
    ]
    for cols in combinations(range(space.nvars), k):
        minor = _poly_determinant(
            [[gradients[r][c] for c in cols] for r in range(k)], space.nvars
        )
        if not minor.is_zero():
            return True
    return False


def _poly_determinant(matrix: list[list[Poly]], nvars: int) -> Poly:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    result = Poly.zero(nvars)
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [
            [matrix[r][c] for c in range(size) if c != j] for r in range(1, size)
        ]
        cofactor = entry * _poly_determinant(minor, nvars)
        result = result + (cofactor if j % 2 == 0 else -cofactor)
    return result


def weyl_report(
    star: StarProduct,
    lifted: Sequence[tuple[str, HSeries]],
    center_generator_names: Sequence[str],
    tests: Sequence[Poly],
) -> WeylReport:
    """Specialize lifts, re-verify centrality against test invariants and
    record independence of the designated center generators' symbols."""
    space = star.space
    entries: list[WeylEntry] = []
    symbols: dict[str, Poly] = {}
    for name, fhat in lifted:
        symbol = weyl_specialize(fhat, space)
        symbols[name] = symbol
        failures = []
        for u in tests:
            comm = weyl_commutator(star, symbol, u)
            if not comm.is_zero():
                failures.append(u.to_string(space.names))
        entries.append(
            WeylEntry(
                name=name,
                symbol=symbol.to_string(space.names),
                central=not failures,
                failures=failures,
            )
        )
    chosen = [symbols[name] for name in center_generator_names if name in symbols]
    independent = algebraically_independent(chosen, space)
    return WeylReport(entries, independent)
