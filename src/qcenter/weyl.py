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

from typing import NamedTuple, Sequence

from .errors import ValidationError
from .poly import Poly, poly_sum
from .series import HSeries
from .space import SymplecticSpace
from .star import Prepared, StarProduct


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


def weyl_commutator(star: StarProduct, a: Poly | Prepared, b: Poly | Prepared
                    ) -> Poly:
    return poly_sum(star.space.nvars, star.commutator_terms(a, b).values())


class WeylEntry(NamedTuple):
    name: str
    symbol: str
    central: bool
    failures: list[str]


class WeylReport(NamedTuple):
    entries: list[WeylEntry]
    independent: bool

    @property
    def passed(self) -> bool:
        return self.independent and all(e.central for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "generators_algebraically_independent": self.independent,
            "entries": [e._asdict() for e in self.entries],
        }


def algebraically_independent(polys: Sequence[Poly], space: SymplecticSpace
                              ) -> bool:
    """Jacobian criterion over a field of characteristic zero.

    The polynomials are independent exactly when their Jacobian matrix has
    full row rank over the rational functions.  The rank is found by
    fraction-free (Bareiss) elimination: each entry after a pivot step is
    a minor of the matrix, so the division by the previous pivot is exact
    in the polynomials.
    """
    k = len(polys)
    rows = [[f.partial(i) for i in range(space.nvars)] for f in polys]
    previous = Poly.constant(space.nvars, 1)
    rank = 0
    for col in range(space.nvars):
        if rank == k:
            break
        pivot_row = next((i for i in range(rank, k) if not rows[i][col].is_zero()),
                         None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank]
        for row in rows[rank + 1:]:
            lead = row[col]
            for j in range(col + 1, space.nvars):
                row[j] = (pivot[col] * row[j] - lead * pivot[j]).divide_exact(previous)
        previous = pivot[col]
        rank += 1
    return rank == k


def weyl_report(
    star: StarProduct,
    lifted: Sequence[tuple[str, HSeries]],
    center_generator_names: Sequence[str],
    tests: Sequence[Poly],
) -> WeylReport:
    """Specialize lifts, re-verify centrality against test invariants and
    record independence of the designated center generators' symbols."""
    space = star.space
    prepared = [(u, star.prepare(u)) for u in tests]
    entries: list[WeylEntry] = []
    symbols: dict[str, Poly] = {}
    for name, fhat in lifted:
        symbol = weyl_specialize(fhat, space)
        symbols[name] = symbol
        ps = star.prepare(symbol)
        failures = []
        for u, pu in prepared:
            comm = weyl_commutator(star, ps, pu)
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
