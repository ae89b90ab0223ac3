"""Specialization of the deformation parameter to 1.

For a series concentrated in a single weight of the scaling grading only
finitely many orders are populated, so setting the parameter to 1 loses
nothing: the result is the full symbol of an operator in the algebra whose
product is the exact (finitely terminating) sum of all the contraction
terms.  Symbols obtained this way are in symmetric normal form: the
specialization intertwines the truncated series product with the exact
specialized product.

A specialized lift is central when its commutator at parameter 1 with
every invariant up to the test cutoff vanishes.  ``weyl_report`` tests it
against the invariant generators up to the cutoff
(``Invariants.generators``), the set both centers and ``verify_lift`` test
against (``centers`` module docstring).  They are a complete test set when
every hamiltonian has degree at most 2:

* On polynomials the product is the finite sum
  ``u * v = sum_r hbar^r B_r(u, v)`` of the contraction terms, with
  ``B_0(u, v) = u v`` and ``B_r(u, v)`` of degree ``deg u + deg v - 2r``
  on homogeneous ``u`` and ``v``; at parameter 1 it is
  ``sum_r B_r(u, v)``.
* Take a hamiltonian ``H`` of degree at most 2.  Every ``D_l(H, .)`` with
  ``l >= 3`` vanishes (``action`` module docstring), so
  ``[H, f] = hbar {H, f}`` exactly, at every order.
* The commutator is a derivation of an associative product, so
  ``{H, .}`` is a derivation of the product.  Comparing parameter powers
  in ``{H, u * v}``, ``{H, B_r(u, v)} = B_r({H, u}, v) + B_r(u, {H, v})``.
  For invariants ``u`` and ``v``, each ``B_r(u, v)`` is then an invariant
  of degree ``deg u + deg v - 2r``.
* ``[s, .]`` is a derivation of the product too.  So for a generator
  ``g`` and an invariant ``v``,
  ``[s, g v] = [s, g] * v + g * [s, v] - sum_(r >= 1) [s, B_r(g, v)]``.
* An invariant of degree ``d`` is a combination of generators of degree
  ``d`` and products ``g v`` of a generator with an invariant of lower
  degree.  So, by induction on the degree, a symbol that commutes with the
  generators up to the cutoff commutes with every invariant up to the
  cutoff.

With a hamiltonian of degree 3 or more no test set is proven: the series
argument of ``centers`` holds only modulo the truncation, and at parameter
1 every order counts.  On ``cubic_t2`` (``tests/data``), hamiltonian
``q1^2*p1``, the lift ``c`` of ``t`` commutes with the generators and not
with the invariant ``q1^4*p1^2``.  So ``build_scenario`` refuses the
``weyl`` task on such an action when it has a lift.
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
    """Specialize lifts, test each symbol's commutator at parameter 1
    against ``tests`` and record independence of the designated center
    generators' symbols.  A run passes the invariant generators up to the
    test cutoff, a complete test set when every hamiltonian has degree at
    most 2 (module docstring)."""
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
