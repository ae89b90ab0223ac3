"""Exact linear algebra over the rationals and graded polynomial subspaces.

One sparse, fraction-free Gauss–Jordan engine, ``EchelonAccumulator``,
does every elimination in the package, in the contraction kernel's idiom:
integer numerators inside, ``Fraction``s built only where a result leaves
the engine.  A stored row is a ``{column: int}`` dict of its nonzero
entries; it is primitive (the gcd of its entries is 1) and its lead, the
entry at its pivot column, is positive.  An incoming row is cleared of
denominators with one lcm, reduced against the pivots it holds by
``work = lead * work - work[p] * row`` (both factors divided by their
gcd first) and made primitive once.  A column index maps each column to
the pivots of the stored rows that hold it, so back-reduction visits only
the rows that hold the new pivot, not every stored row.

One format crosses the engine's boundary: a row goes in as a ``{column:
Fraction | int}`` mapping, and a kernel vector or span combination comes
out as an ``{index: Fraction}`` mapping of its nonzero entries, keys
ascending.  Only ``rref`` keeps dense rows, in and out, for its callers.

Stored rows stay fully reduced: every pivot column is zero outside its
own row.  Read as ``row[c] / row[pivot]`` they are the canonical reduced
row echelon form: pivots are the leftmost nonzero columns, rows have a
leading 1 and every pivot column is zero outside its own row.  It depends
only on the row space, not on the order of the rows, so every basis this
module produces is canonical and re-reduction is idempotent.  The kernel
vector of a free column, its largest key, is read off the column index.
``rref`` on matrices, and ``reduce_poly_span``, ``independent_extension``,
``in_span`` and ``span_combinations`` on polynomials, are thin wrappers
that feed the engine and read the answer off it; the center solves read
the canonical kernel straight off an accumulator.  The polynomial helpers
make one sparse row per polynomial, straight from its terms, over the
joint support in canonical monomial order.

Polynomials of one term each need no elimination: their span is spanned
by their distinct monomials, so its canonical basis is those monomials
with coefficient 1 in canonical order.  ``reduce_poly_span`` answers such
inputs (kernel vectors of one entry, as in the elimination slices of a
cubic hamiltonian) from the monomials alone; a zero or longer polynomial
among the inputs sends them to the engine.  The weight-zero slices of an
all-diagonal action are such bases already, and their generators are
found from exponent sums (``centers.invariants_up_to``), so neither goes
through these helpers.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, ValidationError
from .poly import Exponent, Poly, monomial_key

Row = list[Fraction]
SparseRow = dict[int, Fraction]
IntegerRow = dict[int, int]


def _cleared(row: Mapping[int, Fraction | int]) -> IntegerRow:
    """The nonzero entries of a rational row times the lcm of their
    denominators."""
    entries = []
    den = 1
    for col, value in row.items():
        num, d = value.as_integer_ratio()
        if num:
            entries.append((col, num, d))
            if d != 1:
                den = lcm(den, d)
    if den == 1:
        return {col: num for col, num, _ in entries}
    return {col: num * (den // d) for col, num, d in entries}


def _eliminate(target: IntegerRow, col: int, source: IntegerRow) -> None:
    """Clear ``col`` from ``target`` in place with ``source``, whose entry
    at ``col`` is positive: ``target = a * target - b * source`` for the
    two entries at ``col`` divided by their gcd, dropping cancelled
    entries."""
    a, b = source[col], target[col]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for c in target:
            target[c] *= a
    for c, value in source.items():
        new = target.get(c, 0) - b * value
        if new:
            target[c] = new
        else:
            del target[c]


def _make_primitive(row: IntegerRow, pivot: int) -> None:
    """Divide ``row`` in place by the gcd of its entries, signed so that
    the entry at ``pivot`` comes out positive."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


class EchelonAccumulator:
    """Incremental sparse echelon form for streaming constraint rows.

    Feeding rows one by one keeps memory proportional to the stored
    nonzeros; the state after any sequence of rows is the canonical RREF
    of their span, up to a positive integer factor per row, so the kernel
    is identical to batch reduction.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, IntegerRow] = {}  # pivot column -> its row
        # column -> pivots of the stored rows holding it, outside their pivot
        self._index: defaultdict[int, set[int]] = defaultdict(set)

    def add_row(self, row: Mapping[int, Fraction | int]) -> bool:
        """Reduce and keep a ``{column: value}`` row; returns True if it
        added rank."""
        if row and (min(row) < 0 or max(row) >= self.ncols):
            raise DimensionError("row column out of range")
        return self._insert(_cleared(row))

    def _insert(self, work: IntegerRow) -> bool:
        """The elimination step; consumes ``work``."""
        rows, index = self._rows, self._index
        # stored rows hold no pivot but their own, so reducing against one
        # pivot never brings in another
        for pcol in [col for col in work if col in rows]:
            _eliminate(work, pcol, rows[pcol])
        if not work:
            return False
        pivot = min(work)
        _make_primitive(work, pivot)
        for held in index.pop(pivot, ()):
            prow = rows[held]
            _eliminate(prow, pivot, work)
            _make_primitive(prow, held)
            for col in work:
                if col in prow:
                    index[col].add(held)
                elif col != pivot:
                    index[col].discard(held)
        rows[pivot] = work
        for col in work:
            if col != pivot:
                index[col].add(pivot)
        return True

    def _echelon(self) -> tuple[list[SparseRow], list[int]]:
        """The canonical RREF as ``Fraction`` rows, in pivot order."""
        pivots = sorted(self._rows)
        echelon = []
        for pivot in pivots:
            row = self._rows[pivot]
            lead = row[pivot]
            echelon.append({col: Fraction(value, lead) for col, value in row.items()})
        return echelon, pivots

    def kernel(self) -> list[SparseRow]:
        """Canonical kernel basis: one vector per free column, ascending,
        with 1 at its free column."""
        rows, index = self._rows, self._index
        basis = []
        for free in range(self.ncols):
            if free not in rows:
                vec = {pivot: Fraction(-rows[pivot][free], rows[pivot][pivot])
                       for pivot in sorted(index.get(free, ()))}
                vec[free] = Fraction(1)
                basis.append(vec)
        return basis


def _reduce(rows: Iterable[Mapping[int, Fraction | int]], ncols: int
            ) -> EchelonAccumulator:
    # batch reductions bypass add_row, so the bench's add_row counts and
    # rank ratio describe streamed constraint rows only
    engine = EchelonAccumulator(ncols)
    for row in rows:
        engine._insert(_cleared(row))
    return engine


def _dense(row: SparseRow, ncols: int) -> Row:
    out = [Fraction(0)] * ncols
    for col, value in row.items():
        out[col] = value
    return out


def rref(rows: Iterable[Sequence]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of dense rows. Returns (nonzero rows, pivot
    columns)."""
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise DimensionError("row length mismatch")
    echelon, pivots = _reduce((dict(enumerate(row)) for row in rows), ncols)._echelon()
    return [_dense(row, ncols) for row in echelon], pivots


# -- polynomial-level helpers ----------------------------------------------


def _poly_rows(polys: Sequence[Poly]) -> tuple[list[SparseRow], list[Exponent]]:
    """Sparse coefficient rows over the joint support in canonical order."""
    columns = sorted({m for f in polys for m in f.terms}, key=monomial_key)
    index = {m: i for i, m in enumerate(columns)}
    rows = [{index[m]: c for m, c in f.terms.items()} for f in polys]
    return rows, columns


def _monomials(polys: Sequence[Poly]) -> list[Exponent] | None:
    """The monomial of each polynomial, in order, or None unless every
    polynomial has exactly one term."""
    out = []
    for f in polys:
        if len(f.terms) != 1:
            return None
        out.extend(f.terms)
    return out


def reduce_poly_span(polys: Sequence[Poly], nvars: int) -> list[Poly]:
    """Canonical (echelon) basis of the span of the given polynomials."""
    monomials = _monomials(polys)
    if monomials is not None:
        one = Fraction(1)
        return [Poly(nvars, {m: one})
                for m in sorted(set(monomials), key=monomial_key)]
    rows, columns = _poly_rows(polys)
    echelon, _ = _reduce(rows, len(columns))._echelon()
    return [Poly(nvars, {columns[c]: v for c, v in row.items()}) for row in echelon]


def independent_extension(base: Sequence[Poly], candidates: Sequence[Poly]
                          ) -> list[Poly]:
    """The candidates, in order, that are not in the span of ``base`` and
    of the candidates kept before them."""
    rows, columns = _poly_rows([*base, *candidates])
    engine = _reduce(rows[: len(base)], len(columns))
    return [
        f for f, row in zip(candidates, rows[len(base):])
        if engine._insert(_cleared(row))
    ]


def in_span(f: Poly, basis: Sequence[Poly]) -> bool:
    """Exact membership of ``f`` in the span of ``basis``."""
    return not independent_extension(basis, [f])


def span_combinations(polys: Sequence[Poly]) -> list[SparseRow]:
    """Combinations ``{i: c_i}`` whose sums ``sum c_i polys[i]`` are the
    canonical echelon basis of the span, in pivot order.

    They are read off the canonical RREF of ``[coefficients | identity]``:
    its rows whose pivot lies in the coefficient part.
    """
    rows, columns = _poly_rows(polys)
    width = len(columns)
    for i, row in enumerate(rows):
        row[width + i] = 1
    echelon, pivots = _reduce(rows, width + len(polys))._echelon()
    return [
        dict(sorted((col - width, value) for col, value in row.items() if col >= width))
        for row, pivot in zip(echelon, pivots)
        if pivot < width
    ]


class GradedSubspace:
    """Per-degree canonical bases of a graded space of polynomials.

    Each slice is reduced to echelon form at construction, which certifies
    linear independence; every stored polynomial must be homogeneous of its
    slice degree (total degree).
    """

    def __init__(self, nvars: int, slices: dict[int, Sequence[Poly]]):
        self.nvars = nvars
        total = (1,) * nvars
        reduced: dict[int, list[Poly]] = {}
        for degree in sorted(slices):
            basis = reduce_poly_span(list(slices[degree]), nvars)
            for f in basis:
                w = f.weight(total)
                if w is not None and w != degree:
                    raise ValidationError(
                        f"basis element of weight {w} stored in slice {degree}"
                    )
                if w is None:
                    raise ValidationError(
                        f"non-homogeneous element in graded slice {degree}"
                    )
            if basis:
                reduced[degree] = basis
        self.slices = reduced

    @classmethod
    def _trusted(cls, nvars: int, slices: dict[int, list[Poly]]
                 ) -> "GradedSubspace":
        """Wrap slices without reducing or checking them, dropping the
        empty ones.  Only for slices the caller built as canonical bases:
        each the reduced echelon basis of its span, every element
        homogeneous of its slice degree."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.slices = {degree: slices[degree] for degree in sorted(slices)
                       if slices[degree]}
        return self

    def basis(self, degree: int) -> list[Poly]:
        return list(self.slices.get(degree, []))

    def dimension(self, degree: int) -> int:
        return len(self.slices.get(degree, []))
