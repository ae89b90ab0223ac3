"""Finite-dimensional Lie algebra data: structure constants and invariants.

Structure constants are exact rationals in one sparse antisymmetric
table: each stated bracket, a stated zero included, is stored under both
orientations as it is read, and one that contradicts its stated mirror is
refused there.  The Jacobi identity is validated at construction, on the
basis triples that hold a stated pair: the others sum to zero, so it
visits at most the stated pairs times the dimension, not all C(dim, 3).
Designated invariant elements (generators of the polynomial algebra of
adjoint invariants) are supplied by the caller and checked against every
adjoint derivation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import DimensionError, ValidationError
from .poly import Poly, as_scalar, poly_sum


class InvariantGenerator(NamedTuple):
    """A designated adjoint-invariant polynomial in the basis variables.

    ``section_correction`` optionally adds central higher-order terms to
    the symmetrized lift of this generator when it is carried into the
    quantum algebra: pairs ``(r, invariant polynomial)`` in increasing
    order r, each added with the r-th parameter power.  Corrections must
    start at order >= 1 so the classical part is untouched.
    """

    name: str
    poly: Poly
    section_correction: tuple[tuple[int, Poly], ...] = ()


class LieAlgebraData:
    def __init__(
        self,
        dim: int,
        labels: Sequence[str] | None = None,
        brackets: Mapping[tuple[int, int], Mapping[int, object]] | None = None,
        invariant_generators: Sequence[InvariantGenerator] = (),
    ):
        if dim < 0:
            raise ValidationError("dimension must be non-negative")
        self.dim = dim
        if labels is None:
            labels = [f"x{i+1}" for i in range(dim)]
        if len(labels) != dim or len(set(labels)) != dim:
            raise ValidationError("need one distinct label per basis element")
        self.labels = tuple(labels)
        # [x_i, x_j] under (i, j): each stated bracket and its mirror
        self._table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comps in (brackets or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionError(f"bracket index ({i},{j}) out of range")
            clean = {k: as_scalar(c) for k, c in comps.items() if as_scalar(c)}
            if i == j and clean:
                raise ValidationError("bracket of an element with itself")
            for k in clean:
                if not 0 <= k < dim:
                    raise DimensionError(f"bracket component {k} out of range")
            if self._table.setdefault((i, j), clean) != clean:  # its mirror came first
                raise ValidationError(
                    f"structure constants not antisymmetric at ({j},{i})"
                )
            self._table[(j, i)] = {k: -c for k, c in clean.items()}
        self._validate_jacobi()
        self.invariant_generators = tuple(invariant_generators)
        for gen in self.invariant_generators:
            if gen.poly.nvars != dim:
                raise DimensionError(
                    f"invariant generator {gen.name!r} has wrong variable count"
                )
            if not self.is_invariant(gen.poly):
                raise ValidationError(
                    f"designated generator {gen.name!r} is not adjoint-invariant"
                )
            for r, corr in gen.section_correction:
                if r < 1:
                    raise ValidationError(
                        f"section correction of {gen.name!r} must start at order 1"
                    )
                if corr.nvars != dim or not self.is_invariant(corr):
                    raise ValidationError(
                        f"section correction of {gen.name!r} must be invariant"
                    )
        # normalization cache for the rewriting system: index word ->
        # {(sorted word, parameter power): coefficient}
        self._normal_forms: dict[tuple[int, ...], dict] = {}

    # -- structure constants -------------------------------------------------

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """Components of [x_i, x_j] on the basis, sparse."""
        return self._table.get((i, j), {})

    def _validate_jacobi(self):
        """The Jacobi identity on the triples ``i < j < k``, in that order,
        that hold a key of the table: every ``k`` when ``(i, j)`` is one,
        else the ``k`` stated with ``i`` or ``j``."""
        stated: list[set[int]] = [set() for _ in range(self.dim)]
        for i, j in self._table:
            stated[i].add(j)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if j in stated[i]:
                    third = range(j + 1, self.dim)
                else:
                    third = sorted(k for k in stated[i] | stated[j] if k > j)
                for k in third:
                    acc: dict[int, Fraction] = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        # [[x_a, x_b], x_c]
                        for m, cab in self.bracket(a, b).items():
                            for l, cmc in self.bracket(m, c).items():
                                acc[l] = acc.get(l, 0) + cab * cmc
                    if any(acc.values()):
                        raise ValidationError(
                            "Jacobi identity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    # -- adjoint action on polynomials ------------------------------------------

    def ad_apply(self, i: int, s: Poly) -> Poly:
        """Adjoint derivation of basis element i acting on a polynomial: the
        sum of ``[x_i, x_j] * ds/dx_j`` over the variables ``x_j`` in ``s``."""
        if s.nvars != self.dim:
            raise DimensionError("polynomial does not live on this algebra")
        terms = []
        for j in sorted({j for exp in s.terms for j, e in enumerate(exp) if e}):
            bracket = self.bracket(i, j)
            if bracket:
                ds = s.partial(j)
                terms += [ds * Poly.variable(self.dim, k).scale(c) for k, c in bracket.items()]
        return poly_sum(self.dim, terms)

    def is_invariant(self, s: Poly) -> bool:
        return all(self.ad_apply(i, s).is_zero() for i in range(self.dim))

    def generator(self, name: str) -> InvariantGenerator:
        for gen in self.invariant_generators:
            if gen.name == name:
                return gen
        raise KeyError(f"no designated invariant generator named {name!r}")

