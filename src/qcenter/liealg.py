"""Finite-dimensional Lie algebra data: structure constants and invariants.

Structure constants are exact rationals with the bracket stored sparsely;
antisymmetry and the Jacobi identity are validated at construction.
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
    quantum algebra: order r maps to an invariant polynomial added with
    the r-th parameter power.  Corrections must start at order >= 1 so the
    classical part is untouched.
    """

    name: str
    poly: Poly
    section_correction: tuple[tuple[int, Poly], ...] = ()

    def corrections(self) -> dict[int, Poly]:
        return dict(self.section_correction)


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
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        if brackets:
            for (i, j), comps in brackets.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise DimensionError(f"bracket index ({i},{j}) out of range")
                if i == j:
                    if any(as_scalar(c) != 0 for c in comps.values()):
                        raise ValidationError("bracket of an element with itself")
                    continue
                clean = {
                    k: as_scalar(c) for k, c in comps.items() if as_scalar(c) != 0
                }
                for k in clean:
                    if not 0 <= k < dim:
                        raise DimensionError(f"bracket component {k} out of range")
                if clean:
                    table[(i, j)] = clean
        self._table = table
        self._validate_antisymmetry()
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
            for r, corr in gen.corrections().items():
                if r < 1:
                    raise ValidationError(
                        f"section correction of {gen.name!r} must start at order 1"
                    )
                if corr.nvars != dim or not self.is_invariant(corr):
                    raise ValidationError(
                        f"section correction of {gen.name!r} must be invariant"
                    )
        # normalization cache for the rewriting system, keyed by index word
        self._normal_forms: dict[tuple[int, ...], dict] = {}

    # -- structure constants -------------------------------------------------

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """Components of [x_i, x_j] on the basis, sparse."""
        if i == j:
            return {}
        if (i, j) in self._table:
            return self._table[(i, j)]
        if (j, i) in self._table:
            return {k: -c for k, c in self._table[(j, i)].items()}
        return {}

    def bracket_poly(self, i: int, j: int) -> Poly:
        return Poly(
            self.dim,
            {
                tuple(1 if t == k else 0 for t in range(self.dim)): c
                for k, c in self.bracket(i, j).items()
            },
        )

    def _validate_antisymmetry(self):
        for (i, j), comps in list(self._table.items()):
            if (j, i) in self._table:
                mirrored = self._table[(j, i)]
                for k in set(comps) | set(mirrored):
                    if comps.get(k, Fraction(0)) != -mirrored.get(k, Fraction(0)):
                        raise ValidationError(
                            f"structure constants not antisymmetric at ({i},{j})"
                        )

    def _validate_jacobi(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    acc: dict[int, Fraction] = {}

                    def fold(a: int, b: int, c: int):
                        # [[x_a, x_b], x_c]
                        for m, cab in self.bracket(a, b).items():
                            for l, cmc in self.bracket(m, c).items():
                                old = acc.get(l)
                                acc[l] = cab * cmc if old is None else old + cab * cmc

                    fold(i, j, k)
                    fold(j, k, i)
                    fold(k, i, j)
                    if any(v != 0 for v in acc.values()):
                        raise ValidationError(
                            "Jacobi identity fails on basis triple "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    # -- adjoint action on polynomials ------------------------------------------

    def ad_apply(self, i: int, s: Poly) -> Poly:
        """Adjoint derivation of basis element i acting on a polynomial."""
        if s.nvars != self.dim:
            raise DimensionError("polynomial does not live on this algebra")
        partials = [(j, s.partial(j)) for j in range(self.dim)]
        return poly_sum(self.dim, [
            ds * self.bracket_poly(i, j) for j, ds in partials if not ds.is_zero()
        ])

    def is_invariant(self, s: Poly) -> bool:
        return all(self.ad_apply(i, s).is_zero() for i in range(self.dim))

    def generator(self, name: str) -> InvariantGenerator:
        for gen in self.invariant_generators:
            if gen.name == name:
                return gen
        raise KeyError(f"no designated invariant generator named {name!r}")

