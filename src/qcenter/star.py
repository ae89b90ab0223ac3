"""Deformed product of polynomials on a symplectic space.

The product of two polynomials is a finite series: the order-l term is the
l-fold bivector contraction

    D_l(f, g) = (1 / (2^l l!)) * sum P[i1,j1]...P[il,jl]
                 (d_{i1}..d_{il} f) (d_{j1}..d_{jl} g),

which vanishes once l exceeds the degree of either factor, so products of
polynomials are computed exactly and only *stored* truncated.  D_0 is the
plain product and, for the constant antisymmetric bivector, the level-1
commutator term 2 D_1(f, g) is the Poisson bracket.

Contractions are organised through powers of the bivector symbol: the l-th
power of ``sum P[i,j] u_i v_j`` expands as ``sum C(a, b) u^a v^b`` and

    D_l(f, g) = sum S_l(a, b) (d^a f) (d^b g),   S_l = C / (2^l l!).

Every product, bracket and commutator in the package is one call of a
single kernel, ``StarProduct._contract``, on two finite expansions
``{order: Poly}``.  The kernel works in integers: each operand is brought
to integer numerators over one common denominator (the lcm of its term
denominators), and each ``S_l`` is kept as integer numerators over its own
denominator, computed once per product object on first use.  Exponent
tuples are packed into one integer, so multiplying monomials is an integer
addition.  Derivatives are taken one variable at a time on the packed
exponents, so the falling factorials build up in the numerators; each
d^a of each slot is computed once per call.  Sums accumulate as ``int`` in
one dict per output order, and one ``Fraction`` is built per output term
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import lshift
from typing import Iterable

from .errors import DimensionError, TruncationError, ValidationError
from .poly import Poly
from .series import HSeries
from .space import SymplecticSpace

Expansion = dict[int, Poly]
# a multi-index as its non-decreasing sequence of variable indices
Index = tuple[int, ...]
# S_l as (den, {a: [(b, numerator)]}): integer numerators over one denominator
SymbolPower = tuple[int, dict[Index, list[tuple[Index, int]]]]


class StarProduct:
    """Deformation product attached to a space and a truncation order."""

    def __init__(self, space: SymplecticSpace, order: int):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.space = space
        self.order = order
        self._symbol_powers: list[SymbolPower] = []

    # -- the contraction kernel ----------------------------------------------

    def _symbol_powers_up_to(self, level: int) -> list[SymbolPower]:
        """S_0 .. S_level (at least), each as integer numerators over one
        denominator, grouped by the left multi-index.  Built on first use
        from S_l = S_(l-1) * P / (2 l)."""
        powers = self._symbol_powers
        if not powers:
            powers.append((1, {(): [((), 1)]}))
        while len(powers) <= level:
            l = len(powers)
            den, prev = powers[-1]
            acc: dict[tuple[Index, Index], Fraction] = {}
            for a, row in prev.items():
                for b, c in row:
                    for i, j, value in self.space.bivector_entries():
                        key = (tuple(sorted(a + (i,))), tuple(sorted(b + (j,))))
                        acc[key] = acc.get(key, 0) + c * value
            scaled = {k: v / (2 * l * den) for k, v in acc.items() if v}
            new_den = lcm(*(v.denominator for v in scaled.values()))
            grouped: dict[Index, list[tuple[Index, int]]] = {}
            for (a, b), v in scaled.items():
                grouped.setdefault(a, []).append((b, int(v * new_den)))
            powers.append((new_den, grouped))
        return powers

    def _contract(
        self, A: Expansion, B: Expansion, cap: int | None = None, odd: bool = False
    ) -> Expansion:
        """Exact ``sum D_l(A[a], B[b]) hbar^(a+b+l)`` as {order: Poly}.

        Orders above ``cap`` are skipped (``None``: none are).  With ``odd``
        only odd levels are summed, each twice: D_l(g, f) = (-1)^l D_l(f, g)
        for an antisymmetric bivector, so this is the expansion of
        ``A*B - B*A``.
        """
        left = [(r, f.degree(), f) for r, f in A.items()
                if f.terms and (cap is None or r <= cap)]
        right = [(r, f.degree(), f) for r, f in B.items()
                 if f.terms and (cap is None or r <= cap)]
        if not left or not right:
            return {}
        first, step = (1, 2) if odd else (0, 1)
        deg_a = max([d for _, d, _ in left])
        deg_b = max([d for _, d, _ in right])
        top = min(deg_a, deg_b) if cap is None else min(deg_a, deg_b, cap)
        levels = self._symbol_powers_up_to(top)
        den_s = lcm(*[den for den, _ in levels[first:top + 1:step]])

        nv = self.space.nvars
        bits = (deg_a + deg_b).bit_length() or 1
        mask = (1 << bits) - 1
        shifts = range(0, bits * nv, bits)
        den_a, left = _integer_slots(left, shifts)
        den_b, right = _integer_slots(right, shifts)

        sums: dict[int, dict[int, int]] = {}
        for a, da, tables_a in left:
            for b, db, tables_b in right:
                last = min(da, db) if cap is None else min(da, db, cap - a - b)
                for level in range(first, last + 1, step):
                    den, symbol = levels[level]
                    weight = den_s // den * (2 if odd else 1)
                    tb = _derivatives(tables_b, level, shifts, mask)
                    acc = sums.setdefault(a + b + level, {})
                    get = acc.get
                    for alpha, x in _derivatives(tables_a, level, shifts, mask).items():
                        for beta, c in symbol.get(alpha, ()):
                            y = tb.get(beta)
                            if y is None:
                                continue
                            c *= weight
                            for k1, v1 in x:
                                v1 *= c
                                for k2, v2 in y:
                                    k = k1 + k2
                                    acc[k] = get(k, 0) + v1 * v2

        den = den_a * den_b * den_s
        out: Expansion = {}
        for r in sorted(sums):
            terms = {
                tuple([(k >> s) & mask for s in shifts]): Fraction(n, den)
                for k, n in sums[r].items()
                if n
            }
            if terms:
                out[r] = Poly._trusted(nv, terms)
        return out

    # -- products ------------------------------------------------------------------

    def _check_poly(self, f: Poly):
        if f.nvars != self.space.nvars:
            raise DimensionError("polynomial does not live on this space")

    def _check_series(self, F: HSeries, G: HSeries):
        if F.nvars != self.space.nvars or G.nvars != self.space.nvars:
            raise DimensionError("series do not live on this space")
        if F.order != G.order:
            raise TruncationError("operands carry different truncations")

    def bidifferential(self, f: Poly, g: Poly, level: int) -> Poly:
        """The order-``level`` term D_level(f, g), exact."""
        self._check_poly(f)
        self._check_poly(g)
        terms = self._contract({0: f}, {0: g}, level)
        return terms.get(level, Poly.zero(f.nvars))

    def product_terms(
        self, f: Poly, g: Poly, max_order: int | None = None
    ) -> dict[int, Poly]:
        """Exact expansion of f*g as {order: coefficient}; finitely many terms."""
        self._check_poly(f)
        self._check_poly(g)
        return self._contract({0: f}, {0: g}, max_order)

    def moyal(self, f: Poly, g: Poly) -> HSeries:
        """Deformed product of two polynomials, stored at the truncation."""
        return HSeries.from_terms(
            self.space.nvars, self.order, self.product_terms(f, g, self.order)
        )

    def star(self, F: HSeries, G: HSeries) -> HSeries:
        """Bilinear continuous extension of the product to truncated series."""
        self._check_series(F, G)
        if F.order != self.order:
            raise TruncationError("series truncation differs from the product's")
        terms = self._contract(_slots(F), _slots(G), self.order)
        return _series(self.space.nvars, self.order, terms)

    def embed(self, f: Poly) -> HSeries:
        return HSeries.from_poly(f, self.order)

    # -- brackets -----------------------------------------------------------------

    def poisson(self, f: Poly, g: Poly) -> Poly:
        """Poisson bracket sum P[i,j] d_i f d_j g: the level-1 commutator
        term."""
        self._check_poly(f)
        self._check_poly(g)
        return self._contract({0: f}, {0: g}, 1, odd=True).get(1) or Poly.zero(f.nvars)

    def commutator_terms(self, f: Poly, g: Poly, max_order: int | None = None
                         ) -> dict[int, Poly]:
        """Exact expansion of f*g - g*f.

        Even-order contractions are symmetric in the arguments, so only odd
        orders survive, each contributing twice its bidifferential term.
        """
        self._check_poly(f)
        self._check_poly(g)
        return self._contract({0: f}, {0: g}, max_order, odd=True)

    def star_commutator(self, F: HSeries, G: HSeries) -> HSeries:
        """F*G - G*F at the operands' truncation."""
        self._check_series(F, G)
        terms = self._contract(_slots(F), _slots(G), F.order, odd=True)
        return _series(self.space.nvars, F.order, terms)

    def commutator_poly(self, f: Poly, g: Poly) -> HSeries:
        return self.star_commutator(self.embed(f), self.embed(g))

    # -- exact arithmetic on untruncated expansions --------------------------------

    def expansion_product(self, A: Expansion, B: Expansion) -> Expansion:
        """Exact product of two finite expansions {order: Poly}."""
        return self._contract(A, B)


def _integer_slots(slots: list[tuple[int, int, Poly]], shifts: range):
    """Common denominator of the slots' terms and, per slot, (order,
    degree, derivative tables) where level 0 holds the integer numerators
    keyed by packed exponent."""
    den = lcm(*[c.denominator for _, _, f in slots for c in f.terms.values()])
    return den, [
        (r, d, [{(): [
            (sum(map(lshift, e, shifts)), c.numerator * (den // c.denominator))
            for e, c in f.terms.items()
        ]}])
        for r, d, f in slots
    ]


def _derivatives(tables: list[dict], level: int, shifts: range, mask: int
                 ) -> dict[Index, list[tuple[int, int]]]:
    """The nonzero d^alpha of one slot with |alpha| == level, as
    {alpha: [(packed exponent, numerator)]}.  ``tables[l]`` holds level l
    and is extended on demand; each step differentiates once more, so the
    falling factorials build up in the numerators."""
    nv = len(shifts)
    while len(tables) <= level:
        nxt: dict[Index, list[tuple[int, int]]] = {}
        for alpha, terms in tables[-1].items():
            # raise only indices at or after the last raised one, so each
            # multi-index is reached once
            for i in range(alpha[-1] if alpha else 0, nv):
                s = shifts[i]
                d = [(k - (1 << s), c * e) for k, c in terms if (e := (k >> s) & mask)]
                if d:
                    nxt[alpha + (i,)] = d
        tables.append(nxt)
    return tables[level]


def _slots(F: HSeries) -> Expansion:
    return dict(enumerate(F.coeffs))


def _series(nvars: int, order: int, terms: Expansion) -> HSeries:
    zero = Poly.zero(nvars)
    return HSeries(nvars, order, [terms.get(r, zero) for r in range(order + 1)])


# -- reports ----------------------------------------------------------------------


@dataclass
class CheckEntry:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class CheckReport:
    name: str
    entries: list[CheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, label: str, passed: bool, detail: str = ""):
        self.entries.append(CheckEntry(label, passed, detail))

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": len(self.entries),
            "failures": [
                {"label": e.label, "detail": e.detail} for e in self.failures()
            ],
        }


def _first_nonzero(expansion: dict[int, Poly]) -> tuple[int, Poly] | None:
    for r in sorted(expansion):
        if not expansion[r].is_zero():
            return r, expansion[r]
    return None


def check_axioms(star: StarProduct, samples: Iterable[tuple[Poly, Poly, Poly]]
                 ) -> CheckReport:
    """Executable product axioms on sample triples.

    Verifies, with exact arithmetic on the full finite expansions:
    associativity, the two-sided unit, the classical-limit conditions
    (order-0 term is the plain product; the order-1 commutator term is the
    Poisson bracket), and order-locality of the truncated product
    (coefficients up to order m ignore perturbations above order m).
    """
    report = CheckReport("axioms")
    one = star.space.one()
    nv = star.space.nvars
    for idx, (f, g, h) in enumerate(samples):
        tag = f"sample {idx}"
        fg = star.product_terms(f, g)
        gh = star.product_terms(g, h)
        left = star.expansion_product(fg, {0: h})
        right = star.expansion_product({0: f}, gh)
        assoc = {
            r: left.get(r, Poly.zero(nv)) - right.get(r, Poly.zero(nv))
            for r in set(left) | set(right)
        }
        bad = _first_nonzero(assoc)
        report.add(
            f"{tag}: associativity",
            bad is None,
            "" if bad is None else f"residual at order {bad[0]}: {bad[1].to_string(star.space.names)}",
        )

        unit_ok = (
            star.product_terms(one, f) == ({0: f} if not f.is_zero() else {})
            and star.product_terms(f, one) == ({0: f} if not f.is_zero() else {})
        )
        report.add(f"{tag}: unit", unit_ok)

        order0_ok = fg.get(0, Poly.zero(nv)) == f * g
        report.add(f"{tag}: order-0 term is the plain product", order0_ok)

        # commutator recomputed from the product expansions themselves so
        # the membership conditions constrain the product map directly
        gf = star.product_terms(g, f)
        comm = {
            r: fg.get(r, Poly.zero(nv)) - gf.get(r, Poly.zero(nv))
            for r in set(fg) | set(gf)
        }
        comm = {r: term for r, term in comm.items() if not term.is_zero()}
        bracket_ok = comm.get(1, Poly.zero(nv)) == star.poisson(f, g) and all(
            r >= 1 for r in comm
        )
        report.add(f"{tag}: order-1 commutator is the Poisson bracket", bracket_ok)

        # order-locality: perturbing g above order m leaves orders <= m alone
        m = 1
        G = star.embed(g)
        G_pert = G + star.embed(h).hbar_shift(m + 1)
        base = star.star(star.embed(f), G)
        pert = star.star(star.embed(f), G_pert)
        local_ok = all(
            base.coefficient(r) == pert.coefficient(r) for r in range(m + 1)
        )
        report.add(f"{tag}: order-locality", local_ok)
    return report


def check_homogeneity(star: StarProduct, samples: Iterable[tuple[Poly, Poly]]
                      ) -> CheckReport:
    """Degree law of the expansion terms for weight-homogeneous inputs.

    Each order-l term of the product of weight-homogeneous polynomials is
    weight-homogeneous, with weight raised by l times the parameter weight
    relative to the sum of the input weights: the order shift compensates
    exactly, keeping the full product homogeneous.
    """
    space = star.space
    space.check_graded_bivector()
    report = CheckReport("homogeneity")
    k = space.hbar_weight
    for idx, (f, g) in enumerate(samples):
        tag = f"sample {idx}"
        wf = space.poly_weight(f)
        wg = space.poly_weight(g)
        if (not f.is_zero() and wf is None) or (not g.is_zero() and wg is None):
            raise ValidationError(f"{tag}: inputs must be weight-homogeneous")
        if f.is_zero() or g.is_zero():
            report.add(f"{tag}: vacuous (zero factor)", True)
            continue
        ok = True
        detail = ""
        for level, term in star.product_terms(f, g).items():
            expected = wf + wg + k * level
            actual = space.poly_weight(term)
            if actual != expected:
                ok = False
                detail = (
                    f"order {level}: weight {actual}, expected {expected}"
                )
                break
        report.add(f"{tag}: term degree law", ok, detail)
    return report
