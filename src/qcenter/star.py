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
``{order: Poly}`` in *prepared* form (``Prepared``).  The kernel works in
integers: each slot of a prepared operand holds integer numerators over one
denominator (the lcm of its term denominators), and each ``S_l`` is kept as
integer numerators over its own denominator, computed once per product
object on first use.  Exponent tuples are packed into one integer, so
multiplying monomials is an integer addition.  Derivatives are taken one
variable at a time on the packed exponents, so the falling factorials build
up in the numerators; each d^a of each slot is computed once per operand,
not once per call: a prepared operand keeps its derivative tables and every
contraction it enters extends and reuses them.  Sums accumulate as ``int``
in one dict per output order, and one ``Fraction`` is built per output term
at the end.

Every contraction method accepts a prepared operand in place of a
polynomial, an expansion or a series, so a caller that meets the same
operand in several products prepares it once (``StarProduct.prepare``).
Packed fields are at least ``_MIN_BITS`` wide and sized to the largest
exponent sum a pair can produce; a slot is repacked, its derivative tables
dropped, only when a partner needs wider fields, so widths only grow and
no exponent sum overflows its field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import lshift
from typing import Iterable, Mapping, Union

from .errors import DimensionError, TruncationError, ValidationError
from .poly import Poly
from .series import HSeries
from .space import SymplecticSpace

Expansion = dict[int, Poly]
# a multi-index as its non-decreasing sequence of variable indices
Index = tuple[int, ...]
# S_l as (den, {a: [(b, numerator)]}): integer numerators over one denominator
SymbolPower = tuple[int, dict[Index, list[tuple[Index, int]]]]
# d^alpha of one slot for every alpha of one length: {alpha: [(packed, numerator)]}
Table = dict[Index, list[tuple[int, int]]]

# Narrowest packed field: exponent sums up to 15 (degree-4 samples and their
# products) fit without repacking.
_MIN_BITS = 4


class _Slot:
    """One nonzero polynomial as integer numerators over ``den``.

    ``tables[l]`` holds d^alpha for every multi-index of length l, with
    exponents packed ``bits`` to a variable.  Level 0 is packed on first
    use and again (derivatives dropped) whenever a contraction needs other
    widths; higher levels are added on demand.
    """

    __slots__ = ("poly", "degree", "den", "bits", "tables")

    def __init__(self, f: Poly):
        self.poly = f
        self.degree = f.degree()
        self.den = lcm(*[c.denominator for c in f.terms.values()])
        self.bits = 0
        self.tables: list[Table] = []

    def pack(self, bits: int, shifts: range):
        if self.bits == bits:
            return
        den = self.den
        self.tables = [{(): [
            (sum(map(lshift, e, shifts)), c.numerator * (den // c.denominator))
            for e, c in self.poly.terms.items()
        ]}]
        self.bits = bits

    def derivatives(self, level: int, shifts: range, mask: int) -> Table:
        """The nonzero d^alpha with |alpha| == level.  Each new level
        differentiates the previous one once more, raising only indices at
        or after the last raised one, so each multi-index is reached once."""
        tables = self.tables
        nv = len(shifts)
        while len(tables) <= level:
            nxt: Table = {}
            for alpha, terms in tables[-1].items():
                for i in range(alpha[-1] if alpha else 0, nv):
                    s = shifts[i]
                    d = [(k - (1 << s), c * e) for k, c in terms
                         if (e := (k >> s) & mask)]
                    if d:
                        nxt[alpha + (i,)] = d
            tables.append(nxt)
        return tables[level]


class Prepared:
    """A finite expansion {order: Poly} in the kernel's integer form.

    Built by ``StarProduct.prepare``.  Its slots keep their numerators and
    derivative tables across calls, so it costs its set-up once however
    many contractions it enters.  It holds nothing else: keep one for as
    long as its polynomials recur and then let it go.
    """

    __slots__ = ("nvars", "slots")

    def __init__(self, nvars: int, slots: dict[int, _Slot]):
        self.nvars = nvars
        self.slots = slots


Operand = Union[Poly, HSeries, Mapping[int, Union[Poly, Prepared]], Prepared]


class StarProduct:
    """Deformation product attached to a space and a truncation order."""

    def __init__(self, space: SymplecticSpace, order: int):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.space = space
        self.order = order
        self._symbol_powers: list[SymbolPower] = []

    # -- the contraction kernel ----------------------------------------------

    def prepare(self, x: Operand) -> Prepared:
        """The kernel form of a polynomial (one slot at order 0), a series
        or an expansion {order: Poly | Prepared}; a prepared value shares
        its slots, shifted by its key.  Prepared input is returned as is."""
        return self._prepare(x)

    def _prepare(self, x: Operand) -> Prepared:
        # Contraction methods convert their operands here rather than
        # through ``prepare``: bench/tracer.py wraps every public method,
        # and two wrapped calls per contraction would swamp the spans.
        nv = self.space.nvars
        if isinstance(x, Poly):
            if x.nvars != nv:
                raise DimensionError("polynomial does not live on this space")
            return Prepared(nv, {0: _Slot(x)} if x.terms else {})
        if isinstance(x, Prepared):
            if x.nvars != nv:
                raise DimensionError("operand does not live on this space")
            return x
        if isinstance(x, HSeries):
            x = dict(enumerate(x.coeffs))
        slots: dict[int, _Slot] = {}
        for r, v in x.items():
            for s, slot in self._prepare(v).slots.items():
                if r + s in slots:
                    raise ValueError(f"two prepared parts at order {r + s}")
                slots[r + s] = slot
        return Prepared(nv, slots)

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
        self, A: Prepared, B: Prepared, cap: int | None = None, odd: bool = False
    ) -> Expansion:
        """Exact ``sum D_l(A[a], B[b]) hbar^(a+b+l)`` as {order: Poly}.

        Orders above ``cap`` are skipped (``None``: none are).  With ``odd``
        only odd levels are summed, each twice: D_l(g, f) = (-1)^l D_l(f, g)
        for an antisymmetric bivector, so this is the expansion of
        ``A*B - B*A``.
        """
        left = [(r, s) for r, s in A.slots.items() if cap is None or r <= cap]
        right = [(r, s) for r, s in B.slots.items() if cap is None or r <= cap]
        if not left or not right:
            return {}
        first, step = (1, 2) if odd else (0, 1)
        deg_a = max([s.degree for _, s in left])
        deg_b = max([s.degree for _, s in right])
        top = min(deg_a, deg_b) if cap is None else min(deg_a, deg_b, cap)
        levels = self._symbol_powers_up_to(top)
        den_s = lcm(*[den for den, _ in levels[first:top + 1:step]])

        # every slot at one width that holds the largest exponent sum; a
        # slot packed wider for an earlier partner sets it
        nv = self.space.nvars
        bits = max(_MIN_BITS, (deg_a + deg_b).bit_length(),
                   *[s.bits for _, s in left], *[s.bits for _, s in right])
        mask = (1 << bits) - 1
        shifts = range(0, bits * nv, bits)
        for _, s in left + right:
            s.pack(bits, shifts)
        den_a = lcm(*[s.den for _, s in left])
        den_b = lcm(*[s.den for _, s in right])

        sums: dict[int, dict[int, int]] = {}
        for a, sa in left:
            for b, sb in right:
                last = min(sa.degree, sb.degree)
                if cap is not None:
                    last = min(last, cap - a - b)
                scale = den_a // sa.den * (den_b // sb.den) * (2 if odd else 1)
                for level in range(first, last + 1, step):
                    den, symbol = levels[level]
                    weight = den_s // den * scale
                    ta = sa.derivatives(level, shifts, mask)
                    tb = sb.derivatives(level, shifts, mask)
                    acc = sums.setdefault(a + b + level, {})
                    get = acc.get
                    for alpha, x in ta.items():
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

    def bidifferential(self, f: Poly | Prepared, g: Poly | Prepared, level: int
                       ) -> Poly:
        """The order-``level`` term D_level(f, g), exact."""
        terms = self._contract(self._prepare(f), self._prepare(g), level)
        return terms.get(level, Poly.zero(self.space.nvars))

    def product_terms(
        self, f: Poly | Prepared, g: Poly | Prepared, max_order: int | None = None
    ) -> dict[int, Poly]:
        """Exact expansion of f*g as {order: coefficient}; finitely many terms."""
        return self._contract(self._prepare(f), self._prepare(g), max_order)

    def moyal(self, f: Poly, g: Poly) -> HSeries:
        """Deformed product of two polynomials, stored at the truncation."""
        return HSeries.from_terms(
            self.space.nvars, self.order, self.product_terms(f, g, self.order)
        )

    def star(self, F: HSeries | Prepared, G: HSeries | Prepared) -> HSeries:
        """Bilinear continuous extension of the product to truncated series.
        A prepared operand stands for its expansion at this truncation."""
        for X in (F, G):
            if isinstance(X, HSeries) and X.order != self.order:
                raise TruncationError("series truncation differs from the product's")
        terms = self._contract(self._prepare(F), self._prepare(G), self.order)
        return _series(self.space.nvars, self.order, terms)

    def embed(self, f: Poly) -> HSeries:
        return HSeries.from_poly(f, self.order)

    # -- brackets -----------------------------------------------------------------

    def poisson(self, f: Poly | Prepared, g: Poly | Prepared) -> Poly:
        """Poisson bracket sum P[i,j] d_i f d_j g: the level-1 commutator
        term."""
        terms = self._contract(self._prepare(f), self._prepare(g), 1, odd=True)
        return terms.get(1) or Poly.zero(self.space.nvars)

    def commutator_terms(self, f: Poly | Prepared, g: Poly | Prepared,
                         max_order: int | None = None) -> dict[int, Poly]:
        """Exact expansion of f*g - g*f.

        Even-order contractions are symmetric in the arguments, so only odd
        orders survive, each contributing twice its bidifferential term.
        """
        return self._contract(self._prepare(f), self._prepare(g), max_order, odd=True)

    def star_commutator(self, F: HSeries, G: HSeries) -> HSeries:
        """F*G - G*F at the operands' truncation."""
        if F.order != G.order:
            raise TruncationError("operands carry different truncations")
        terms = self._contract(self._prepare(F), self._prepare(G), F.order, odd=True)
        return _series(self.space.nvars, F.order, terms)

    def commutator_poly(self, f: Poly, g: Poly) -> HSeries:
        return self.star_commutator(self.embed(f), self.embed(g))

    # -- exact arithmetic on untruncated expansions --------------------------------

    def expansion_product(self, A: Expansion | Prepared, B: Expansion | Prepared
                          ) -> Expansion:
        """Exact product of two finite expansions {order: Poly}."""
        return self._contract(self._prepare(A), self._prepare(B))


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

    Each triple is prepared once and passed to the public product methods,
    so a subclass overriding them is what gets checked.  Expansions are
    compared for equality first; a residual is built only for a failure.
    """
    report = CheckReport("axioms")
    nv = star.space.nvars
    zero = Poly.zero(nv)
    one = star.prepare(star.space.one())
    for idx, (f, g, h) in enumerate(samples):
        tag = f"sample {idx}"
        pf, pg, ph = star.prepare(f), star.prepare(g), star.prepare(h)
        fg = star.product_terms(pf, pg)
        gh = star.product_terms(pg, ph)
        left = star.expansion_product(fg, ph)
        right = star.expansion_product(pf, gh)
        bad = None
        if left != right:
            bad = _first_nonzero({
                r: left.get(r, zero) - right.get(r, zero)
                for r in set(left) | set(right)
            })
        report.add(
            f"{tag}: associativity",
            bad is None,
            "" if bad is None else f"residual at order {bad[0]}: {bad[1].to_string(star.space.names)}",
        )

        alone = {0: f} if not f.is_zero() else {}
        unit_ok = (
            star.product_terms(one, pf) == alone
            and star.product_terms(pf, one) == alone
        )
        report.add(f"{tag}: unit", unit_ok)

        order0_ok = fg.get(0, zero) == f * g
        report.add(f"{tag}: order-0 term is the plain product", order0_ok)

        # the commutator fg - gf is read off the product expansions
        # themselves, so the conditions constrain the product map directly:
        # nothing below order 1, and the Poisson bracket at order 1
        gf = star.product_terms(pg, pf)
        bracket_ok = fg.get(1, zero) - gf.get(1, zero) == star.poisson(pf, pg) and all(
            fg.get(r, zero) == gf.get(r, zero) for r in set(fg) | set(gf) if r < 1
        )
        report.add(f"{tag}: order-1 commutator is the Poisson bracket", bracket_ok)

        # order-locality: perturbing g above order m leaves orders <= m alone
        m = 1
        base = star.star(pf, pg)
        pert = star.star(pf, star.prepare({0: pg, m + 1: ph}))
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
