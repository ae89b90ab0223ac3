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
``{order: Poly}`` in *prepared* form (``Prepared``).  An expansion holds
only its nonzero orders, which is also how ``HSeries.terms`` stores a
truncated series: a series enters the kernel as its ``terms``, and a
truncated product is the kernel's capped output, wrapped as it is.

The kernel works in integers: each slot of a prepared operand holds integer
numerators over one denominator (the lcm of its term denominators), and
each ``S_l`` is kept as integer numerators over its own denominator,
computed once per product object on first use together with the lcm of the
denominators up to it.  Exponent tuples are packed into one integer, so
multiplying monomials is an integer addition.  Derivatives are taken one
variable at a time on the packed exponents, so the falling factorials build
up in the factors.  Each monomial is differentiated once per product object
and field width, not once per slot it occurs in: the product keeps, per
width, the nonzero derivatives of every packed monomial it has met, level by
level, as (multi-index, packed exponent, falling-factorial factor).  A
slot's level-l table {a: [(packed, numerator)]} is these lists of its
terms' monomials scaled by the terms' numerators; a prepared operand keeps
its tables, so every contraction it enters extends and reuses them.  Sums
accumulate as ``int`` in one dict per output order.  The product object
also keeps, per field width, the exponent tuple of every packed output
monomial it has unpacked, and per denominator the ``Fraction`` of every
numerator it has put over it, so each distinct output monomial is unpacked
once and each distinct output coefficient is built once, not once per term
of every call.  Beside that per-denominator table it keeps a value table
{(numerator, denominator): Fraction} in lowest terms, read only when the
per-denominator table misses: a new numerator over a denominator stores the
value table's object, so equal coefficients of different products are one
object (the two sides of an associativity check are put over different
denominators), and ``dict`` and ``Poly`` equality settle them by identity.
Only these immutable values are shared: every call returns fresh term dicts
and no result is cached.

Every contraction method accepts a prepared operand in place of a
polynomial, an expansion or a series, so a caller that meets the same
operand in several products prepares it once (``StarProduct.prepare``).
Preparing a series checks that it carries the product's truncation.  A
prepared operand carries everything a call reads of it: its slots by
order, the highest slot degree, the lcm of the slot denominators and the
highest order.  A call reads these facts instead of scanning the slots,
and scans only when its cap drops a slot; the kept slots then contract
under the whole operand's degree and denominator, which is exact, since a
larger degree only widens the packed fields and a larger denominator only
enlarges the common one that the output ``Fraction``s reduce.  The
kernel's output is sorted, nonzero and within the cap, so the series
products wrap it without checking it again.
Packed fields are at least ``_MIN_BITS`` wide and sized to the largest
exponent sum a pair can produce; a slot is repacked, its derivative tables
dropped and rebuilt from the wider width's monomial lists, only when a
partner needs wider fields, so widths only grow and no exponent sum
overflows its field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import lshift
from typing import Iterable, Mapping, NamedTuple, Union

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
# d^alpha of one monomial for every alpha of one length with a nonzero
# derivative: (alpha, packed exponent, falling-factorial factor)
Derivatives = tuple[tuple[Index, int, int], ...]

# Narrowest packed field: exponent sums up to 15 (degree-4 samples and their
# products) fit without repacking.
_MIN_BITS = 4


class _Width:
    """What a product keeps for one packed field width ``bits``.

    ``monomials`` maps a packed monomial x^e to its derivatives by level:
    entry l lists d^alpha x^e = factor * x^(e - alpha) for every multi-index
    alpha of length l with a nonzero factor.  ``unpacked`` maps a packed
    output monomial to its exponent tuple.  Both are filled on first use and
    hold only ints and tuples.
    """

    __slots__ = ("bits", "mask", "shifts", "monomials", "unpacked")

    def __init__(self, bits: int, nvars: int):
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.shifts = range(0, bits * nvars, bits)
        self.monomials: dict[int, list[Derivatives]] = {}
        self.unpacked: dict[int, tuple[int, ...]] = {}

    def derivatives(self, k: int, level: int) -> list[Derivatives]:
        """Levels 0 .. ``level`` (at least) of the packed monomial ``k``.
        Each new level differentiates the previous one once more, raising
        only indices at or after the last raised one, so each multi-index
        is reached once."""
        levels = self.monomials.get(k)
        if levels is None:
            levels = self.monomials[k] = [(((), k, 1),)]
        shifts, mask = self.shifts, self.mask
        while len(levels) <= level:
            nxt = []
            for alpha, m, f in levels[-1]:
                for i in range(alpha[-1] if alpha else 0, len(shifts)):
                    s = shifts[i]
                    if e := (m >> s) & mask:
                        nxt.append((alpha + (i,), m - (1 << s), f * e))
            levels.append(tuple(nxt))
        return levels


class _Slot:
    """One nonzero polynomial as integer numerators over ``den``.

    ``tables[l]`` holds d^alpha for every multi-index of length l, with
    exponents packed ``bits`` to a variable.  Level 0 is packed on first
    use and again (derivatives dropped) whenever a contraction needs other
    widths; higher levels are added on demand, each term's derivative list
    from the width scaled by the term's numerator.
    """

    __slots__ = ("poly", "degree", "den", "bits", "tables")

    def __init__(self, f: Poly):
        self.poly = f
        self.degree = f.degree()
        self.den = lcm(*[c.denominator for c in f.terms.values()])
        self.bits = 0
        self.tables: list[Table] = []

    def pack(self, width: _Width):
        den = self.den
        shifts = width.shifts
        self.tables = [{(): [
            (sum(map(lshift, e, shifts)), c.numerator * (den // c.denominator))
            for e, c in self.poly.terms.items()
        ]}]
        self.bits = width.bits

    def derivatives(self, level: int, width: _Width) -> list[Table]:
        """The tables of levels 0 .. ``level`` (at least): level l holds the
        nonzero d^alpha with |alpha| == l.  Distinct terms have distinct
        derivatives, so each list is its terms' scaled lists in term
        order."""
        tables = self.tables
        monomials = width.monomials
        terms = []
        for k, c in tables[0][()]:
            levels = monomials.get(k)
            if levels is None or len(levels) <= level:
                levels = width.derivatives(k, level)
            terms.append((c, levels))
        while len(tables) <= level:
            l = len(tables)
            table: Table = {}
            get = table.get
            for c, levels in terms:
                for alpha, m, f in levels[l]:
                    d = get(alpha)
                    if d is None:
                        table[alpha] = [(m, c * f)]
                    else:
                        d.append((m, c * f))
            tables.append(table)
        return tables


class Prepared:
    """A finite expansion {order: Poly} in the kernel's integer form.

    Built by ``StarProduct.prepare``.  It carries everything the kernel
    reads of an operand: ``slots``, one ``_Slot`` per nonzero order, and
    the facts about them, ``degree`` (the highest slot degree), ``den``
    (the lcm of the slot denominators) and ``top`` (the highest order).
    The slots keep their numerators and derivative tables across calls,
    so an operand costs its set-up once however many contractions it
    enters.  It holds nothing else: keep one for as long as its
    polynomials recur and then let it go.
    """

    __slots__ = ("nvars", "slots", "degree", "den", "top")

    def __init__(self, nvars: int, slots: dict[int, _Slot]):
        self.nvars = nvars
        self.slots = slots
        self.degree = max([s.degree for s in slots.values()], default=-1)
        self.den = lcm(*[s.den for s in slots.values()])
        self.top = max(slots, default=-1)

    @classmethod
    def _single(cls, nvars: int, slot: _Slot) -> "Prepared":
        """One slot at order 0, its facts set without a scan."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.slots = {0: slot}
        self.degree = slot.degree
        self.den = slot.den
        self.top = 0
        return self


Operand = Union[Poly, HSeries, Mapping[int, Union[Poly, Prepared]], Prepared]


class StarProduct:
    """Deformation product attached to a space and a truncation order."""

    def __init__(self, space: SymplecticSpace, order: int):
        if order < 0:
            raise ValueError("truncation order must be non-negative")
        self.space = space
        self.order = order
        self._symbol_powers: list[SymbolPower] = []
        # entry l: (lcm of the denominators of S_0..S_l, lcm of those of
        # the odd levels among them), a call's common symbol denominator
        # when l is its top level
        self._level_dens: list[tuple[int, int]] = []
        # {bits: monomial derivatives and unpacked output monomials}
        self._widths: dict[int, _Width] = {}
        # {den: {numerator: Fraction(numerator, den)}} for output coefficients
        self._coefficients: dict[int, dict[int, Fraction]] = {}
        # {(numerator, denominator): Fraction} in lowest terms: the one
        # object per value that every entry of ``_coefficients`` holds
        self._values: dict[tuple[int, int], Fraction] = {}

    # -- the contraction kernel ----------------------------------------------

    def prepare(self, x: Operand) -> Prepared:
        """The kernel form of a polynomial (one slot at order 0), a series
        at this product's truncation or an expansion {order: Poly | Prepared};
        a prepared value shares its slots, shifted by its key.  Prepared
        input is returned as is."""
        return self._prepare(x)

    def _prepare(self, x: Operand) -> Prepared:
        # Contraction methods convert their operands here rather than
        # through ``prepare``: bench/tracer.py wraps every public method,
        # and two wrapped calls per contraction would swamp the spans.
        nv = self.space.nvars
        if isinstance(x, Poly):
            slot = self._slot(x)
            return Prepared(nv, {}) if slot is None else Prepared._single(nv, slot)
        if isinstance(x, Prepared):
            if x.nvars != nv:
                raise DimensionError("operand does not live on this space")
            return x
        if isinstance(x, HSeries):
            if x.order != self.order:
                raise TruncationError("series truncation differs from the product's")
            x = x.terms
        slots: dict[int, _Slot] = {}
        for r, v in x.items():
            if r < 0:
                raise ValueError(f"negative order {r} in an expansion")
            if isinstance(v, Poly):
                slot = self._slot(v)
                parts = () if slot is None else ((0, slot),)
            else:
                parts = self._prepare(v).slots.items()
            for s, slot in parts:
                if r + s in slots:
                    raise ValueError(f"two prepared parts at order {r + s}")
                slots[r + s] = slot
        return Prepared(nv, slots)

    def _slot(self, f: Poly) -> _Slot | None:
        if f.nvars != self.space.nvars:
            raise DimensionError("polynomial does not live on this space")
        return _Slot(f) if f.terms else None

    def _symbol_powers_up_to(self, level: int) -> list[SymbolPower]:
        """S_0 .. S_level (at least), each as integer numerators over one
        denominator, grouped by the left multi-index.  Built on first use
        from S_l = S_(l-1) * P / (2 l) in integers: P is scaled once by the
        lcm of its denominators, and each level is divided by the gcd of
        its numerators and its denominator."""
        powers = self._symbol_powers
        dens = self._level_dens
        if not powers:
            powers.append((1, {(): [((), 1)]}))
            dens.append((1, 1))
        entries = self.space.bivector_entries()
        den_p = lcm(*(v.denominator for _, _, v in entries))
        entries = [(i, j, v.numerator * (den_p // v.denominator))
                   for i, j, v in entries]
        while len(powers) <= level:
            l = len(powers)
            den, prev = powers[-1]
            acc: dict[tuple[Index, Index], int] = {}
            for a, row in prev.items():
                for b, c in row:
                    for i, j, value in entries:
                        key = (tuple(sorted(a + (i,))), tuple(sorted(b + (j,))))
                        acc[key] = acc.get(key, 0) + c * value
            total = 2 * l * den * den_p
            g = gcd(total, *acc.values())
            grouped: dict[Index, list[tuple[Index, int]]] = {}
            for (a, b), v in acc.items():
                if v:
                    grouped.setdefault(a, []).append((b, v // g))
            new_den = total // g
            powers.append((new_den, grouped))
            every, odd = dens[-1]
            dens.append((lcm(every, new_den), lcm(odd, new_den) if l % 2 else odd))
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
        if not A.slots or not B.slots:
            return {}
        left = A.slots.items()
        right = B.slots.items()
        deg_a, deg_b = A.degree, B.degree
        top = deg_a if deg_a < deg_b else deg_b
        if cap is not None:
            # a dropped slot may leave the operand's degree and denominator
            # larger than the kept slots need: that only widens the fields
            # and the common denominator, which the Fractions reduce
            if A.top > cap:
                left = [(r, s) for r, s in left if r <= cap]
            if B.top > cap:
                right = [(r, s) for r, s in right if r <= cap]
            if not left or not right:
                return {}
            if cap < top:
                top = cap
        first, step = (1, 2) if odd else (0, 1)
        levels = self._symbol_powers
        if len(levels) <= top:
            levels = self._symbol_powers_up_to(top)
        den_s = self._level_dens[top][odd]

        # every slot at one width that holds the largest exponent sum; a
        # slot packed wider for an earlier partner sets it
        bits = (deg_a + deg_b).bit_length()
        if bits < _MIN_BITS:
            bits = _MIN_BITS
        for _, s in left:
            if s.bits > bits:
                bits = s.bits
        for _, s in right:
            if s.bits > bits:
                bits = s.bits
        nv = self.space.nvars
        width = self._widths.get(bits)
        if width is None:
            width = self._widths[bits] = _Width(bits, nv)
        for _, s in left:
            if s.bits != bits:
                s.pack(width)
        for _, s in right:
            if s.bits != bits:
                s.pack(width)
        den_a, den_b = A.den, B.den
        two = 2 if odd else 1

        sums: dict[int, dict[int, int]] = {}
        for a, sa in left:
            for b, sb in right:
                last = sa.degree if sa.degree < sb.degree else sb.degree
                if cap is not None and cap - a - b < last:
                    last = cap - a - b
                if last < first:
                    continue
                last -= (last - first) % step
                scale = den_a // sa.den * (den_b // sb.den) * two
                tables_a = sa.tables
                if len(tables_a) <= last:
                    tables_a = sa.derivatives(last, width)
                tables_b = sb.tables
                if len(tables_b) <= last:
                    tables_b = sb.derivatives(last, width)
                for level in range(first, last + 1, step):
                    den, symbol = levels[level]
                    weight = den_s // den * scale
                    tb = tables_b[level]
                    acc = sums.setdefault(a + b + level, {})
                    get = acc.get
                    for alpha, x in tables_a[level].items():
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
        unpacked = width.unpacked
        mask, shifts = width.mask, width.shifts
        coefficients = self._coefficients.setdefault(den, {})
        values = self._values
        out: Expansion = {}
        for r in sorted(sums):
            terms = {}
            for k, n in sums[r].items():
                if n:
                    e = unpacked.get(k)
                    if e is None:
                        e = unpacked[k] = tuple([(k >> s) & mask for s in shifts])
                    c = coefficients.get(n)
                    if c is None:
                        c = Fraction(n, den)
                        c = coefficients[n] = values.setdefault(
                            (c.numerator, c.denominator), c)
                    terms[e] = c
            if terms:
                out[r] = Poly._trusted(nv, terms)
        return out

    # -- products ------------------------------------------------------------------

    def bidifferential(self, f: Poly | Prepared, g: Poly | Prepared, level: int
                       ) -> Poly:
        """The order-``level`` term D_level(f, g), exact."""
        terms = self._contract(self._prepare(f), self._prepare(g), level)
        return terms.get(level, Poly.zero(self.space.nvars))

    def product_terms(self, f: Poly | Prepared, g: Poly | Prepared
                      ) -> dict[int, Poly]:
        """Exact expansion of f*g as {order: coefficient}; finitely many terms."""
        return self._contract(self._prepare(f), self._prepare(g))

    def star(self, F: HSeries | Prepared, G: HSeries | Prepared) -> HSeries:
        """Bilinear continuous extension of the product to truncated series.
        A prepared operand stands for its expansion at this truncation."""
        terms = self._contract(self._prepare(F), self._prepare(G), self.order)
        return HSeries._trusted(self.space.nvars, self.order, terms)

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

    def star_commutator(self, F: HSeries | Prepared, G: HSeries | Prepared
                        ) -> HSeries:
        """F*G - G*F at this truncation; a prepared operand stands for its
        expansion at this truncation."""
        terms = self._contract(self._prepare(F), self._prepare(G), self.order,
                               odd=True)
        return HSeries._trusted(self.space.nvars, self.order, terms)

    # -- exact arithmetic on untruncated expansions --------------------------------

    def expansion_product(self, A: Expansion | Prepared, B: Expansion | Prepared
                          ) -> Expansion:
        """Exact product of two finite expansions {order: Poly}."""
        return self._contract(self._prepare(A), self._prepare(B))


# -- reports ----------------------------------------------------------------------


class CheckEntry(NamedTuple):
    label: str
    detail: str = ""


class CheckReport:
    """A run of named checks: ``checks`` counts them all, ``failed`` keeps
    the ones that failed."""

    __slots__ = ("name", "checks", "failed")

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failed: list[CheckEntry] = []

    @property
    def passed(self) -> bool:
        return not self.failed

    def add(self, label: str, passed: bool, detail: str = ""):
        self.checks += 1
        if not passed:
            self.failed.append(CheckEntry(label, detail))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": [
                {"label": e.label, "detail": e.detail} for e in self.failed
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

        # order-locality: perturbing g above order m leaves orders <= m
        # alone, read up to the truncation
        m = 1
        base = star.star(pf, pg)
        pert = star.star(pf, star.prepare({0: pg, m + 1: ph}))
        local_ok = all(
            base.coefficient(r) == pert.coefficient(r)
            for r in range(min(m, star.order) + 1)
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
