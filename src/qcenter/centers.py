"""Degree-by-degree invariants, Poisson centers and quantum centers.

Invariance is infinitesimal: a polynomial is invariant when its bracket
with every hamiltonian vanishes (the group is connected, so this is
equivalent to invariance under the group).  Centers are computed per
degree as exact kernels:

* the Poisson-center slice collects invariants whose bracket with every
  invariant basis element up to a test cutoff vanishes;
* the quantum-center slice collects series with invariant homogeneous
  coefficients whose deformed commutator with every such test element
  vanishes modulo the truncation the action's product carries.

The scaling grading ties the coefficient degree at series order r to
``d - k*r``, which makes each quantum slice finite-dimensional.  The
constraint system of a slice is linear in all its series coefficients at
once: the rows of every test element go into one elimination, and the
kernel is read once per slice.

Both systems are shrunk without changing any answer:

* *Weight-zero candidates.*  A hamiltonian is diagonal when its bracket
  with each coordinate is a multiple of it, ``{h, x_j} = w_j * x_j``
  (tested through the bracket, so any constant bivector works).  The
  bracket is a derivation, so it scales the monomial ``x^e`` by
  ``sum(e_j * w_j)``; only monomials of weight zero for every diagonal
  hamiltonian can be invariant, and only the other hamiltonians are
  eliminated.  The dropped columns are unit rows of the full system,
  which the canonical kernel sets to zero, so every basis is unchanged.
  The candidates are enumerated from the integer weight rows the action
  holds (``weight_zero_table``, or ``weight_zero_monomials`` for one
  degree), not filtered out of every monomial.
  When every hamiltonian is diagonal, the invariants are spanned by the
  weight-zero monomials, and the table lists distinct exponents of each
  degree in canonical order, so its coefficient-1 monomials already are
  the canonical basis of each slice: they are kept as enumerated, not
  reduced again.
  The same derivation rule, ``{h, x^e} = sum_j e_j x^(e - eps_j) {h, x_j}``,
  builds the rows of the other hamiltonians from their coordinate
  brackets, which the action holds (``coordinate_brackets``): each
  hamiltonian is bracketed with the coordinates once per action, and no
  candidate goes through the kernel.
* *Raising rows only.*  Of the non-diagonal hamiltonians, the solve feeds
  the rows of ``act.eliminated``: it drops ``y`` when ``H_y`` is
  homogeneous quadratic, ``y`` is a root vector of the diagonal elements
  (``[d, y] = alpha_d * y`` for each diagonal ``d``) with a nonzero root
  ``alpha``, and a kept ``x`` with ``H_x`` homogeneous quadratic has root
  ``-alpha``, with ``[x, y] = c`` in the span of the diagonal elements and
  ``alpha_x(c) = lam != 0``.  Then ``[c, x] = lam * x``,
  ``[c, y] = -lam * y`` and ``[x, y] = c``, so ``E = x``,
  ``H = (2 / lam) * c`` and ``F = (2 / lam) * y`` satisfy
  ``[H, E] = 2E``, ``[H, F] = -2F``, ``[E, F] = H``.  The validated
  action makes ``i -> {H_i, .}`` a Lie algebra map, and quadratic
  hamiltonians keep the degree under a constant bivector, so each degree
  slice is a finite-dimensional module of this triple.  A candidate
  combination ``v`` is of weight zero for every diagonal element, so
  ``H v = 0``; if ``E v = 0`` as well, ``v`` is a highest-weight vector of
  weight 0.  Put ``v_i = F^i v / i!``: the relations give
  ``E v_i = (1 - i) * v_(i-1)``, the nonzero ``v_i`` have the distinct
  weights ``-2i`` and so are independent, and the slice is finite, so some
  ``v_(m+1)`` is the first to vanish; then ``0 = E v_(m+1) = -m * v_m``
  forces ``m = 0``, that is ``F v = 0`` (Humphreys, *Introduction to Lie
  Algebras and Representation Theory*, 7.2).  So the kernel of the kept
  rows lies in ``y``'s: the solution space, and its canonical basis, are
  unchanged.  On ``sl2_tstar_k2`` this keeps ``e`` and drops ``f``.
  Without a diagonal element (``so3_rotation``) nothing is dropped.
* *Counted slices.*  When ``x`` and the ``y`` it raises to are the only
  non-diagonal elements, the action has a ``raising_root``, and each
  slice's dimension is known before it is solved.  Let ``D`` be the span
  of the diagonal elements and ``Z`` the kernel of ``alpha_x`` on ``D``;
  ``alpha_x(c) = lam != 0``, so ``D = span(c) + Z``.  A ``z`` in ``Z``
  commutes with ``x``, with ``y`` (root ``-alpha``) and with ``c`` in the
  action, so the ``Z``-weight-0 part ``M`` of a degree slice is a
  finite-dimensional module of the triple.  An invariant is a vector of
  ``D``-weight 0 that ``E`` kills, that is a highest-weight vector of
  weight 0 in ``M``.  ``M`` is a sum of irreducible modules ``V(n)``
  (complete reducibility), of weights ``n, n - 2, ..., -n``: each ``V(n)``
  with ``n`` even and positive has one vector of ``H``-weight 0 and one of
  weight 2, ``V(0)`` has the weight 0 alone and is invariant, and the odd
  ones have neither.  So the invariants have dimension ``m_0 - m_2``, the
  ``H``-weight-0 dimension of ``M`` less its weight-2 dimension (the
  Cayley-Sylvester count; Sturmfels, *Algorithms in Invariant Theory*,
  ch. 4; Humphreys 7.2).  Monomials are weight vectors of ``D``, and the
  ``D``-weight that vanishes on ``Z`` and has ``H``-weight 2 is
  ``alpha_x``.  So ``m_0`` counts the monomials with ``W e = 0``, ``W``
  the weight rows, and ``m_2`` those with ``W e`` equal to ``x``'s root in
  the units of the rows (``raising_root``; an entry that is not an integer
  is met by none); ``weight_count_table`` counts both without listing a
  monomial.  Products of invariants are invariant, so when the products
  ``g * v`` of the generators found so far with the lower slices span the
  counted dimension, they span the slice, and ``reduce_poly_span`` gives
  its canonical basis.  The solve runs only at the degrees where they fall
  short, which are the degrees of new generators; on ``sl2_tstar_k2``
  that is degree 2 alone.  (The slice of degree 0 is the constants, which
  no bracket row constrains, on every action.)  A product span above the count, or a solve
  that misses it, is a solver bug, which ``SolverError`` reports.
* *Generators as test elements.*  ``invariants_up_to`` returns, with the
  slices, the generators of the invariant algebra up to its degree bound:
  degree by degree, the invariants that are not products of lower-degree
  ones.  Every action that is not all-diagonal finds them in one degree
  loop: a solved slice adds its basis elements outside the span of the
  products ``g * v`` of the generators so far with the lower slices
  (``independent_extension``), and a counted slice the products fill adds
  none.  The bracket is a biderivation, so an invariant that brackets to
  zero with the generators does so with every invariant up to the cutoff.
  The deformed commutator is a derivation of the deformed product
  ``star(u, v) = sum_r hbar^r B_r(u, v)``, and every action proved the
  quantum condition ``[H_hat, f] = hbar {H, f}`` modulo ``hbar^(N+1)``
  when it was built, ``N`` its truncation.  For invariants ``u`` and
  ``v``, ``[H_hat, star(u, v)]`` is then both ``hbar {H, star(u, v)}`` and
  ``star([H_hat, u], v) + star(u, [H_hat, v]) = 0`` modulo
  ``hbar^(N+1)``, so each ``B_r(u, v)`` with ``r < N`` is invariant.
  ``B_N`` need not be: ``hbar^N [z, B_N]`` vanishes modulo ``hbar^(N+1)``
  for every series ``z``.  So ``g * v`` is ``star(g, v)`` minus
  invariants of lower degree and a term no commutator sees, and by
  induction on the degree, commuting with the generators modulo the
  truncation is commuting with every invariant up to the cutoff, whatever
  the degree of the hamiltonians.  Both centers test against the
  generators, and the kernel bases are canonical.  The argument holds for
  any series, so ``verify_lift`` tests each lift against the same set.
  When every hamiltonian is diagonal, every basis element is one monomial,
  and the invariants are the semigroup algebra of the weight-zero exponents
  (Sturmfels, *Algorithms in Invariant Theory*, 1.4): a product of basis
  monomials is the monomial of the exponent sum, so the recurrence runs
  on exponents, and the generators are the weight-zero exponents up to
  the cutoff that are not sums of smaller ones.
  The quantum coefficients of the lift relations are central by
  construction (``lifting`` module docstring), and nothing tests them.
  ``compare_centers`` and a run's lift tasks read the generators of the
  invariants they solve.

The test cutoff is exact when every hamiltonian is diagonal and the
bivector has one nonzero entry per row, and assumed otherwise.  Testing up
to it is testing against every invariant exactly when every generator of
the invariant algebra has degree at most the cutoff; below that, both
centers are solved against the same short test set, agree, and pass with
a wrong answer.  Such a bivector pairs each coordinate with one other: its
entries ``(i_k, j_k)`` with ``i_k < j_k`` give ``n`` pairs
``{x_(i_k), x_(j_k)} = c_k``, each ``c_k`` nonzero (``q_i`` with ``p_i``
at scale 1 on the standard bivector).  A bracket with a coordinate
differentiates only in its partner, so a diagonal hamiltonian is
``sum_k V_k t_k`` plus a constant, ``t_k = x_(i_k) x_(j_k)``, and
``{t_k, x^e} = -c_k m_k x^e`` with ``m_k = e_(i_k) - e_(j_k)``.  The
``t_k`` are invariant, so a central invariant lies in ``K[t]``, and
``F(t)`` is central exactly when the derivative along ``diag(c) m`` kills
it for every weight-zero exponent ``e``.  The weight of ``x^e`` is
``-V diag(c) m``, so these ``m`` are the integer vectors of the kernel of
``V diag(c)`` (put ``m``'s positive part at the ``i_k`` and its negative
part at the ``j_k``), of rank ``n - r`` for ``r = rank V``, the rank of
the weight rows, and ``diag(c)`` maps it onto the kernel of ``V``.  So the
Poisson center is the polynomials in the hamiltonians, of dimension
``C(r + k - 1, k)`` at degree ``2k`` and 0 at odd degrees, and the paper's
isomorphism gives the quantum center from it.  A test set up to ``T`` sees
the derivatives along ``diag(c) m`` for the ``m`` of degree at most
``T``, so the answer is right at every degree bound exactly when those
span rank ``n - r``; degrees 0 and 1 need no more.  ``check_test_cutoff``
feeds them into one elimination degree by degree and refuses a cutoff
below the degree where the rank is reached, naming that degree and the
monomial that reaches it when the degree is inside the candidate budget
(``MAX_CANDIDATES``).  The two-pair torus ``11*q1*p1 + q2*p2`` needs 12,
with every pairing doubled or not, where ``q2^11*p1`` and ``q1*p2^11``
enter; below it, its Poisson center has dimension 2 at degree 2 instead of
1 (``q1*p1 + 1/11*q2*p2``).  Paired ``q1`` with ``p2`` and ``q2`` with
``p1``, ``11*q1*p2 + q2*p1`` needs 12 too, where ``q1*p1^11`` enters.

Both centers read one commutator table: ``commutator_terms(b, u)`` for
every invariant basis element ``b`` up to the degree bound and every test
element ``u``, each pair expanded once, with ``b`` and ``u`` prepared
(``StarProduct.prepare``) once.  ``compare_centers`` builds the table once,
to the action's truncation, and hands it and the invariants to both center
functions; the table lives for one call.  A slice is a list of groups
``(r, d')``: in every test column, the rows of degree ``d'`` read the
orders of their entries up to a cap, raised by ``r``.  The quantum slice
of degree ``d`` has the groups ``(r, d - k*r)`` with cap ``truncation -
r``, so a basis element that stands at several series orders is expanded
once, not once per order.  The Poisson slice is the one group ``(0, d)``
with cap 1: the Poisson bracket is the order-1 term of the commutator.

Each distinct system is solved once per table (``_slice_kernel``).  A
group's rows depend only on its degree and on the highest order present
there up to its cap, and raising every group of a system by one shift
only relabels its rows.  Groups whose raised orders meet are solved
together; the components this gives have disjoint rows and columns, so
the canonical RREF of a slice is the union of its components' and the
kernel basis is theirs, placed at their columns and ordered by free
column.  When every commutator with a test element has one series order,
as for quadratic tests, each group of a quantum slice is alone and is the
Poisson system of its degree, already solved.

The reported quantum rank counts classical parts: it is the dimension of
the image of the slice under reduction modulo the deformation parameter.
Series divisible by the parameter are exactly the lifts of lower-degree
slices shifted up, so this rank is the number against which the classical
Poisson-center dimension is compared.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import NamedTuple, Sequence

from .action import HamiltonianAction
from .errors import SolverError, ValidationError
from .linalg import (
    EchelonAccumulator,
    GradedSubspace,
    independent_extension,
    reduce_poly_span,
    span_combinations,
)
from .poly import (
    MAX_CANDIDATES,
    Exponent,
    Poly,
    monomial_count,
    monomial_key,
    poly_sum,
    weight_count_table,
    weight_zero_monomials,
    weight_zero_table,
)
from .series import HSeries


class Invariants(GradedSubspace):
    """Invariant slices up to a bound, with the ``generators`` of degree 1
    to the bound, found degree by degree (module docstring, "Generators as
    test elements"): a lower cutoff keeps those of degree at most it."""

    generators: list[Poly]

    @classmethod
    def _trusted(cls, nvars: int, slices: dict[int, list[Poly]],
                 generators: list[Poly]) -> "Invariants":
        """``GradedSubspace._trusted`` with the slices' generators."""
        self = super()._trusted(nvars, slices)
        self.generators = generators
        return self


def invariants_up_to(act: HamiltonianAction, max_degree: int) -> Invariants:
    """Per-degree bases of polynomials killed by every hamiltonian bracket,
    with the generators of the invariant algebra up to ``max_degree``.

    Candidates are the monomials of weight zero for every diagonal
    hamiltonian, enumerated from the weight rows (``act.weight_rows``,
    ``weight_zero_monomials``); the rows of the non-diagonal hamiltonians
    the sl2 argument cannot discharge (``act.eliminated``, module
    docstring) come from their brackets with the coordinates, which the
    action holds (``_add_bracket_rows``).  With no such rows the enumerated
    monomials are the canonical bases, kept without reduction, and the
    generators are read off exponent sums (``_monomial_generators``).

    Otherwise the slices go up degree by degree, and each degree first
    forms the products ``g * v`` of the generators found so far with the
    lower slices.  When the action has a ``raising_root``, each slice's
    dimension is a weight count (module docstring, "Counted slices"): a
    slice the products span to its count is their canonical basis
    (``reduce_poly_span``), and only a slice they leave short is solved.
    Without a count every slice is solved.  A solved slice is the canonical
    basis of its kernel, and its new generators are the basis elements
    outside the products' span.  A product span over the count, or a solve
    that misses it, raises ``SolverError``.
    """
    if max_degree < 0:
        raise ValidationError("degree bound must be non-negative")
    nv = act.space.nvars
    rows = act.weight_rows
    others = [_derivation_terms(act.coordinate_brackets[i], max_degree)
              for i in act.eliminated]
    if not others:
        one = Fraction(1)
        slices = {
            degree: [Poly._trusted(nv, {m: one}) for m in candidates]
            for degree, candidates in enumerate(weight_zero_table(nv, max_degree, rows))
        }
        return Invariants._trusted(nv, slices, _monomial_generators(slices))
    root = act.raising_root
    counts = None if root is None else weight_count_table(nv, max_degree, rows)
    slices = {0: [Poly.constant(nv, 1)]}  # no bracket row reaches a constant
    generators: list[Poly] = []
    for degree in range(1, max_degree + 1):
        products = [g * v for g in generators
                    for v in slices.get(degree - g.degree(), ())]
        if counts is not None:
            count = counts[degree].get((0,) * len(rows), 0) - counts[degree].get(root, 0)
            span = reduce_poly_span(products, nv)
            if len(span) > count:
                raise SolverError(
                    f"invariant slice of degree {degree}: products of lower "
                    f"invariants span dimension {len(span)}, over its weight "
                    f"count {count}")
            if len(span) == count:
                slices[degree] = span
                continue
        candidates = weight_zero_monomials(nv, degree, rows)
        solver = EchelonAccumulator(len(candidates))
        for terms in others:
            _add_bracket_rows(solver, terms, candidates)
        basis = reduce_poly_span([
            Poly._trusted(nv, {candidates[i]: c for i, c in vec.items()})
            for vec in solver.kernel()
        ], nv)
        if counts is not None and len(basis) != count:
            raise SolverError(
                f"invariant slice of degree {degree}: the solve gives "
                f"dimension {len(basis)}, against its weight count {count}")
        generators += independent_extension(products, basis)
        slices[degree] = basis
    return Invariants._trusted(nv, slices, generators)


def _monomial_generators(slices: dict[int, list[Poly]]) -> list[Poly]:
    """The generators of slices whose bases are monomials, in ascending
    degree: a basis monomial is kept when it is not in the span of the
    products ``g * v`` of the generators kept so far with the lower slices
    and the monomials before it.  A product of monomials is the monomial of
    the exponent sum, and the exponents of one slice are distinct, so it is
    in that span exactly when its exponent is a sum ``e_g + e_v``."""
    exponents = {degree: [next(iter(f.terms)) for f in basis]
                 for degree, basis in slices.items()}
    kept: list[tuple[int, Exponent]] = []  # (degree, exponent) of each generator
    generators: list[Poly] = []
    for degree, basis in list(slices.items())[1:]:  # constants commute with all
        sums = {tuple(map(add, e, v)) for d, e in kept
                for v in exponents.get(degree - d, ())}
        for f, e in zip(basis, exponents[degree]):
            if e not in sums:
                kept.append((degree, e))
                generators.append(f)
    return generators


def _derivation_terms(brackets: Sequence[Poly], max_degree: int) -> list:
    """``terms[j][k]`` lists the terms of ``k * {h, x_j} / x_j`` for the
    coordinate brackets ``brackets[j] = {h, x_j}`` and every ``k`` up to
    ``max_degree`` (none for 0); an exponent may read -1 at ``j``."""
    out = []
    for j, bracket in enumerate(brackets):
        lowered = [(tuple(a - (i == j) for i, a in enumerate(mono)), coeff)
                   for mono, coeff in bracket.terms.items()]
        out.append([[]] + [[(mono, coeff * k) for mono, coeff in lowered]
                           for k in range(1, max_degree + 1)])
    return out


def _add_bracket_rows(solver: EchelonAccumulator, terms: list,
                      candidates: Sequence[Exponent]):
    """Require ``{h, sum_c v_c * x^c} == 0`` over the candidate monomials,
    given the ``_derivation_terms`` of ``h``.  The bracket is a derivation,
    ``{h, x^e} = sum_j e_j * x^(e - eps_j) * {h, x_j}``, so these are the
    rows ``_add_coefficient_rows`` makes of the brackets ``{h, x^e}``: one
    per output monomial in canonical order, columns in candidate order,
    cancelled entries dropped."""
    rows: dict[Exponent, dict[int, Fraction]] = {}
    for col, e in enumerate(candidates):
        for ej, scaled in zip(e, terms):
            for mono, coeff in scaled[ej]:
                row = rows.setdefault(tuple(map(add, mono, e)), {})
                old = row.get(col)
                row[col] = coeff if old is None else old + coeff
    for key in sorted(rows, key=monomial_key):
        row = {col: value for col, value in rows[key].items() if value}
        if row:
            solver.add_row(row)


def _add_coefficient_rows(solver: EchelonAccumulator,
                          expansions: Sequence[dict[int, Poly]]):
    """Require ``sum_j x_j * expansions[j] == 0`` for expansions
    ``{order: Poly}``: one sparse row per support ``(order, monomial)``,
    fed by series order, then canonical monomial order."""
    rows: dict[tuple[int, tuple], dict[int, Fraction]] = {}
    for col, expansion in enumerate(expansions):
        for s, f in expansion.items():
            for mono, coeff in f.terms.items():
                rows.setdefault((s, mono), {})[col] = coeff
    for key in sorted(rows, key=lambda item: (item[0], monomial_key(item[1]))):
        solver.add_row(rows[key])


def _combine(candidates: Sequence[Poly], vector: dict[int, Fraction], nv: int) -> Poly:
    return poly_sum(nv, [candidates[i].scale(c) for i, c in vector.items()])


def moment_image_basis(act: HamiltonianAction, max_degree: int) -> GradedSubspace:
    """Per-degree bases of the subalgebra generated by the designated
    invariant generators' pullbacks.

    Slice 0 is the constants; slice ``d`` is the span of the products
    ``g * v`` of a pullback ``g`` with the basis of slice ``d - deg g``,
    the same recurrence the counted invariant slices build their spans with.
    Each slice is ``reduce_poly_span``'s canonical basis, and a product of
    homogeneous polynomials is homogeneous, so the slices are kept as
    reduced.
    """
    nv = act.space.nvars
    pullbacks: list[Poly] = []
    for gen, g in zip(act.lie.invariant_generators, act.pullbacks):
        if g.is_zero() or g.degree() == 0:
            continue  # constants generate nothing new
        if not g.is_homogeneous((1,) * nv):
            raise ValidationError(
                f"pullback of generator {gen.name!r} is not homogeneous"
            )
        pullbacks.append(g)
    slices: dict[int, list[Poly]] = {0: [Poly.constant(nv, 1)]}
    for degree in range(1, max_degree + 1):
        products = [
            g * v for g in pullbacks for v in slices.get(degree - g.degree(), [])
        ]
        slices[degree] = reduce_poly_span(products, nv)
    return GradedSubspace._trusted(nv, slices)


class _Table(NamedTuple):
    """One commutator table and the kernels solved from it.

    ``entries[degree][i][j]`` is ``commutator_terms(b, u, cap)`` of the
    i-th invariant basis element ``b`` of that degree with the j-th test
    element ``u``, ``orders[degree]`` the series orders present in those
    entries, and ``kernels`` maps each system key solved so far to its
    kernel (``_slice_kernel``)."""

    entries: dict[int, list[list[dict[int, Poly]]]]
    orders: dict[int, set[int]]
    kernels: dict[tuple, list[dict[int, Fraction]]]


def _commutator_table(act: HamiltonianAction, invariants: GradedSubspace,
                      max_degree: int, tests: Sequence[Poly], cap: int
                      ) -> _Table:
    """Each commutator once, up to order ``cap``: every basis element and
    every test element is prepared once."""
    prepare = act.star.prepare
    commutator = act.star.commutator_terms
    prepared = [prepare(u) for u in tests]
    entries = {
        degree: [
            [commutator(pb, pu, cap) for pu in prepared]
            for pb in map(prepare, invariants.basis(degree))
        ]
        for degree in range(max_degree + 1)
    }
    orders = {
        degree: {s for row in rows for entry in row for s in entry}
        for degree, rows in entries.items()
    }
    return _Table(entries, orders, {})


def _center_kernel(table: _Table, key: tuple[tuple[int, int, int], ...]
                   ) -> list[dict[int, Fraction]]:
    """Kernel of the commutation constraints of the groups ``(r, degree,
    read)`` of ``key``, one unknown per table row of each group's degree:
    in every test column, a row reads the orders of its entry up to
    ``read``, raised by ``r``."""
    blocks = [(r, row, read) for r, degree, read in key
              for row in table.entries[degree]]
    solver = EchelonAccumulator(len(blocks))
    for j in range(len(blocks[0][1])):
        _add_coefficient_rows(solver, [
            {r + s: t for s, t in row[j].items() if s <= read}
            for r, row, read in blocks
        ])
    return solver.kernel()


def _slice_kernel(table: _Table, groups: Sequence[tuple[int, int, int]]
                  ) -> list[dict[int, Fraction]]:
    """Canonical kernel of the system of the groups ``(r, degree, cap)``,
    unknowns in group order: group ``(r, degree, cap)`` reads the degree's
    table rows up to order ``cap``, raised by ``r``.  Each component of
    groups whose raised orders meet is solved once per table, keyed by its
    groups ``(r - r_min, degree, read)``, ``read`` the highest order present
    up to ``cap`` (see the module docstring)."""
    placed = []  # (r, degree, read, first column) of the groups with rows
    width = 0
    for r, degree, cap in groups:
        if table.entries[degree]:
            read = max((s for s in table.orders[degree] if s <= cap), default=0)
            placed.append((r, degree, read, width))
            width += len(table.entries[degree])
    components: list[tuple[set[int], list[tuple]]] = []
    for group in placed:
        r, degree, read, _ = group
        reached = {r + s for s in table.orders[degree] if s <= read}
        members = [group]
        for component in [c for c in components if c[0] & reached]:
            components.remove(component)
            reached |= component[0]
            members = component[1] + members
        components.append((reached, sorted(members)))
    vectors = []
    for _, members in components:
        r_min = members[0][0]
        key = tuple((r - r_min, degree, read) for r, degree, read, _ in members)
        kernel = table.kernels.get(key)
        if kernel is None:
            kernel = table.kernels[key] = _center_kernel(table, key)
        columns = [first + i for _, degree, _, first in members
                   for i in range(len(table.entries[degree]))]
        vectors += ({columns[i]: value for i, value in vec.items()} for vec in kernel)
    return sorted(vectors, key=max)  # by free column: each vector's largest key


def poisson_center_up_to(act: HamiltonianAction, max_degree: int,
                         invariants: GradedSubspace, commutators: _Table
                         ) -> GradedSubspace:
    """Invariants whose bracket with every invariant basis element up to
    the test cutoff vanishes.  ``invariants`` is the run's
    ``invariants_up_to(act, test_degree)`` and ``commutators`` its table
    up to ``max_degree`` against its ``generators``, to order 1
    at least.  The bracket is the order-1 term of each commutator, read in
    every test column: the bracket is a biderivation, so the generators
    give the kernel the full basis gives, for any action."""
    nv = act.space.nvars
    slices: dict[int, list[Poly]] = {}
    for degree in range(max_degree + 1):
        candidates = invariants.basis(degree)
        basis = [
            _combine(candidates, vec, nv)
            for vec in _slice_kernel(commutators, [(0, degree, 1)])
        ]
        if basis:
            slices[degree] = basis
    return GradedSubspace(nv, slices)


class QuantumCenterSlice(NamedTuple):
    """Quantum-center data at one degree."""

    degree: int
    basis: list[HSeries]          # kernel of the commutation constraints
    rank: int                     # dimension of the classical-part image
    representatives: list[HSeries]  # lifts whose classical parts are a basis


def quantum_center_up_to(act: HamiltonianAction, max_degree: int,
                         invariants: GradedSubspace, commutators: _Table
                         ) -> dict[int, QuantumCenterSlice]:
    """Per-degree quantum-center slices at the action's truncation, solved
    exactly.

    Requires the default uniform grading (every coordinate of weight -1)
    with a graded bivector (``check_slicing_grading``); the coefficient of
    series order r in the degree-d slice is then an invariant of degree
    ``d - k*r``.  ``invariants`` and ``commutators`` are as for
    ``poisson_center_up_to``, the table to the action's truncation at
    least.
    """
    k = act.space.hbar_weight
    order = act.order
    out: dict[int, QuantumCenterSlice] = {}
    for degree in range(max_degree + 1):
        groups = [(r, degree - k * r, order - r)
                  for r in range(min(order, degree // k) + 1)]
        blocks = [(r, b) for r, d, _ in groups for b in invariants.basis(d)]
        if not blocks:
            out[degree] = QuantumCenterSlice(degree, [], 0, [])
            continue
        basis = [
            _series_from_vector(act, blocks, vec)
            for vec in _slice_kernel(commutators, groups)
        ]
        rank, representatives = _classical_part_rank(act, basis)
        out[degree] = QuantumCenterSlice(degree, basis, rank, representatives)
    return out


def check_test_cutoff(act: HamiltonianAction, max_degree: int, test_degree: int):
    """Refuse, at a degree bound ``max_degree`` of at least 2 on an action
    whose hamiltonians are all diagonal on a bivector with one nonzero
    entry per row, a test cutoff below the exact one (module docstring, on
    the test cutoff; degrees 0 and 1 need no more): over the pairs
    ``(i, j)``, its entries with ``i < j``, the differences ``e[i] - e[j]``
    of the weight-zero exponents ``e`` up to the cutoff must span rank
    ``n - r``, ``r`` the rank of the weight rows.  They go into one
    elimination degree by degree, which stops at that rank; past the cutoff
    it goes on, within the candidate budget, to name the least sufficient
    degree.  Any other action or bivector keeps the assumed cutoff."""
    space, rows = act.space, act.weight_rows
    n, nv = space.pairs, space.nvars
    entries = space.bivector_entries()
    if max_degree < 2 or act.nondiagonal or len(entries) != nv:
        return
    pairs = [(i, j) for i, j, _ in entries if i < j]
    weights = EchelonAccumulator(nv)
    missing = n - sum(weights.add_row(dict(enumerate(w))) for w in rows)
    differences = EchelonAccumulator(n)
    degree = 0
    while missing:
        degree += 1
        if degree > test_degree and monomial_count(nv, degree, MAX_CANDIDATES
                                                   ) > MAX_CANDIDATES:
            raise ValidationError(
                f"test_degree {test_degree} is not certified for this diagonal "
                "action, and no test_degree within the candidate budget is")
        for e in weight_zero_monomials(nv, degree, rows):
            missing -= differences.add_row(
                {k: e[i] - e[j] for k, (i, j) in enumerate(pairs) if e[i] != e[j]})
            if not missing:
                break
    if degree > test_degree:
        raise ValidationError(
            f"test_degree {test_degree} is below the exact cutoff {degree} of "
            f"this diagonal action, where {Poly.monomial(nv, e).to_string(space.names)} "
            "enters")


def check_slicing_grading(space):
    """Require of a ``SymplecticSpace`` the grading quantum-center slicing
    needs: the uniform default weights with a graded bivector, so the
    parameter has weight 2 and each slice has finitely many series
    orders."""
    if not space.grading_is_uniform():
        raise ValidationError(
            "quantum-center slicing requires the uniform default weights"
        )
    space.check_graded_bivector()


def _series_from_vector(act, blocks, vector) -> HSeries:
    nv = act.space.nvars
    terms: dict[int, Poly] = {}
    for i, coeff in vector.items():
        r, b = blocks[i]
        terms[r] = terms.get(r, Poly.zero(nv)) + b.scale(coeff)
    return HSeries(nv, act.order, terms)


def _classical_part_rank(act, basis: list[HSeries]) -> tuple[int, list[HSeries]]:
    """Rank of the classical-part image with tracked representatives."""
    representatives: list[HSeries] = []
    for combo in span_combinations([v.classical_part() for v in basis]):
        rep = HSeries.zero(act.space.nvars, basis[0].order)
        for i, c in combo.items():
            rep = rep + basis[i].scale(c)
        representatives.append(rep)
    return len(representatives), representatives


class CenterRow(NamedTuple):
    degree: int
    invariant_dim: int
    poisson_dim: int
    quantum_rank: int
    poisson_basis: list[str]
    quantum_representatives: list[str]

    @property
    def equal(self) -> bool:
        return self.poisson_dim == self.quantum_rank

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "invariant_dim": self.invariant_dim,
            "poisson_center_dim": self.poisson_dim,
            "quantum_center_rank": self.quantum_rank,
            "equal": self.equal,
            "poisson_basis": self.poisson_basis,
            "quantum_representatives": self.quantum_representatives,
        }


class CenterReport(NamedTuple):
    max_degree: int
    test_degree: int
    order: int
    rows: list[CenterRow]

    @property
    def passed(self) -> bool:
        return all(row.equal for row in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "test_degree": self.test_degree,
            "truncation": self.order,
            "passed": self.passed,
            "rows": [row.to_json_dict() for row in self.rows],
        }


def compare_centers(
    act: HamiltonianAction, max_degree: int, test_degree: int
) -> CenterReport:
    """Assemble the per-degree comparison table of both centers.

    ``act`` must have passed its constructor's validation: the quantum
    condition it proves there is what makes the invariant generators a
    complete test set (module docstring)."""
    check_slicing_grading(act.space)
    if test_degree < max_degree:
        raise ValidationError("test cutoff must be at least the degree bound")
    check_test_cutoff(act, max_degree, test_degree)
    invariants = invariants_up_to(act, test_degree)
    commutators = _commutator_table(act, invariants, max_degree,
                                    invariants.generators, max(act.order, 1))
    poisson = poisson_center_up_to(act, max_degree, invariants, commutators)
    quantum = quantum_center_up_to(act, max_degree, invariants, commutators)
    names = act.space.names
    rows = []
    for degree in range(max_degree + 1):
        slice_q = quantum[degree]
        rows.append(
            CenterRow(
                degree=degree,
                invariant_dim=invariants.dimension(degree),
                poisson_dim=poisson.dimension(degree),
                quantum_rank=slice_q.rank,
                poisson_basis=[f.to_string(names) for f in poisson.basis(degree)],
                quantum_representatives=[
                    v.to_string(names) for v in slice_q.representatives
                ],
            )
        )
    return CenterReport(max_degree, test_degree, act.order, rows)
