"""Scenario files: schema, loading, validation and task orchestration.

A scenario is a JSON document (schema ``qcenter-scenario/1``) describing a
symplectic space, a Lie algebra with designated invariant generators, a
hamiltonian per basis element, truncation and degree bounds, lift
requests, generator relations and a task list.  Rational scalars are
strings like ``"3/2"``; polynomials are expression strings over the
coordinate names (``q1..qn, p1..pn``), the Lie algebra labels, the
designated generator names, or the lift names, depending on the field.

Loading is split in two phases with distinct failure modes: parsing
checks document shape and turns every expression into a ``Poly`` and
every scalar into a ``Fraction``, once (``ParseError``); building
constructs the mathematical objects from those values and runs their
structural validation (``ValidationError``):

* always: bracket antisymmetry and the Jacobi identity, bivector
  antisymmetry and invertibility, invariance of designated generators
  and their section corrections, hamiltonian equivariance and the
  quantum condition;
* when the task list holds ``centers``: the uniform default grading with
  a graded bivector that quantum-center slicing needs, and a truncation
  of at least 1, below which every deformed commutator vanishes;
* when the task list holds ``centers``, or a lift task runs a lift, and
  ``max_degree`` is at least 2: on an action whose hamiltonians are all
  diagonal on a bivector with one nonzero entry per row (a pairing), a
  ``test_degree`` at least the exact cutoff (``centers.check_test_cutoff``),
  below which both centers agree on a wrong answer;
* when a lift task runs a lift: generator pullbacks the lifts can use
  (homogeneous), and central lifts whose order-``N`` coefficients are
  invariant, ``N`` the truncation.  The coefficients below ``N`` are
  invariant by construction: the comoment image ``z_hat`` of a central
  section commutes with each ``H_hat_i``, so by the quantum condition
  ``hbar {H_i, z_hat}`` vanishes modulo ``hbar^(N+1)``.  Nothing forces
  the one at ``N``: ``hbar^N X`` commutes with everything modulo
  ``hbar^(N+1)``, so an order-``N`` quantum correction passes the
  quantum condition and reaches the central lifts.  For ``iso`` and
  ``weyl`` they must also be weight-homogeneous, or no lift through the
  relations has one weight to match or to specialize at;
* when the task list holds ``weyl`` and the scenario has a lift:
  hamiltonians of degree at most 2, under which the invariant generators
  test the specialized lifts completely (``weyl`` module docstring), and
  weight-homogeneous classical parts of the lifts, which the
  specialization needs.

Parsing also enforces a size budget, before anything is built from the
document (``ValidationError``):

* ``MAX_CANDIDATES`` bounds the number of monomials of degree at most
  ``max(test_degree, 2)`` in the ``2n`` coordinates, ``C(2n + D, D)``.
  Those are the candidates of every invariant and center slice; degree 2
  at least, so that the ``2n x 2n`` bivector is inside the budget too.
  The same count bounds what the build substitutes: the moment pullback of
  a generator ``z`` has degree at most ``deg z`` times the largest
  hamiltonian degree, and a lift expression in generator names (a
  relation coefficient, or a classical element, which is read as the
  relation of degree 1 it gives) at most its degree times the largest of
  those pullback bounds.  A bound ``D`` over the budget is refused,
  naming the generator or the lift: the pullbacks once the hamiltonians
  are read, each lift expression as soon as it is parsed.
* ``MAX_WORD_LENGTH`` bounds the degree of each invariant generator and
  section correction, the longest word its symmetrization rewrites:
  ``normalize_word`` recurses once per rewrite step, so the cap keeps its
  depth well inside Python's recursion limit.  The same cap bounds the
  coordinate polynomials (hamiltonians, quantum corrections and lift
  targets) and the lift expressions (``lifts[].classical`` and
  ``lifts[].relation[]`` in generator names, ``relations[]`` in lift
  names), so a huge power there is refused before it is expanded,
  checked or evaluated under the deformed product.  It also bounds the
  number of coefficients of a lift's relation: a relation of degree ``n``
  takes the ``n``-th deformed power of the lift, and its minimality and
  moment-image checks go to degree ``(n - 1) * deg f``.
* ``MAX_SAMPLES`` bounds ``samples.axioms`` and ``samples.moment``: the
  sample lists are drawn whole before the checks run.
* ``MAX_SYMBOL_TERMS`` bounds the entries of the product's level-``L``
  symbol table (``StarProduct._symbol_powers_up_to``), at most
  ``min(C(2n + L - 1, L)^2, C(m + L - 1, L))`` for a bivector with ``m``
  nonzero entries: pairs of sorted multi-indices, and multisets of ``L``
  entries.  The standard bivector has ``m = 2n``; a dense one has
  ``m = 2n(2n - 1)``.  ``L = max(4, min(truncation, max(test_degree,
  MAX_WORD_LENGTH)))``: the truncation caps the series products, the
  uncapped axiom products stop at the degree 4 of their samples, and no
  contraction passes the smaller operand's degree, which is at most
  ``test_degree`` for a slice and ``MAX_WORD_LENGTH`` for a coordinate
  polynomial.  Only the uncapped ``weyl`` commutators and lifts composed
  from the generators can go above ``L``; every preset run stays within
  ``max(truncation, 4)``.

The budget bounds size, not time.  An admitted scenario can still run for
minutes: ``so3_rotation`` (``tests/data``) at ``max_degree`` 22 and
``test_degree`` 24 with tasks ``["invariants"]`` is admitted, and ran for
~80 s within 1.5 GB before it exited 0 (2-core host, Python 3.11.7).

The fields, with their kinds, defaults and ranges, are the table
``_SCENARIO`` and the tables it names; the README describes each one.  An
unknown key is a ``ParseError``, and every integer follows one rule
(``_integer``): a boolean, a string, a non-integral number or a value out
of range is a ``ValidationError``.  Messages echo a bad value or a name cut
short (``errors.echo``).

A run (``run_scenario``) builds the scenario and runs each task as a method
of one run object.  That object computes the results the tasks share (the
invariants with their generators, and the lift run) once, on first use, and
keeps no failed lift run, so each task that needs it reports the failure.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

from .action import (
    HamiltonianAction,
    check_classical_limit_triangle,
    check_quantum_moment_condition,
)
from .centers import (
    Invariants,
    check_slicing_grading,
    check_test_cutoff,
    compare_centers,
    invariants_up_to,
    moment_image_basis,
)
from .errors import DegreeCapError, ParseError, QCenterError, ValidationError, echo
from .liealg import InvariantGenerator, LieAlgebraData
from .lifting import (
    MonicRelation,
    build_center_iso,
    check_invariant,
    hensel_lift,
    star_evaluate,
    verify_lift,
)
from .parsing import parse_poly
from .poly import MAX_CANDIDATES, Poly, as_scalar, default_names, monomial_count
from .report import RunReport, TaskResult
from .sampling import sample_homogeneous_pairs, sample_polys, sample_triples
from .series import HSeries
from .space import SymplecticSpace
from .star import StarProduct, check_axioms, check_homogeneity
from .weyl import weyl_report

SCENARIO_SCHEMA = "qcenter-scenario/1"
TASK_ORDER = (
    "axioms",
    "moment",
    "triangle",
    "invariants",
    "centers",
    "lift",
    "iso",
    "weyl",
)
_SAMPLE_SEED = 0x5EED
MAX_WORD_LENGTH = 24
MAX_SAMPLES = 10**5
# ~15 times the largest bound of the shipped presets, tests/data and the
# test scenarios (6,435: four standard pairs at level 8).  A dense
# three-pair bivector passes at level 5 (56,484 entries, ~41 MB and ~1 s to
# build on a 2-core host, Python 3.11.7) and is refused at level 6.
MAX_SYMBOL_TERMS = 10**5


class LiftSpec(NamedTuple):
    """A monic relation in the generator names and the coordinate target it
    lifts; a classical request ``E`` is ``(-E,)``, its target left to the
    build (``E`` on the moment pullbacks)."""

    name: str
    relation: tuple[Poly, ...]
    target: Poly | None = None


class Scenario(NamedTuple):
    """Parsed scenario data: every expression is already a ``Poly`` and
    every scalar a ``Fraction``; the space, algebra and action are built
    separately."""

    name: str
    description: str
    pairs: int
    weights: tuple[int, ...] | None
    hbar_weight: int
    bivector: tuple[tuple[Fraction, ...], ...] | None
    lie_dim: int
    lie_labels: tuple[str, ...]
    lie_brackets: tuple[tuple[tuple[int, int], tuple[tuple[int, Fraction], ...]], ...]
    lie_generators: tuple[InvariantGenerator, ...]
    hamiltonians: tuple[Poly, ...]      # in label order
    quantum_corrections: tuple[tuple[str, tuple[tuple[int, Poly], ...]], ...]
    truncation: int
    max_degree: int
    test_degree: int
    lifts: tuple[LiftSpec, ...]
    relations: tuple[tuple[str, Poly], ...]  # (text, polynomial in lift names)
    center_generators: tuple[str, ...]
    tasks: tuple[str, ...]
    axiom_samples: int = 25
    moment_samples: int = 25


# The schema: one table per object level, mapping each key to (kind,
# default, range).  A kind is "int" (range (low, high), None where open),
# "str" (range: the allowed values, or None), "list" (range: the kind of
# every item, "int", "str" or a tuple of allowed values, or None where
# parse_scenario reads the items) or "object" (range: the table
# parse_scenario reads it with, or None for any keys).  A default of
# _REQUIRED makes the key required.
_REQUIRED = object()
_TEXT = ("str", _REQUIRED, None)  # a required string
_SPACE = {
    "pairs": ("int", _REQUIRED, (1, None)),
    "weights": ("list", None, "int"),
    "hbar_weight": ("int", 2, (None, None)),
    "bivector": ("list", None, None),  # 2n rows of 2n scalars
}
_BRACKET = {
    "left": _TEXT,
    "right": _TEXT,
    "components": ("object", _REQUIRED, None),  # {label: scalar}
}
_GENERATOR = {
    "name": _TEXT,
    "poly": _TEXT,
    "section_correction": ("object", {}, None),  # {order: polynomial}
}
_LIE_ALGEBRA = {
    "dim": ("int", _REQUIRED, (0, None)),
    "labels": ("list", None, "str"),
    "brackets": ("list", (), None),  # of _BRACKET
    "invariant_generators": ("list", (), None),  # of _GENERATOR
}
# a lift has one of two shapes; a classical one is read as a relation
_CLASSICAL_LIFT = {"name": _TEXT, "classical": _TEXT}
_RELATION_LIFT = {
    "name": _TEXT, "target": _TEXT, "relation": ("list", _REQUIRED, "str"),
}
_SAMPLE_COUNT = ("int", 25, (0, MAX_SAMPLES))
_SAMPLES = {"axioms": _SAMPLE_COUNT, "moment": _SAMPLE_COUNT}
_SCENARIO = {
    "schema": ("str", SCENARIO_SCHEMA, (SCENARIO_SCHEMA,)),
    "name": ("str", None, None),
    "description": ("str", "", None),
    "space": ("object", _REQUIRED, _SPACE),
    "lie_algebra": ("object", _REQUIRED, _LIE_ALGEBRA),
    "hamiltonians": ("object", _REQUIRED, None),  # {label: polynomial}
    "quantum_corrections": ("object", {}, None),  # {label: {order: polynomial}}
    "truncation": ("int", 8, (0, None)),
    "max_degree": ("int", 8, (0, None)),
    "test_degree": ("int", 10, (0, None)),
    "lifts": ("list", (), None),  # of _CLASSICAL_LIFT or _RELATION_LIFT
    "relations": ("list", (), "str"),
    "center_generators": ("list", (), "str"),
    "tasks": ("list", TASK_ORDER, TASK_ORDER),
    "samples": ("object", {}, _SAMPLES),
}
# two messages worded for their field rather than by the rule of its kind
_WORDING = {"tasks": "tasks must be a list of task names",
            "samples": "samples must be an object of sample counts"}


def _read(value, table: dict | None, where: str) -> dict:
    """The object ``value`` with its keys checked against ``table`` (any
    keys when it is None) and the defaults filled in.  ``where`` names the
    object in messages; its objects and list entries are read by the
    caller, which names them."""
    if not isinstance(value, dict):
        raise ParseError(_WORDING.get(where, f"{where} must be an object"))
    if table is None:
        return value
    for key in value:
        if key not in table:
            raise ParseError(f"unknown key {echo(key)} in {where}")
    prefix = "" if where == "scenario" else f"{where}."
    fields = {}
    for key, (kind, default, extent) in table.items():
        if key in value:
            fields[key] = _leaf(value[key], kind, extent, prefix + key,
                                f"field {key!r} in {where}")
        elif default is _REQUIRED:
            raise ParseError(f"missing required field {key!r} in {where}")
        else:
            fields[key] = default
    return fields


def _leaf(value, kind: str, extent, path: str, field: str):
    """One field's value, checked against its kind and range; an object is
    returned as it is, for the caller to read."""
    if kind == "int":
        return _integer(value, path, extent)
    if kind == "object":
        return value
    if not isinstance(value, str if kind == "str" else list):
        what = "a string" if kind == "str" else "a list"
        raise ParseError(_WORDING.get(path, f"{field} must be {what}"))
    items = value if kind == "list" else [value]
    if extent == "int":
        return tuple(_integer(item, path, (None, None)) for item in items)
    if extent == "str" and not all(isinstance(item, str) for item in items):
        raise ParseError(f"{path} must be strings")
    if isinstance(extent, tuple):
        for item in items:
            if item not in extent:
                raise ParseError(f"{path} {echo(item)} is not one of {', '.join(extent)}")
    return value


def _scalar_check(value, where: str) -> Fraction:
    try:
        return as_scalar(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar in {where}: {echo(value)}") from exc


def _series(value, names: Sequence[str], where: str) -> tuple[tuple[int, Poly], ...]:
    """The pairs ``(order, polynomial)`` of an object ``{order: polynomial}``
    in increasing order.  An order is written in ASCII decimal digits, is at
    least 1 and is written once: ``"2"`` and ``"02"`` are one order written
    twice, and ``"1_0"``, ``" 2"`` or ``"+2"`` are no order."""
    pairs: dict[int, Poly] = {}
    for key, expr in _read(value, None, where).items():
        # any other key is refused as a string
        order = int(key) if key.isascii() and key.isdigit() else key
        order = _integer(order, f"order of {where}", (1, None))
        if order in pairs:
            raise ValidationError(f"order {order} of {where} is written twice")
        pairs[order] = _capped_check(expr, names, where)
    return tuple(sorted(pairs.items()))


def _integer(value, path: str, extent: tuple) -> int:
    """The one integer rule: a boolean, a string or a non-integral number is
    refused, and so is a value outside ``extent``."""
    if isinstance(value, bool):
        raise ValidationError(f"{path} must be an integer, not a boolean")
    if not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValidationError(f"{path} must be an integer, got {echo(value)}")
    value = int(value)
    low, high = extent
    if low is not None and value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValidationError(f"{path} must be {bound}, got {value}")
    if high is not None and value > high:  # only the sample counts
        raise ValidationError(f"{path} {value} is over the sample budget of {high}")
    return value


def _symbol_level(truncation: int, test_degree: int) -> int:
    """The symbol level the size budget bounds: the highest a run asks for
    outside the ``weyl`` commutators and composed lifts (see the module
    docstring)."""
    return max(4, min(truncation, max(test_degree, MAX_WORD_LENGTH)))


def _symbol_terms(pairs: int, nonzero: int, level: int, limit: int) -> int:
    """``min(C(2n + L - 1, L)^2, C(m + L - 1, L))`` for ``n = pairs``,
    ``m = nonzero`` and ``L = level``, the bound on the entries of the
    level-``L`` symbol table, or a number above ``limit`` when the bound
    is."""
    indices = monomial_count(2 * pairs - 1, level, limit)
    return min(indices * indices, monomial_count(nonzero - 1, level, limit))


def _check_bounds(pairs: int, bivector: tuple[tuple[Fraction, ...], ...] | None,
                  truncation: int, max_degree: int, test_degree: int) -> None:
    """Reject a degree bound over the test cutoff, and scenarios over the
    candidate or symbol-table budget."""
    if max_degree > test_degree:
        raise ValidationError(
            f"max_degree {max_degree} exceeds test_degree {test_degree}"
        )
    if monomial_count(2 * pairs, max(test_degree, 2), MAX_CANDIDATES) > MAX_CANDIDATES:
        raise ValidationError(
            f"space.pairs {pairs} with test_degree {test_degree} gives more "
            f"than {MAX_CANDIDATES} candidate monomials, over the size budget"
        )
    nonzero = 2 * pairs if bivector is None else sum(
        1 for row in bivector for value in row if value
    )
    level = _symbol_level(truncation, test_degree)
    if _symbol_terms(pairs, nonzero, level, MAX_SYMBOL_TERMS) > MAX_SYMBOL_TERMS:
        raise ValidationError(
            f"space.pairs {pairs} with {nonzero} nonzero bivector entries "
            f"gives more than {MAX_SYMBOL_TERMS} symbol terms at level {level} "
            f"(truncation {truncation}, test_degree {test_degree}), over the "
            f"size budget"
        )


def _substitution_bound(pairs: int, expr: Poly, degree: int, where: str) -> int:
    """The degree bound of ``expr`` with polynomials of degree at most
    ``degree`` in the ``2n`` coordinates substituted, refused when it gives
    more than ``MAX_CANDIDATES`` monomials: the build substitutes the
    hamiltonians into each generator and the pullbacks into each lift
    expression."""
    bound = max(expr.degree(), 0) * max(degree, 0)
    if monomial_count(2 * pairs, bound, MAX_CANDIDATES) > MAX_CANDIDATES:
        raise ValidationError(
            f"{where} has degree bound {bound} in the coordinates, which gives "
            f"more than {MAX_CANDIDATES} monomials, over the size budget"
        )
    return bound


def _capped_check(expr: str, names: Sequence[str], where: str) -> Poly:
    """A polynomial of degree at most ``MAX_WORD_LENGTH``, refused by the
    parser before a longer product or power is expanded."""
    try:
        return parse_poly(expr, names, max_degree=MAX_WORD_LENGTH)
    except DegreeCapError as exc:
        raise ValidationError(
            f"{where} has degree {exc.degree}, over the word-length budget "
            f"of {MAX_WORD_LENGTH}"
        ) from None
    except ParseError as exc:
        raise ParseError(f"bad polynomial in {where}: {exc}") from exc


def parse_scenario(data: dict, default_name: str = "scenario") -> Scenario:
    """Document-shape and expression-syntax checks only: every field is
    read through its table, and the names the fields share are checked
    against each other."""
    doc = _read(data, _SCENARIO, "scenario")
    space = _read(doc["space"], _SPACE, "space")
    pairs = space["pairs"]
    if space["weights"] is not None and len(space["weights"]) != 2 * pairs:
        raise ParseError("space.weights must list one integer per variable")
    bivector = space["bivector"]
    if bivector is not None:
        if len(bivector) != 2 * pairs or not all(
            isinstance(row, list) and len(row) == 2 * pairs for row in bivector
        ):
            raise ParseError("space.bivector must be a 2n x 2n matrix")
        bivector = tuple(
            tuple(_scalar_check(v, "space.bivector") for v in row) for row in bivector
        )
    _check_bounds(pairs, bivector, doc["truncation"], doc["max_degree"],
                  doc["test_degree"])
    coord_names = default_names(2 * pairs)

    lie = _read(doc["lie_algebra"], _LIE_ALGEBRA, "lie_algebra")
    dim = lie["dim"]
    ham_data = _read(doc["hamiltonians"], None, "hamiltonians")
    labels = lie["labels"]
    if not labels:
        if dim > len(ham_data):
            # a default label is missing, and the first missing one is
            # among the first len + 1: refuse before building dim labels
            missing = next(
                f"x{i}" for i in range(1, len(ham_data) + 2)
                if f"x{i}" not in ham_data
            )
            raise ParseError(f"missing hamiltonian for basis element {missing!r}")
        labels = [f"x{i+1}" for i in range(dim)]
    if len(labels) != dim:
        raise ParseError("lie_algebra.labels must list one label per element")
    index = {label: i for i, label in enumerate(labels)}
    brackets: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
    for entry in lie["brackets"]:
        entry = _read(entry, _BRACKET, "bracket entry")
        left, right = entry["left"], entry["right"]
        if left not in index or right not in index:
            raise ParseError(f"bracket uses unknown labels {echo(left)}, {echo(right)}")
        comps = _read(entry["components"], None, "bracket components")
        for label in comps:
            if label not in index:
                raise ParseError(f"unknown basis label {echo(label)} in bracket components")
        if (index[left], index[right]) in brackets:
            raise ValidationError(f"bracket of {echo(left)} and {echo(right)} is stated twice")
        brackets[index[left], index[right]] = tuple(
            (index[label], _scalar_check(value, "bracket components"))
            for label, value in comps.items()
        )
    generators = []
    generator_names = []
    for entry in lie["invariant_generators"]:
        entry = _read(entry, _GENERATOR, "invariant generator")
        gen_name = entry["name"]
        if gen_name in generator_names:
            raise ValidationError(f"invariant generator {echo(gen_name)} is named twice")
        poly = _capped_check(entry["poly"], labels, f"invariant generator {echo(gen_name)}")
        corrections = _series(entry["section_correction"], labels,
                              f"section correction of {echo(gen_name)}")
        generators.append(InvariantGenerator(gen_name, poly, corrections))
        generator_names.append(gen_name)

    hamiltonians = []
    for label in labels:
        if label not in ham_data:
            raise ParseError(f"missing hamiltonian for basis element {echo(label)}")
        hamiltonians.append(
            _capped_check(ham_data[label], coord_names, f"hamiltonian {echo(label)}")
        )
    if len(ham_data) > len(index):
        extra = next(label for label in ham_data if label not in index)
        raise ParseError(f"hamiltonian for unknown label {echo(extra)}")
    top = max((h.degree() for h in hamiltonians), default=0)
    largest = max((  # the largest pullback bound
        _substitution_bound(pairs, gen.poly, top, f"pullback of generator {echo(gen.name)}")
        for gen in generators
    ), default=0)
    quantum_corrections = []
    for label, corr in _read(
        doc["quantum_corrections"], None, "quantum_corrections"
    ).items():
        if label not in index:
            raise ParseError(f"quantum correction for unknown label {echo(label)}")
        quantum_corrections.append((label, _series(
            corr, coord_names, f"quantum correction of {echo(label)}"
        )))

    def lift_expression(expr: str, where: str) -> Poly:
        """A polynomial in the generator names whose substitution with the
        pullbacks is inside the budget."""
        poly = _capped_check(expr, generator_names, where)
        _substitution_bound(pairs, poly, largest, where)
        return poly

    lifts = []
    lift_names = []
    for entry in doc["lifts"]:
        classical = isinstance(entry, dict) and "classical" in entry
        entry = _read(entry, _CLASSICAL_LIFT if classical else _RELATION_LIFT,
                      "lift entry")
        lift_name = entry["name"]
        if lift_name in lift_names:
            raise ValidationError(f"lift {echo(lift_name)} is named twice")
        where = f"lift {echo(lift_name)}"
        if classical:  # the monic relation x - E of degree 1
            element = lift_expression(entry["classical"], where)
            lifts.append(LiftSpec(lift_name, (-element,)))
        else:
            if not entry["relation"]:
                raise ParseError("lift relation needs at least one coefficient")
            if len(entry["relation"]) > MAX_WORD_LENGTH:
                raise ValidationError(
                    f"{where} relation has {len(entry['relation'])} coefficients, "
                    f"over the word-length budget of {MAX_WORD_LENGTH}"
                )
            target = _capped_check(entry["target"], coord_names, where)
            relation = tuple(lift_expression(expr, f"{where} relation")
                             for expr in entry["relation"])
            lifts.append(LiftSpec(lift_name, relation, target))
        lift_names.append(lift_name)

    relations = tuple(
        (expr, _capped_check(expr, lift_names, "generator relation"))
        for expr in doc["relations"]
    )
    named: set[str] = set()
    for gen_name in doc["center_generators"]:
        if gen_name not in lift_names:
            raise ParseError(f"center generator {echo(gen_name)} does not name a lift")
        if gen_name in named:
            raise ValidationError(f"center generator {echo(gen_name)} is named twice")
        named.add(gen_name)

    samples = _read(doc["samples"], _SAMPLES, "samples")
    return Scenario(
        name=default_name if doc["name"] is None else doc["name"],
        description=doc["description"],
        pairs=pairs,
        weights=space["weights"],
        hbar_weight=space["hbar_weight"],
        bivector=bivector,
        lie_dim=dim,
        lie_labels=tuple(labels),
        lie_brackets=tuple(brackets.items()),
        lie_generators=tuple(generators),
        hamiltonians=tuple(hamiltonians),
        quantum_corrections=tuple(quantum_corrections),
        truncation=doc["truncation"],
        max_degree=doc["max_degree"],
        test_degree=doc["test_degree"],
        lifts=tuple(lifts),
        relations=relations,
        center_generators=tuple(doc["center_generators"]),
        tasks=tuple(task for task in TASK_ORDER if task in doc["tasks"]),
        axiom_samples=samples["axioms"],
        moment_samples=samples["moment"],
    )


def load_scenario(path_or_preset: str) -> Scenario:
    """Load from a filesystem path or a shipped preset name."""
    path = Path(path_or_preset)
    if not path.exists():
        preset = preset_path(path_or_preset)
        if preset is None:
            raise ParseError(f"no such scenario file or preset: {path_or_preset}")
        path = preset
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"JSON in {path} is nested too deeply") from None
    return parse_scenario(data, default_name=path.stem)


def list_presets() -> list[tuple[str, str]]:
    """Shipped scenario names with descriptions, sorted."""
    out = []
    base = resources.files("qcenter").joinpath("scenarios")
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text())
            out.append((entry.name[:-5], data.get("description", "")))
    return out


def preset_path(name: str) -> Path | None:
    base = resources.files("qcenter").joinpath("scenarios")
    candidate = base.joinpath(f"{name}.json")
    if candidate.is_file():
        return Path(str(candidate))
    return None


class BuiltScenario(NamedTuple):
    """Scenario with all mathematical objects constructed and validated.
    The action holds the space, the product and the generators' pullbacks
    and central lifts."""

    scenario: Scenario
    action: HamiltonianAction
    targets: dict[str, Poly]  # each lift's classical element, by name


def build_scenario(scenario: Scenario) -> BuiltScenario:
    """Construct the space, algebra and validated action.

    Raises ``ValidationError`` (or a subclass) when any mathematical
    invariant fails.
    """
    space = SymplecticSpace(scenario.pairs, bivector=scenario.bivector,
                            weights=scenario.weights, hbar_weight=scenario.hbar_weight)
    if "centers" in scenario.tasks:
        try:
            check_slicing_grading(space)
        except ValidationError as exc:
            raise ValidationError(f"the centers task cannot run: {exc}") from None
        if scenario.truncation == 0:
            raise ValidationError(
                "the centers task cannot run: at truncation 0 every deformed "
                "commutator vanishes, so it needs truncation at least 1"
            )
    if "axioms" in scenario.tasks:
        try:
            space.check_graded_bivector()
        except ValidationError as exc:
            raise ValidationError(f"the axioms task cannot run: {exc}") from None
    labels = list(scenario.lie_labels)
    brackets = {pair: dict(comps) for pair, comps in scenario.lie_brackets}
    lie = LieAlgebraData(scenario.lie_dim, labels, brackets, scenario.lie_generators)

    star = StarProduct(space, scenario.truncation)
    quantum = None
    correction_map = dict(scenario.quantum_corrections)
    if correction_map:
        quantum = [
            HSeries(space.nvars, scenario.truncation, {0: ham, **{
                r: correction for r, correction in correction_map.get(label, ())
                if r <= scenario.truncation
            }})
            for label, ham in zip(labels, scenario.hamiltonians)
        ]
    action = HamiltonianAction(lie, star, scenario.hamiltonians, quantum)
    lifts_run = scenario.lifts and {"lift", "iso", "weyl"} & set(scenario.tasks)
    if "centers" in scenario.tasks or lifts_run:
        check_test_cutoff(action, scenario.max_degree, scenario.test_degree)
    if lifts_run:
        try:  # the check of every lift's subalgebra; degree 0 builds nothing more
            moment_image_basis(action, 0)
            # only the order-N coefficients are open (module docstring)
            for gen, lift in zip(lie.invariant_generators, action.central_lifts):
                what = f"the central lift of generator {echo(gen.name)}"
                check_invariant(action, lift.coefficient(action.order),
                                f"{what} at order {action.order}")
                if {"iso", "weyl"} & set(scenario.tasks) and lift.series_weight(
                        space.weights, space.hbar_weight) is None:
                    raise ValidationError(f"{what} is not weight-homogeneous")
        except ValidationError as exc:
            raise ValidationError(f"the lift tasks cannot run: {exc}") from None
    targets = {  # a classical request's target: its element on the pullbacks
        spec.name: (-spec.relation[0]).substitute(action.pullbacks, space.nvars)
        if spec.target is None else spec.target
        for spec in scenario.lifts
    }
    if "weyl" in scenario.tasks and scenario.lifts:
        # the generators are a complete test set at parameter 1 only when
        # the action preserves the product there (weyl module docstring)
        for label, h in zip(labels, scenario.hamiltonians):
            if h.degree() > 2:
                raise ValidationError(
                    f"the weyl task cannot run: the hamiltonian of {echo(label)} has "
                    f"degree {h.degree()}, and the product at parameter 1 is "
                    "invariant only under hamiltonians of degree at most 2"
                )
        # a lift's order-0 term is its classical element: with terms of two
        # weights there, the lift has no single weight to specialize at
        for name, f in targets.items():
            if not f.is_homogeneous(space.weights):
                raise ValidationError(
                    f"the weyl task cannot run: classical part of lift {echo(name)} "
                    "is not weight-homogeneous"
                )
    return BuiltScenario(scenario, action, targets)


# -- lift assembly -----------------------------------------------------------------


def resolve_lift(built: BuiltScenario, spec: LiftSpec
                 ) -> tuple[Poly, MonicRelation]:
    """Target polynomial and monic relation for a lift request.  The target
    comes from the build; each relation coefficient is evaluated once,
    under the deformed product on the central lifts, and its classical
    part is the coefficient on the pullbacks (``lifting`` module
    docstring)."""
    act = built.action
    return built.targets[spec.name], MonicRelation(tuple(
        star_evaluate(act.star, a, act.central_lifts) for a in spec.relation))


def run_lifts(built: BuiltScenario, test_elements: Sequence[Poly]
              ) -> tuple[list[tuple[str, Poly, HSeries]], list[dict]]:
    """Execute every lift request; returns entries and their verifications."""
    entries = []
    verifications = []
    for spec in built.scenario.lifts:
        f, rel = resolve_lift(built, spec)
        fhat = hensel_lift(f, rel, built.action)
        report = verify_lift(fhat, rel, built.action, test_elements)
        entries.append((spec.name, f, fhat))
        verifications.append({"name": spec.name, **report.to_json_dict()})
        if not report.passed:
            raise ValidationError(f"lift verification failed for {echo(spec.name)}")
    return entries, verifications


# -- task runner --------------------------------------------------------------------


def run_scenario(
    scenario: Scenario,
    truncation: int | None = None,
    max_degree: int | None = None,
) -> RunReport:
    """Execute the scenario's tasks in order and assemble the run report.

    Parse and validation failures propagate as exceptions; assertion
    failures inside tasks are recorded as failed tasks.
    """
    changes = {
        key: _integer(value, key, _SCENARIO[key][2])
        for key, value in (("truncation", truncation), ("max_degree", max_degree))
        if value is not None
    }
    if max_degree is not None:  # the test cutoff stays at least two above it
        changes["test_degree"] = max(scenario.test_degree, changes["max_degree"] + 2)
    if changes:
        scenario = scenario._replace(**changes)
        _check_bounds(scenario.pairs, scenario.bivector, scenario.truncation,
                      scenario.max_degree, scenario.test_degree)
    run = _Run(build_scenario(scenario))
    report = RunReport(scenario.name, scenario.truncation, scenario.max_degree,
                       scenario.test_degree)
    for task in scenario.tasks:
        try:
            result = _TASKS[task](run)
        except QCenterError as exc:
            result = TaskResult(task, False, {}, str(exc))
        report.tasks.append(result)
    return report


class _Run:
    """One run of a built scenario: the tasks, and the results they share,
    each computed on first use.  A ``cached_property`` keeps nothing when
    its computation raises, so a failed lift run is not kept and each task
    that needs it reports the failure."""

    def __init__(self, built: BuiltScenario):
        self.built = built

    @cached_property
    def invariants(self) -> Invariants:
        return invariants_up_to(self.built.action, self.built.scenario.test_degree)

    @cached_property
    def lifts(self) -> tuple[list[tuple[str, Poly, HSeries]], list[dict]]:
        """``run_lifts`` once per run, for the lift, iso and weyl tasks,
        against the quantum center's test set: the invariant generators up
        to the test cutoff.  On the validated action, a series that commutes
        with them modulo the truncation commutes with every invariant up to
        the cutoff.  The weyl task tests the specialized lifts against the
        same generators."""
        return run_lifts(self.built, self.invariants.generators)

    def _task_axioms(self) -> TaskResult:
        act, count = self.built.action, self.built.scenario.axiom_samples
        triples = sample_triples(_SAMPLE_SEED, act.space, count, max_degree=4)
        axiom_report = check_axioms(act.star, triples)
        pairs = sample_homogeneous_pairs(_SAMPLE_SEED + 1, act.space, count, max_degree=4)
        hom_report = check_homogeneity(act.star, pairs)
        passed = axiom_report.passed and hom_report.passed
        details = {
            "checks": axiom_report.checks + hom_report.checks,
            "failures": axiom_report.to_json_dict()["failures"]
            + hom_report.to_json_dict()["failures"],
        }
        return TaskResult("axioms", passed, details)

    def _task_moment(self) -> TaskResult:
        act, count = self.built.action, self.built.scenario.moment_samples
        samples = sample_polys(_SAMPLE_SEED + 2, act.space, count, max_degree=6)
        check = check_quantum_moment_condition(act, samples)
        return TaskResult("moment", check.passed, check.to_json_dict())

    def _task_triangle(self) -> TaskResult:
        act = self.built.action
        check = check_classical_limit_triangle(act)
        return TaskResult("triangle", check.passed, {
            "generators": [gen.name for gen in act.lie.invariant_generators],
            "failures": check.to_json_dict()["failures"],
        })

    def _task_invariants(self) -> TaskResult:
        degrees = range(self.built.scenario.max_degree + 1)
        names = self.built.action.space.names
        dimensions = {str(d): self.invariants.dimension(d) for d in degrees}
        bases = {
            str(d): [f.to_string(names) for f in self.invariants.basis(d)]
            for d in degrees
        }
        return TaskResult("invariants", True, {"dimensions": dimensions, "bases": bases})

    def _task_centers(self) -> TaskResult:
        scenario = self.built.scenario
        center_report = compare_centers(
            self.built.action, scenario.max_degree, scenario.test_degree
        )
        return TaskResult("centers", center_report.passed, center_report.to_json_dict())

    def _task_lift(self) -> TaskResult:
        _, verifications = self.lifts
        return TaskResult("lift", True, {"lifts": verifications})

    def _task_iso(self) -> TaskResult:
        entries, _ = self.lifts
        iso = build_center_iso(entries, self.built.scenario.relations, self.built.action)
        return TaskResult("iso", iso.passed, iso.to_json_dict())

    def _task_weyl(self) -> TaskResult:
        entries, _ = self.lifts
        lifted = [(name, fhat) for name, _, fhat in entries]
        result = weyl_report(self.built.action.star, lifted,
                             self.built.scenario.center_generators,
                             self.invariants.generators)
        return TaskResult("weyl", result.passed, result.to_json_dict())


_TASKS = {
    "axioms": _Run._task_axioms,
    "moment": _Run._task_moment,
    "triangle": _Run._task_triangle,
    "invariants": _Run._task_invariants,
    "centers": _Run._task_centers,
    "lift": _Run._task_lift,
    "iso": _Run._task_iso,
    "weyl": _Run._task_weyl,
}
