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
structural validation (``ValidationError``): bracket antisymmetry and the
Jacobi identity, bivector antisymmetry and invertibility, invariance of
designated generators, hamiltonian equivariance, the quantum condition,
and, when the task list holds ``centers``, the uniform default grading
with a graded bivector that quantum-center slicing needs.

Parsing also enforces a size budget, before anything is built from the
document (``ValidationError``):

* ``MAX_CANDIDATES`` bounds the number of monomials of degree at most
  ``max(test_degree, 2)`` in the ``2n`` coordinates, ``C(2n + D, D)``.
  Those are the candidates of every invariant and center slice; degree 2
  at least, so that the ``2n x 2n`` bivector is inside the budget too.
* ``MAX_WORD_LENGTH`` bounds the degree of each invariant generator and
  section correction, the longest word its symmetrization rewrites:
  ``normalize_word`` recurses once per rewrite step, so the cap keeps its
  depth well inside Python's recursion limit.  The same cap bounds the
  coordinate polynomials (hamiltonians, quantum corrections and lift
  targets), so a huge power there is refused before it is expanded and
  checked.
* ``MAX_SAMPLES`` bounds ``samples.axioms`` and ``samples.moment``: the
  sample lists are drawn whole before the checks run.

The budget bounds size, not time.  An admitted scenario can still run for
minutes: ``so3_rotation`` (``tests/data``) at ``max_degree`` 22 and
``test_degree`` 24 with tasks ``["invariants"]`` is admitted, and ran for
~80 s within 1.5 GB before it exited 0 (2-core host, Python 3.11.7).

Field reference (see the README for the full schema):

* ``name``, ``description``
* ``space``: ``pairs`` (required), ``weights``, ``hbar_weight``, ``bivector``
* ``lie_algebra``: ``dim``, ``labels``, ``brackets`` (list of
  ``{left, right, components: {label: scalar}}``), ``invariant_generators``
  (list of ``{name, poly, section_correction: {order: poly}}``)
* ``hamiltonians``: ``{label: coordinate polynomial}``
* ``quantum_corrections``: ``{label: {order: coordinate polynomial}}``
* ``truncation``, ``max_degree``, ``test_degree``
* ``lifts``: list of ``{name, classical}`` (a polynomial in generator
  names, carried by the section) or ``{name, target, relation: [a_0, ...]}``
  (coordinate polynomial with monic relation coefficients in generator
  names)
* ``relations``: polynomials in lift names that vanish classically
* ``center_generators``: distinct lift names forming the candidate
  generator set
* ``tasks``: subset of axioms, moment, triangle, invariants, centers,
  lift, iso, weyl
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from .action import (
    HamiltonianAction,
    check_classical_limit_triangle,
    check_quantum_moment_condition,
)
from .centers import (
    check_slicing_grading,
    compare_centers,
    invariants_up_to,
    quantum_tests,
)
from .errors import DegreeCapError, ParseError, QCenterError, ValidationError
from .liealg import InvariantGenerator, LieAlgebraData
from .lifting import (
    MonicRelation,
    build_center_iso,
    hensel_lift,
    star_evaluate,
    verify_lift,
)
from .linalg import GradedSubspace
from .parsing import parse_poly
from .poly import Poly, as_scalar, default_names
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
MAX_CANDIDATES = 10**6
MAX_WORD_LENGTH = 24
MAX_SAMPLES = 10**5


class LiftSpec(NamedTuple):
    name: str
    classical: Poly | None = None       # polynomial in generator names
    target: Poly | None = None          # coordinate polynomial
    relation: tuple[Poly, ...] = ()     # coefficients in generator names


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
    lie_brackets: tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]
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


def _require(data: dict, key: str, kind, where: str):
    _object(data, where)
    if key not in data:
        raise ParseError(f"missing required field {key!r} in {where}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"field {key!r} in {where} has the wrong type")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    return value


def _list(data: dict, key: str, where: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} in {where} must be a list")
    return value


def _syntax_check(expr: str, names: Sequence[str], where: str,
                  max_degree: int | None = None) -> Poly:
    try:
        return parse_poly(expr, names, max_degree=max_degree)
    except ParseError as exc:
        raise ParseError(f"bad polynomial in {where}: {exc}") from exc


def _scalar_check(value, where: str) -> Fraction:
    try:
        return as_scalar(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar in {where}: {value!r}") from exc


def _integer(value, key: str) -> int:
    if isinstance(value, bool):
        raise ValidationError(f"{key} must be an integer, not a boolean")
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{key} must be an integer, got {value!r}") from None


def _candidate_count(nvars: int, degree: int, limit: int) -> int:
    """C(nvars + degree, degree), the number of monomials of degree at
    most ``degree`` in ``nvars`` variables, or the first partial product
    above ``limit``.  Each step at least doubles the count, so this takes
    at most about log2(limit) steps however large the inputs are."""
    k = min(nvars, degree)
    count = 1
    for i in range(1, k + 1):
        count = count * (nvars + degree - k + i) // i
        if count > limit:
            break
    return count


def _check_bounds(pairs: int, truncation: int, max_degree: int, test_degree: int
                  ) -> tuple[int, int, int]:
    """Reject truncation and degree bounds that no task could run with,
    and scenarios over the candidate budget."""
    for key, value in (("truncation", truncation), ("max_degree", max_degree),
                       ("test_degree", test_degree)):
        if value < 0:
            raise ValidationError(f"{key} must be non-negative, got {value}")
    if max_degree > test_degree:
        raise ValidationError(
            f"max_degree {max_degree} exceeds test_degree {test_degree}"
        )
    if _candidate_count(2 * pairs, max(test_degree, 2), MAX_CANDIDATES) > MAX_CANDIDATES:
        raise ValidationError(
            f"space.pairs {pairs} with test_degree {test_degree} gives more "
            f"than {MAX_CANDIDATES} candidate monomials, over the size budget"
        )
    return truncation, max_degree, test_degree


def _capped_check(expr: str, names: Sequence[str], where: str) -> Poly:
    """A polynomial of degree at most ``MAX_WORD_LENGTH``, refused by the
    parser before a longer product or power is expanded."""
    try:
        return _syntax_check(expr, names, where, MAX_WORD_LENGTH)
    except DegreeCapError as exc:
        raise ValidationError(
            f"{where} has degree {exc.degree}, over the word-length budget "
            f"of {MAX_WORD_LENGTH}"
        ) from None


def parse_scenario(data: dict, default_name: str = "scenario") -> Scenario:
    """Document-shape and expression-syntax checks only."""
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    schema = data.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ParseError(f"unsupported scenario schema {schema!r}")
    name = data.get("name", default_name)

    space_data = _require(data, "space", dict, "scenario")
    pairs = _require(space_data, "pairs", int, "space")
    if isinstance(pairs, bool):
        raise ValidationError("space.pairs must be an integer, not a boolean")
    if pairs < 1:
        raise ParseError("space.pairs must be a positive integer")
    truncation, max_degree, test_degree = _check_bounds(
        pairs,
        _integer(data.get("truncation", 8), "truncation"),
        _integer(data.get("max_degree", 8), "max_degree"),
        _integer(data.get("test_degree", 10), "test_degree"),
    )
    weights = space_data.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != 2 * pairs:
            raise ParseError("space.weights must list one integer per variable")
        weights = tuple(_integer(w, "space.weights") for w in weights)
    hbar_weight = _integer(space_data.get("hbar_weight", 2), "space.hbar_weight")
    bivector = space_data.get("bivector")
    if bivector is not None:
        if not isinstance(bivector, list) or len(bivector) != 2 * pairs:
            raise ParseError("space.bivector must be a 2n x 2n matrix")
        rows = []
        for row in bivector:
            if not isinstance(row, list) or len(row) != 2 * pairs:
                raise ParseError("space.bivector must be a 2n x 2n matrix")
            rows.append(tuple(_scalar_check(v, "space.bivector") for v in row))
        bivector = tuple(rows)
    coord_names = default_names(2 * pairs)

    lie_data = _require(data, "lie_algebra", dict, "scenario")
    dim = _require(lie_data, "dim", int, "lie_algebra")
    if isinstance(dim, bool):
        raise ValidationError("lie_algebra.dim must be an integer, not a boolean")
    if dim < 0:
        raise ParseError("lie_algebra.dim must be non-negative")
    ham_data = _require(data, "hamiltonians", dict, "scenario")
    labels = lie_data.get("labels")
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
    if not isinstance(labels, list) or len(labels) != dim:
        raise ParseError("lie_algebra.labels must list one label per element")
    if not all(isinstance(label, str) for label in labels):
        raise ParseError("lie_algebra.labels must be strings")
    index = {label: i for i, label in enumerate(labels)}
    brackets = []
    for entry in _list(lie_data, "brackets", "lie_algebra"):
        left = _require(entry, "left", str, "bracket entry")
        right = _require(entry, "right", str, "bracket entry")
        comps = _require(entry, "components", dict, "bracket entry")
        if left not in index or right not in index:
            raise ParseError(f"bracket uses unknown labels {left!r}, {right!r}")
        comp_items = []
        for comp_label, value in comps.items():
            if comp_label not in index:
                raise ParseError(
                    f"unknown basis label {comp_label!r} in bracket components"
                )
            comp_items.append(
                (index[comp_label], _scalar_check(value, "bracket components"))
            )
        brackets.append((index[left], index[right], tuple(comp_items)))
    generators = []
    generator_names = []
    for entry in _list(lie_data, "invariant_generators", "lie_algebra"):
        gen_name = _require(entry, "name", str, "invariant generator")
        if gen_name in generator_names:
            raise ValidationError(f"invariant generator {gen_name!r} is named twice")
        poly = _capped_check(
            _require(entry, "poly", str, "invariant generator"),
            labels,
            f"invariant generator {gen_name!r}",
        )
        corrections = []
        where = f"section correction of {gen_name!r}"
        section = _object(entry.get("section_correction", {}), where)
        for order_str, expr in sorted(section.items()):
            try:
                order = int(order_str)
            except ValueError:
                raise ParseError(
                    f"section correction order {order_str!r} is not an integer"
                ) from None
            corrections.append((order, _capped_check(expr, labels, where)))
        generators.append(InvariantGenerator(gen_name, poly, tuple(corrections)))
        generator_names.append(gen_name)

    hamiltonians = []
    for label in labels:
        if label not in ham_data:
            raise ParseError(f"missing hamiltonian for basis element {label!r}")
        hamiltonians.append(
            _capped_check(ham_data[label], coord_names, f"hamiltonian {label!r}")
        )
    quantum_corrections = []
    corrections_data = _object(
        data.get("quantum_corrections", {}), "quantum_corrections"
    )
    for label, corr in corrections_data.items():
        if label not in index:
            raise ParseError(f"quantum correction for unknown label {label!r}")
        items = []
        corr = _object(corr, f"quantum correction of {label!r}")
        for order_str, expr in sorted(corr.items()):
            try:
                order = int(order_str)
            except ValueError:
                raise ParseError(
                    f"quantum correction order {order_str!r} is not an integer"
                ) from None
            items.append(
                (
                    order,
                    _capped_check(
                        expr, coord_names, f"quantum correction of {label!r}"
                    ),
                )
            )
        quantum_corrections.append((label, tuple(items)))

    lifts = []
    lift_names = []
    for entry in _list(data, "lifts", "scenario"):
        lift_name = _require(entry, "name", str, "lift entry")
        if lift_name in lift_names:
            raise ValidationError(f"lift {lift_name!r} is named twice")
        if "classical" in entry:
            classical = _syntax_check(
                entry["classical"], generator_names, f"lift {lift_name!r}"
            )
            lifts.append(LiftSpec(lift_name, classical=classical))
        else:
            target = _capped_check(
                _require(entry, "target", str, "lift entry"),
                coord_names,
                f"lift {lift_name!r}",
            )
            relation = _require(entry, "relation", list, "lift entry")
            if not relation:
                raise ParseError("lift relation needs at least one coefficient")
            relation = tuple(
                _syntax_check(expr, generator_names, f"lift {lift_name!r} relation")
                for expr in relation
            )
            lifts.append(LiftSpec(lift_name, target=target, relation=relation))
        lift_names.append(lift_name)

    relations = tuple(
        (expr, _syntax_check(expr, lift_names, "generator relation"))
        for expr in _list(data, "relations", "scenario")
    )
    center_generators = _list(data, "center_generators", "scenario")
    named: set[str] = set()
    for gen_name in center_generators:
        if gen_name not in lift_names:
            raise ParseError(
                f"center generator {gen_name!r} does not name a lift"
            )
        if gen_name in named:
            raise ValidationError(f"center generator {gen_name!r} is named twice")
        named.add(gen_name)

    tasks = data.get("tasks", list(TASK_ORDER))
    if not isinstance(tasks, list):
        raise ParseError("tasks must be a list of task names")
    for task in tasks:
        if task not in TASK_ORDER:
            raise ParseError(f"unknown task {task!r}")
    samples = data.get("samples", {})
    if not isinstance(samples, dict):
        raise ParseError("samples must be an object of sample counts")
    counts = {
        key: _integer(samples.get(key, 25), f"samples.{key}")
        for key in ("axioms", "moment")
    }
    for key, count in counts.items():
        if count < 0:
            raise ValidationError(f"samples.{key} must be non-negative, got {count}")
        if count > MAX_SAMPLES:
            raise ValidationError(
                f"samples.{key} {count} is over the sample budget of {MAX_SAMPLES}"
            )
    return Scenario(
        name=name,
        description=data.get("description", ""),
        pairs=pairs,
        weights=weights,
        hbar_weight=hbar_weight,
        bivector=bivector,
        lie_dim=dim,
        lie_labels=tuple(labels),
        lie_brackets=tuple(brackets),
        lie_generators=tuple(generators),
        hamiltonians=tuple(hamiltonians),
        quantum_corrections=tuple(quantum_corrections),
        truncation=truncation,
        max_degree=max_degree,
        test_degree=test_degree,
        lifts=tuple(lifts),
        relations=relations,
        center_generators=tuple(center_generators),
        tasks=tuple(task for task in TASK_ORDER if task in tasks),
        axiom_samples=counts["axioms"],
        moment_samples=counts["moment"],
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
    """Scenario with all mathematical objects constructed and validated."""

    scenario: Scenario
    space: SymplecticSpace
    star: StarProduct
    action: HamiltonianAction
    pullbacks: dict[str, Poly]
    central_lifts: dict[str, HSeries]


def build_scenario(scenario: Scenario) -> BuiltScenario:
    """Construct the space, algebra and validated action.

    Raises ``ValidationError`` (or a subclass) when any mathematical
    invariant fails.
    """
    space = SymplecticSpace(
        scenario.pairs,
        bivector=scenario.bivector,
        weights=scenario.weights,
        hbar_weight=scenario.hbar_weight,
    )
    if "centers" in scenario.tasks:
        try:
            check_slicing_grading(space)
        except ValidationError as exc:
            raise ValidationError(f"the centers task cannot run: {exc}") from None
    if "axioms" in scenario.tasks:
        try:
            space.check_graded_bivector()
        except ValidationError as exc:
            raise ValidationError(f"the axioms task cannot run: {exc}") from None
    labels = list(scenario.lie_labels)
    brackets = {
        (i, j): {k: value for k, value in comps}
        for i, j, comps in scenario.lie_brackets
    }
    lie = LieAlgebraData(
        scenario.lie_dim, labels, brackets, scenario.lie_generators
    )

    star = StarProduct(space, scenario.truncation)
    quantum = None
    correction_map = dict(scenario.quantum_corrections)
    if correction_map:
        quantum = []
        for label, ham in zip(labels, scenario.hamiltonians):
            series = HSeries.from_poly(ham, scenario.truncation)
            for order, correction in correction_map.get(label, ()):
                if order < 1:
                    raise ValidationError(
                        "quantum corrections must start at order 1"
                    )
                series = series + HSeries.from_poly(
                    correction, scenario.truncation
                ).hbar_shift(order)
            quantum.append(series)
    action = HamiltonianAction(lie, star, scenario.hamiltonians, quantum)
    pullbacks = {}
    central_lifts = {}
    for gen in lie.invariant_generators:
        pullbacks[gen.name] = action.moment_pullback(gen.poly)
        central_lifts[gen.name] = action.central_lift(gen.name)
    return BuiltScenario(scenario, space, star, action, pullbacks, central_lifts)


# -- lift assembly -----------------------------------------------------------------


def _generator_names(built: BuiltScenario) -> list[str]:
    return [gen.name for gen in built.action.lie.invariant_generators]


def _eval_generator_poly_classical(built: BuiltScenario, composed: Poly) -> Poly:
    gen_names = _generator_names(built)
    if not gen_names:
        return Poly.constant(built.space.nvars, composed.constant_term())
    return composed.substitute([built.pullbacks[n] for n in gen_names])


def _eval_generator_poly_quantum(built: BuiltScenario, composed: Poly) -> HSeries:
    lifts = [built.central_lifts[n] for n in _generator_names(built)]
    return star_evaluate(built.star, composed, lifts)


def resolve_lift(built: BuiltScenario, spec: LiftSpec
                 ) -> tuple[Poly, MonicRelation]:
    """Target polynomial and monic relation data for a lift request."""
    if spec.classical is not None:
        f = _eval_generator_poly_classical(built, spec.classical)
        ahat = _eval_generator_poly_quantum(built, spec.classical)
        return f, MonicRelation((-f,), (-ahat,))
    coefficients = []
    quantum = []
    for composed in spec.relation:
        coefficients.append(_eval_generator_poly_classical(built, composed))
        quantum.append(_eval_generator_poly_quantum(built, composed))
    return spec.target, MonicRelation(tuple(coefficients), tuple(quantum))


def run_lifts(built: BuiltScenario, test_elements: Sequence[Poly]
              ) -> tuple[list[tuple[str, Poly, HSeries]], list[dict]]:
    """Execute every lift request; returns entries and their verifications."""
    entries = []
    verifications = []
    for spec in built.scenario.lifts:
        f, rel = resolve_lift(built, spec)
        rel.validate_centrality(built.action, test_elements)
        fhat = hensel_lift(f, rel, built.action)
        report = verify_lift(fhat, rel, built.action, test_elements)
        entries.append((spec.name, f, fhat))
        verifications.append({"name": spec.name, **report.to_json_dict()})
        if not report.passed:
            raise ValidationError(f"lift verification failed for {spec.name!r}")
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
    changes: dict[str, int] = {}
    if truncation is not None:
        changes["truncation"] = truncation
    if max_degree is not None:  # the test cutoff stays at least two above it
        changes["max_degree"] = max_degree
        changes["test_degree"] = max(scenario.test_degree, max_degree + 2)
    if changes:
        scenario = scenario._replace(**changes)
        _check_bounds(scenario.pairs, scenario.truncation, scenario.max_degree,
                      scenario.test_degree)
    built = build_scenario(scenario)
    report = RunReport(
        scenario.name,
        scenario.truncation,
        scenario.max_degree,
        scenario.test_degree,
    )
    context: dict[str, Any] = {}
    for task in scenario.tasks:
        runner = _TASKS[task]
        try:
            result = runner(built, context)
        except QCenterError as exc:
            result = TaskResult(task, False, {}, str(exc))
        report.tasks.append(result)
    return report


def _invariants(built: BuiltScenario, context: dict) -> GradedSubspace:
    if "invariants" not in context:
        context["invariants"] = invariants_up_to(
            built.action, built.scenario.test_degree
        )
    return context["invariants"]


def _lift_tests(built: BuiltScenario, context: dict) -> list[Poly]:
    """The quantum center's test set (``quantum_tests``): a series that
    commutes with it modulo the truncation commutes with every invariant
    up to the test cutoff.  The generators a centers task found are
    reused, else they are found once here."""
    if "lift_tests" not in context:
        context["lift_tests"] = quantum_tests(
            built.action,
            _invariants(built, context),
            built.scenario.test_degree,
            context.get("generators"),
        )
    return context["lift_tests"]


def _task_axioms(built: BuiltScenario, context: dict) -> TaskResult:
    scenario = built.scenario
    triples = sample_triples(
        _SAMPLE_SEED, built.space, scenario.axiom_samples, max_degree=4
    )
    axiom_report = check_axioms(built.star, triples)
    pairs = sample_homogeneous_pairs(
        _SAMPLE_SEED + 1, built.space, scenario.axiom_samples, max_degree=4
    )
    hom_report = check_homogeneity(built.star, pairs)
    passed = axiom_report.passed and hom_report.passed
    details = {
        "checks": axiom_report.checks + hom_report.checks,
        "failures": axiom_report.to_json_dict()["failures"]
        + hom_report.to_json_dict()["failures"],
    }
    return TaskResult("axioms", passed, details)


def _task_moment(built: BuiltScenario, context: dict) -> TaskResult:
    samples = sample_polys(
        _SAMPLE_SEED + 2, built.space, built.scenario.moment_samples, max_degree=6
    )
    check = check_quantum_moment_condition(built.action, samples)
    return TaskResult("moment", check.passed, check.to_json_dict())


def _task_triangle(built: BuiltScenario, context: dict) -> TaskResult:
    details: dict[str, Any] = {"generators": [], "failures": []}
    passed = True
    for gen in built.action.lie.invariant_generators:
        check = check_classical_limit_triangle(built.action, gen.poly)
        details["generators"].append(gen.name)
        if not check.passed:
            passed = False
            details["failures"].extend(check.to_json_dict()["failures"])
    return TaskResult("triangle", passed, details)


def _task_invariants(built: BuiltScenario, context: dict) -> TaskResult:
    inv = _invariants(built, context)
    names = built.space.names
    dimensions = {
        str(d): inv.dimension(d) for d in range(built.scenario.max_degree + 1)
    }
    bases = {
        str(d): [f.to_string(names) for f in inv.basis(d)]
        for d in range(built.scenario.max_degree + 1)
    }
    return TaskResult(
        "invariants", True, {"dimensions": dimensions, "bases": bases}
    )


def _task_centers(built: BuiltScenario, context: dict) -> TaskResult:
    scenario = built.scenario
    center_report = compare_centers(
        built.action, scenario.max_degree, scenario.test_degree
    )
    context["generators"] = center_report.generators
    return TaskResult("centers", center_report.passed, center_report.to_json_dict())


def _task_lift(built: BuiltScenario, context: dict) -> TaskResult:
    entries, verifications = run_lifts(built, _lift_tests(built, context))
    context["lift_entries"] = entries
    return TaskResult("lift", True, {"lifts": verifications})


def _ensure_lifts(built: BuiltScenario, context: dict):
    if "lift_entries" not in context:
        entries, _ = run_lifts(built, _lift_tests(built, context))
        context["lift_entries"] = entries


def _task_iso(built: BuiltScenario, context: dict) -> TaskResult:
    _ensure_lifts(built, context)
    iso = build_center_iso(
        context["lift_entries"],
        built.scenario.relations,
        built.action,
    )
    return TaskResult("iso", iso.passed, iso.to_json_dict())


def _task_weyl(built: BuiltScenario, context: dict) -> TaskResult:
    inv = _invariants(built, context)
    _ensure_lifts(built, context)
    quadratic_tests = [u for d in inv.degrees() if d <= 2 for u in inv.basis(d)]
    lifted = [(name, fhat) for name, _, fhat in context["lift_entries"]]
    result = weyl_report(
        built.star, lifted, built.scenario.center_generators, quadratic_tests
    )
    return TaskResult("weyl", result.passed, result.to_json_dict())


_TASKS = {
    "axioms": _task_axioms,
    "moment": _task_moment,
    "triangle": _task_triangle,
    "invariants": _task_invariants,
    "centers": _task_centers,
    "lift": _task_lift,
    "iso": _task_iso,
    "weyl": _task_weyl,
}
