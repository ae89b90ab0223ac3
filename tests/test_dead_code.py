"""Guard against dead public API in the package.

Every public function, class and method under ``src/qcenter`` must be
referenced somewhere in the package outside its own body.  A method is
referenced only through an ``Attribute``; a module-level name through a
``Name`` that is read or an ``Attribute``.  A local variable of the same
spelling is not a reference.  An export in ``__init__.py`` is an import,
not a reference, so a name that is only exported counts as dead.

Likewise every defaulted parameter of a public function, method or class
constructor must be passed by some call in the package outside the
function's own body, by keyword or by position.  A defaulted field of a
``NamedTuple`` class is a constructor parameter too.  Calls are matched by the
called name, and a call that unpacks ``*args`` or ``**kwargs`` passes every
parameter.  A parameter no caller sets is a knob nobody turns.

Finally every function and method written in a package file, private
ones included, must be entered by some run of the command line: the
presets, ``validate``, ``list-presets`` and one document per error path.
Reading an attribute of the same name elsewhere does not count.

The few names and parameters kept for callers outside the package, or for
paths no run takes, are listed below, each with its reason.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import qcenter
from qcenter.cli import main
from qcenter.scenario import list_presets, preset_path

ALLOWED = {
    "bidifferential": "a BENCHMARK.json per-layer metric names it",
    "q": "coordinate constructors for library callers and tests",
    "p": "coordinate constructors for library callers and tests",
}

UNPASSED_ALLOWED = {
    "HamiltonianAction(validate)":
        "skips the moment checks for actions that break them on purpose (tests)",
    "main(argv)": "argument list for callers that drive the CLI in-process",
}

_METRIC = "a BENCHMARK.json per-layer metric names it: bench/run.py --trace 1 needs it"
_GUARD = "immutability guard: entered only by an assignment it refuses"
_REPR = "pytest prints it when an assertion on the value fails"
ENTERED_ALLOWED = {
    "star.StarProduct.bidifferential": _METRIC,
    "poly.Poly.coefficient": _METRIC,
    "series.HSeries.__mul__": _METRIC,
    "star._first_nonzero": "entered only when an axiom fails",
    "poly.Poly.__setattr__": _GUARD,
    "series.HSeries.__setattr__": _GUARD,
    "space.SymplecticSpace.__setattr__": _GUARD,
    "envelope.UEnvElement.__setattr__": _GUARD,
    "lifting.MonicRelation.__setattr__": _GUARD,
    "poly.Poly.__repr__": _REPR,
    "series.HSeries.__repr__": _REPR,
    "envelope.UEnvElement.__eq__": "the envelope and acceptance tests compare elements",
    "space.SymplecticSpace.q": "coordinate constructor for library callers and tests",
    "space.SymplecticSpace.p": "coordinate constructor for library callers and tests",
}


def _public_definitions(tree: ast.Module) -> list[tuple[ast.AST, bool]]:
    """Module-level and class-level public functions and classes, each
    with whether it is a class member."""
    found = []

    def visit(node: ast.AST, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not child.name.startswith("_"):
                    found.append((child, in_class))
                if isinstance(child, ast.ClassDef):
                    visit(child, True)
            else:
                visit(child, in_class)

    visit(tree, False)
    return found


def unreferenced_public_names(package_dir: Path) -> list[str]:
    trees = {
        path.relative_to(package_dir): ast.parse(path.read_text())
        for path in sorted(package_dir.rglob("*.py"))
    }
    loads: dict[str, list[ast.AST]] = {}
    attributes: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, []).append(node)
    dead = []
    for path, tree in trees.items():
        for definition, in_class in _public_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            uses = attributes.get(definition.name, [])
            if not in_class:
                uses = uses + loads.get(definition.name, [])
            if all(id(node) in inside for node in uses):
                dead.append(f"{path}:{definition.lineno} {definition.name}")
    return dead


def test_every_public_name_has_a_caller_in_the_package():
    dead = [
        entry for entry in unreferenced_public_names(Path(qcenter.__file__).parent)
        if entry.rsplit(" ", 1)[1] not in ALLOWED
    ]
    assert dead == []


def test_allowlist_names_only_unreferenced_definitions():
    # an allowlisted name that gains a caller should leave the list
    dead = unreferenced_public_names(Path(qcenter.__file__).parent)
    assert sorted({entry.rsplit(" ", 1)[1] for entry in dead}) == sorted(ALLOWED)


def _defaulted_parameters(fn: ast.FunctionDef, skip_first: bool
                          ) -> list[tuple[str, int | None]]:
    """(name, position or None when keyword-only) of each parameter with
    a default, positions counted as a caller sees them."""
    positional = fn.args.posonlyargs + fn.args.args
    first = 1 if skip_first else 0
    out = [
        (arg.arg, index - first)
        for index, arg in enumerate(positional)
        if index >= len(positional) - len(fn.args.defaults)
    ]
    out += [
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def _named_tuple_defaults(cls: ast.ClassDef) -> list[tuple[str, int]] | None:
    """(name, position) of each defaulted field of a ``NamedTuple``
    class, or None when the class is not one."""
    if not any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
               for base in cls.bases):
        return None
    fields = [
        item for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    return [
        (item.target.id, index)
        for index, item in enumerate(fields)
        if item.value is not None
    ]


def _callable_definitions(tree: ast.Module):
    """(called name, definition node, defaulted parameters) for public
    functions, public methods and the constructors of public classes."""
    for definition, in_class in _public_definitions(tree):
        if isinstance(definition, ast.ClassDef):
            fields = _named_tuple_defaults(definition)
            if fields is not None:
                yield definition.name, definition, fields
            for item in definition.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield definition.name, item, _defaulted_parameters(item, True)
        elif in_class:
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in definition.decorator_list
            )
            yield definition.name, definition, _defaulted_parameters(
                definition, not static
            )
        else:
            yield definition.name, definition, _defaulted_parameters(definition, False)


def unpassed_parameters(package_dir: Path) -> list[str]:
    trees = [ast.parse(path.read_text()) for path in sorted(package_dir.rglob("*.py"))]
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unpassed = []
    for tree in trees:
        for name, definition, parameters in _callable_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            outside = [call for call in calls.get(name, []) if id(call) not in inside]
            for param, position in parameters:
                if not any(_passes(call, param, position) for call in outside):
                    unpassed.append(f"{name}({param})")
    return unpassed


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_in_the_package():
    unpassed = [
        entry for entry in unpassed_parameters(Path(qcenter.__file__).parent)
        if entry not in UNPASSED_ALLOWED
    ]
    assert unpassed == []


def test_parameter_allowlist_names_only_unpassed_parameters():
    # an allowlisted parameter that gains a caller should leave the list
    unpassed = unpassed_parameters(Path(qcenter.__file__).parent)
    assert sorted(set(unpassed)) == sorted(UNPASSED_ALLOWED)


def test_a_named_tuple_field_default_is_a_constructor_default(tmp_path):
    (tmp_path / "records.py").write_text(
        "from typing import NamedTuple\n"
        "class Entry(NamedTuple):\n"
        "    label: str\n"
        "    detail: str = ''\n"
        "    weight: int = 1\n"
        "first = Entry('a', weight=2)\n"
    )
    assert unpassed_parameters(tmp_path) == ["Entry(detail)"]


def _package_functions() -> dict:
    """``module.Class.name`` of each function and method written in a
    package file, keyed by its code object.  Code generated elsewhere, such
    as the methods of a ``NamedTuple``, is skipped."""
    found = {}
    for info in pkgutil.iter_modules(qcenter.__path__):
        module = importlib.import_module(f"qcenter.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if isinstance(value, type) else [("", value)]
            for member, raw in members:
                fn = getattr(raw, "__func__", getattr(raw, "fget", raw))
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == module.__file__:
                    found[code] = ".".join(filter(None, (info.name, name, member)))
    return found


def _preset(name: str) -> dict:
    return json.loads(preset_path(name).read_text())


def _error_documents():
    """(name, document, exit code) of one run down each error path; the
    comment names the function that path enters."""
    torus = _preset("torus_k2")
    for name, expr, code in [
        ("unclosed", "(q1*p1", 2),                 # _Parser.expect_op
        ("huge_constant", "q1*p1 + 2^100000", 2),  # _check_constant_power
        ("over_cap", "q1^25", 3),                  # DegreeCapError
    ]:
        yield name, dict(torus, hamiltonians={"t": expr}), code
    # RelationViolationError
    yield "violated_relation", dict(torus, relations=["J - 1"]), 1
    # Poly.constant_term: a classical lift with no generator in it
    constant = dict(torus, lifts=[{"name": "J", "classical": "3"}])
    constant["lie_algebra"] = dict(torus["lie_algebra"], invariant_generators=[])
    yield "constant_lift", constant, 1
    # LiftObstructionError: the Casimir's lift without its order-2 correction
    obstructed = _preset("sl2_tstar_k2")
    del obstructed["lie_algebra"]["invariant_generators"][0]["section_correction"]
    yield "obstructed", obstructed, 1


@pytest.fixture(scope="module")
def unentered(tmp_path_factory) -> set[str]:
    """Names of the package functions that no command-line run enters."""
    presets = [name for name, _ in list_presets()]
    runs = [(["run", name, "--report", "json"], 0) for name in presets]
    runs += [(["run", "torus_k2"], 0), (["list-presets"], 0)]
    runs += [(["validate", name], 0) for name in presets]
    folder = tmp_path_factory.mktemp("documents")
    for name, document, code in _error_documents():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(document))
        runs.append((["run", str(path)], code))

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            exits = [main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    assert exits == [code for _, code in runs]
    return {name for code, name in _package_functions().items()
            if code not in entered}


def test_every_package_function_is_entered_by_a_run(unentered):
    assert sorted(unentered - set(ENTERED_ALLOWED)) == []


def test_entered_allowlist_names_only_unentered_functions(unentered):
    # an allowlisted function that a run enters should leave the list
    assert sorted(set(ENTERED_ALLOWED) - unentered) == []
