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

The few public names and parameters kept for callers outside the package
are listed below, each with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qcenter

ALLOWED = {
    "bidifferential": "a BENCHMARK.json per-layer metric names it",
    "contains": "GradedSubspace membership, the query a graded space answers",
    "sl2_data": "ready-made rank-1 simple algebra for library callers and tests",
    "abelian_data": "ready-made abelian algebra for library callers and tests",
    "weyl_product": "the product that weyl_commutator is the commutator of",
    "random_poly": "seeded sampling helper for the property tests",
    "random_homogeneous_poly": "seeded sampling helper for the property tests",
    "q": "coordinate constructors for library callers and tests",
    "p": "coordinate constructors for library callers and tests",
}

UNPASSED_ALLOWED = {
    "HamiltonianAction(validate)":
        "skips the moment checks for actions that break them on purpose (tests)",
    "main(argv)": "argument list for callers that drive the CLI in-process",
    "sl2_data(invariant_generators)":
        "designated invariants other than the Casimir for library callers",
    "abelian_data(labels)": "basis labels other than t1, t2, ... for library callers",
    "random_poly(max_terms)": "term count of a sample for the property tests",
    "random_homogeneous_poly(max_terms)":
        "term count of a sample for the property tests",
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
