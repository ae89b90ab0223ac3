"""Guard against dead public API in the package.

Every public function, class and method under ``src/qcenter`` must be
referenced somewhere in the package outside its own body.  A method is
referenced only through an ``Attribute``; a module-level name through a
``Name`` that is read or an ``Attribute``.  A local variable of the same
spelling is not a reference.  An export in ``__init__.py`` is an import,
not a reference, so a name that is only exported counts as dead.  The few
public names kept for callers outside the package are listed below, each
with its reason.
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
