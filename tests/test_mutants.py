"""The mutation table stays applicable: every snippet of ``tests/mutants.py``
occurs exactly once in its source file, and every node it lists names a
test.  Running the mutants is the CI step ``python tests/mutants.py``."""

from __future__ import annotations

import ast

import pytest

from mutants import ROOT, ROWS, SRC, mutated


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_each_mutant_applies_to_exactly_one_place(row):
    source = (SRC / "qcenter" / row.file).read_text()
    assert mutated(row, source) != source
    assert bool(row.nodes) != bool(row.equivalent)  # killed by tests, or argued


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_each_node_of_a_mutant_names_a_test(row):
    for node in row.nodes:
        path, name = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}


def test_mutant_ids_are_unique():
    assert len({row.id for row in ROWS}) == len(ROWS)
