"""The per-layer metrics in BENCHMARK.json name functions of the package.

The traced benchmark run looks each named function up in its layer module
and fails when one is missing, so a rename or deletion here must not go
unnoticed.  Derived metrics name no function and are skipped.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
DERIVED = ("layer_self_s", "rank_ratio", "kernel_solves")
SUFFIXES = ("calls", "self_s", "s")


def _function_names() -> list[str]:
    names = []
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        head, _, suffix = name.rpartition(".")
        if name == "trace.overhead_s" or suffix in DERIVED:
            continue
        assert suffix in SUFFIXES, f"unknown metric kind in {name!r}"
        names.append(head)
    return sorted(set(names))


@pytest.mark.parametrize("name", _function_names())
def test_per_layer_metric_names_a_package_function(name):
    layer, *path = name.split(".")
    assert 1 <= len(path) <= 2, name
    owner = importlib.import_module(f"qcenter.{layer}")
    for part in path:
        # the tracer wraps only what a module or class defines itself
        assert part in vars(owner), f"{name}: no {part!r} in {owner!r}"
        owner = vars(owner)[part]
    assert callable(owner), name
    assert owner.__module__ == f"qcenter.{layer}", name
