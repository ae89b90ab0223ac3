"""Byte-for-byte regression of the shipped presets' JSON reports.

The files under ``tests/golden/`` are the output of
``qcenter run <preset> --report json``, and ``<preset>_deg10.json`` that of
``qcenter run <preset> --max-degree 10 --report json``; at degree 10 the
weight-zero candidates and the generator test sets of ``centers`` cut the
most work.  ``so3_rotation.json`` is the output of ``qcenter run
tests/data/so3_rotation.json --report json``: so(3) rotating the
cotangent space of 3-space, where no hamiltonian is diagonal, so every
invariant slice goes through elimination.  Any change to a basis, a rank,
a printed polynomial or the report layout shows up here.  After an intended change, regenerate a file
with ``qcenter run <preset> [--max-degree 10] --report json --out
tests/golden/<file>``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from qcenter.report import to_json
from qcenter.scenario import load_scenario, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"
PRESETS = ("trivial_k2", "torus_k2", "torus_k4", "sl2_tstar_k2")


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_report_bytes_match_golden(preset):
    rendered = to_json(run_scenario(load_scenario(preset)))
    assert rendered.encode() == (GOLDEN / f"{preset}.json").read_bytes()


@pytest.mark.parametrize("preset", ("sl2_tstar_k2", "torus_k4"))
def test_degree_10_report_bytes_match_golden(preset):
    rendered = to_json(run_scenario(load_scenario(preset), max_degree=10))
    assert rendered.encode() == (GOLDEN / f"{preset}_deg10.json").read_bytes()


def test_non_diagonal_so3_report_bytes_match_golden():
    rendered = to_json(run_scenario(load_scenario(str(DATA / "so3_rotation.json"))))
    assert rendered.encode() == (GOLDEN / "so3_rotation.json").read_bytes()
