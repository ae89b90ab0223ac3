"""Byte-for-byte regression of the shipped presets' JSON reports.

The files under ``tests/golden/`` are the output of
``qcenter run <preset> --report json``.  Any change to a basis, a rank, a
printed polynomial or the report layout shows up here.  After an intended
change, regenerate a file with
``qcenter run <preset> --report json --out tests/golden/<preset>.json``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from qcenter.report import to_json
from qcenter.scenario import load_scenario, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
PRESETS = ("trivial_k2", "torus_k2", "torus_k4", "sl2_tstar_k2")


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_report_bytes_match_golden(preset):
    rendered = to_json(run_scenario(load_scenario(preset)))
    assert rendered.encode() == (GOLDEN / f"{preset}.json").read_bytes()
