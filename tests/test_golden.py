"""Byte-for-byte regression of the shipped presets' JSON reports.

The files under ``tests/golden/`` are the output of
``qcenter run <preset> --report json``, and ``<preset>_deg10.json`` that of
``qcenter run <preset> --max-degree 10 --report json``; at degree 10 the
weight-zero candidates and the generator test sets of ``centers`` cut the
most work.  ``so3_rotation.json`` is the output of ``qcenter run
tests/data/so3_rotation.json --report json``: so(3) rotating the
cotangent space of 3-space, where no hamiltonian is diagonal, so every
invariant slice goes through elimination.  ``cubic_t2.json`` is the output
of ``qcenter run tests/data/cubic_t2.json --report json``, the one
document whose hamiltonian is not quadratic.  ``torus_k2_corrected.json``
is the output of ``qcenter run tests/data/torus_k2_corrected.json --report
json``, the one document with a quantum correction, which shifts the
central lift and the lift by ``hbar``.  ``skew_torus.json`` is the output
of ``qcenter run tests/data/skew_torus.json --report json``, the one
all-diagonal document whose invariant generators go above degree 2
(``q1*p2^3`` and ``q2^3*p1``).  ``sl2_two_copies.json`` is the output of
``qcenter run tests/data/sl2_two_copies.json --report json``: sl2 on two
copies of the plane, whose six quadratic generators fill the slices of
degrees 4 and 6 with their products.  Any change to a basis, a
rank, a printed polynomial or the report layout shows up here.  After an
intended change, regenerate a file with ``qcenter run <preset>
[--max-degree 10] --report json --out tests/golden/<file>``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from qcenter.report import to_json
from qcenter.scenario import list_presets, load_scenario, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"
PRESETS = [name for name, _ in list_presets()]  # a new preset needs its file


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


def test_cubic_report_bytes_match_golden():
    rendered = to_json(run_scenario(load_scenario(str(DATA / "cubic_t2.json"))))
    assert rendered.encode() == (GOLDEN / "cubic_t2.json").read_bytes()


def test_quantum_corrected_report_bytes_match_golden():
    path = DATA / "torus_k2_corrected.json"
    rendered = to_json(run_scenario(load_scenario(str(path))))
    assert rendered.encode() == (GOLDEN / "torus_k2_corrected.json").read_bytes()


def test_skew_torus_report_bytes_match_golden():
    path = DATA / "skew_torus.json"
    rendered = to_json(run_scenario(load_scenario(str(path))))
    assert rendered.encode() == (GOLDEN / "skew_torus.json").read_bytes()


def test_sl2_two_copies_report_bytes_match_golden():
    path = DATA / "sl2_two_copies.json"
    rendered = to_json(run_scenario(load_scenario(str(path))))
    assert rendered.encode() == (GOLDEN / "sl2_two_copies.json").read_bytes()
