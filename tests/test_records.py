"""The package's records: named tuples where nothing is rebound after
construction, slotted classes where a count grows or a constructor checks
its data.  Importing the package loads no ``dataclasses``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcenter
from qcenter import (
    HSeries,
    InvariantGenerator,
    MonicRelation,
    SymplecticSpace,
    UEnvElement,
)
from qcenter.centers import CenterRow
from qcenter.report import RunReport
from qcenter.scenario import LiftSpec, load_scenario
from qcenter.star import CheckReport

from oracle import abelian_data


def test_importing_the_package_loads_no_dataclasses():
    # a fresh interpreter without site hooks: only qcenter's own imports count
    env = dict(os.environ, PYTHONPATH=str(Path(qcenter.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, qcenter, qcenter.scenario, qcenter.report, qcenter.cli; "
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_fresh_reports_share_no_list():
    first, second = CheckReport("a"), CheckReport("b")
    first.add("x", False, "why")
    assert (first.checks, len(first.failed)) == (1, 1)
    assert (second.checks, second.failed) == (0, [])

    first, second = RunReport("a", 1, 2, 3), RunReport("b", 1, 2, 3)
    assert first.tasks is not second.tasks
    first.tasks.append(None)
    assert second.tasks == []


def test_center_row_lists_have_no_shared_default():
    # each caller passes its own lists: there is no default to share
    assert CenterRow._field_defaults == {}
    rows = [CenterRow(0, 1, 1, 1, [], []) for _ in range(2)]
    rows[0].poisson_basis.append("q1")
    assert rows[1].poisson_basis == []


def _frozen_records():
    space = SymplecticSpace(1)
    q1 = space.q(1)
    yield load_scenario("torus_k4"), "truncation"
    yield LiftSpec("J", ()), "target"
    yield InvariantGenerator("t", q1), "poly"
    yield MonicRelation((HSeries.from_poly(-q1, 2),)), "coefficients"
    yield q1, "terms"
    yield HSeries.from_poly(q1, 2), "terms"
    yield space, "pairs"
    yield UEnvElement.generator(abelian_data(1), 0, 2), "terms"


@pytest.mark.parametrize("record, field", list(_frozen_records()),
                         ids=["Scenario", "LiftSpec", "InvariantGenerator",
                              "MonicRelation", "Poly", "HSeries",
                              "SymplecticSpace", "UEnvElement"])
def test_former_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
