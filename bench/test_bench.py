"""Tests of the benchmark itself: workload generator, report gate and tracer.

    python3 -m pytest bench -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from qcenter.report import to_json  # noqa: E402
from qcenter.scenario import build_scenario, parse_scenario, run_scenario  # noqa: E402

import run  # noqa: E402
from tracer import Tracer, aggregate, calls_under  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEED,
    WORKLOADS,
    coordinate_images,
    parse,
    scenario_document,
    substitute,
    to_string,
    transform,
)

SEEDS = (0, 1, 2, 7, 12345)


def _bracket(x: str, y: str) -> int:
    """Standard Poisson bracket of two coordinate names."""
    if x[0] == "q" and y[0] == "p" and x[1:] == y[1:]:
        return 1
    if x[0] == "p" and y[0] == "q" and x[1:] == y[1:]:
        return -1
    return 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pairs", (1, 2, 3))
def test_coordinate_images_are_canonical(seed, pairs):
    images = coordinate_images(seed, pairs)
    names = [f"q{i}" for i in range(1, pairs + 1)] + [f"p{i}" for i in range(1, pairs + 1)]
    assert sorted(images) == sorted(names)
    assert sorted(target for _, target in images.values()) == sorted(names)
    for x in names:
        for y in names:
            (a, u), (b, v) = images[x], images[y]
            assert a * b * _bracket(u, v) == _bracket(x, y), (seed, x, y)


def test_reference_seed_is_identity():
    images = coordinate_images(REFERENCE_SEED, 2)
    assert all(c == 1 and target == name for name, (c, target) in images.items())


def test_rewriter_round_trip_and_substitution():
    f = parse("-(q1 + 2*p1)^2 - 3/2*q2 + 1")
    assert parse(to_string(f)) == f
    images = {"q1": (Fraction(2), "p2"), "p1": (Fraction(-1, 2), "q2"),
              "q2": (Fraction(3), "q1"), "p2": (Fraction(1, 3), "p1")}
    assert parse(transform("q1*p1 + q2^2", images)) == parse("-p2*q2 + 9*q1^2")
    assert substitute(parse("0"), images) == {}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_scenarios_build(workload, seed):
    doc = scenario_document(ROOT, WORKLOADS[workload], seed)
    build_scenario(parse_scenario(json.loads(json.dumps(doc))))


def test_self_time_on_hand_made_tree():
    # A(0..10) -> B(1..4), C(5..9) -> D(6..7); leaves E under A and C;
    # F(2..3) is a same-name recursion inside B's child F(1.5..3.5).
    spans = [
        (1, 0, "A", 0.0, 10.0),
        (2, 1, "B", 1.0, 4.0),
        (3, 1, "C", 5.0, 9.0),
        (4, 3, "D", 6.0, 7.0),
        (5, 2, "F", 1.5, 3.5),
        (6, 5, "F", 2.0, 3.0),
    ]
    leaves = [(1, "E", 2, 1.0), (3, "E", 3, 0.5), (6, "F", 4, 0.25)]
    out = aggregate(spans, leaves)
    assert out["A"] == {"calls": 1, "self_s": 10 - 3 - 4 - 1.0, "s": 10.0}
    assert out["B"] == {"calls": 1, "self_s": 3 - 2, "s": 3.0}
    assert out["C"] == {"calls": 1, "self_s": 4 - 1 - 0.5, "s": 4.0}
    assert out["D"] == {"calls": 1, "self_s": 1.0, "s": 1.0}
    assert out["E"] == {"calls": 5, "self_s": 1.5, "s": 1.5}
    # nested calls of F count once in the inclusive time
    assert out["F"] == {"calls": 6, "self_s": (2 - 1) + (1 - 0.25) + 0.25, "s": 2.0}
    assert calls_under(spans, leaves, [("E", "C"), ("F", "A"), ("D", "B")]) == {
        "E<C": 3, "F<A": 6, "D<B": 0,
    }


def test_overlapping_children_count_once():
    spans = [(1, 0, "P", 0.0, 4.0), (2, 1, "Q", 1.0, 3.0), (3, 1, "R", 2.0, 5.0)]
    assert aggregate(spans, [])["P"]["self_s"] == 1.0


def test_tracer_covers_every_import_site_and_keeps_report_bytes():
    doc = scenario_document(ROOT, WORKLOADS["sl2_deg10"], 3)
    doc.update(max_degree=2, test_degree=4, tasks=["invariants", "centers", "lift"])
    scenario = parse_scenario(doc)
    import qcenter.scenario as scenario_mod

    original = scenario_mod.invariants_up_to
    plain = to_json(run_scenario(scenario))
    tracer = Tracer.install()
    try:
        traced = to_json(scenario_mod.run_scenario(scenario))
    finally:
        tracer.uninstall()
    assert scenario_mod.invariants_up_to is original
    assert traced == plain
    summary = tracer.summary()
    functions = summary["functions"]
    # one solve through scenario's import, one inside compare_centers
    assert functions["centers.invariants_up_to"]["calls"] == 2
    assert functions["linalg.EchelonAccumulator.add_row"]["calls"] > 0
    assert summary["open_frames"] == 0


def test_report_gate_rejects_a_changed_table():
    reference = json.loads(run.REFERENCE.read_text())
    projection = reference["torus_k4_deg10"]["projection"]
    report = {
        "passed": True,
        "parameters": projection["parameters"],
        "tasks": [],
    }
    for name, entry in projection["tasks"].items():
        details = {}
        if "checks" in entry:
            details["checks"] = entry["checks"]
        if "dimensions" in entry:
            details["dimensions"] = entry["dimensions"]
        if "rows" in entry:
            details["rows"] = [dict(zip(run.CENTER_COLUMNS, row)) for row in entry["rows"]]
        report["tasks"].append({"task": name, "passed": True, "details": details})
    good = json.dumps(report).encode()
    assert run.check_report(good, "torus_k4_deg10", 5, reference) == []
    for task in report["tasks"]:
        if task["task"] == "centers":
            task["details"]["rows"][2]["poisson_center_dim"] += 1
    bad = json.dumps(report).encode()
    assert run.check_report(bad, "torus_k4_deg10", 5, reference)
    # the reference seed also needs the pinned bytes
    assert run.check_report(good, "torus_k4_deg10", REFERENCE_SEED, reference)
