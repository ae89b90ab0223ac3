from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

import qcenter
import qcenter.centers as centers_mod
import qcenter.envelope as envelope_mod
import qcenter.scenario as scenario_mod
from qcenter import Poly, StarProduct, SymplecticSpace
from qcenter.cli import main
from qcenter.scenario import (
    MAX_SAMPLES,
    TASK_ORDER,
    build_scenario,
    list_presets,
    load_scenario,
    parse_scenario,
    preset_path,
    resolve_lift,
    run_scenario,
)
from qcenter.errors import ParseError, ValidationError
from qcenter.report import to_json

import refusals
from oracle import full_basis

DATA = Path(__file__).resolve().parent / "data"
MINIMAL_TORUS = refusals.MINIMAL


def write_scenario(tmp_path: Path, data: dict, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_presets_are_listed():
    names = [name for name, _ in list_presets()]
    assert names == ["sl2_tstar_k2", "torus_k2", "torus_k4", "trivial_k2"]


def test_load_preset_by_name():
    scenario = load_scenario("torus_k2")
    assert scenario.name == "torus_k2"
    assert scenario.truncation == 8


def test_full_minimal_run(tmp_path):
    path = write_scenario(tmp_path, MINIMAL_TORUS)
    scenario = load_scenario(path)
    report = run_scenario(scenario)
    assert report.passed
    assert [t.task for t in report.tasks] == list(MINIMAL_TORUS["tasks"])


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        load_scenario("definitely_not_a_real_scenario")


def test_bad_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(str(path))


def test_unknown_task_rejected(tmp_path):
    data = dict(MINIMAL_TORUS, tasks=["axioms", "frobnicate"])
    with pytest.raises(ParseError):
        load_scenario(write_scenario(tmp_path, data))


def test_bad_poly_rejected(tmp_path):
    data = json.loads(json.dumps(MINIMAL_TORUS))
    data["hamiltonians"]["t"] = "q1*z9"
    with pytest.raises(ParseError):
        load_scenario(write_scenario(tmp_path, data))


def test_broken_jacobi_is_validation_error(tmp_path):
    data = {
        "schema": "qcenter-scenario/1",
        "name": "bad",
        "space": {"pairs": 1},
        "lie_algebra": {
            "dim": 3,
            "labels": ["a", "b", "c"],
            "brackets": [
                {"left": "a", "right": "b", "components": {"a": "1"}},
                {"left": "b", "right": "c", "components": {"b": "1"}},
            ],
            "invariant_generators": [],
        },
        "hamiltonians": {"a": "0", "b": "0", "c": "0"},
    }
    path = write_scenario(tmp_path, data)
    scenario = load_scenario(path)
    with pytest.raises(ValidationError) as info:
        build_scenario(scenario)
    assert "Jacobi" in str(info.value)


def test_cli_exit_codes(tmp_path, capsys):
    good = write_scenario(tmp_path, MINIMAL_TORUS, "good.json")
    assert main(["run", good, "--report", "json", "--out", str(tmp_path / "r.json")]) == 0

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["run", str(broken)]) == 2
    assert main(["validate", str(broken)]) == 2

    bad_structure = json.loads(json.dumps(MINIMAL_TORUS))
    bad_structure["lie_algebra"]["brackets"] = [
        {"left": "t", "right": "t", "components": {"t": "1"}}
    ]
    bad_path = write_scenario(tmp_path, bad_structure, "bad.json")
    assert main(["validate", bad_path]) == 3
    capsys.readouterr()


def _exits_2_with_one_line(argv, capsys, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert len(err.splitlines()) == 1


def test_unwritable_report_path_is_refused_before_the_run(tmp_path, capsys,
                                                          monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_scenario was called")

    monkeypatch.setattr("qcenter.cli.run_scenario", no_run)
    good = write_scenario(tmp_path, dict(MINIMAL_TORUS, tasks=[]))
    for out in (tmp_path / "missing" / "r.json", tmp_path,
                tmp_path / "good.json" / "r.json"):
        _exits_2_with_one_line(["run", good, "--out", str(out)], capsys,
                               "output error: cannot write the report")


def test_report_write_that_fails_after_the_run_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    # a path that passes the check before the run can still fail to write
    def refuse(self, text):
        raise PermissionError(13, "Permission denied", str(self))

    good = write_scenario(tmp_path, dict(MINIMAL_TORUS, tasks=[]))
    monkeypatch.setattr(Path, "write_text", refuse)
    _exits_2_with_one_line(["run", good, "--out", str(tmp_path / "r.json")],
                           capsys, "Permission denied")


def test_cli_validation_error_names_failing_data(tmp_path, capsys):
    data = json.loads(json.dumps(MINIMAL_TORUS))
    data["lie_algebra"] = {
        "dim": 3,
        "labels": ["a", "b", "c"],
        "brackets": [
            {"left": "a", "right": "b", "components": {"a": "1"}},
            {"left": "b", "right": "c", "components": {"b": "1"}},
        ],
        "invariant_generators": [],
    }
    data["hamiltonians"] = {"a": "0", "b": "0", "c": "0"}
    data["lifts"] = []
    data["center_generators"] = []
    path = write_scenario(tmp_path, data, "jac.json")
    code = main(["validate", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "Jacobi" in err
    assert "a" in err and "b" in err and "c" in err


def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in ("trivial_k2", "torus_k2", "sl2_tstar_k2", "torus_k4"):
        assert name in out


def test_report_determinism(tmp_path):
    path = write_scenario(tmp_path, MINIMAL_TORUS)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", path, "--report", "json", "--out", str(out1)]) == 0
    assert main(["run", path, "--report", "json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_schema_shape(tmp_path):
    path = write_scenario(tmp_path, MINIMAL_TORUS)
    out = tmp_path / "r.json"
    main(["run", path, "--report", "json", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["schema"] == "qcenter-report/1"
    assert data["passed"] is True
    tasks = {t["task"]: t for t in data["tasks"]}
    assert set(tasks) == set(MINIMAL_TORUS["tasks"])
    center_rows = tasks["centers"]["details"]["rows"]
    assert all(
        set(row) >= {
            "degree",
            "invariant_dim",
            "poisson_center_dim",
            "quantum_center_rank",
            "equal",
        }
        for row in center_rows
    )


def test_truncation_override(tmp_path):
    path = write_scenario(tmp_path, MINIMAL_TORUS)
    scenario = load_scenario(path)
    report = run_scenario(scenario, truncation=6)
    assert report.truncation == 6
    assert report.passed


def test_cli_flag_overrides(tmp_path):
    path = write_scenario(tmp_path, MINIMAL_TORUS)
    out = tmp_path / "o.json"
    code = main(
        [
            "run", path,
            "--truncation", "6",
            "--max-degree", "6",
            "--report", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["parameters"]["truncation"] == 6
    assert data["parameters"]["max_degree"] == 6


def test_empty_task_list_gives_valid_empty_report(tmp_path):
    data = dict(MINIMAL_TORUS, tasks=[])
    path = write_scenario(tmp_path, data, "empty.json")
    out = tmp_path / "empty-report.json"
    assert main(["run", path, "--report", "json", "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["tasks"] == []
    assert parsed["passed"] is True


# the Casimir relation of sl2 on T*C^2 without its order-2 correction
OBSTRUCTED = {
    "schema": "qcenter-scenario/1",
    "name": "obstructed",
    "space": {"pairs": 2},
    "lie_algebra": {
        "dim": 3,
        "labels": ["e", "h", "f"],
        "brackets": [
            {"left": "h", "right": "e", "components": {"e": "2"}},
            {"left": "h", "right": "f", "components": {"f": "-2"}},
            {"left": "e", "right": "f", "components": {"h": "1"}},
        ],
        "invariant_generators": [
            {"name": "casimir", "poly": "h^2 + 4*e*f"}
        ],
    },
    "hamiltonians": {"e": "q2*p1", "h": "q1*p1 - q2*p2", "f": "q1*p2"},
    "truncation": 4,
    "max_degree": 2,
    "test_degree": 4,
    "lifts": [
        {"name": "tr", "target": "q1*p1 + q2*p2", "relation": ["-casimir", "0"]}
    ],
    "relations": [],
    "center_generators": ["tr"],
    "tasks": ["lift"],
}


def test_assertion_failure_exit_code(tmp_path, capsys):
    # an uncorrected quadratic relation that cannot lift: exit code 1
    path = write_scenario(tmp_path, OBSTRUCTED, "obstructed.json")
    code = main(["run", path, "--report", "json", "--out", str(tmp_path / "o.json")])
    assert code == 1
    report = json.loads((tmp_path / "o.json").read_text())
    assert report["passed"] is False
    lift_task = report["tasks"][0]
    assert lift_task["task"] == "lift"
    assert "order 2" in lift_task["error"]


@pytest.mark.parametrize("off, message", [
    (1, "invariant slice of degree 4: the solve gives dimension 1, against "
        "its weight count 2"),
    (-1, "invariant slice of degree 4: products of lower invariants span "
         "dimension 1, over its weight count 0"),
])
def test_a_weight_count_off_by_one_fails_the_invariant_tasks_with_exit_1(
        monkeypatch, capsys, off, message):
    # a count the solve or the products contradict is a solver bug: the
    # tasks that read the invariants fail with one line, never a traceback
    real = centers_mod.weight_count_table

    def skewed(nvars, max_degree, rows):
        table = real(nvars, max_degree, rows)
        zero = (0,) * len(rows)
        table[4][zero] += off
        return table

    monkeypatch.setattr(centers_mod, "weight_count_table", skewed)
    code = main(["run", "sl2_tstar_k2"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    failed = [line for line in out.splitlines() if "FAIL" in line]
    assert failed[:2] == [f"task invariants: FAIL ({message})",
                          f"task centers: FAIL ({message})"]


def test_a_failed_lift_run_is_reported_by_each_task_that_needs_it(tmp_path):
    # a failed lift run is not kept: lift, iso and weyl each run it again
    # and each reports the obstruction
    data = dict(OBSTRUCTED, tasks=["lift", "iso", "weyl"])
    path = write_scenario(tmp_path, data, "obstructed.json")
    out = tmp_path / "o.json"
    assert main(["run", path, "--report", "json", "--out", str(out)]) == 1
    tasks = json.loads(out.read_text())["tasks"]
    assert [task["task"] for task in tasks] == ["lift", "iso", "weyl"]
    for task in tasks:
        assert task["passed"] is False
        assert "order 2" in task["error"]


def test_one_run_computes_each_shared_result_once(monkeypatch):
    # the invariants, with the generators the lifts are tested against,
    # and the lift run are shared by the tasks that read them, each
    # computed on first use; the action builds
    # each generator's central section once, for every lift and the
    # triangle task to read, so the only symmetrizations are the section's,
    # of the generator and of its one correction.  Each function is counted
    # under every qcenter module that holds it.
    real = {"invariants_up_to": centers_mod.invariants_up_to,
            "run_lifts": scenario_mod.run_lifts,
            "central_section": envelope_mod.central_section,
            "symmetrize": envelope_mod.symmetrize}
    calls = dict.fromkeys(real, 0)

    def counted(name):
        def spy(*args):
            calls[name] += 1
            return real[name](*args)
        return spy

    for key, module in list(sys.modules.items()):
        if key == "qcenter" or key.startswith("qcenter."):
            for name, function in real.items():
                if getattr(module, name, None) is function:
                    monkeypatch.setattr(module, name, counted(name))
    scenario = load_scenario("sl2_tstar_k2")
    tasks = ("triangle", "invariants", "lift", "iso", "weyl")
    report = run_scenario(scenario._replace(tasks=tasks))
    assert tuple(task.task for task in report.tasks) == tasks
    assert all(task.passed for task in report.tasks)
    (generator,) = scenario.lie_generators
    assert len(generator.section_correction) == 1
    assert calls == {"invariants_up_to": 1, "run_lifts": 1, "central_section": 1,
                     "symmetrize": 2}


def test_shipped_scenarios_validate():
    for name, _ in list_presets():
        scenario = load_scenario(name)
        build_scenario(scenario)


def test_zero_target_of_a_degree_1_relation_lifts_to_zero(tmp_path, capsys):
    # no monic relation has degree below 1, so none is smaller than x + 0
    data = dict(refusals.preset("sl2_tstar_k2"), relations=[], center_generators=[],
                lifts=[{"name": "z", "classical": "casimir - casimir"}],
                tasks=["lift", "iso", "weyl"])
    path = write_scenario(tmp_path, data)
    assert main(["run", path, "--report", "json"]) == 0
    (lift,) = json.loads(capsys.readouterr().out)["tasks"][0]["details"]["lifts"]
    assert (lift["name"], lift["target"], lift["passed"]) == ("z", "0", True)


def test_a_classical_lift_runs_as_its_degree_1_relation():
    # {"classical": E} is the monic relation x - E with E's pullback as target
    def details(lift: dict) -> list:
        data = dict(refusals.preset("sl2_tstar_k2"), tasks=["lift", "iso", "weyl"])
        data["lifts"] = [lift, *data["lifts"][1:]]
        report = run_scenario(parse_scenario(data))
        return [(task.task, task.passed, task.details) for task in report.tasks]

    classical = details({"name": "c2", "classical": "casimir"})
    assert classical == details({"name": "c2", "target": "(q1*p1 + q2*p2)^2",
                                 "relation": ["-casimir"]})
    assert [passed for _, passed, _ in classical] == [True] * 3


def test_a_classical_lift_is_substituted_once(monkeypatch):
    # the build substitutes E on the pullbacks for the target, and
    # resolve_lift takes the coefficient -E as the negated target
    built = build_scenario(load_scenario("sl2_tstar_k2"))
    act, spec = built.action, built.scenario.lifts[0]
    assert (spec.name, spec.target) == ("c2", None)
    expected = spec.relation[0].substitute(act.pullbacks, act.space.nvars)
    substitute, calls = Poly.substitute, []

    def spy(self, values, nvars):
        calls.append(self)
        return substitute(self, values, nvars)

    monkeypatch.setattr(Poly, "substitute", spy)
    target, rel = resolve_lift(built, spec)
    assert calls == []
    assert rel.coefficients == (expected,) and target == -expected


def _report_bytes(tmp_path: Path, source: str, name: str) -> bytes:
    out = tmp_path / name
    assert main(["run", source, "--report", "json", "--out", str(out)]) == 0
    return out.read_bytes()


def _force_full_basis(monkeypatch) -> list[int]:
    """Every invariant solve of a run, for the invariants task, the lifts,
    the weyl task and the centers task, with the whole basis as its
    generators; returns the degrees solved."""
    forced = []

    def solve(act, degree, _solve=centers_mod.invariants_up_to):
        forced.append(degree)
        return full_basis(_solve(act, degree))

    for module in (centers_mod, scenario_mod):
        monkeypatch.setattr(module, "invariants_up_to", solve)
    return forced


def test_a_cubic_action_is_tested_against_its_generators(tmp_path, monkeypatch):
    # q1^2*p1 passes its quantum condition at truncation 2, so the invariant
    # generators are a complete test set of the series: forcing the full
    # invariant basis on the centers and the lifts changes no report byte.
    # The weyl task, which tests at parameter 1, is refused on it
    source = str(DATA / "cubic_t2.json")
    generators = _report_bytes(tmp_path, source, "generators.json")
    tasks = json.loads(generators)["tasks"]
    assert [task["task"] for task in tasks] == ["invariants", "centers", "lift", "iso"]
    assert all(task["passed"] for task in tasks)
    forced = _force_full_basis(monkeypatch)
    assert _report_bytes(tmp_path, source, "full.json") == generators
    assert forced == [10, 10]


def _quadratic(source: str) -> bool:
    return all(h.degree() <= 2 for h in load_scenario(source).hamiltonians)


# every preset and every tests/data document whose hamiltonians all have
# degree at most 2: there the generators are a complete test set at
# parameter 1 too (weyl module docstring)
QUADRATIC_DOCUMENTS = [source for source in [
    *(name for name, _ in list_presets()),
    *sorted(str(path) for path in DATA.glob("*.json")),
] if _quadratic(source)]


@pytest.mark.parametrize("source", QUADRATIC_DOCUMENTS,
                         ids=[Path(source).stem for source in QUADRATIC_DOCUMENTS])
def test_the_generators_give_the_full_basis_verdict(source, tmp_path, monkeypatch):
    generators = _report_bytes(tmp_path, source, "generators.json")
    assert json.loads(generators)["passed"]
    forced = _force_full_basis(monkeypatch)
    assert _report_bytes(tmp_path, source, "full.json") == generators
    assert forced


def _leaf_paths(table: dict, prefix: str = ""):
    for key, (kind, _, extent) in table.items():
        if kind == "object" and isinstance(extent, dict):
            yield from _leaf_paths(extent, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_schema_table_lists_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| field | meaning |\n| --- | --- |\n", 1)[1].split("\n\n")[0]
    listed = [
        name for row in rows.splitlines()
        for name in re.findall(r"`([^`]+)`", row.split("|")[1])
    ]
    assert sorted(listed) == sorted(_leaf_paths(scenario_mod._SCENARIO))


@pytest.mark.parametrize("order", [9, 10, 17, 18])
def test_corrections_past_the_truncation_validate_with_exit_0(
    tmp_path, capsys, order
):
    # torus_k2 truncates at 8: a correction of order 9 or more is dropped
    data = refusals.preset("torus_k2")
    data["quantum_corrections"] = {"t": {str(order): "1"}}
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("preset, expressions", [("sl2_tstar_k2", 10), ("torus_k4", 4)])
def test_each_expression_is_parsed_once(monkeypatch, preset, expressions):
    parsed = []
    parse = scenario_mod.parse_poly

    def counting_parse(text, names, **cap):
        parsed.append(text)
        return parse(text, names, **cap)

    monkeypatch.setattr(scenario_mod, "parse_poly", counting_parse)
    assert run_scenario(load_scenario(preset)).passed
    assert len(parsed) == expressions


def test_default_labels_name_the_hamiltonians(tmp_path):
    lie = {"dim": 1, "invariant_generators": [{"name": "t", "poly": "x1"}]}
    data = dict(MINIMAL_TORUS, lie_algebra=lie, hamiltonians={"x1": "q1*p1"},
                lifts=[], center_generators=[])
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 0
    assert load_scenario(path).lie_labels == ("x1",)


def test_huge_truncation_costs_only_the_nonzero_orders(tmp_path, capsys):
    # a series stores its nonzero orders only, so a truncation of 10^9
    # neither allocates per order nor walks every order in the lift
    huge = write_scenario(tmp_path, dict(MINIMAL_TORUS, truncation=10**9), "huge.json")
    assert main(["validate", huge]) == 0
    assert capsys.readouterr().err == ""

    def without_truncation(value):
        if isinstance(value, dict):
            return {
                k: without_truncation(v) for k, v in value.items() if k != "truncation"
            }
        if isinstance(value, list):
            return [without_truncation(v) for v in value]
        return value

    small = write_scenario(tmp_path, MINIMAL_TORUS, "small.json")
    reports = [
        json.loads(to_json(run_scenario(load_scenario(path))))
        for path in (huge, small)
    ]
    assert reports[0]["parameters"]["truncation"] == 10**9
    assert reports[0]["passed"] is True
    assert without_truncation(reports[0]) == without_truncation(reports[1])


def test_lifts_without_invariant_generators_run_with_exit_0(tmp_path, capsys):
    # with no generators a relation coefficient is a constant: the empty
    # product of lifts is one
    data = refusals.preset("trivial_k2")
    data["lifts"] = [
        {"name": "c", "classical": "3/2"},
        {"name": "w", "target": "q1^0*2", "relation": ["-2"]},
    ]
    data["tasks"] = ["lift", "iso", "weyl"]
    path = write_scenario(tmp_path, data)
    out = tmp_path / "r.json"
    assert main(["run", path, "--report", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    tasks = {t["task"]: t["details"] for t in report["tasks"]}
    assert [(g["name"], g["classical"], g["lift"]) for g in tasks["iso"]["generators"]] == [
        ("c", "3/2", "3/2"),
        ("w", "2", "2"),
    ]
    assert [e["symbol"] for e in tasks["weyl"]["entries"]] == ["3/2", "2"]


def test_a_constant_generator_over_no_labels_runs_every_task_with_exit_0(tmp_path):
    # a zero-dimensional algebra with a constant designated generator: the
    # pullback of c is the constant 1 over the coordinates, and the lifts
    # composed from it are constants
    data = dict(refusals.MINIMAL, lie_algebra={
        "dim": 0, "labels": [], "brackets": [],
        "invariant_generators": [{"name": "c", "poly": "1"}],
    }, hamiltonians={}, lifts=[{"name": "J", "classical": "2*c"},
                              {"name": "K", "target": "3", "relation": ["-3*c"]}],
        relations=["J*K - 6"], center_generators=[])
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 0
    out = tmp_path / "r.json"
    assert main(["run", path, "--report", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [t["task"] for t in report["tasks"]] == list(TASK_ORDER)
    assert report["passed"] is True
    tasks = {t["task"]: t["details"] for t in report["tasks"]}
    assert [(g["name"], g["classical"], g["lift"]) for g in tasks["iso"]["generators"]] == [
        ("J", "2", "2"),
        ("K", "3", "3"),
    ]


@pytest.mark.parametrize("generator, hamiltonian, admitted", [
    ("t^2", "q1^24 + q1*p1", True),  # bound 48: C(52, 4) = 270,725 monomials
    ("t^22", "q1^3", True),          # bound 66: C(70, 4) = 916,895
    ("t^17", "q1^4", False),         # bound 68: C(72, 4) = 1,028,790
])
def test_the_pullback_budget_is_the_candidate_count_of_the_degree_bound(
        generator, hamiltonian, admitted):
    data = refusals.preset("torus_k4")
    data["lie_algebra"]["invariant_generators"] = [{"name": "t", "poly": generator}]
    data["hamiltonians"] = {"t": hamiltonian}
    if admitted:
        parse_scenario(data)
    else:
        with pytest.raises(ValidationError, match="pullback of generator 't' has "
                                                  "degree bound 68"):
            parse_scenario(data)


def test_the_largest_sample_count_in_budget_parses():
    data = dict(refusals.preset("sl2_tstar_k2"), samples={"axioms": MAX_SAMPLES, "moment": 0})
    scenario = parse_scenario(data)
    assert (scenario.axiom_samples, scenario.moment_samples) == (MAX_SAMPLES, 0)


def test_a_long_invariant_generator_symmetrizes_promptly(tmp_path):
    # degree 12: listing every ordering of each word took over 15 s, one
    # symmetrized element per exponent takes well under a second
    data = refusals.preset("sl2_tstar_k2")
    data["lie_algebra"]["invariant_generators"] = [
        {"name": "casimir", "poly": "(h^2 + 4*e*f)^6"}
    ]
    path = write_scenario(tmp_path, data)
    code, err, _ = refusals.fresh(_CLI, ["validate", path], tmp_path, 10, env=_ENV)
    assert (code, err) == (0, "")


def test_the_quantum_condition_walk_stops_at_the_truncation(tmp_path):
    # the correction q1^24 at order 4 commutes to order 5 and over, past the
    # truncation, so the quantum condition admits it: a walk over the
    # monomials to degree 24 took 28 s
    data = dict(refusals.MINIMAL, space={"pairs": 3}, truncation=4, max_degree=2,
                test_degree=4, hamiltonians={"t": "q1*p1 + q2*p2 + q3*p3"},
                quantum_corrections={"t": {"4": "q1^24"}}, tasks=["invariants"])
    path = write_scenario(tmp_path, data)
    code, err, seconds = refusals.fresh(_CLI, ["validate", path], tmp_path, 5, env=_ENV)
    assert (code, err) == (0, "")
    assert seconds < 5


def test_candidate_budget_follows_the_cli_degree(tmp_path):
    # test_degree 17 is refused, by the document or by --max-degree 15
    # (refusals.py); 16 fits
    data = dict(refusals.preset("torus_k2"), space={"pairs": 4}, tasks=[],
                max_degree=2, test_degree=16)
    assert main(["validate", write_scenario(tmp_path, data)]) == 0


def test_standard_bivector_written_out_is_inside_the_symbol_budget(tmp_path):
    data = dict(refusals.preset("torus_k2"), truncation=8, tasks=[],
                space={"pairs": 3, "bivector": refusals.bivector(3, dense=False)})
    assert main(["validate", write_scenario(tmp_path, data)]) == 0
    space = build_scenario(parse_scenario(data)).action.space
    assert space.bivector == SymplecticSpace(3).bivector


def test_symbol_budget_follows_the_cli_truncation(tmp_path):
    # the dense bivector fits at truncation 5, and --truncation 6 is refused
    # (refusals.py)
    data = dict(refusals.preset("torus_k2"), truncation=5, tasks=[],
                space={"pairs": 3, "bivector": refusals.bivector(3, dense=True)})
    assert main(["validate", write_scenario(tmp_path, data)]) == 0


def test_no_preset_run_asks_for_a_symbol_level_over_the_budget_level(monkeypatch):
    asked = []
    build = StarProduct._symbol_powers_up_to

    def spy(self, level):
        asked.append(level)
        return build(self, level)

    monkeypatch.setattr(StarProduct, "_symbol_powers_up_to", spy)
    names = [name for name, _ in list_presets()]
    for scenario in [load_scenario(name) for name in names] + [
        load_scenario(str(DATA / "so3_rotation.json"))
    ]:
        asked.clear()
        assert run_scenario(scenario).passed
        assert asked
        assert max(asked) <= max(scenario.truncation, 4)
        assert max(asked) <= scenario_mod._symbol_level(
            scenario.truncation, scenario.test_degree
        )


@pytest.mark.parametrize("flags, test_degree", [
    ([], 8), (["--truncation", "3"], 8), (["--max-degree", "8"], 10),
])
def test_only_the_degree_flag_raises_the_test_degree(tmp_path, flags, test_degree):
    data = dict(refusals.preset("torus_k2"), max_degree=8, test_degree=8, tasks=["invariants"])
    path = write_scenario(tmp_path, data)
    out = tmp_path / "report.json"
    assert main(["run", path, *flags, "--report", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["test_degree"] == test_degree


def test_nonuniform_weights_pass_the_axioms_task_with_exit_0(tmp_path, capsys):
    # the homogeneity samples are drawn by weight class, not by degree
    data = dict(refusals.preset("torus_k2"), tasks=["axioms"],
                space={"pairs": 1, "weights": [1, -1], "hbar_weight": 0})
    assert main(["run", write_scenario(tmp_path, data)]) == 0
    assert "task axioms: PASS" in capsys.readouterr().out


def test_an_inhomogeneous_lift_runs_without_the_weyl_task(tmp_path):
    # only the specialization needs a weight-homogeneous classical part
    data = dict(refusals.preset("torus_k2"), tasks=["lift", "iso"],
                lifts=[{"name": "J", "classical": "t + 1"}])
    assert main(["run", write_scenario(tmp_path, data)]) == 0


@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_truncation_0_refuses_the_centers_task(preset, tmp_path, capsys):
    # the refusal is a row of refusals.py; every other task passes there
    data = refusals.preset(preset)
    data.update(truncation=0, tasks=[t for t in data["tasks"] if t != "centers"])
    assert main(["run", write_scenario(tmp_path, data)]) == 0
    assert "FAIL" not in capsys.readouterr().out


# -- the refusal table ---------------------------------------------------------

_CLI = [sys.executable, "-m", "qcenter.cli"]
_ENV = dict(os.environ, PYTHONPATH=str(Path(qcenter.__file__).parents[1]))


def _check(rows, commands, tmp_path, monkeypatch, capsys):
    """Each row under ``commands`` (its own when None), in-process through
    ``main``, or in a fresh process for a capped row."""
    def cli(row, argv):
        if row.memory:
            return refusals.fresh(_CLI, argv, tmp_path, row.seconds, row.memory, _ENV)
        start = time.perf_counter()
        code = main(argv)
        return code, capsys.readouterr().err, time.perf_counter() - start

    monkeypatch.chdir(tmp_path)
    for row in rows:
        assert refusals.check(row, cli, tmp_path, commands) == []


def _refusal_test(cases: dict):
    """A test of the rows of each case: one unparametrized test when the
    only case is unnamed."""
    if list(cases) == [""]:
        (rows, commands), = cases.values()
        return lambda tmp_path, monkeypatch, capsys: _check(
            rows, commands, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("rows, commands", list(cases.values()), ids=list(cases))
    def test(rows, commands, tmp_path, monkeypatch, capsys):
        _check(rows, commands, tmp_path, monkeypatch, capsys)
    return test


# Test ids kept from before the table whose cases other rows now hold: each
# re-runs those rows under `run`, the command its test ran.  They are the ten
# preset documents of the bounds rows, the oversized axiom sample count, and
# the run halves of two rows.
_ALIASES = [
    (f"run_refuses_what_validate_refuses_with_exit_3[document{i}-{case[2]}]", row)
    for i, case in enumerate(refusals.BUILT_FROM_PRESETS)
    for row in refusals.ROWS if (row.source, row.edit, row.message) == case
] + [
    (alias, next(row for row in refusals.ROWS if row.id == row_id))
    for alias, row_id in [
        ("run_refuses_an_oversized_sample_count_with_exit_3[axioms]",
         "oversized_scenarios_are_refused_with_exit_3[axiom_samples]"),
        ("long_power_of_a_sum_is_refused_before_expansion[run]",
         "long_power_of_a_sum_is_refused_before_expansion[validate]"),
        ("ungraded_centers_scenario_is_refused_with_exit_3[run]",
         "ungraded_centers_scenario_is_refused_with_exit_3[validate]"),
    ]
]


def _refusal_tests() -> dict:
    """``test_<name>`` for each name before ``[`` in the ids of the rows and
    aliases, each id after it one case, rows sharing an id one case."""
    cases: dict[str, dict] = {}
    entries = [(row.id, row, None) for row in refusals.ROWS]
    entries += [(alias, row, ("run",)) for alias, row in _ALIASES]
    for test_id, row, commands in entries:
        name, _, case = test_id.partition("[")
        by_case = cases.setdefault("test_" + name, {})
        by_case.setdefault(case[:-1], ([], commands))[0].append(row)
    return {name: _refusal_test(by_case) for name, by_case in cases.items()}


for _name, _test in _refusal_tests().items():
    assert _name not in globals(), f"{_name} is already a test"
    globals()[_name] = _test
