from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qcenter
import qcenter.scenario as scenario_mod
from qcenter import StarProduct, SymplecticSpace
from qcenter.cli import main
from qcenter.scenario import (
    MAX_SAMPLES,
    build_scenario,
    list_presets,
    load_scenario,
    parse_scenario,
    preset_path,
    run_scenario,
)
from qcenter.errors import ParseError, ValidationError
from qcenter.report import to_json

DATA = Path(__file__).resolve().parent / "data"
MINIMAL_TORUS = {
    "schema": "qcenter-scenario/1",
    "name": "mini",
    "space": {"pairs": 1},
    "lie_algebra": {
        "dim": 1,
        "labels": ["t"],
        "brackets": [],
        "invariant_generators": [{"name": "t", "poly": "t"}],
    },
    "hamiltonians": {"t": "q1*p1"},
    "truncation": 4,
    "max_degree": 4,
    "test_degree": 6,
    "lifts": [{"name": "J", "target": "q1*p1", "relation": ["-t"]}],
    "relations": [],
    "center_generators": ["J"],
    "tasks": ["axioms", "moment", "triangle", "invariants", "centers", "lift", "iso", "weyl"],
}


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


def test_non_utf8_scenario_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    data = dict(MINIMAL_TORUS, description="Gr\u00f6\u00dfe", tasks=[])
    path.write_bytes(json.dumps(data, ensure_ascii=False).encode("latin-1"))
    for command in ("validate", "run"):
        _exits_2_with_one_line([command, str(path)], capsys, "utf-8")


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    for command in ("validate", "run"):
        _exits_2_with_one_line([command, str(path)], capsys, "nested too deeply")


def test_integer_too_long_to_convert_exits_2(tmp_path, capsys):
    # json.loads refuses integers past sys.get_int_max_str_digits() with a
    # plain ValueError, not a JSONDecodeError
    path = tmp_path / "long.json"
    text = json.dumps(dict(MINIMAL_TORUS, truncation=0))
    path.write_text(text.replace('"truncation": 0', '"truncation": ' + "9" * 5000))
    _exits_2_with_one_line(["validate", str(path)], capsys, "invalid JSON")


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    good = write_scenario(tmp_path, dict(MINIMAL_TORUS, tasks=[]))
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        _exits_2_with_one_line(["run", good, "--out", str(out)], capsys,
                               "cannot write the report")


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
    # the invariants, the lift test set and the lift run are shared by the
    # tasks that read them, each computed on first use
    calls = {"invariants_up_to": 0, "quantum_tests": 0, "run_lifts": 0}

    def counted(name):
        real = getattr(scenario_mod, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    for name in calls:
        monkeypatch.setattr(scenario_mod, name, counted(name))
    scenario = load_scenario("sl2_tstar_k2")
    report = run_scenario(scenario._replace(tasks=("invariants", "lift", "iso", "weyl")))
    assert [task.task for task in report.tasks] == ["invariants", "lift", "iso", "weyl"]
    assert all(task.passed for task in report.tasks)
    assert calls == {"invariants_up_to": 1, "quantum_tests": 1, "run_lifts": 1}


def test_shipped_scenarios_validate():
    for name, _ in list_presets():
        scenario = load_scenario(name)
        build_scenario(scenario)


def _lie(**fields) -> dict:
    return {"lie_algebra": dict(MINIMAL_TORUS["lie_algebra"], **fields)}


# how a message echoes a 5,000-character name
_CUT_K = f"'{'k' * 12}...{'k' * 13}'"


def _nested(depth: int) -> list:
    """An empty list inside ``depth - 1`` more lists."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def _edited(preset: str, edit) -> dict:
    """The preset's whole document after ``edit`` changed it in place; as a
    change it replaces every key of the minimal torus."""
    data = json.loads(preset_path(preset).read_text())
    edit(data)
    return data


def _sl2_generator(**fields) -> dict:
    """``sl2_tstar_k2`` with fields of its invariant generator changed."""
    def edit(data):
        data["lie_algebra"]["invariant_generators"][0].update(fields)

    return _edited("sl2_tstar_k2", edit)


# a stated bracket contradicted by its stated mirror or stated twice, a series
# order written twice, and a generator pullback the lifts cannot use: each
# must be refused before any task runs, not dropped, merged or met by a task
_REFUSED_DOCUMENTS = [
    (
        _edited("sl2_tstar_k2", lambda d: d["lie_algebra"]["brackets"].append(
            {"left": "f", "right": "e", "components": {}})),
        "structure constants not antisymmetric at (0,2)",
    ),
    (
        _edited("sl2_tstar_k2", lambda d: d["lie_algebra"]["brackets"].insert(
            0, {"left": "e", "right": "f", "components": {"h": "7"}})),
        "bracket of 'e' and 'f' is stated twice",
    ),
    (
        _sl2_generator(section_correction={"2": "1", "02": "1"}),
        "order 2 of section correction of 'casimir' is written twice",
    ),
    (
        _edited("torus_k2", lambda d: d.update(
            quantum_corrections={"t": {"2": "1", "02": "1"}})),
        "order 2 of quantum correction of 't' is written twice",
    ),
    (
        _sl2_generator(poly="h^2 + 4*e*f + 1"),
        "the lift tasks cannot run: pullback of generator 'casimir' is not homogeneous",
    ),
    # a series order is plain ASCII decimal digits: int() would also read
    # these, as orders 10, 2, 2 and 3
    *[
        (
            _edited("torus_k2", lambda d, key=key: d.update(
                quantum_corrections={"t": {key: "1"}})),
            f"order of quantum correction of 't' must be an integer, got {key!r}",
        )
        for key in ("1_0", " 2", "+2", "\u0663")
    ],
    (
        _sl2_generator(section_correction={"2": "1", "1_0": "1"}),
        "order of section correction of 'casimir' must be an integer, got '1_0'",
    ),
]




@pytest.mark.parametrize(
    "change, message",
    [
        ({"truncation": -1}, "truncation must be non-negative"),
        ({"max_degree": -2}, "max_degree must be non-negative"),
        ({"max_degree": 7, "test_degree": 6}, "max_degree 7 exceeds test_degree 6"),
        ({"space": {"pairs": True}}, "pairs must be an integer, not a boolean"),
        ({"truncation": 2.5}, "truncation must be an integer, got 2.5"),
        ({"samples": {"axioms": "x"}}, "samples.axioms must be an integer, got 'x'"),
        ({"samples": {"moment": -3}}, "samples.moment must be non-negative, got -3"),
        ({"samples": {"axioms": -3}}, "samples.axioms must be non-negative, got -3"),
        (
            {"space": {"pairs": 1, "weights": ["a", "b"]}},
            "space.weights must be an integer, got 'a'",
        ),
        (
            {"space": {"pairs": 1, "hbar_weight": "x"}},
            "space.hbar_weight must be an integer, got 'x'",
        ),
        (_lie(dim=True), "lie_algebra.dim must be an integer, not a boolean"),
        # one integer rule for every integer field: no strings, no
        # out-of-range values
        ({"space": {"pairs": "1"}}, "space.pairs must be an integer, got '1'"),
        ({"space": {"pairs": 0}}, "space.pairs must be at least 1, got 0"),
        (_lie(dim=-1), "lie_algebra.dim must be non-negative, got -1"),
        ({"truncation": "8"}, "truncation must be an integer, got '8'"),
        ({"samples": {"axioms": "3"}}, "samples.axioms must be an integer, got '3'"),
        (
            {"quantum_corrections": {"t": {"0": "1"}}},
            "order of quantum correction of 't' must be at least 1, got 0",
        ),
        (
            _lie(invariant_generators=[
                {"name": "t", "poly": "t", "section_correction": {"x": "t"}}
            ]),
            "order of section correction of 't' must be an integer, got 'x'",
        ),
        # a bad value is echoed cut short, however large it is
        ({"truncation": "9" * 5000}, "truncation must be an integer, got '999"),
        # deep enough to echo ~1,800 characters whole, shallow enough for the
        # JSON loader under the test runner's own frames
        ({"truncation": _nested(900)}, "truncation must be an integer, got [[...]]"),
        *_REFUSED_DOCUMENTS,
    ],
)
def test_validate_rejects_bad_bounds_with_exit_3(tmp_path, capsys, change, message):
    path = write_scenario(tmp_path, dict(MINIMAL_TORUS, **change))
    assert main(["validate", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error:")
    assert message in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert len(err) < 200


@pytest.mark.parametrize("document, message", _REFUSED_DOCUMENTS)
def test_run_refuses_what_validate_refuses_with_exit_3(
    tmp_path, capsys, document, message
):
    assert main(["run", write_scenario(tmp_path, document)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and message in err


def test_zero_target_of_a_degree_1_relation_lifts_to_zero(tmp_path, capsys):
    # no monic relation has degree below 1, so none is smaller than x + 0
    def edit(d):
        d.update(lifts=[{"name": "z", "classical": "casimir - casimir"}],
                 relations=[], center_generators=[], tasks=["lift", "iso", "weyl"])

    path = write_scenario(tmp_path, _edited("sl2_tstar_k2", edit))
    assert main(["run", path, "--report", "json"]) == 0
    (lift,) = json.loads(capsys.readouterr().out)["tasks"][0]["details"]["lifts"]
    assert (lift["name"], lift["target"], lift["passed"]) == ("z", "0", True)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"samples": [1]}, "samples must be an object of sample counts"),
        ({"tasks": "axioms"}, "tasks must be a list of task names"),
        (_lie(brackets=5), "field 'brackets' in lie_algebra must be a list"),
        ({"lifts": 5}, "field 'lifts' in scenario must be a list"),
        ({"relations": 5}, "field 'relations' in scenario must be a list"),
        (_lie(brackets=[1]), "bracket entry must be an object"),
        (_lie(invariant_generators=[1]), "invariant generator must be an object"),
        ({"lifts": [1]}, "lift entry must be an object"),
        ({"quantum_corrections": [1]}, "quantum_corrections must be an object"),
        (
            {"quantum_corrections": {"t": [1]}},
            "quantum correction of 't' must be an object",
        ),
        (
            _lie(invariant_generators=[
                {"name": "t", "poly": "t", "section_correction": [1]}
            ]),
            "section correction of 't' must be an object",
        ),
        (_lie(labels=[1]), "lie_algebra.labels must be strings"),
        # default labels x1..x<dim> beyond the hamiltonians are refused
        # before they are built, so even 10**12 exits at once
        (
            {"lie_algebra": {"dim": 2}, "hamiltonians": {"x1": "q1*p1"}},
            "missing hamiltonian for basis element 'x2'",
        ),
        (
            {"lie_algebra": {"dim": 10**12}, "hamiltonians": {"x1": "q1*p1"}},
            "missing hamiltonian for basis element 'x2'",
        ),
        (
            {"lie_algebra": {"dim": 10**12},
             "hamiltonians": {"x2": "q1*p1", "x3": "q1*p1"}},
            "missing hamiltonian for basis element 'x1'",
        ),
        (
            {"lie_algebra": {"dim": 10**12}, "hamiltonians": {}},
            "missing hamiltonian for basis element 'x1'",
        ),
        # JSON booleans are not rationals
        (
            {"space": {"pairs": 1, "bivector": [[0, True], [-1, 0]]}},
            "bad scalar in space.bivector: True",
        ),
        (
            dict(
                _lie(dim=2, labels=["t", "s"], brackets=[
                    {"left": "t", "right": "s", "components": {"t": False}}
                ]),
                hamiltonians={"t": "q1*p1", "s": "1"},
            ),
            "bad scalar in bracket components: False",
        ),
        # numbers the rationals or int() refuse
        ({"hamiltonians": {"t": "1/0*q1"}}, "zero denominator in '1/0'"),
        (
            {"hamiltonians": {"t": "9" * 5000 + "*q1*p1"}},
            "number of 5000 characters is too long",
        ),
        (
            _lie(invariant_generators=[{"name": "t", "poly": "t^" + "9" * 5000}]),
            "number of 5000 characters is too long",
        ),
        # an unknown key at any level is refused, not replaced by a default
        ({"max_degre": 2}, "unknown key 'max_degre' in scenario"),
        ({"taks": ["invariants"]}, "unknown key 'taks' in scenario"),
        ({"samples": {"axiom": 3}}, "unknown key 'axiom' in samples"),
        ({"space": {"pairs": 1, "pair": 1}}, "unknown key 'pair' in space"),
        (_lie(brakets=[]), "unknown key 'brakets' in lie_algebra"),
        (
            _lie(brackets=[{"left": "t", "right": "t", "components": {}, "comp": {}}]),
            "unknown key 'comp' in bracket entry",
        ),
        (
            _lie(invariant_generators=[{"name": "t", "polly": "t"}]),
            "unknown key 'polly' in invariant generator",
        ),
        (
            {"lifts": [{"name": "J", "targt": "q1*p1", "relation": ["-t"]}]},
            "unknown key 'targt' in lift entry",
        ),
        # a lift has one shape: {name, classical} or {name, target, relation}
        (
            {"lifts": [{"name": "J", "classical": "t", "target": "q1*p1"}]},
            "unknown key 'target' in lift entry",
        ),
        (
            {"hamiltonians": {"t": "q1*p1", "s": "q1"}},
            "hamiltonian for unknown label 's'",
        ),
        ({"name": 5}, "field 'name' in scenario must be a string"),
        ({"description": ["x"]}, "field 'description' in scenario must be a string"),
        # a name is echoed cut short, however long it is
        ({"k" * 5000: 1}, f"unknown key {_CUT_K} in scenario"),
        (
            {"hamiltonians": {"t": "q1*p1", "k" * 5000: "q1"}},
            f"hamiltonian for unknown label {_CUT_K}",
        ),
        (
            dict(_lie(labels=["k" * 5000]), hamiltonians={"k" * 5000: "q1*p1"}),
            f"unknown variable 't' (known: {_CUT_K})",
        ),
    ],
)
def test_validate_rejects_bad_shapes_with_exit_2(tmp_path, capsys, change, message):
    path = write_scenario(tmp_path, dict(MINIMAL_TORUS, **change))
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:")
    assert message in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert len(err) < 200


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
    data = json.loads(preset_path("torus_k2").read_text())
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


def test_run_rejects_negative_override_with_exit_3(tmp_path, capsys):
    path = write_scenario(tmp_path, MINIMAL_TORUS)
    assert main(["run", path, "--truncation", "-1"]) == 3
    assert "truncation must be non-negative" in capsys.readouterr().err
    assert main(["run", path, "--max-degree", "-1"]) == 3
    assert "max_degree must be non-negative" in capsys.readouterr().err


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
    data = json.loads(preset_path("trivial_k2").read_text())
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


def _torus_k2(**space) -> dict:
    data = json.loads(preset_path("torus_k2").read_text())
    data["space"] = dict(data["space"], **space)
    return data


def _long_word_torus(**generator) -> dict:
    data = _torus_k2()
    data["lie_algebra"]["invariant_generators"][0].update(generator)
    return data


def _sl2_hamiltonian(label: str, expr: str) -> dict:
    data = json.loads(preset_path("sl2_tstar_k2").read_text())
    data["hamiltonians"][label] = expr
    return data


def _sl2_samples(**samples) -> dict:
    data = json.loads(preset_path("sl2_tstar_k2").read_text())
    data["samples"] = samples
    return data


def _cli_under_memory_cap(command: str, path: str) -> subprocess.CompletedProcess:
    """``qcenter COMMAND PATH`` in a fresh process under a 1.5 GB
    address-space limit."""
    env = dict(os.environ, PYTHONPATH=str(Path(qcenter.__file__).parents[1]))
    limit = 1_500_000_000

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "qcenter.cli", command, path],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=cap_memory,
    )


@pytest.mark.parametrize(
    "data, message",
    [
        # the dense 2n x 2n bivector alone would not fit
        (
            _torus_k2(pairs=10**6),
            "validation error: space.pairs 1000000 with test_degree 10 gives "
            "more than 1000000 candidate monomials, over the size budget\n",
        ),
        # symmetrizing the generator recursed once per letter
        (
            _long_word_torus(poly="t^100000"),
            "validation error: invariant generator 't' has degree 100000, over "
            "the word-length budget of 24\n",
        ),
        (
            _long_word_torus(section_correction={"2": "t^25"}),
            "validation error: section correction of 't' has degree 25, over "
            "the word-length budget of 24\n",
        ),
        # expanding and checking it ran past 15 s
        (
            _sl2_hamiltonian("h", "(q1+p1+q2+p2)^400"),
            "validation error: hamiltonian 'h' has degree 400, over the "
            "word-length budget of 24\n",
        ),
        # drawing the whole sample list ended in MemoryError
        (
            _sl2_samples(axioms=10**12),
            "validation error: samples.axioms 1000000000000 is over the "
            "sample budget of 100000\n",
        ),
    ],
    ids=["pairs", "word_length", "correction_word_length", "hamiltonian_degree",
         "axiom_samples"],
)
def test_oversized_scenarios_are_refused_with_exit_3(tmp_path, data, message):
    # the budget refuses the document before anything is built from it
    done = _cli_under_memory_cap("validate", write_scenario(tmp_path, data))
    assert (done.returncode, done.stderr) == (3, message)


@pytest.mark.parametrize("key", ["axioms", "moment"])
def test_run_refuses_an_oversized_sample_count_with_exit_3(tmp_path, key):
    done = _cli_under_memory_cap(
        "run", write_scenario(tmp_path, _sl2_samples(**{key: 10**12}))
    )
    assert (done.returncode, done.stderr) == (
        3,
        f"validation error: samples.{key} 1000000000000 is over the sample "
        "budget of 100000\n",
    )


def test_the_largest_sample_count_in_budget_parses():
    scenario = parse_scenario(_sl2_samples(axioms=MAX_SAMPLES, moment=0))
    assert (scenario.axiom_samples, scenario.moment_samples) == (MAX_SAMPLES, 0)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_long_power_of_a_sum_is_refused_before_expansion(tmp_path, command):
    # expanding (h+e+f)^3000 alone takes far longer than the timeout: the
    # parser compares the degree a power would have with the budget first
    data = json.loads(preset_path("sl2_tstar_k2").read_text())
    data["lie_algebra"]["invariant_generators"][0]["poly"] = "(h+e+f)^3000"
    path = write_scenario(tmp_path, data)
    env = dict(os.environ, PYTHONPATH=str(Path(qcenter.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qcenter.cli", command, path],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (done.returncode, done.stderr) == (
        3,
        "validation error: invariant generator 'casimir' has degree 3000, "
        "over the word-length budget of 24\n",
    )


def _sl2_lift_power(field: str) -> dict:
    data = json.loads(preset_path("sl2_tstar_k2").read_text())
    if field == "classical":
        data["lifts"] = [{"name": "c2", "classical": "(casimir + 1)^8000"}]
        data["relations"] = []
    elif field == "relation":
        data["lifts"][1]["relation"] = ["(casimir + 1)^8000", "0"]
    else:
        data["relations"] = ["(c2 + 1)^8000"]
    return data


@pytest.mark.parametrize("field, where", [
    ("classical", "lift 'c2'"),
    ("relation", "lift 'tr' relation"),
    ("relations", "generator relation"),
])
def test_long_power_in_a_lift_expression_is_refused_at_once(tmp_path, capsys,
                                                            field, where):
    # uncapped, (casimir + 1)^8000 as the classical element kept validate
    # busy past 60 s, and casimir^300 made run take ~1 GB
    path = write_scenario(tmp_path, _sl2_lift_power(field))
    start = time.perf_counter()
    assert main(["validate", path]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"validation error: {where} has degree 8000, over the word-length "
        "budget of 24\n"
    )


def test_large_power_of_a_constant_is_refused_with_exit_2(tmp_path):
    # 2^10000000000 would be a 1.25 GB integer: the parser refuses the power
    # from the sizes of base and exponent before computing it
    data = dict(MINIMAL_TORUS, hamiltonians={"t": "2^10000000000*q1*p1"})
    path = write_scenario(tmp_path, data)
    env = dict(os.environ, PYTHONPATH=str(Path(qcenter.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qcenter.cli", "validate", path],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (done.returncode, done.stderr) == (
        2,
        "parse error: bad polynomial in hamiltonian 't': power of a constant "
        "is too large: over 14285 bits\n",
    )


def test_a_long_invariant_generator_symmetrizes_promptly(tmp_path):
    # degree 12: listing every ordering of each word took over 15 s, one
    # symmetrized element per exponent takes well under a second
    data = json.loads(preset_path("sl2_tstar_k2").read_text())
    data["lie_algebra"]["invariant_generators"] = [
        {"name": "casimir", "poly": "(h^2 + 4*e*f)^6"}
    ]
    path = write_scenario(tmp_path, data)
    env = dict(os.environ, PYTHONPATH=str(Path(qcenter.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qcenter.cli", "validate", path],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_candidate_budget_follows_the_cli_degree(tmp_path, capsys):
    # 8 coordinates: C(8 + 16, 16) = 735471 candidates fit, C(8 + 17, 17) do not
    data = dict(_torus_k2(pairs=4), tasks=[], max_degree=2, test_degree=16)
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 0
    data["test_degree"] = 17
    assert main(["validate", write_scenario(tmp_path, data, "over.json")]) == 3
    assert main(["run", path, "--max-degree", "15"]) == 3
    assert "over the size budget" in capsys.readouterr().err


def _bivector(pairs: int, dense: bool) -> list[list[str]]:
    """The standard bivector written out, or a seeded dense one: every
    entry off the diagonal nonzero."""
    n = 2 * pairs
    rows = [["0"] * n for _ in range(n)]
    rng = random.Random(pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if dense:
                value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
            else:
                value = Fraction(int(j == i + pairs))
            rows[i][j], rows[j][i] = str(value), str(-value)
    return rows


def test_dense_bivector_over_the_symbol_budget_is_refused_at_once(tmp_path, capsys):
    # up to C(15, 8)^2 ~ 4.1 * 10^7 symbol terms at level 8
    data = dict(_torus_k2(pairs=4, bivector=_bivector(4, dense=True)),
                truncation=8, tasks=[])
    path = write_scenario(tmp_path, data)
    start = time.perf_counter()
    assert main(["validate", path]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "validation error: space.pairs 4 with 56 nonzero bivector entries gives "
        "more than 100000 symbol terms at level 8 (truncation 8, test_degree 10), "
        "over the size budget\n"
    )


def test_standard_bivector_written_out_is_inside_the_symbol_budget(tmp_path):
    data = dict(_torus_k2(pairs=3, bivector=_bivector(3, dense=False)),
                truncation=8, tasks=[])
    assert main(["validate", write_scenario(tmp_path, data)]) == 0
    space = build_scenario(parse_scenario(data)).space
    assert space.bivector == SymplecticSpace(3).bivector


def test_symbol_budget_follows_the_cli_truncation(tmp_path, capsys):
    # a dense three-pair bivector: 56,484 symbol terms at level 5, and up to
    # C(11, 6)^2 = 213,444 at level 6
    data = dict(_torus_k2(pairs=3, bivector=_bivector(3, dense=True)),
                truncation=5, tasks=[])
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 0
    assert main(["run", path, "--truncation", "6"]) == 3
    assert "symbol terms at level 6" in capsys.readouterr().err


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
    data = dict(_torus_k2(), max_degree=8, test_degree=8, tasks=["invariants"])
    path = write_scenario(tmp_path, data)
    out = tmp_path / "report.json"
    assert main(["run", path, *flags, "--report", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["test_degree"] == test_degree


@pytest.mark.parametrize("command", ["validate", "run"])
def test_ungraded_centers_scenario_is_refused_with_exit_3(tmp_path, command):
    # with hbar_weight 0 every series order would be a quantum block of the
    # same degree: the centers task needs the graded default and is refused
    # before any slice is built, in a fresh process under a time limit
    data = dict(MINIMAL_TORUS, space={"pairs": 1, "hbar_weight": 0},
                truncation=10**9, tasks=["centers"])
    path = write_scenario(tmp_path, data)
    env = dict(os.environ, PYTHONPATH=str(Path(qcenter.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "qcenter.cli", command, path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 3
    assert done.stderr == (
        "validation error: the centers task cannot run: bivector is not "
        "graded: weights w[0]+w[1] = -2 != 0\n"
    )
    assert "Traceback" not in done.stderr


def test_nonuniform_weights_with_centers_are_refused_with_exit_3(tmp_path, capsys):
    data = json.loads(preset_path("torus_k2").read_text())
    data["space"] = {"pairs": 1, "weights": [1, -1], "hbar_weight": 0}
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == 3
    assert capsys.readouterr().err == (
        "validation error: the centers task cannot run: quantum-center "
        "slicing requires the uniform default weights\n"
    )


def test_nonuniform_weights_pass_the_axioms_task_with_exit_0(tmp_path, capsys):
    # the homogeneity samples are drawn by weight class, not by degree
    data = json.loads(preset_path("torus_k2").read_text())
    data["space"] = {"pairs": 1, "weights": [1, -1], "hbar_weight": 0}
    data["tasks"] = ["axioms"]
    path = write_scenario(tmp_path, data)
    assert main(["run", path]) == 0
    assert "task axioms: PASS" in capsys.readouterr().out


def test_ungraded_axioms_scenario_is_refused_with_exit_3(tmp_path, capsys):
    # under the default hbar_weight 2 the weights 1, -1 do not grade the
    # bivector: the homogeneity check cannot run, which is an input error
    # and not a failed assertion
    data = json.loads(preset_path("torus_k2").read_text())
    data["space"] = {"pairs": 1, "weights": [1, -1]}
    data["tasks"] = ["axioms"]
    path = write_scenario(tmp_path, data)
    assert main(["run", path]) == 3
    assert capsys.readouterr().err == (
        "validation error: the axioms task cannot run: bivector is not "
        "graded: weights w[0]+w[1] = 0 != -2\n"
    )


@pytest.mark.parametrize("section, entry, message", [
    ("invariant_generators", {"name": "t", "poly": "t^2"},
     "invariant generator 't' is named twice"),
    ("lifts", {"name": "J", "target": "q1*p1", "relation": ["-t"]},
     "lift 'J' is named twice"),
])
def test_repeated_generator_or_lift_name_is_refused_with_exit_3(
        tmp_path, capsys, section, entry, message):
    # a second entry of the same name would shadow the first wherever
    # generators and lifts are looked up by name
    data = json.loads(preset_path("torus_k2").read_text())
    entries = data["lifts"] if section == "lifts" else data["lie_algebra"][section]
    entries.append(entry)
    assert main(["run", write_scenario(tmp_path, data)]) == 3
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_repeated_center_generator_is_refused_with_exit_3(tmp_path, capsys):
    # a repeated generator is never algebraically independent of itself, so
    # the weyl task would fail on it with exit 1
    data = json.loads(preset_path("torus_k2").read_text())
    data["center_generators"] = ["J", "J"]
    assert main(["validate", write_scenario(tmp_path, data)]) == 3
    assert capsys.readouterr().err == (
        "validation error: center generator 'J' is named twice\n"
    )


@pytest.mark.parametrize("preset", [name for name, _ in list_presets()])
def test_truncation_0_refuses_the_centers_task(preset, tmp_path, capsys):
    # at truncation 0 every deformed commutator vanishes, so the centers
    # comparison says nothing: it is refused with one line
    assert main(["run", preset, "--truncation", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "validation error: the centers task cannot run: at truncation 0 every "
        "deformed commutator vanishes, so it needs truncation at least 1\n"
    )
    assert "Traceback" not in captured.err
    # every other task passes there
    data = json.loads(preset_path(preset).read_text())
    data.update(truncation=0, tasks=[t for t in data["tasks"] if t != "centers"])
    assert main(["run", write_scenario(tmp_path, data)]) == 0
    assert "FAIL" not in capsys.readouterr().out
