"""Run reports: structured task outcomes with deterministic serialization.

JSON output is schema-versioned, sorted and newline-terminated so that
identical runs produce byte-identical bytes; the text rendering is a
readable summary of the same data.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

REPORT_SCHEMA = "qcenter-report/1"


class TaskResult(NamedTuple):
    task: str
    passed: bool
    details: dict[str, Any]
    error: str | None = None

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"task": self.task, "passed": self.passed}
        if self.error is not None:
            out["error"] = self.error
        if self.details:
            out["details"] = self.details
        return out


class RunReport:
    """The parameters of a run and its task results, in run order."""

    __slots__ = ("scenario", "truncation", "max_degree", "test_degree", "tasks")

    def __init__(self, scenario: str, truncation: int, max_degree: int,
                 test_degree: int):
        self.scenario = scenario
        self.truncation = truncation
        self.max_degree = max_degree
        self.test_degree = test_degree
        self.tasks: list[TaskResult] = []

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.tasks)

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.scenario,
            "parameters": {
                "truncation": self.truncation,
                "max_degree": self.max_degree,
                "test_degree": self.test_degree,
            },
            "tasks": [t.to_json_dict() for t in self.tasks],
            "passed": self.passed,
        }


def to_json(report: RunReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _center_table_lines(rows: list[dict]) -> list[str]:
    header = f"  {'degree':>6} {'inv-dim':>8} {'poisson-dim':>12} {'quantum-rank':>13} {'equal':>6}"
    lines = [header]
    for row in rows:
        lines.append(
            f"  {row['degree']:>6} {row['invariant_dim']:>8} "
            f"{row['poisson_center_dim']:>12} {row['quantum_center_rank']:>13} "
            f"{str(row['equal']).lower():>6}"
        )
    return lines


def to_text(report: RunReport) -> str:
    lines = [
        f"scenario: {report.scenario}",
        (
            f"truncation: {report.truncation}  max-degree: {report.max_degree}  "
            f"test-degree: {report.test_degree}"
        ),
    ]
    for task in report.tasks:
        status = "PASS" if task.passed else "FAIL"
        summary = ""
        if task.error:
            summary = f" ({task.error})"
        elif "checks" in task.details:
            summary = f" ({task.details['checks']} checks)"
        lines.append(f"task {task.task}: {status}{summary}")
        if task.task == "centers" and "rows" in task.details:
            lines.extend(_center_table_lines(task.details["rows"]))
        if task.task == "invariants" and "dimensions" in task.details:
            dims = task.details["dimensions"]
            rendered = ", ".join(f"{d}:{dims[d]}" for d in sorted(dims, key=int))
            lines.append(f"  dimensions by degree: {rendered}")
        for failure in task.details.get("failures", []):
            label = failure.get("label", "")
            detail = failure.get("detail", "")
            lines.append(f"  failed: {label} {detail}".rstrip())
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
