"""Benchmark runner: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload sl2_deg10 --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --pin-reference           # re-pin reference.json

Run from the repository root.  Every timed run is a fresh interpreter
(``child.py``) and runs go one at a time.  With ``--trace 0`` the runner
times set-up alone several times, then repeats untimed-set-up + timed
``run_scenario``/``to_json`` runs for ``--seconds`` seconds and reports
medians in seconds at a reference speed (see ``REFERENCE_PROBE_S``).  With ``--trace 1`` it makes one untraced and one traced run,
checks that both reports are byte-identical, and reports the per-layer
metrics of the traced run.  Every report is checked against
``reference.json``.  Results, reports and spans go to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every run passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, scenario_document

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 9
# The host drifts in speed by up to a factor of two over minutes, and the
# drift persists across consecutive runs.  Each timed phase is therefore
# bracketed by speed probes on the same CPU and reported in seconds at the
# reference speed: wall seconds * REFERENCE_PROBE_S / mean(probe before, after).
# Wall seconds are printed and kept in the results file as well.
REFERENCE_PROBE_S = 0.5
# A hung child is stopped early enough for the invocation to end within 180 s.
CHILD_TIMEOUT_S = 120
CENTER_COLUMNS = ("degree", "invariant_dim", "poisson_center_dim",
                  "quantum_center_rank", "equal")


class RunFailed(Exception):
    pass


# -- report gate -------------------------------------------------------------


def projection(report: dict) -> dict:
    """The parts of a report that a symplectic change of coordinates keeps:
    pass flags, check counts, invariant dimensions and the centers table's
    numeric columns."""
    tasks = {}
    for task in report["tasks"]:
        details = task.get("details", {})
        entry = {"passed": task["passed"]}
        if "checks" in details:
            entry["checks"] = details["checks"]
        if task["task"] == "invariants":
            entry["dimensions"] = details["dimensions"]
        if task["task"] == "centers":
            entry["rows"] = [[row[c] for c in CENTER_COLUMNS] for row in details["rows"]]
        tasks[task["task"]] = entry
    return {"passed": report["passed"], "parameters": report["parameters"],
            "tasks": tasks}


def check_report(data: bytes, workload: str, seed: int, reference: dict) -> list[str]:
    """Problems with one report; empty when it passes the gate."""
    ref = reference[workload]
    report = json.loads(data)
    problems = []
    if report.get("passed") is not True:
        problems.append("report does not pass")
    problems += [f"task {t['task']} failed" for t in report["tasks"] if t["passed"] is not True]
    if projection(report) != ref["projection"]:
        problems.append("pass flags, check counts, invariant dimensions or centers table differ from the reference")
    if seed == REFERENCE_SEED and hashlib.sha256(data).hexdigest() != ref["sha256"]:
        problems.append("reference-seed report bytes differ from the pinned SHA-256")
    return problems


# -- children -----------------------------------------------------------------


def run_child(scenario: Path, report: Path, mode: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(scenario),
           str(report), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} run exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["qcenter_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RunFailed(f"imported qcenter from {out['qcenter_file']}, not {SRC}")
    return out


def speed_probe_s() -> float:
    """Time of a fixed piece of work shaped like qcenter's hot loop: dense
    ``Fraction`` echelon inserts of a fixed sparse row stream (about 0.5 s).
    It is the benchmark's own copy, so changes to qcenter do not move it."""
    rng = random.Random(5)
    rows, pivots = [], []
    t0 = time.perf_counter()
    for _ in range(100):
        work = [Fraction(0)] * 90
        for col in rng.sample(range(90), 3):
            work[col] = Fraction(rng.randint(-3, 3) or 1)
        for prow, pcol in zip(rows, pivots):
            if work[pcol]:
                factor = work[pcol]
                work = [a - factor * b for a, b in zip(work, prow)]
        pivot = next((c for c, v in enumerate(work) if v), None)
        if pivot is None:
            continue
        inv = 1 / work[pivot]
        work = [v * inv for v in work]
        for i, prow in enumerate(rows):
            if prow[pivot]:
                factor = prow[pivot]
                rows[i] = [a - factor * b for a, b in zip(prow, work)]
        rows.append(work)
        pivots.append(pivot)
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "speed_probe_s_before": speed_probe_s(),
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def percentile_note(n: int) -> str:
    """The choosing-metrics rule: report the highest percentile that has at
    least ten samples beyond it."""
    best = None
    for q in (50, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = q
    return f"p{best} supported" if best else f"no percentile beyond ten samples (n={n})"


# -- one workload ---------------------------------------------------------------


def prepare(workload: str, seed: int) -> Path:
    """Write the workload's scenario for this seed; returns its directory."""
    work = OUT / f"{workload}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    doc = scenario_document(ROOT, WORKLOADS[workload], seed)
    (work / "scenario.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return work


def measure(work: Path, workload: str, seed: int, seconds: float, reference: dict) -> dict:
    """Untraced runs: end-to-end metrics at the reference speed."""
    scenario = work / "scenario.json"
    report = work / "report.json"
    start = time.perf_counter()
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})  # probes and children share one CPU
    try:
        run_child(scenario, report, "setup")  # fills the bytecode cache, untimed
        probes = [speed_probe_s()]
        setup_wall = [run_child(scenario, report, "setup")["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
        probes.append(speed_probe_s())
        setup_scale = REFERENCE_PROBE_S / statistics.fmean(probes)
        runs, run_wall, rss, cpu, problems = [], [], [], [], []
        attempted = failed = 0
        # Start another run while it would end no more than half a run past
        # the window: this keeps every invocation within 1.5 runs of --seconds.
        while not runs or time.perf_counter() - start + statistics.median(run_wall) / 2 <= seconds:
            attempted += 1
            try:
                out = run_child(scenario, report, "run")
                found = check_report(report.read_bytes(), workload, seed, reference)
            except RunFailed as exc:
                out, found = None, [str(exc)]
            if found:
                failed += 1
                problems += found
                if out is None:
                    break
            probes.append(speed_probe_s())
            run_wall.append(out["run_s"])
            runs.append(out["run_s"] * REFERENCE_PROBE_S / statistics.fmean(probes[-2:]))
            rss.append(out["peak_rss_mb"])
            cpu.append(out["cpu_s"])
    finally:
        os.sched_setaffinity(0, saved)
    setups = [s * setup_scale for s in setup_wall]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"run_s": runs, "setup_s": setups, "peak_rss_mb": rss,
                    "run_wall_s": run_wall, "setup_wall_s": setup_wall,
                    "cpu_s": cpu, "speed_probe_s": probes},
        "metrics": {
            "run_s": (statistics.median(runs), "s") if runs else None,
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB") if rss else None,
        },
        "wall": {
            "run_wall_s": (statistics.median(run_wall), "s") if run_wall else None,
            "setup_wall_s": (statistics.median(setup_wall), "s"),
        },
    }


def layer_metrics(summary: dict, overhead_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from a trace summary.  A name
    ``<function>.<field>`` reads field calls, self_s or s of that function;
    ``<layer>.layer_self_s`` sums a module's self time."""
    functions = summary["functions"]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    out = {}
    for name in (m["name"] for m in per_layer):
        if name == "trace.overhead_s":
            out[name] = (overhead_s, "s")
        elif name == "linalg.add_row.rank_ratio":
            row = functions["linalg.EchelonAccumulator.add_row"]
            out[name] = (row["true"] / row["calls"] if row["calls"] else 0.0, "ratio")
        elif name == "centers.quantum_center_up_to.kernel_solves":
            key = "linalg.EchelonAccumulator.kernel<centers.quantum_center_up_to"
            out[name] = (summary["under"][key], "count")
        elif name.endswith(".layer_self_s"):
            layer = name.split(".")[0]
            total = sum(v["self_s"] for k, v in functions.items() if k.split(".")[0] == layer)
            out[name] = (total, "s")
        else:
            function, field = name.rsplit(".", 1)
            out[name] = (functions[function][field], "count" if field == "calls" else "s")
    return out


def trace(work: Path, workload: str, seed: int, reference: dict) -> dict:
    """One untraced and one traced run: per-layer metrics and self-checks."""
    scenario = work / "scenario.json"
    plain, traced = work / "report.json", work / "report-traced.json"
    run_child(scenario, plain, "setup")  # fills the bytecode cache
    base = run_child(scenario, plain, "run")
    plain_problems = check_report(plain.read_bytes(), workload, seed, reference)
    out = run_child(scenario, traced, "trace")
    summary = out["trace"]
    problems = []
    if traced.read_bytes() != plain.read_bytes():
        problems.append("traced report bytes differ from the untraced report")
    calls = summary["functions"]["centers.invariants_up_to"]["calls"]
    expected = WORKLOADS[workload].invariant_solves
    if calls != expected:
        problems.append(f"centers.invariants_up_to.calls is {calls}, expected {expected}")
    if summary["open_frames"]:
        problems.append("spans left open at the end of the traced run")
    return {
        "attempted": 2,
        "failed": bool(plain_problems) + bool(problems),
        "problems": plain_problems + problems,
        "samples": {"untraced_run_s": [base["run_s"]], "traced_run_s": [out["run_s"]]},
        "metrics": layer_metrics(summary, out["run_s"] - base["run_s"]),
        "spans": str(traced) + ".spans.jsonl.gz",
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())
    work = prepare(workload, seed)
    env = environment(seed)
    try:
        if traced:
            result = trace(work, workload, seed, reference)
        else:
            result = measure(work, workload, seed, seconds, reference)
    except RunFailed as exc:
        result = {"attempted": 1, "failed": 1, "problems": [str(exc)], "metrics": {}}
    env["loadavg_after"] = list(os.getloadavg())
    env["speed_probe_s_after"] = speed_probe_s()
    env["samples"] = {k: len(v) for k, v in result.get("samples", {}).items()}
    result.update(workload=workload, trace=int(traced), environment=env)
    name = f"results-{workload}-seed{seed}-trace{int(traced)}.json"
    (OUT / name).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def print_result(result: dict):
    workload = result["workload"]
    for problem in result["problems"]:
        print(f"{workload}: CHECK FAILED: {problem}")
    samples = result.get("samples", {})
    for name, value in {**result["metrics"], **result.get("wall", {})}.items():
        if value is None:
            continue
        count = len(samples.get(name, []))
        extra = f"  median of {count}; {percentile_note(count)}" if count else ""
        shown = value[0] if isinstance(value[0], int) else f"{value[0]:.6g}"
        print(f"{workload} {name} {shown} {value[1]}{extra}")
    share = result["failed"] / result["attempted"]
    print(f"{workload} failed_share {share:.6g} ratio  ({result['failed']} of {result['attempted']} runs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qcenter" / "__init__.py").is_file():
        print(f"no qcenter sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.pin_reference:
        return pin_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_result(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items() if v},
    }))
    return 0 if failed == 0 else 1


def pin_reference() -> int:
    """Pin each workload's reference-seed report: SHA-256 and projection."""
    pinned = {}
    for name in WORKLOADS:
        work = prepare(name, REFERENCE_SEED)
        run_child(work / "scenario.json", work / "report.json", "run")
        data = (work / "report.json").read_bytes()
        pinned[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                        "projection": projection(json.loads(data))}
        print(f"{name}: {pinned[name]['sha256']}")
    REFERENCE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
