"""One timed run in a fresh interpreter, started by ``run.py``.

    python3 bench/child.py SRC SCENARIO REPORT MODE

It follows the path of ``qcenter run SCENARIO --report json``: import
qcenter from SRC, ``load_scenario`` and ``build_scenario`` (the set-up),
then ``run_scenario`` and ``to_json`` (the run).  MODE is ``setup`` (stop
after set-up), ``run`` or ``trace`` (``run`` with every layer wrapped; the
spans go next to REPORT).  The report bytes are written to REPORT and one
JSON line with the timings goes to standard output.
"""

import json
import resource
import sys
import time

t_start = time.perf_counter()


def main(src: str, scenario_path: str, report_path: str, mode: str) -> dict:
    sys.path.insert(0, src)
    import qcenter  # noqa: F401  (the import is part of the set-up time)
    from qcenter import report as report_mod, scenario as scenario_mod

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer.install()
    # Look the entry points up after tracing is installed, so they are traced.
    out: dict = {"qcenter_file": qcenter.__file__}
    scenario = scenario_mod.load_scenario(scenario_path)
    scenario_mod.build_scenario(scenario)
    out["setup_s"] = time.perf_counter() - t_start
    if mode == "setup":
        return out
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    report = scenario_mod.run_scenario(scenario)
    rendered = report_mod.to_json(report)
    out["run_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["passed"] = report.passed
    with open(report_path, "w") as handle:
        handle.write(rendered)
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        tracer.write_spans(report_path + ".spans.jsonl.gz")
    return out


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:5])))
