"""The command line's refusals: one table, run by the test suite and by CI.

Each row is an input that ``qcenter`` must end with exit 2 or 3 and one
short stderr line, never a traceback.  A row holds an id, a source (a
preset name, a file under ``tests/``, a document, or the file's raw bytes),
an edit (keys to replace, or a function that edits the document in place),
the exit code, the message, and ``run`` flags.  A row without flags runs
under both ``validate`` and ``run``, which must print the same line; a row
with flags runs under ``run`` only.

Every run must give the exit code and exactly one stderr line, without
``Traceback`` and shorter than 200 bytes.  That line must hold the message
after the code's prefix (``parse error:`` for 2, ``validation error:`` for
3), or be the message exactly when ``whole`` is set.  A row with a
``memory`` cap runs in a fresh process under that address-space cap, killed
after ``seconds``; a row with only ``seconds`` must finish within them.

The module imports nothing from ``qcenter``; it reads the presets from the
checkout as files.  ``tests/test_scenario_cli.py`` runs every row
in-process through ``qcenter.cli.main`` (a capped row in a fresh process),
as the test ``test_<id>``, so rows sharing an id run as one test.
``python tests/refusals.py`` runs every row against the installed
``qcenter`` script, from any directory, and exits 1 when one fails.

A new refusal is one row here.
"""

from __future__ import annotations

import json
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

TESTS = Path(__file__).resolve().parent
PRESETS = TESTS.parent / "src" / "qcenter" / "scenarios"
FILE = "scenario.json"  # the document's name in the run's directory
PREFIXES = {2: "parse error: ", 3: "validation error: "}
CAP = 1_500_000_000  # bytes of address space for a fresh run

MINIMAL = {
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

# every hamiltonian diagonal on the standard bivector: the test cutoff is
# exact, 12 here, where the generators q2^11*p1 and q1*p2^11 enter
TORUS_11 = {
    "schema": "qcenter-scenario/1",
    "name": "torus_11",
    "space": {"pairs": 2},
    "lie_algebra": {"dim": 1, "labels": ["t"], "brackets": [],
                    "invariant_generators": [{"name": "t", "poly": "t"}]},
    "hamiltonians": {"t": "11*q1*p1 + q2*p2"},
    "truncation": 2,
    "max_degree": 2,
    "lifts": [],
    "relations": [],
    "center_generators": [],
    "tasks": ["invariants", "centers"],
}
# every pairing doubled: the scales leave the exact cutoff at 12
TORUS_11_DOUBLED = dict(TORUS_11, name="torus_11_doubled", space={"pairs": 2, "bivector": [
    [0, 0, 2, 0], [0, 0, 0, 2], [-2, 0, 0, 0], [0, -2, 0, 0]]})
# q1 paired with p2 and q2 with p1: the pairs are read off the bivector,
# and the exact cutoff is 12, where q1*p1^11 enters
TORUS_11_CROSSED = dict(TORUS_11, name="torus_11_crossed", space={"pairs": 2, "bivector": [
    [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]},
    hamiltonians={"t": "11*q1*p2 + q2*p1"})
# two weight rows on three pairs: exact cutoff 25
TWO_ROWS = dict(TORUS_11, name="two_rows", space={"pairs": 3}, lie_algebra={
    "dim": 2, "labels": ["s", "t"], "brackets": [], "invariant_generators": []},
    hamiltonians={"s": "2*q1*p1 - 3*q2*p2 + 3*q3*p3", "t": "2*q1*p1 - 4*q2*p2 - q3*p3"})


class Row(NamedTuple):
    id: str
    source: str | dict | bytes
    edit: dict | Callable[[dict], None] | None
    code: int
    message: str
    flags: tuple[str, ...] = ()
    whole: bool = False
    seconds: float | None = None
    memory: int | None = None


def preset(name: str) -> dict:
    return json.loads((PRESETS / f"{name}.json").read_text())


def document(row: Row) -> bytes:
    """The bytes of the row's scenario file."""
    if isinstance(row.source, bytes):
        return row.source
    if isinstance(row.source, str):
        doc = (json.loads((TESTS / row.source).read_text())
               if row.source.endswith(".json") else preset(row.source))
    else:
        doc = json.loads(json.dumps(row.source))
    if callable(row.edit):
        row.edit(doc)
    elif row.edit:
        doc.update(row.edit)
    return json.dumps(doc).encode()


def problems(row: Row, code: int | None, err: str, seconds: float) -> list[str]:
    """What one run of the row did wrong."""
    found = []
    if code != row.code:
        found.append(f"exit {code}, expected {row.code}")
    if row.whole:
        if err != row.message + "\n":
            found.append(f"stderr is not the line {row.message!r}")
    elif not err.startswith(PREFIXES[row.code]) or row.message not in err:
        found.append(f"stderr does not hold {PREFIXES[row.code]!r} ... {row.message!r}")
    if len(err.splitlines()) != 1 or "Traceback" in err or len(err.encode()) >= 200:
        found.append("stderr is not one line under 200 bytes without a traceback")
    if row.seconds is not None and seconds >= row.seconds:
        found.append(f"took {seconds:.2f} s, over {row.seconds} s")
    return found


def check(row: Row, cli, folder: Path, commands: tuple[str, ...] | None = None
          ) -> list[str]:
    """Every problem of the row under each of its commands.  The document
    is written into ``folder``, where ``cli(row, argv)`` runs ``qcenter
    argv`` and returns the exit code, stderr and seconds taken."""
    (folder / FILE).write_bytes(document(row))
    if commands is None:
        commands = ("run",) if row.flags else ("validate", "run")
    found, lines = [], set()
    for command in commands:
        code, err, seconds = cli(row, [command, FILE, *row.flags])
        wrong = problems(row, code, err, seconds)
        if wrong:
            found.append(f"{command}: {'; '.join(wrong)}; stderr: {err[:300]!r}")
        lines.add(err)
    if len(lines) > 1:
        found.append(f"validate and run print different lines: {sorted(lines)}")
    return found


def fresh(cli: list[str], argv: list[str], folder: Path, seconds: float | None,
          memory: int | None = None, env: dict | None = None
          ) -> tuple[int | None, str, float]:
    """``cli + argv`` in a fresh process in ``folder``, under an
    address-space cap of ``memory`` bytes when set, killed after
    ``seconds`` (60 when None); exit None when killed."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    start = time.perf_counter()
    try:
        done = subprocess.run(
            [*cli, *argv], cwd=folder, env=env, capture_output=True, text=True,
            timeout=seconds or 60, preexec_fn=cap if memory else None,
        )
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    return done.returncode, done.stderr, time.perf_counter() - start


# -- document helpers ----------------------------------------------------------


def _lie(**fields) -> dict:
    return {"lie_algebra": dict(MINIMAL["lie_algebra"], **fields)}


def _nested(depth: int) -> list:
    """An empty list inside ``depth - 1`` more lists."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def bivector(pairs: int, dense: bool) -> list[list[str]]:
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


def _generator(**fields):
    """An edit of the first invariant generator's fields."""
    return lambda doc: doc["lie_algebra"]["invariant_generators"][0].update(fields)


def _numbered(test: str, argname: str, code: int, cases: list) -> list[Row]:
    """One row per ``(source, edit, message)``, its case named by its
    place and message."""
    return [Row(f"{test}[{argname}{i}-{message}]", source, edit, code, message)
            for i, (source, edit, message) in enumerate(cases)]


# how a message echoes a 5,000-character name
_CUT_K = f"'{'k' * 12}...{'k' * 13}'"

# a stated bracket contradicted by its stated mirror or stated twice, a series
# order written twice, a generator pullback the lifts cannot use, and a
# quantum correction at the truncation, which the quantum condition cannot
# see but a central lift carries, not invariant or of another weight: each
# must be refused before any task runs, not dropped, merged or met by a task
BUILT_FROM_PRESETS = [
    ("sl2_tstar_k2", lambda d: d["lie_algebra"]["brackets"].append(
        {"left": "f", "right": "e", "components": {}}),
     "structure constants not antisymmetric at (0,2)"),
    ("sl2_tstar_k2", lambda d: d["lie_algebra"]["brackets"].insert(
        0, {"left": "e", "right": "f", "components": {"h": "7"}}),
     "bracket of 'e' and 'f' is stated twice"),
    ("sl2_tstar_k2", _generator(section_correction={"2": "1", "02": "1"}),
     "order 2 of section correction of 'casimir' is written twice"),
    ("torus_k2", {"quantum_corrections": {"t": {"2": "1", "02": "1"}}},
     "order 2 of quantum correction of 't' is written twice"),
    ("sl2_tstar_k2", _generator(poly="h^2 + 4*e*f + 1"),
     "the lift tasks cannot run: pullback of generator 'casimir' is not homogeneous"),
    # a series order is plain ASCII decimal digits: int() would also read
    # these, as orders 10, 2, 2 and 3
    *[("torus_k2", {"quantum_corrections": {"t": {key: "1"}}},
       f"order of quantum correction of 't' must be an integer, got {key!r}")
      for key in ("1_0", " 2", "+2", "\u0663")],
    ("sl2_tstar_k2", _generator(section_correction={"2": "1", "1_0": "1"}),
     "order of section correction of 'casimir' must be an integer, got '1_0'"),
    ("torus_k2", {"quantum_corrections": {"t": {"8": "q1^3"}}},
     "the lift tasks cannot run: the central lift of generator 't' at order 8 "
     "is not invariant under t"),
    ("torus_k2", {"quantum_corrections": {"t": {"8": "q1*p1"}}},
     "the lift tasks cannot run: the central lift of generator 't' is not "
     "weight-homogeneous"),
]

ROWS = _numbered("validate_rejects_bad_bounds_with_exit_3", "change", 3, [
    (MINIMAL, {"truncation": -1}, "truncation must be non-negative"),
    (MINIMAL, {"max_degree": -2}, "max_degree must be non-negative"),
    (MINIMAL, {"max_degree": 7, "test_degree": 6}, "max_degree 7 exceeds test_degree 6"),
    (MINIMAL, {"space": {"pairs": True}}, "pairs must be an integer, not a boolean"),
    (MINIMAL, {"truncation": 2.5}, "truncation must be an integer, got 2.5"),
    (MINIMAL, {"samples": {"axioms": "x"}}, "samples.axioms must be an integer, got 'x'"),
    (MINIMAL, {"samples": {"moment": -3}}, "samples.moment must be non-negative, got -3"),
    (MINIMAL, {"samples": {"axioms": -3}}, "samples.axioms must be non-negative, got -3"),
    (MINIMAL, {"space": {"pairs": 1, "weights": ["a", "b"]}},
     "space.weights must be an integer, got 'a'"),
    (MINIMAL, {"space": {"pairs": 1, "hbar_weight": "x"}},
     "space.hbar_weight must be an integer, got 'x'"),
    (MINIMAL, _lie(dim=True), "lie_algebra.dim must be an integer, not a boolean"),
    # one integer rule for every integer field: no strings, no out-of-range
    # values
    (MINIMAL, {"space": {"pairs": "1"}}, "space.pairs must be an integer, got '1'"),
    (MINIMAL, {"space": {"pairs": 0}}, "space.pairs must be at least 1, got 0"),
    (MINIMAL, _lie(dim=-1), "lie_algebra.dim must be non-negative, got -1"),
    (MINIMAL, {"truncation": "8"}, "truncation must be an integer, got '8'"),
    (MINIMAL, {"samples": {"axioms": "3"}}, "samples.axioms must be an integer, got '3'"),
    (MINIMAL, {"quantum_corrections": {"t": {"0": "1"}}},
     "order of quantum correction of 't' must be at least 1, got 0"),
    (MINIMAL, _lie(invariant_generators=[
        {"name": "t", "poly": "t", "section_correction": {"x": "t"}}]),
     "order of section correction of 't' must be an integer, got 'x'"),
    # a bad value is echoed cut short, however large it is
    (MINIMAL, {"truncation": "9" * 5000}, "truncation must be an integer, got '999"),
    # deep enough to echo ~1,800 characters whole, shallow enough for the
    # JSON loader under the test runner's own frames
    (MINIMAL, {"truncation": _nested(900)}, "truncation must be an integer, got [[...]]"),
    *BUILT_FROM_PRESETS,
])

ROWS += _numbered("validate_rejects_bad_shapes_with_exit_2", "change", 2, [
    (MINIMAL, {"samples": [1]}, "samples must be an object of sample counts"),
    (MINIMAL, {"tasks": "axioms"}, "tasks must be a list of task names"),
    (MINIMAL, _lie(brackets=5), "field 'brackets' in lie_algebra must be a list"),
    (MINIMAL, {"lifts": 5}, "field 'lifts' in scenario must be a list"),
    (MINIMAL, {"relations": 5}, "field 'relations' in scenario must be a list"),
    (MINIMAL, _lie(brackets=[1]), "bracket entry must be an object"),
    (MINIMAL, _lie(invariant_generators=[1]), "invariant generator must be an object"),
    (MINIMAL, {"lifts": [1]}, "lift entry must be an object"),
    (MINIMAL, {"quantum_corrections": [1]}, "quantum_corrections must be an object"),
    (MINIMAL, {"quantum_corrections": {"t": [1]}},
     "quantum correction of 't' must be an object"),
    (MINIMAL, _lie(invariant_generators=[
        {"name": "t", "poly": "t", "section_correction": [1]}]),
     "section correction of 't' must be an object"),
    (MINIMAL, _lie(labels=[1]), "lie_algebra.labels must be strings"),
    # default labels x1..x<dim> beyond the hamiltonians are refused before
    # they are built, so even 10**12 exits at once
    (MINIMAL, {"lie_algebra": {"dim": 2}, "hamiltonians": {"x1": "q1*p1"}},
     "missing hamiltonian for basis element 'x2'"),
    (MINIMAL, {"lie_algebra": {"dim": 10**12}, "hamiltonians": {"x1": "q1*p1"}},
     "missing hamiltonian for basis element 'x2'"),
    (MINIMAL, {"lie_algebra": {"dim": 10**12},
               "hamiltonians": {"x2": "q1*p1", "x3": "q1*p1"}},
     "missing hamiltonian for basis element 'x1'"),
    (MINIMAL, {"lie_algebra": {"dim": 10**12}, "hamiltonians": {}},
     "missing hamiltonian for basis element 'x1'"),
    # JSON booleans are not rationals
    (MINIMAL, {"space": {"pairs": 1, "bivector": [[0, True], [-1, 0]]}},
     "bad scalar in space.bivector: True"),
    (MINIMAL, dict(_lie(dim=2, labels=["t", "s"], brackets=[
        {"left": "t", "right": "s", "components": {"t": False}}]),
        hamiltonians={"t": "q1*p1", "s": "1"}),
     "bad scalar in bracket components: False"),
    # numbers the rationals or int() refuse
    (MINIMAL, {"hamiltonians": {"t": "1/0*q1"}}, "zero denominator in '1/0'"),
    (MINIMAL, {"hamiltonians": {"t": "9" * 5000 + "*q1*p1"}},
     "number of 5000 characters is too long"),
    (MINIMAL, _lie(invariant_generators=[{"name": "t", "poly": "t^" + "9" * 5000}]),
     "number of 5000 characters is too long"),
    # an unknown key at any level is refused, not replaced by a default
    (MINIMAL, {"max_degre": 2}, "unknown key 'max_degre' in scenario"),
    (MINIMAL, {"taks": ["invariants"]}, "unknown key 'taks' in scenario"),
    (MINIMAL, {"samples": {"axiom": 3}}, "unknown key 'axiom' in samples"),
    (MINIMAL, {"space": {"pairs": 1, "pair": 1}}, "unknown key 'pair' in space"),
    (MINIMAL, _lie(brakets=[]), "unknown key 'brakets' in lie_algebra"),
    (MINIMAL, _lie(brackets=[{"left": "t", "right": "t", "components": {}, "comp": {}}]),
     "unknown key 'comp' in bracket entry"),
    (MINIMAL, _lie(invariant_generators=[{"name": "t", "polly": "t"}]),
     "unknown key 'polly' in invariant generator"),
    (MINIMAL, {"lifts": [{"name": "J", "targt": "q1*p1", "relation": ["-t"]}]},
     "unknown key 'targt' in lift entry"),
    # a lift has one shape: {name, classical} or {name, target, relation}
    (MINIMAL, {"lifts": [{"name": "J", "classical": "t", "target": "q1*p1"}]},
     "unknown key 'target' in lift entry"),
    (MINIMAL, {"hamiltonians": {"t": "q1*p1", "s": "q1"}},
     "hamiltonian for unknown label 's'"),
    (MINIMAL, {"name": 5}, "field 'name' in scenario must be a string"),
    (MINIMAL, {"description": ["x"]}, "field 'description' in scenario must be a string"),
    # a name is echoed cut short, however long it is
    (MINIMAL, {"k" * 5000: 1}, f"unknown key {_CUT_K} in scenario"),
    (MINIMAL, {"hamiltonians": {"t": "q1*p1", "k" * 5000: "q1"}},
     f"hamiltonian for unknown label {_CUT_K}"),
    (MINIMAL, dict(_lie(labels=["k" * 5000]), hamiltonians={"k" * 5000: "q1*p1"}),
     f"unknown variable 't' (known: {_CUT_K})"),
])


def _line(code: int, message: str) -> str:
    return PREFIXES[code] + message


def _sl2_lift_power(doc: dict, field: str):
    if field == "classical":
        doc.update(lifts=[{"name": "c2", "classical": "(casimir + 1)^8000"}], relations=[])
    elif field == "relation":
        doc["lifts"][1]["relation"] = ["(casimir + 1)^8000", "0"]
    else:
        doc["relations"] = ["(c2 + 1)^8000"]


def _labels_600(doc: dict):
    """600 labels, every hamiltonian zero, and two stated brackets that
    break the Jacobi identity on the last triple."""
    labels = [f"a{i}" for i in range(600)]
    brackets = [{"left": "a597", "right": "a598", "components": {"a597": "1"}},
                {"left": "a598", "right": "a599", "components": {"a598": "1"}}]
    doc.update(lie_algebra={"dim": 600, "labels": labels, "brackets": brackets,
                            "invariant_generators": []},
               hamiltonians=dict.fromkeys(labels, "0"), truncation=2, max_degree=2,
               test_degree=2, lifts=[], center_generators=[], tasks=["invariants"])


def _dense_quartic(name="t", poly="t", lift=None):
    """An edit of ``torus_k4``: a dense quartic hamiltonian of ``t``, one
    generator, and with ``lift`` a classical lift ``G`` in its name."""
    def edit(doc: dict):
        doc["lie_algebra"]["invariant_generators"] = [{"name": name, "poly": poly}]
        doc.update(hamiltonians={"t": "(q1+p1+q2+p2)^4"}, truncation=1)
        if lift is not None:
            doc.update(lifts=[{"name": "G", "classical": lift}], center_generators=[],
                       tasks=["invariants"])
    return edit


_NO_CENTERS = ("the centers task cannot run: at truncation 0 every deformed "
               "commutator vanishes, so it needs truncation at least 1")
_MISSING = "output error: cannot write the report: {!r} is in a directory that does not exist"
_NOT_UTF8 = json.dumps(dict(MINIMAL, description="Gr\u00f6\u00dfe", tasks=[]),
                       ensure_ascii=False).encode("latin-1")
_LONG_INTEGER = json.dumps(dict(MINIMAL, truncation=0)).replace(
    '"truncation": 0', '"truncation": ' + "9" * 5000).encode()

ROWS += [
    Row("non_utf8_scenario_file_exits_2", _NOT_UTF8, None, 2, "utf-8"),
    Row("json_nested_past_the_recursion_limit_exits_2", b"[" * 200_000, None, 2,
        "nested too deeply"),
    # json.loads refuses integers past sys.get_int_max_str_digits() with a
    # plain ValueError, not a JSONDecodeError
    Row("integer_too_long_to_convert_exits_2", _LONG_INTEGER, None, 2, "invalid JSON"),
    *[Row("unwritable_report_path_exits_2", MINIMAL, {"tasks": []}, 2, line,
          ("--out", out), whole=True)
      for out, line in [("missing/r.json", _MISSING.format("missing/r.json")),
                        (".", "output error: cannot write the report: '.' is a directory")]],
    # the report path is checked before the run: so3_rotation at max_degree
    # 22 runs for over a minute, but the missing directory ends it at once
    Row("unwritable_report_path_ends_a_long_run_at_once", "data/so3_rotation.json",
        {"max_degree": 22, "test_degree": 24, "tasks": ["invariants"]}, 2,
        _MISSING.format("missing/report.json"), ("--out", "missing/report.json"),
        whole=True, seconds=20, memory=CAP),
    *[Row("run_rejects_negative_override_with_exit_3", MINIMAL, None, 3,
          _line(3, f"{key} must be non-negative, got -1"), (flag, "-1"), whole=True)
      for flag, key in [("--truncation", "truncation"), ("--max-degree", "max_degree")]],
    # the size budget refuses a document before anything is built from it,
    # in a fresh process under a memory cap
    *[Row(f"oversized_scenarios_are_refused_with_exit_3[{case}]", source, edit, 3,
          _line(3, message), whole=True, seconds=60, memory=CAP)
      for case, source, edit, message in [
          # the dense 2n x 2n bivector alone would not fit
          ("pairs", "torus_k2", {"space": {"pairs": 10**6}},
           "space.pairs 1000000 with test_degree 10 gives more than 1000000 "
           "candidate monomials, over the size budget"),
          # symmetrizing the generator recursed once per letter
          ("word_length", "torus_k2", _generator(poly="t^100000"),
           "invariant generator 't' has degree 100000, over the word-length budget of 24"),
          ("correction_word_length", "torus_k2", _generator(section_correction={"2": "t^25"}),
           "section correction of 't' has degree 25, over the word-length budget of 24"),
          # expanding and checking it ran past 15 s
          ("hamiltonian_degree", "sl2_tstar_k2",
           lambda d: d["hamiltonians"].update(h="(q1+p1+q2+p2)^400"),
           "hamiltonian 'h' has degree 400, over the word-length budget of 24"),
          # drawing the whole sample list ended in MemoryError
          ("axiom_samples", "sl2_tstar_k2", {"samples": {"axioms": 10**12}},
           "samples.axioms 1000000000000 is over the sample budget of 100000"),
      ]],
    Row("run_refuses_an_oversized_sample_count_with_exit_3[moment]", "sl2_tstar_k2",
        {"samples": {"moment": 10**12}}, 3,
        _line(3, "samples.moment 1000000000000 is over the sample budget of 100000"),
        whole=True, seconds=60, memory=CAP),
    # expanding (h+e+f)^3000 alone takes far longer than the limit: the parser
    # compares the degree a power would have with the budget first
    Row("long_power_of_a_sum_is_refused_before_expansion[validate]", "sl2_tstar_k2",
        _generator(poly="(h+e+f)^3000"), 3,
        _line(3, "invariant generator 'casimir' has degree 3000, over the "
                 "word-length budget of 24"),
        whole=True, seconds=30, memory=CAP),
    # uncapped, (casimir + 1)^8000 as the classical element kept validate busy
    # past 60 s, and casimir^300 made run take ~1 GB
    *[Row(f"long_power_in_a_lift_expression_is_refused_at_once[{field}-{where}]",
          "sl2_tstar_k2", lambda d, field=field: _sl2_lift_power(d, field), 3,
          _line(3, f"{where} has degree 8000, over the word-length budget of 24"),
          whole=True, seconds=1)
      for field, where in [("classical", "lift 'c2'"), ("relation", "lift 'tr' relation"),
                           ("relations", "generator relation")]],
    # 2^10000000000 would be a 1.25 GB integer: the parser refuses the power
    # from the sizes of base and exponent before computing it
    Row("large_power_of_a_constant_is_refused_with_exit_2", MINIMAL,
        {"hamiltonians": {"t": "2^10000000000*q1*p1"}}, 2,
        "parse error: bad polynomial in hamiltonian 't': power of a constant is "
        "too large: over 14285 bits", whole=True, seconds=30, memory=CAP),
    # up to C(15, 8)^2 ~ 4.1 * 10^7 symbol terms at level 8
    Row("dense_bivector_over_the_symbol_budget_is_refused_at_once", "torus_k2",
        {"space": {"pairs": 4, "bivector": bivector(4, dense=True)}, "tasks": []}, 3,
        _line(3, "space.pairs 4 with 56 nonzero bivector entries gives more than "
                 "100000 symbol terms at level 8 (truncation 8, test_degree 10), "
                 "over the size budget"),
        whole=True, seconds=1),
    # 8 coordinates: C(8 + 16, 16) = 735471 candidates fit, C(8 + 17, 17) do not
    *[Row(f"candidate_budget_refuses_test_degree_17[{case}]", "torus_k2",
          {"space": {"pairs": 4}, "tasks": [], "max_degree": 2, "test_degree": degree}, 3,
          _line(3, "space.pairs 4 with test_degree 17 gives more than 1000000 "
                   "candidate monomials, over the size budget"), flags, whole=True)
      for case, degree, flags in [("document", 17, ()),
                                  ("flag", 16, ("--max-degree", "15"))]],
    # a dense three-pair bivector: 56,484 symbol terms at level 5, and up to
    # C(11, 6)^2 = 213,444 at level 6
    Row("symbol_budget_refuses_truncation_6", "torus_k2",
        {"space": {"pairs": 3, "bivector": bivector(3, dense=True)}, "truncation": 5,
         "tasks": []}, 3,
        _line(3, "space.pairs 3 with 30 nonzero bivector entries gives more than "
                 "100000 symbol terms at level 6 (truncation 6, test_degree 10), "
                 "over the size budget"),
        ("--truncation", "6"), whole=True),
    # at truncation 0 every deformed commutator vanishes, so the centers
    # comparison says nothing
    *[Row(f"centers_task_refuses_truncation_0[{name}]", name, None, 3,
          _line(3, _NO_CENTERS), ("--truncation", "0"), whole=True)
      for name in ("sl2_tstar_k2", "torus_k2", "torus_k4", "trivial_k2")],
    # with hbar_weight 0 every series order would be a quantum block of the
    # same degree: the centers task needs the graded default and is refused
    # before any slice is built
    Row("ungraded_centers_scenario_is_refused_with_exit_3[validate]", MINIMAL,
        {"space": {"pairs": 1, "hbar_weight": 0}, "truncation": 10**9, "tasks": ["centers"]},
        3, _line(3, "the centers task cannot run: bivector is not graded: weights "
                    "w[0]+w[1] = -2 != 0"), whole=True, seconds=60, memory=CAP),
    Row("nonuniform_weights_with_centers_are_refused_with_exit_3", "torus_k2",
        {"space": {"pairs": 1, "weights": [1, -1], "hbar_weight": 0}}, 3,
        _line(3, "the centers task cannot run: quantum-center slicing requires the "
                 "uniform default weights"), whole=True),
    # under the default hbar_weight 2 the weights 1, -1 do not grade the
    # bivector: the homogeneity check cannot run, which is an input error and
    # not a failed assertion
    Row("ungraded_axioms_scenario_is_refused_with_exit_3", "torus_k2",
        {"space": {"pairs": 1, "weights": [1, -1]}, "tasks": ["axioms"]}, 3,
        _line(3, "the axioms task cannot run: bivector is not graded: weights "
                 "w[0]+w[1] = 0 != -2"), whole=True),
    # a second entry of the same name would shadow the first wherever
    # generators and lifts are looked up by name
    Row("repeated_generator_or_lift_name_is_refused_with_exit_3[invariant_generators-"
        "entry0-invariant generator 't' is named twice]", "torus_k2",
        lambda d: d["lie_algebra"]["invariant_generators"].append({"name": "t", "poly": "t^2"}),
        3, _line(3, "invariant generator 't' is named twice"), whole=True),
    Row("repeated_generator_or_lift_name_is_refused_with_exit_3[lifts-entry1-"
        "lift 'J' is named twice]", "torus_k2",
        lambda d: d["lifts"].append({"name": "J", "target": "q1*p1", "relation": ["-t"]}),
        3, _line(3, "lift 'J' is named twice"), whole=True),
    # a repeated generator is never algebraically independent of itself, so
    # the weyl task would fail on it with exit 1
    Row("repeated_center_generator_is_refused_with_exit_3", "torus_k2",
        {"center_generators": ["J", "J"]}, 3,
        _line(3, "center generator 'J' is named twice"), whole=True),
    # b's hamiltonian has degree 24, so its commutator applies three
    # derivatives below the truncation: a walk over the monomials up to
    # degree 24, trying a on each, took validate over 20 s
    Row("quantum_condition_walk_stops_at_each_generators_bound", {
        "schema": "qcenter-scenario/1", "name": "walk", "space": {"pairs": 3},
        "lie_algebra": {"dim": 2, "labels": ["a", "b"], "brackets": [],
                        "invariant_generators": []},
        "hamiltonians": {"a": "q2*p2", "b": "q1^24"}, "truncation": 12,
        "max_degree": 2, "test_degree": 4, "lifts": [], "relations": [],
        "center_generators": [], "tasks": ["invariants"]}, None, 3,
        _line(3, "quantum condition fails for b: its hamiltonian has degree 24 at "
                 "truncation 12"), whole=True, seconds=10),
    # the quantum condition is a condition on degrees: the cubic q1^2*p1
    # meets it at truncation 2 (cubic_t2.json runs with exit 0) and not at 3
    Row("quantum_condition_refuses_a_cubic_hamiltonian_at_truncation_3",
        "data/cubic_t2.json", {"truncation": 3}, 3,
        _line(3, "quantum condition fails for t: its hamiltonian has degree 3 at "
                 "truncation 3"), whole=True),
    # a constant correction meets the quantum condition, but [e, f] = h
    # closes only when h's corrections below the truncation vanish as e's
    # and f's do
    Row("quantum_hamiltonians_that_do_not_close_are_refused", "sl2_tstar_k2",
        {"quantum_corrections": {"h": {"1": "1"}}}, 3,
        _line(3, "quantum hamiltonians do not close under the commutator: (e, f)"),
        whole=True),
    # a relation of degree n takes the n-th deformed power of the lift and
    # checks minimality to degree (n - 1) * deg f: uncapped, validate
    # admitted this document and run went on past 10 s
    Row("lift_relation_over_the_word_length_budget_is_refused", "torus_k4",
        {"lifts": [{"name": "tr", "target": "q1*p1 + q2*p2",
                    "relation": ["0"] * 1000 + ["-t"]}],
         "tasks": ["lift"]}, 3,
        _line(3, "lift 'tr' relation has 1001 coefficients, over the word-length "
                 "budget of 24"), whole=True, seconds=10),
    # a classical part of two weights cannot be specialized: the weyl task
    # failed on it with exit 1
    Row("weyl_task_refuses_an_inhomogeneous_lift", "torus_k2",
        {"lifts": [{"name": "J", "classical": "t + 1"}]}, 3,
        _line(3, "the weyl task cannot run: classical part of lift 'J' is not "
                 "weight-homogeneous"), whole=True),
    # at parameter 1 the invariant generators are a complete test set only
    # when every hamiltonian has degree at most 2: on the cubic q1^2*p1 the
    # lift commuted with them and not with the invariant q1^4*p1^2, and the
    # weyl task passed with exit 0
    Row("weyl_task_refuses_a_cubic_hamiltonian", "data/cubic_t2.json",
        {"tasks": ["weyl"]}, 3,
        _line(3, "the weyl task cannot run: the hamiltonian of 't' has degree 3, "
                 "and the product at parameter 1 is invariant only under "
                 "hamiltonians of degree at most 2"), whole=True),
    # checking the Jacobi identity on all C(600, 3) basis triples took ~45 s;
    # only the triples that hold one of the two stated pairs can fail
    Row("jacobi_check_visits_only_triples_with_a_stated_pair", "torus_k4", _labels_600,
        3, _line(3, "Jacobi identity fails on basis triple (a597, a598, a599)"),
        whole=True, seconds=10, memory=CAP),
    # the pullback of t^24 through a dense quartic hamiltonian, or a lift
    # g^24 through the quartic pullback of g, has degree up to 96 in four
    # coordinates, C(100, 4) ~ 3.9 * 10^6 monomials: validate, which built
    # it, ran past 100 s
    *[Row(f"build_time_substitution_over_the_candidate_budget_is_refused[{case}]",
          "torus_k4", edit, 3,
          _line(3, f"{what} has degree bound 96 in the coordinates, which gives "
                   "more than 1000000 monomials, over the size budget"),
          whole=True, seconds=10, memory=CAP)
      for case, edit, what in [
          ("pullback", _dense_quartic(poly="t^24"), "pullback of generator 't'"),
          ("lift", _dense_quartic(name="g", poly="t", lift="g^24"), "lift 'G'"),
      ]],
    # below the exact cutoff of a diagonal action both centers are solved
    # against the same short test set and agreed on a wrong answer, exit 0
    *[Row(f"diagonal_cutoff_below_the_exact_one_is_refused[{case}]", source, edit, 3,
          _line(3, f"test_degree {degree} is below the exact cutoff {exact} of this "
                   f"diagonal action, where {monomial} enters"), whole=True, seconds=10)
      for case, source, edit, degree, exact, monomial in [
          ("skew_torus-2", "data/skew_torus.json", {"max_degree": 2, "test_degree": 2},
           2, 4, "q2^3*p1"),
          ("skew_torus-3", "data/skew_torus.json", {"max_degree": 2, "test_degree": 3},
           3, 4, "q2^3*p1"),
          ("torus_11-default", TORUS_11, None, 10, 12, "q2^11*p1"),
          ("torus_11_doubled-default", TORUS_11_DOUBLED, None, 10, 12, "q2^11*p1"),
          ("torus_11_crossed-default", TORUS_11_CROSSED, None, 10, 12, "q1*p1^11"),
          ("two_rows-24", TWO_ROWS, {"test_degree": 24}, 24, 25, "q3^2*p1^15*p2^8"),
      ]],
    # the first difference past the kernel of the row (100, 1) has degree
    # 101, and the candidate budget of two pairs ends at degree 67
    Row("diagonal_cutoff_past_the_candidate_budget_is_not_certified", TORUS_11,
        {"hamiltonians": {"t": "100*q1*p1 + q2*p2"}}, 3,
        _line(3, "test_degree 10 is not certified for this diagonal action, and no "
                 "test_degree within the candidate budget is"), whole=True, seconds=10),
]


def main() -> int:
    """Every row against the installed ``qcenter`` script."""
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as folder:
            found = check(row, lambda row, argv: fresh(
                ["qcenter"], argv, folder, row.seconds, row.memory), Path(folder))
        for problem in found:
            print(f"FAIL {row.id}: {problem}")
        failed += bool(found)
    print(f"{len(ROWS) - failed} of {len(ROWS)} refusals as stated")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
