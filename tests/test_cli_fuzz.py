"""Seeded exit-code fuzzing of the command line.

Every input must end in exit 0, 1, 2 or 3 with a message, never in an
exception out of ``main``.  Each mutant starts from one of the four presets
or the so(3) document and takes one to three mutations: a deleted key, a
key renamed by an inserted character, a value of another JSON type, a huge
or negative integer, a float (``NaN`` and ``Infinity`` included), a
character inserted into a string, a value nested thousands of levels deep,
or bytes that are not UTF-8.  Every mutant goes through ``validate``.
Those whose degree, truncation, sample and pair fields are unchanged also
go through ``run``, so no mutant can ask for a longer computation than its
source document does.  The ``--truncation`` and ``--max-degree`` flags of
``run`` get negative, zero and huge values on two presets.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import string
from pathlib import Path

import pytest

from qcenter.cli import main
from qcenter.scenario import preset_path

SOURCES = [
    preset_path(name) for name in ("sl2_tstar_k2", "torus_k2", "torus_k4", "trivial_k2")
] + [Path(__file__).parent / "data" / "so3_rotation.json"]
MUTANTS_PER_SOURCE = 150
SIZE_FIELDS = (
    ("truncation",), ("max_degree",), ("test_degree",), ("samples",), ("space", "pairs"),
)
_MISSING = object()
# stands in for JSON text that json.dumps cannot write: a number too long
# to convert, or a value nested too deeply to encode
_RAW = "\x00raw\x00"


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _get(doc, path):
    for key in path:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return _MISSING
    return doc


def _mutate(rng: random.Random, doc) -> str | None:
    """Mutate ``doc`` in place; return the raw JSON text that replaces
    ``_RAW``, if the mutation put it in."""
    paths = [p for p in _paths(doc) if p and _get(doc, p) != _RAW]
    if not paths:
        return None
    path = rng.choice(paths)
    parent, key = _get(doc, path[:-1]), path[-1]
    kind = rng.choice(
        ["delete", "key", "type", "integer", "float", "character", "nest"]
    )
    raw = None
    if kind == "delete":
        del parent[key]
    elif kind == "key":
        # the document is an object, so some path ends in a key
        path = rng.choice([p for p in paths if isinstance(_get(doc, p[:-1]), dict)])
        parent, key = _get(doc, path[:-1]), path[-1]
        at = rng.randint(0, len(key))
        typo = key[:at] + rng.choice(string.ascii_lowercase + "_") + key[at:]
        parent[typo] = parent.pop(key)
    elif kind == "type":
        parent[key] = rng.choice([None, True, 0, 7, "", "x", [], {}, ["q1"], {"a": 1}])
    elif kind == "integer":
        raw = rng.choice(["-1", "-7", "0", "1000000", str(2**63), "1" + "0" * 30, "9" * 5000])
    elif kind == "float":
        parent[key] = rng.choice([0.5, 2.0, -3.25, 1e308, float("nan"), float("inf")])
    elif kind == "character":
        strings = [p for p in paths if isinstance(_get(doc, p), str)]
        if strings:
            path = rng.choice(strings)
            parent, key = _get(doc, path[:-1]), path[-1]
        text = str(parent[key])
        at = rng.randint(0, len(text))
        char = rng.choice("()^*+-/ .0123456789qpaehf_,;\\\"'{}[]é\x00\ud800")
        parent[key] = text[:at] + char + text[at:]
    else:
        depth = rng.choice([3, 990, 5000, 200_000])
        left, right = rng.choice([("[", "]"), ('{"k": ', "}")])
        raw = left * depth + "1" + right * depth
    if raw is not None:
        parent[key] = _RAW
    return raw


def _mutant(rng: random.Random, source: dict) -> bytes:
    doc = json.loads(json.dumps(source))
    raws = [_mutate(rng, doc) for _ in range(rng.randint(1, 3))]
    text = json.dumps(doc)
    for raw in raws:
        if raw is not None:
            text = text.replace(json.dumps(_RAW), raw, 1)
    data = text.encode("utf-8", "surrogatepass")
    if rng.random() < 0.1:
        at = rng.randint(0, len(data))
        data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\xfe\xff"]) + data[at:]
    return data


def _sizes(data: bytes) -> list | None:
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError):
        return None
    return [_get(doc, path) for path in SIZE_FIELDS]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.stem)
def test_every_mutant_ends_in_an_exit_code(source, tmp_path):
    original = json.loads(source.read_text())
    sizes = _sizes(source.read_bytes())
    runs = 0
    for seed in range(MUTANTS_PER_SOURCE):
        data = _mutant(random.Random(seed), original)
        path = tmp_path / f"mutant{seed}.json"
        path.write_bytes(data)
        commands = ["validate"] + (["run"] if _sizes(data) == sizes else [])
        for command in commands:
            case = f"{command} of {source.stem} mutant {seed}"
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, str(path)])
            except Exception as exc:
                raise AssertionError(f"{case} raised {exc!r}") from exc
            assert code in (0, 1, 2, 3), case
        runs += len(commands) - 1
    # the share that runs is fixed by the seeds; it must not be empty
    assert runs > MUTANTS_PER_SOURCE // 4


FLAG_VALUES = [None, -5, -1, 0, 10**6, 10**12]


@pytest.mark.parametrize("preset", ["torus_k2", "trivial_k2"])
def test_degree_and_truncation_flags_end_in_an_exit_code(preset):
    # every pair of values, each flag absent or set: a negative value, or a
    # degree whose test cutoff is over the candidate budget, is exit 3
    for truncation, max_degree in itertools.product(FLAG_VALUES, FLAG_VALUES):
        argv = ["run", preset]
        if truncation is not None:
            argv += ["--truncation", str(truncation)]
        if max_degree is not None:
            argv += ["--max-degree", str(max_degree)]
        case = " ".join(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
        except Exception as exc:
            raise AssertionError(f"{case} raised {exc!r}") from exc
        given = [value for value in (truncation, max_degree) if value is not None]
        if min(given, default=0) < 0 or (max_degree or 0) >= 10**6:
            assert code == 3 and err.getvalue().startswith("validation error:"), case
        elif truncation == 0:
            # at truncation 0 every commutator vanishes, so the quantum
            # center would be every invariant whatever the Poisson center
            # is: the centers task is refused
            assert code == 3, case
            assert err.getvalue().startswith(
                "validation error: the centers task cannot run: at truncation 0"
            ), case
        else:
            assert code == 0, case
