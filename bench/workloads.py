"""Benchmark workloads: scenario documents built from a shipped preset and a seed.

Each workload starts from a preset under ``src/qcenter/scenarios`` and
overrides a few fields.  The seed picks a monomial linear symplectic change
of coordinates (a permutation of the pairs, an optional quarter turn
``(q, p) -> (p, -q)`` per pair and a rational rescaling
``q -> c*q, p -> p/c``) and applies it to the hamiltonians and lift targets.
Such a map keeps diagonal hamiltonians diagonal and offers the same
constraint rows to elimination for every seed; only the order in which rows
raise rank changes (reduction steps within 4 % at degree 8), while the
report bytes change.  Seed 0 is the identity: its
reports are pinned byte for byte in ``reference.json``.

This module does not import qcenter; it rewrites the expressions itself so
that the program under test only ever sees the generated document.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE_SEED = 0
SCALES = tuple(Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-1/3"))


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    # calls of invariants_up_to a traced run must see at this commit
    invariant_solves: int = 2


# Why each workload exists: README.md, section "Workloads".
WORKLOADS = {
    w.name: w
    for w in (
        # Dense echelon elimination (linalg) and the invariant solve that
        # compare_centers repeats (centers) take almost all of the run.
        Workload("sl2_deg10", "sl2_tstar_k2", {"max_degree": 10, "test_degree": 12}),
        # Invariant dimensions 1, 4, 9, ... 36 give many test elements: Poisson
        # brackets, odd-order commutators and certification (star, centers).
        # The hamiltonian is diagonal, so weight spaces apply in full.
        Workload("torus_k4_deg10", "torus_k4", {"max_degree": 10, "test_degree": 12}),
        # Full even-and-odd product expansions, expansion_product and series
        # products (star, poly, series, lifting); elimination is under 1 %.
        Workload(
            "product_laws",
            "sl2_tstar_k2",
            {
                "tasks": ["axioms", "moment", "triangle", "lift", "iso", "weyl"],
                "samples": {"axioms": 1000, "moment": 1000},
                "truncation": 8,
                "max_degree": 2,
                "test_degree": 4,
            },
            invariant_solves=1,
        ),
    )
}


# -- the seeded coordinate change --------------------------------------------


def coordinate_images(seed: int, pairs: int) -> dict[str, tuple[Fraction, str]]:
    """Image ``name -> (coefficient, name)`` of each coordinate under the
    seed's monomial symplectic map; seed 0 gives the identity."""
    images = {}
    for i in range(pairs):
        images[f"q{i+1}"] = (Fraction(1), f"q{i+1}")
        images[f"p{i+1}"] = (Fraction(1), f"p{i+1}")
    if seed == REFERENCE_SEED:
        return images
    rng = random.Random(seed)
    order = list(range(1, pairs + 1))
    rng.shuffle(order)
    for i, j in enumerate(order, start=1):
        c = rng.choice(SCALES)
        if rng.random() < 0.5:
            images[f"q{i}"] = (c, f"p{j}")
            images[f"p{i}"] = (-1 / c, f"q{j}")
        else:
            images[f"q{i}"] = (c, f"q{j}")
            images[f"p{i}"] = (1 / c, f"p{j}")
    return images


# -- a small polynomial rewriter ----------------------------------------------
# Polynomials are dicts {monomial: Fraction}; a monomial is a sorted tuple of
# (name, exponent) pairs.  The grammar is the scenario grammar:
#   expr := ['+'|'-'] term (('+'|'-') term)*,  term := factor ('*' factor)*,
#   factor := atom ('^' integer)?,  atom := rational | name | '(' expr ')'

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot tokenize {text!r} at {pos}")
        out.append(next(g for g in match.groups() if g is not None))
        pos = match.end()
    return out


def _mono_mul(a: tuple, b: tuple) -> tuple:
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            m = _mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _add(f: dict, g: dict, sign: int = 1) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def parse(text: str) -> dict:
    toks = _tokens(text) + ["$"]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        sign = -1 if toks[pos] == "-" else 1
        if toks[pos] in "+-":
            take()
        acc = _add({}, term(), sign)
        while toks[pos] in ("+", "-"):
            sign = -1 if take() == "-" else 1
            acc = _add(acc, term(), sign)
        return acc

    def term():
        acc = factor()
        while toks[pos] == "*":
            take()
            acc = _mul(acc, factor())
        return acc

    def factor():
        base = atom()
        if toks[pos] == "^":
            take()
            power = {(): Fraction(1)}
            for _ in range(int(take())):
                power = _mul(power, base)
            return power
        return base

    def atom():
        tok = take()
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return inner
        if tok == "-":
            return _add({}, atom(), -1)
        if tok[0].isdigit():
            return {(): Fraction(tok)} if Fraction(tok) else {}
        if tok[0].isalpha() or tok[0] == "_":
            return {((tok, 1),): Fraction(1)}
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    result = expr()
    if toks[pos] != "$":
        raise ValueError(f"trailing input in {text!r}")
    return result


def substitute(f: dict, images: dict[str, tuple[Fraction, str]]) -> dict:
    """Apply a monomial map ``name -> coefficient * name'``."""
    out: dict = {}
    for mono, coeff in f.items():
        new_mono: tuple = ()
        for name, e in mono:
            c, target = images[name]
            coeff = coeff * c**e
            new_mono = _mono_mul(new_mono, ((target, e),))
        out[new_mono] = out.get(new_mono, 0) + coeff
    return {m: c for m, c in out.items() if c}


def to_string(f: dict) -> str:
    if not f:
        return "0"
    pieces = []
    for mono in sorted(f):
        coeff = f[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in mono]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return out + "".join(f" {s} {b}" for s, b in pieces[1:])


def transform(expr: str, images: dict[str, tuple[Fraction, str]]) -> str:
    return to_string(substitute(parse(expr), images))


# -- scenario generation ----------------------------------------------------


def scenario_document(root: Path, workload: Workload, seed: int) -> dict:
    """The scenario the program runs for this workload and seed."""
    preset = root / "src" / "qcenter" / "scenarios" / f"{workload.preset}.json"
    doc = json.loads(preset.read_text())
    doc.update(json.loads(json.dumps(workload.overrides)))
    doc["name"] = workload.name
    images = coordinate_images(seed, doc["space"]["pairs"])
    doc["hamiltonians"] = {
        label: transform(expr, images) for label, expr in doc["hamiltonians"].items()
    }
    for lift in doc.get("lifts", []):
        if "target" in lift:
            lift["target"] = transform(lift["target"], images)
    if doc.get("quantum_corrections") or doc["space"].get("bivector"):
        raise ValueError("the seeded map only covers standard, uncorrected presets")
    return doc
