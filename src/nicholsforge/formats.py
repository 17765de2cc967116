"""Disk formats for Hopf structure constants and fusion data.

Every document is plain JSON with a "format" tag and a "version".  Writers
emit canonical text: keys sorted, no insignificant whitespace, sorted entry
lists, one trailing newline.  The same object therefore always serializes
to the same bytes, which the command-line layer relies on when it promises
reproducible reports; equal scalars stored at different conductors are
written differently.

Scalars use the cyclotomic object form {"conductor": N, "coeffs": [...]};
readers also accept the "zeta(N)^k" and "p/q" shorthands.
"""

from __future__ import annotations

import json
from typing import Tuple

from .braided import braiding_from_json, braiding_to_json
from .fusion import FusionData
from .linalg import BasedSpace, Matrix
from .scalars import parse_scalar, scalar_to_json
from .structconst import DecomposedObject, HopfStructure, LabelBackend

__all__ = [
    "HOPF_FORMAT",
    "FUSION_FORMAT",
    "matrix_to_json",
    "matrix_from_json",
    "hopf_to_json",
    "hopf_from_json",
    "fusion_to_json",
    "fusion_from_json",
    "canonical_dumps",
    "save_document",
    "load_document",
]

HOPF_FORMAT = "nicholsforge/hopf"
FUSION_FORMAT = "nicholsforge/fusion"


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[r, c, scalar_to_json(v)] for (r, c), v in sorted(m.entries.items())],
    }


def matrix_from_json(obj: dict) -> Matrix:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix shape {rows} x {cols} is negative")
    entries = {}
    for r, c, v in obj["entries"]:
        r, c = int(r), int(c)
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"matrix entry ({r}, {c}) lies outside the {rows} x {cols} shape")
        entries[(r, c)] = parse_scalar(v)
    return Matrix(rows, cols, entries)


def hopf_to_json(t: HopfStructure) -> dict:
    obj = t.obj
    sectors = []
    for label in sorted(obj.sectors):
        space = obj.sectors[label]
        entry = {"label": list(label), "dim": space.dim, "basis": list(space.labels)}
        if t.grading is not None:
            entry["degrees"] = list(t.grading[label])
        sectors.append(entry)
    return {
        "format": HOPF_FORMAT,
        "version": 1,
        "braiding": braiding_to_json(obj.backend.braiding),
        "sectors": sectors,
        "mul": [
            {"key": [list(i), list(j)], **matrix_to_json(block)}
            for (i, j), block in sorted(t.mul.items())
        ],
        "cop": [
            {"key": [list(i), list(j)], **matrix_to_json(block)}
            for (i, j), block in sorted(t.cop.items())
        ],
        "antipode": [
            {"key": list(i), **matrix_to_json(block)}
            for i, block in sorted(t.antipode.items())
        ],
        "unit": matrix_to_json(t.unit),
        "counit": matrix_to_json(t.counit),
    }


def hopf_from_json(obj: dict) -> HopfStructure:
    if obj.get("format") != HOPF_FORMAT:
        raise ValueError(f"not a {HOPF_FORMAT} document")
    backend = LabelBackend(braiding_from_json(obj["braiding"]))
    sectors = {}
    grading: dict = {}
    graded = False
    for entry in obj["sectors"]:
        label = tuple(int(x) for x in entry["label"])
        dim, basis = int(entry["dim"]), tuple(entry["basis"])
        if label in sectors:
            raise ValueError(f"sector {list(label)} is listed twice")
        if dim < 0 or dim != len(basis):
            raise ValueError(f"sector {list(label)} has dim {dim} but {len(basis)} basis labels")
        if len(set(basis)) != dim:
            raise ValueError(f"sector {list(label)} repeats a basis label")
        sectors[label] = BasedSpace(dim, basis)
        if "degrees" in entry:
            graded = True
            grading[label] = tuple(int(d) for d in entry["degrees"])
    space = DecomposedObject(backend, sectors)

    def pair_key(raw) -> Tuple[tuple, tuple]:
        i, j = raw
        return (tuple(int(x) for x in i), tuple(int(x) for x in j))

    mul = {pair_key(e["key"]): matrix_from_json(e) for e in obj["mul"]}
    cop = {pair_key(e["key"]): matrix_from_json(e) for e in obj["cop"]}
    antipode = {
        tuple(int(x) for x in e["key"]): matrix_from_json(e) for e in obj["antipode"]
    }
    unit = matrix_from_json(obj["unit"])
    counit = matrix_from_json(obj["counit"])
    return HopfStructure(space, mul, unit, cop, counit, antipode, grading if graded else None)


def fusion_to_json(F: FusionData) -> dict:
    return {
        "format": FUSION_FORMAT,
        "version": 1,
        "size": F.size,
        "fusion": [[i, j, k, n] for (i, j, k), n in sorted(F.fusion.items()) if n],
        "assoc": [
            {"key": list(key), **matrix_to_json(block)}
            for key, block in sorted(F.assoc.items())
            if not block.is_zero()
        ],
        "braiding": [
            {"key": list(key), **matrix_to_json(block)}
            for key, block in sorted(F.braiding.items())
            if not block.is_zero()
        ],
        "left_units": [[i, scalar_to_json(v)] for i, v in sorted(F.left_units.items())],
        "right_units": [[i, scalar_to_json(v)] for i, v in sorted(F.right_units.items())],
        "dual": list(F.dual),
        "ev": [{"key": [i], **matrix_to_json(block)} for i, block in sorted(F.ev.items())],
        "coev": [{"key": [i], **matrix_to_json(block)} for i, block in sorted(F.coev.items())],
    }


def fusion_from_json(obj: dict) -> FusionData:
    if obj.get("format") != FUSION_FORMAT:
        raise ValueError(f"not a {FUSION_FORMAT} document")
    size = int(obj["size"])

    def simples(raw, arity: int, what: str) -> tuple:
        key = tuple(int(x) for x in raw)
        if len(key) != arity or not all(0 <= x < size for x in key):
            raise ValueError(f"{what} must hold {arity} indices in 0..{size - 1}")
        return key

    fusion = {}
    for row in obj["fusion"]:
        i, j, k, n = row
        key, n = simples((i, j, k), 3, f"fusion row {row}"), int(n)
        if n < 0:
            raise ValueError(f"fusion row {row} has a negative multiplicity")
        fusion[key] = n
    dual = simples(obj["dual"], size, f"dual {obj['dual']}")

    def blocks(kind: str, arity: int) -> dict:
        return {
            simples(e["key"], arity, f"{kind} key {e['key']}"): matrix_from_json(e)
            for e in obj[kind]
        }

    def units(kind: str) -> dict:
        return {simples([i], 1, f"{kind} key {i}")[0]: parse_scalar(v) for i, v in obj[kind]}

    assoc, braiding = blocks("assoc", 6), blocks("braiding", 3)
    ev = {i: block for (i,), block in blocks("ev", 1).items()}
    coev = {i: block for (i,), block in blocks("coev", 1).items()}
    left, right = units("left_units"), units("right_units")
    return FusionData(size, fusion, assoc, braiding, left, right, dual, ev, coev)


def canonical_dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_document(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
