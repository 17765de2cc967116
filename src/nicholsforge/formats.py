"""Disk formats for Hopf structure constants and fusion data.

Every document is plain JSON with a "format" tag and a "version".  Writers
emit canonical text: keys sorted, no insignificant whitespace, sorted entry
lists, one trailing newline.  Two structurally equal objects therefore
serialize to identical bytes, which the command-line layer relies on when
it promises reproducible reports.

Scalars use the cyclotomic object form {"conductor": N, "coeffs": [...]};
readers also accept the "zeta(N)^k" and "p/q" shorthands.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from .braided import DiagonalBraiding, braiding_from_json, braiding_to_json
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
    entries = {(int(r), int(c)): parse_scalar(v) for r, c, v in obj["entries"]}
    return Matrix(int(obj["rows"]), int(obj["cols"]), entries)


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
        sectors[label] = BasedSpace(int(entry["dim"]), tuple(entry["basis"]))
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
    fusion = {}
    for row in obj["fusion"]:
        i, j, k, n = (int(x) for x in row)
        if not all(0 <= x < size for x in (i, j, k)):
            raise ValueError(f"fusion row {row} has an index outside 0..{size - 1}")
        if n < 0:
            raise ValueError(f"fusion row {row} has a negative multiplicity")
        fusion[(i, j, k)] = n
    dual = tuple(int(x) for x in obj["dual"])
    if not all(0 <= x < size for x in dual):
        raise ValueError(f"dual {list(dual)} has an index outside 0..{size - 1}")
    assoc = {
        tuple(int(x) for x in e["key"]): matrix_from_json(e) for e in obj["assoc"]
    }
    braiding = {
        tuple(int(x) for x in e["key"]): matrix_from_json(e) for e in obj["braiding"]
    }
    left = {int(i): parse_scalar(v) for i, v in obj["left_units"]}
    right = {int(i): parse_scalar(v) for i, v in obj["right_units"]}
    ev = {int(e["key"][0]): matrix_from_json(e) for e in obj["ev"]}
    coev = {int(e["key"][0]): matrix_from_json(e) for e in obj["coev"]}
    return FusionData(size, fusion, assoc, braiding, left, right, dual, ev, coev)


def canonical_dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_document(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
