"""Disk formats for Hopf structure constants and fusion data.

Every document is plain JSON with a "format" tag and a "version".  Writers
emit canonical text: keys sorted, no insignificant whitespace, sorted entry
lists, one trailing newline.  The same object therefore always serializes
to the same bytes, which the command-line layer relies on when it promises
reproducible reports; equal scalars stored at different conductors are
written differently.

Scalars use the cyclotomic object form {"conductor": N, "coeffs": [...]};
readers also accept the "zeta(N)^k" and "p/q" shorthands, and parse each
distinct JSON form of a scalar once per document.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Tuple

from ._command import canonical_dumps, save_document
from .linalg import BasedSpace, Matrix
from .scalars import Scalar, object_form_key, parse_int, parse_scalar, scalar_to_json

# The readers and writers import the structure layers and the braidings
# when they run, so a fusion command loads neither.
if TYPE_CHECKING:
    from .fusion import FusionData
    from .structconst import HopfStructure

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
]

HOPF_FORMAT = "nicholsforge/hopf"
FUSION_FORMAT = "nicholsforge/fusion"


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[r, c, scalar_to_json(v)] for (r, c), v in sorted(m.entries.items())],
    }


def _scalar_reader() -> Callable[[object], Scalar]:
    """parse_scalar for one document, parsing each distinct JSON form once.

    An int or a string is its own key and an object form the key
    object_form_key gives it, which refuses a form that breaks the grammar
    with parse_scalar's message; a form of any other type is handed to
    parse_scalar each time.  The keys compare JSON types exactly, so 1,
    true and 1.0 never share an entry.
    """
    parsed: dict = {}

    def read(raw) -> Scalar:
        kind = type(raw)
        if kind is dict:
            key = object_form_key(raw)
        elif kind is int or kind is str:
            key = raw
        else:
            return parse_scalar(raw)
        value = parsed.get(key)
        if value is None:
            value = parsed[key] = parse_scalar(raw)
        return value
    return read


def matrix_from_json(obj: dict, scalar: Callable[[object], Scalar] = parse_scalar) -> Matrix:
    rows, cols = parse_int(obj["rows"], "matrix rows"), parse_int(obj["cols"], "matrix cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"matrix shape {rows} x {cols} is negative")
    entries = {}
    for r, c, v in obj["entries"]:
        r, c = parse_int(r, "entry row"), parse_int(c, "entry column")
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"matrix entry ({r}, {c}) lies outside the {rows} x {cols} shape")
        entries[(r, c)] = scalar(v)
    return Matrix(rows, cols, entries)


def hopf_to_json(t: HopfStructure) -> dict:
    from .braided import braiding_to_json

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


def _label(raw, what: str) -> tuple:
    return tuple(parse_int(x, what) for x in raw)


def _put(table: dict, key, value, what: str) -> None:
    """Enter value under key, refusing a key the document already gave."""
    if key in table:
        raise ValueError(f"{what} is listed twice")
    table[key] = value


def hopf_from_json(obj: dict) -> HopfStructure:
    from .braided import braiding_from_json
    from .structconst import DecomposedObject, HopfStructure, LabelBackend

    if obj.get("format") != HOPF_FORMAT:
        raise ValueError(f"not a {HOPF_FORMAT} document")
    backend = LabelBackend(braiding_from_json(obj["braiding"]))
    sectors = {}
    grading: dict = {}
    graded = False
    for entry in obj["sectors"]:
        label = _label(entry["label"], "sector label")
        dim, basis = parse_int(entry["dim"], "sector dim"), entry["basis"]
        if not isinstance(basis, list) or not all(isinstance(name, str) for name in basis):
            raise ValueError(f"sector {list(label)} basis must be a list of strings")
        basis = tuple(basis)
        if dim < 0 or dim != len(basis):
            raise ValueError(f"sector {list(label)} has dim {dim} but {len(basis)} basis labels")
        if len(set(basis)) != dim:
            raise ValueError(f"sector {list(label)} repeats a basis label")
        _put(sectors, label, BasedSpace(dim, basis), f"sector {list(label)}")
        if "degrees" in entry:
            graded = True
            grading[label] = tuple(parse_int(d, "degree") for d in entry["degrees"])
    space = DecomposedObject(backend, sectors)
    scalar = _scalar_reader()

    def pair_key(raw) -> Tuple[tuple, tuple]:
        i, j = raw
        return (_label(i, "key label"), _label(j, "key label"))

    def blocks(kind: str, key_of) -> dict:
        out: dict = {}
        for e in obj[kind]:
            _put(out, key_of(e["key"]), matrix_from_json(e, scalar), f"{kind} key {e['key']}")
        return out

    mul, cop = blocks("mul", pair_key), blocks("cop", pair_key)
    antipode = blocks("antipode", lambda raw: _label(raw, "key label"))
    unit = matrix_from_json(obj["unit"], scalar)
    counit = matrix_from_json(obj["counit"], scalar)
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
    from .fusion import FusionData

    if obj.get("format") != FUSION_FORMAT:
        raise ValueError(f"not a {FUSION_FORMAT} document")
    size = parse_int(obj["size"], "size")

    def simples(raw, arity: int, what: str) -> tuple:
        key = tuple(parse_int(x, what) for x in raw)
        if len(key) != arity or not all(0 <= x < size for x in key):
            raise ValueError(f"{what} must hold {arity} indices in 0..{size - 1}")
        return key

    fusion = {}
    for row in obj["fusion"]:
        i, j, k, n = row
        key, n = simples((i, j, k), 3, f"fusion row {row}"), parse_int(n, f"fusion row {row}")
        if n < 0:
            raise ValueError(f"fusion row {row} has a negative multiplicity")
        _put(fusion, key, n, f"fusion row {list(key)}")
    dual = simples(obj["dual"], size, f"dual {obj['dual']}")
    scalar = _scalar_reader()

    def blocks(kind: str, arity: int) -> dict:
        out: dict = {}
        for e in obj[kind]:
            what = f"{kind} key {e['key']}"
            _put(out, simples(e["key"], arity, what), matrix_from_json(e, scalar), what)
        return out

    def units(kind: str) -> dict:
        out: dict = {}
        for i, v in obj[kind]:
            what = f"{kind} key {i}"
            _put(out, simples([i], 1, what)[0], scalar(v), what)
        return out

    assoc, braiding = blocks("assoc", 6), blocks("braiding", 3)
    ev = {i: block for (i,), block in blocks("ev", 1).items()}
    coev = {i: block for (i,), block in blocks("coev", 1).items()}
    left, right = units("left_units"), units("right_units")
    return FusionData(size, fusion, assoc, braiding, left, right, dual, ev, coev)
