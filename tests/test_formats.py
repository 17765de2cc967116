"""JSON serialization: round trips must be bit-exact, output canonical."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.formats import (
    FUSION_FORMAT,
    HOPF_FORMAT,
    canonical_dumps,
    fusion_from_json,
    fusion_to_json,
    hopf_from_json,
    hopf_to_json,
    matrix_from_json,
    matrix_to_json,
    save_document,
)
from nicholsforge.fusion import pointed_center_data, verify_all
from nicholsforge.linalg import Matrix
from nicholsforge.nichols import nichols_compute
from nicholsforge.scalars import from_rational, parse_scalar, root_of_unity
from nicholsforge.structconst import from_nichols
from tests_support import load_document


def test_matrix_round_trip_mixed_scalars():
    m = Matrix(2, 3, {(0, 0): root_of_unity(8, 3), (1, 2): from_rational(-5)})
    assert matrix_from_json(matrix_to_json(m)) == m


def test_hopf_round_trip_preserves_everything():
    qp = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])
    t = from_nichols(nichols_compute(qp, 6))
    doc = hopf_to_json(t)
    assert doc["format"] == HOPF_FORMAT
    back = hopf_from_json(doc)
    assert back == t  # strict equality: labels, grading, every block


def test_hopf_round_trip_ungraded():
    from nicholsforge.structconst import HopfStructure

    qp = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])
    t = from_nichols(nichols_compute(qp, 6))
    bare = HopfStructure(t.obj, t.mul, t.unit, t.cop, t.counit, t.antipode, None)
    back = hopf_from_json(hopf_to_json(bare))
    assert back.grading is None
    assert back == bare


def test_fusion_round_trip():
    F = pointed_center_data([2])
    doc = fusion_to_json(F)
    assert doc["format"] == FUSION_FORMAT
    G = fusion_from_json(doc)
    assert fusion_to_json(G) == doc
    assert all(r.passed for r in verify_all(G))


def test_canonical_dumps_is_stable_and_sorted():
    a = canonical_dumps({"b": 1, "a": [2, 3]})
    b = canonical_dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert " " not in a.replace('"a"', "").replace('"b"', "")  # compact separators


def test_save_load_document(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"format": "x", "n": 3}
    save_document(str(path), doc)
    raw = path.read_text()
    assert raw == canonical_dumps(doc)
    assert load_document(str(path)) == doc


def test_emitted_hopf_json_is_deterministic():
    qp = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])
    t1 = from_nichols(nichols_compute(qp, 6))
    t2 = from_nichols(nichols_compute(qp, 6))
    assert canonical_dumps(hopf_to_json(t1)) == canonical_dumps(hopf_to_json(t2))


sparse_entries = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9).filter(bool).map(from_rational),
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(sparse_entries)
def test_matrix_round_trip_random_sparse(entries):
    m = Matrix(4, 4, entries)
    doc = matrix_to_json(m)
    json.dumps(doc)  # must be plain JSON data
    assert matrix_from_json(doc) == m


def test_each_distinct_scalar_is_parsed_once_per_document(monkeypatch):
    import nicholsforge.formats as formats

    calls = []
    parse = formats.parse_scalar
    monkeypatch.setattr(formats, "parse_scalar", lambda raw: calls.append(raw) or parse(raw))
    doc = fusion_to_json(pointed_center_data([3]))
    assert fusion_to_json(fusion_from_json(doc)) == doc
    assert len(calls) == len({json.dumps(raw, sort_keys=True) for raw in calls}) == 4
    del calls[:]
    # a second document parses its scalars afresh
    fusion_from_json(doc)
    assert len(calls) == 4


@pytest.mark.parametrize("first, second", [
    (1, True),
    (1, 1.0),
    ("1", "1/0"),
    ({"conductor": 1, "coeffs": ["1"]}, {"conductor": True, "coeffs": ["1"]}),
    ({"conductor": 2, "coeffs": [0, 1]}, {"conductor": 2, "coeffs": [False, True]}),
    ({"conductor": 2, "coeffs": ["1"]}, {"conductor": 2, "coeffs": ["1.5"]}),
    # a coefficient is an int or a "p/q" string, coeffs a list (a string
    # would be read digit by digit), and the conductor a JSON integer
    ({"conductor": 1, "coeffs": [1]}, {"conductor": 1, "coeffs": [1.0]}),
    ({"conductor": 1, "coeffs": ["1", "0"]}, {"conductor": 1, "coeffs": "10"}),
    ({"conductor": 1, "coeffs": ["1"]}, {"conductor": 1.0, "coeffs": ["1"]}),
])
def test_a_parsed_scalar_never_admits_a_refused_form(first, second):
    # the reader keys its parsed scalars on exact JSON types, so a form it
    # refuses is refused with parse_scalar's message after an equal-looking
    # form was read
    doc = fusion_to_json(pointed_center_data([2]))
    doc["braiding"][0]["entries"][0][2] = first
    doc["braiding"][-1]["entries"][0][2] = second
    with pytest.raises(ValueError) as expected:
        parse_scalar(second)
    with pytest.raises(ValueError) as got:
        fusion_from_json(doc)
    assert str(got.value) == str(expected.value)
