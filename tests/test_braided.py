"""Diagonal braidings, Yetter-Drinfeld data, and braid lifts."""

import pytest

from nicholsforge.braided import (
    DiagonalBraiding,
    YDDatum,
    all_words,
    braiding_from_json,
    braiding_to_json,
    word_index,
    word_label,
    yd_to_braiding,
)
from nicholsforge.linalg import Matrix
from nicholsforge.scalars import ONE, root_of_unity

from tests_support import (
    braid_lift,
    braiding_on_pair,
    check_braid_equation,
    lex_minimal_reduced_word,
)

MINUS = root_of_unity(2, 1)
Z3 = root_of_unity(3, 1)

QUANTUM_PLANE = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])


def test_braiding_rejects_zero_entries():
    with pytest.raises(ValueError):
        DiagonalBraiding.from_entries([["1", "0"], ["1", "1"]])


def test_braiding_rejects_ragged_matrix():
    with pytest.raises(ValueError):
        DiagonalBraiding.from_entries([["1", "1"], ["1"]])


@pytest.mark.parametrize("obj", [
    {"type": "diagonal", "q": []},
    {"type": "yetter-drinfeld-abelian", "group": [2], "points": []},
], ids=["diagonal", "yetter-drinfeld"])
def test_braiding_rejects_empty_matrix(obj):
    with pytest.raises(ValueError, match="braiding matrix q is empty"):
        braiding_from_json(obj)


def test_yd_to_braiding_values():
    # two points over Z/3, each graded by the generator
    datum = YDDatum(
        factor_orders=(3,),
        elements=((1,), (2,)),
        characters=((Z3,), (Z3 * Z3,)),
    )
    b = yd_to_braiding(datum)
    # q_ij = chi_j(g_i)
    assert b.q[0][0] == Z3
    assert b.q[0][1] == Z3 * Z3
    assert b.q[1][0] == Z3 * Z3
    assert b.q[1][1] == Z3  # chi_2(g_2) = (zeta^2)^2
    assert check_braid_equation(b)


def test_yd_datum_validates_character_orders():
    with pytest.raises(ValueError):
        YDDatum((2,), ((1,),), ((Z3,),))  # order 3 does not divide 2


def test_every_diagonal_braiding_satisfies_braid_equation():
    b = DiagonalBraiding.from_entries([["zeta(5)", "zeta(4)"], ["-1", "zeta(7)^3"]])
    assert check_braid_equation(b)


def test_braiding_on_pair_moves_and_scales():
    c = braiding_on_pair(QUANTUM_PLANE)
    # e_0 (x) e_1 -> q_01 e_1 (x) e_0, indices in base n=2
    assert c.get(2, 1) == ONE
    assert c.get(0, 0) == MINUS


def test_word_bookkeeping():
    words = all_words(2, 3)
    assert len(words) == 8
    assert words[0] == (0, 0, 0)
    for w in words:
        assert words[word_index(w, 2)] == w
    assert word_label((0, 1, 0)) == "x1*x2*x1"
    assert word_label(()) == "1"


def test_lex_minimal_reduced_words():
    assert lex_minimal_reduced_word((0, 1, 2)) == ()
    assert lex_minimal_reduced_word((1, 0)) == (0,)
    # longest element of S_3
    assert lex_minimal_reduced_word((2, 1, 0)) == (0, 1, 0)


def test_braid_lift_identity_and_transposition():
    lift = braid_lift((0, 1), QUANTUM_PLANE)
    assert lift.matrix == Matrix.identity(4)
    swap = braid_lift((1, 0), QUANTUM_PLANE)
    assert swap.matrix == braiding_on_pair(QUANTUM_PLANE)


def test_braid_lift_longest_element_consistent():
    # both reduced words of the S_3 longest element give the same lift
    lift = braid_lift((2, 1, 0), QUANTUM_PLANE)
    c = braiding_on_pair(QUANTUM_PLANE)
    eye = Matrix.identity(2)
    c12 = c.kron(eye)
    c23 = eye.kron(c)
    assert lift.matrix == c12 @ c23 @ c12
    assert lift.matrix == c23 @ c12 @ c23


def test_json_round_trip_diagonal():
    b = DiagonalBraiding.from_entries([["zeta(3)", "1"], ["-1", "zeta(6)"]])
    assert braiding_from_json(braiding_to_json(b)) == b


def test_json_yetter_drinfeld_input():
    obj = {
        "type": "yetter-drinfeld-abelian",
        "group": [3],
        "points": [
            {"g": [1], "chi": ["zeta(3)"]},
            {"g": [2], "chi": ["zeta(3)^2"]},
        ],
    }
    datum = YDDatum((3,), ((1,), (2,)), ((Z3,), (Z3 * Z3,)))
    assert braiding_from_json(obj) == yd_to_braiding(datum)


def test_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        braiding_from_json({"type": "crystallographic"})
