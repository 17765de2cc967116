"""Braided vector spaces of diagonal type, Yetter-Drinfeld data, and tensor words.

The braiding on basis vectors is c(x_i (x) x_j) = q_ij * x_j (x) x_i, with
q_ij nonzero scalars.  Such a braiding always satisfies the braid equation.
Tensor words of length d over n letters index V^(x)d in mixed-radix order:
word (w_0, ..., w_{d-1}) sits at position sum w_t * n^(d-1-t), so
concatenation is exactly the Kronecker index identification used in linalg.
Braid lifts and the braid-equation check are reference code for the tests
(tests/tests_support.py); no computation in the package uses them.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import ONE, Scalar, parse_int, parse_scalar, scalar_to_json

__all__ = [
    "DiagonalBraiding",
    "YDDatum",
    "yd_to_braiding",
    "all_words",
    "word_index",
    "word_label",
    "braiding_from_json",
    "braiding_to_json",
]


class DiagonalBraiding:
    """Square matrix of nonzero scalars q_ij defining a diagonal braiding."""

    __slots__ = ("q",)

    def __init__(self, q: tuple):
        # q: tuple of tuples of Scalar
        n = len(q)
        if n == 0:
            raise ValueError("braiding matrix q is empty; it needs at least one letter")
        for row in q:
            if len(row) != n:
                raise ValueError("braiding matrix must be square")
            for entry in row:
                if not entry:
                    raise ValueError("braiding entries must be nonzero")
        self.q = q

    @property
    def dim(self) -> int:
        return len(self.q)

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence]) -> "DiagonalBraiding":
        return cls(tuple(tuple(parse_scalar(e) for e in row) for row in rows))

    def __eq__(self, other):
        if not isinstance(other, DiagonalBraiding):
            return NotImplemented
        return self.dim == other.dim and all(
            a == b for ra, rb in zip(self.q, other.q) for a, b in zip(ra, rb)
        )

    __hash__ = None  # type: ignore[assignment]


class YDDatum:
    """Yetter-Drinfeld datum over a finite abelian group.

    The group is prod Z/d_k given by factor_orders.  Each basis point
    carries a group element (exponent vector) and a character given by its
    values on the r generators; the value at generator k must be a root of
    unity of order dividing d_k.
    """

    __slots__ = ("factor_orders", "elements", "characters")

    def __init__(self, factor_orders: tuple, elements: tuple, characters: tuple):
        # factor_orders: (d_1, ..., d_r); elements: per point an exponent
        # tuple of length r; characters: per point a tuple of r Scalars
        r = len(factor_orders)
        if any(d < 1 for d in factor_orders):
            raise ValueError("cyclic factor orders must be positive")
        for g in elements:
            if len(g) != r:
                raise ValueError("group element has wrong number of exponents")
        for chi in characters:
            if len(chi) != r:
                raise ValueError("character has wrong number of values")
            for k, value in enumerate(chi):
                d = factor_orders[k]
                order = value.multiplicative_order()
                if order is None or d % order != 0:
                    raise ValueError(
                        f"character value {value} at generator {k + 1} must have order dividing {d}"
                    )
        if len(elements) != len(characters):
            raise ValueError("need one character per group element")
        self.factor_orders = factor_orders
        self.elements = elements
        self.characters = characters

    @property
    def npoints(self) -> int:
        return len(self.elements)

    def character_at(self, point: int, element: Sequence[int]) -> Scalar:
        value = ONE
        for k, e in enumerate(element):
            value = value * self.characters[point][k] ** (e % self.factor_orders[k])
        return value


def yd_to_braiding(datum: YDDatum) -> DiagonalBraiding:
    """q_ij = chi_j(g_i): the grading element of i acts through the character of j."""
    n = datum.npoints
    rows = tuple(
        tuple(datum.character_at(j, datum.elements[i]) for j in range(n)) for i in range(n)
    )
    return DiagonalBraiding(rows)


# -- tensor word bookkeeping ------------------------------------------------


def all_words(n: int, degree: int) -> list:
    """All length-degree words over n letters, in mixed-radix index order."""
    if degree == 0:
        return [()]
    words = [()]
    for _ in range(degree):
        words = [w + (a,) for w in words for a in range(n)]
    return words


def word_index(word: Sequence[int], n: int) -> int:
    idx = 0
    for letter in word:
        idx = idx * n + letter
    return idx


def word_label(word: Sequence[int]) -> str:
    if not word:
        return "1"
    return "*".join(f"x{a + 1}" for a in word)


# -- JSON forms --------------------------------------------------------------


def braiding_from_json(obj: dict) -> DiagonalBraiding:
    kind = obj.get("type")
    if kind == "diagonal":
        return DiagonalBraiding.from_entries(obj["q"])
    if kind == "yetter-drinfeld-abelian":
        orders = tuple(parse_int(d, "group order") for d in obj["group"])
        elements = []
        characters = []
        for point in obj["points"]:
            elements.append(tuple(parse_int(e, "group exponent") for e in point["g"]))
            characters.append(tuple(parse_scalar(v) for v in point["chi"]))
        datum = YDDatum(orders, tuple(elements), tuple(characters))
        return yd_to_braiding(datum)
    raise ValueError(f"unknown braiding type {kind!r}")


def braiding_to_json(braiding: DiagonalBraiding) -> dict:
    return {
        "type": "diagonal",
        "q": [[scalar_to_json(e) for e in row] for row in braiding.q],
    }
