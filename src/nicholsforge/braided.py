"""Braided vector spaces of diagonal type and braid lifts on tensor powers.

The braiding on basis vectors is c(x_i (x) x_j) = q_ij * x_j (x) x_i, with
q_ij nonzero scalars.  Such a braiding always satisfies the braid equation,
which is asserted rather than assumed.  Tensor words of length d over n
letters index V^(x)d in mixed-radix order: word (w_0, ..., w_{d-1}) sits at
position sum w_t * n^(d-1-t), so concatenation is exactly the Kronecker
index identification used in linalg.

Braid lifts T_w act through a fixed reduced word of w (lexicographically
minimal one), and the result does not depend on that choice; the tests
check this exhaustively for small degrees.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .linalg import Matrix
from .scalars import ONE, Scalar, parse_int, parse_scalar, scalar_to_json

__all__ = [
    "DiagonalBraiding",
    "YDDatum",
    "BraidLift",
    "yd_to_braiding",
    "braiding_on_pair",
    "check_braid_equation",
    "braid_lift",
    "lex_minimal_reduced_word",
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


# -- braid lifts -------------------------------------------------------------


def braiding_on_pair(braiding: DiagonalBraiding) -> Matrix:
    """The n^2 x n^2 matrix of c on V (x) V: e_i (x) e_j -> q_ij e_j (x) e_i."""
    n = braiding.dim
    entries = {}
    for i in range(n):
        for j in range(n):
            entries[(j * n + i, i * n + j)] = braiding.q[i][j]
    return Matrix(n * n, n * n, entries)


def _crossing(word: tuple, k: int, braiding: DiagonalBraiding) -> tuple:
    """Apply c at positions (k, k+1): returns (new word, scalar factor)."""
    a, b = word[k], word[k + 1]
    swapped = word[:k] + (b, a) + word[k + 2 :]
    return swapped, braiding.q[a][b]


def lex_minimal_reduced_word(perm: Sequence[int]) -> tuple:
    """Lexicographically minimal reduced word of a permutation.

    Generators are 0-based: letter k means the transposition of positions
    k and k+1.  Greedy: repeatedly take the smallest k whose positions are
    out of order in the remaining permutation.
    """
    w = list(perm)
    d = len(w)
    assert sorted(w) == list(range(d)), "not a permutation"
    inv = [0] * d
    for pos, val in enumerate(w):
        inv[val] = pos
    word = []
    while True:
        for k in range(d - 1):
            if inv[k] > inv[k + 1]:
                word.append(k)
                pk, pk1 = inv[k], inv[k + 1]
                w[pk], w[pk1] = w[pk1], w[pk]
                inv[k], inv[k + 1] = pk1, pk
                break
        else:
            return tuple(word)


class BraidLift(NamedTuple):
    """Positive braid lift of a permutation acting on V^(x)degree."""

    degree: int
    word: tuple  # reduced word, 0-based generator letters
    matrix: Matrix


def braid_lift(perm: Sequence[int], braiding: DiagonalBraiding) -> BraidLift:
    """Lift of the permutation to V^(x)d via its lex-minimal reduced word.

    The action convention is (pi . w)_m = w_{pi^{-1}(m)}: letters travel to
    the positions the permutation sends them to.  Composition applies the
    reduced word right to left, one crossing at a time.
    """
    perm = tuple(perm)
    d = len(perm)
    assert d >= 1
    word = lex_minimal_reduced_word(perm)
    n = braiding.dim
    dim = n**d
    entries = {}
    for w in all_words(n, d):
        state, factor = w, ONE
        for k in reversed(word):
            state, q = _crossing(state, k, braiding)
            factor = factor * q
        entries[(word_index(state, n), word_index(w, n))] = factor
    return BraidLift(d, word, Matrix(dim, dim, entries))


def check_braid_equation(braiding: DiagonalBraiding) -> bool:
    """(c x 1)(1 x c)(c x 1) = (1 x c)(c x 1)(1 x c) on V^(x)3."""
    c = braiding_on_pair(braiding)
    eye = Matrix.identity(braiding.dim)
    left = c.kron(eye)
    right = eye.kron(c)
    return left @ right @ left == right @ left @ right


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
