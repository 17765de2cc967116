"""Content-graded presentation of the free braided Hopf algebra and its quotients.

Every structure map of the free braided Hopf algebra on a diagonal braiding
of rank theta is homogeneous for the letter content: the multidegree in
Z^theta that counts how often each letter occurs in a word.  Content c is
spanned by the words of that content in mixed-radix (lexicographic) order,
multiplication is concatenation, and the coproduct is the quantum shuffle:

    Delta^{i,c-i}(e_w) = sum over position sets S with content(w|S) = i of
        (prod q_{w_j, w_s} : j outside S, s in S, j < s) e_{w|S} (x) e_{w|Sc}

The crossing product is the braid lift of the inverse-shuffle permutation
moving the S positions to the front, so letters headed left pick up one q
factor per letter they pass.  Flipping which factor passes over which would
transpose the braiding matrix; this orientation is the documented one.

A GradedQuotient keeps, for every content up to a total-degree cutoff, the
ideal it quotients by, a projection and section rooted at the free algebra,
and derives multiplication and coproduct blocks from the free ones through
those maps.  Quotient ideals must be generated by primitive elements, which
is what keeps them Hopf ideals; the constructor refuses anything else.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from math import prod
from types import MappingProxyType
from typing import Sequence

from .braided import DiagonalBraiding, word_label
from .linalg import BasedSpace, Matrix, Subspace, kernel, quotient, vstack
from .scalars import ONE, ZERO

__all__ = [
    "GradedQuotient",
    "primitives",
    "quotient_by_hopf_ideal",
]


def _minus(c: tuple, i: tuple) -> tuple:
    return tuple(x - y for x, y in zip(c, i))


def _below(c: tuple):
    """Every content i with 0 <= i <= c, lexicographically."""
    return product(*(range(k + 1) for k in c))


@lru_cache(maxsize=None)
def _words(content: tuple) -> MappingProxyType:
    """The words of a content in mixed-radix order, each mapped to its position.

    Cached for the life of the process, one read-only table per content
    ever asked for; a cutoff bounds them by the words it allows anyway.
    """
    if not any(content):
        return MappingProxyType({(): 0})
    words = []
    for a, k in enumerate(content):
        if k:
            words.extend((a,) + w for w in _words(content[:a] + (k - 1,) + content[a + 1 :]))
    return MappingProxyType({w: pos for pos, w in enumerate(words)})


def _free_space(content: tuple) -> BasedSpace:
    return BasedSpace(len(_words(content)), tuple(word_label(w) for w in _words(content)))


def _shuffle_block(braiding: DiagonalBraiding, content: tuple, left: tuple) -> Matrix:
    """Delta^{left, content-left} on the free algebra.

    Columns are the words w of the content; row u_pos * #v + v_pos is the
    pair of words (u, v) of contents left and content-left.  The position
    set S is chosen letter by letter: left[a] of the positions holding a.
    Its crossing factor is the monomial prod q_ab^(m_ab), where m_ab counts
    the letters a passed by a letter b headed left; the walk counts the
    (row, column, m) triples in integers, and each distinct monomial is
    evaluated once, from powers q_ab^e computed once each.
    """
    n, q = braiding.dim, braiding.q
    lefts, rights, columns = _words(left), _words(_minus(content, left)), _words(content)
    counts: dict = {}
    for w, col in columns.items():
        spots = [[p for p, x in enumerate(w) if x == a] for a in range(n)]
        for choice in product(*(combinations(spots[a], left[a]) for a in range(n))):
            chosen = set(chain.from_iterable(choice))
            passed, m, u, v = [0] * n, [0] * (n * n), [], []
            for p, b in enumerate(w):
                if p in chosen:
                    u.append(b)
                    for a in range(n):
                        m[a * n + b] += passed[a]
                else:
                    v.append(b)
                    passed[b] += 1
            key = (lefts[tuple(u)] * len(rights) + rights[tuple(v)], col, tuple(m))
            counts[key] = counts.get(key, 0) + 1

    @lru_cache(maxsize=None)
    def power(ab: int, e: int):
        return q[ab // n][ab % n] ** e

    monomials: dict = {}
    entries: dict = {}
    for (row, col, m), count in counts.items():
        if m not in monomials:
            monomials[m] = prod((power(ab, e) for ab, e in enumerate(m) if e), start=ONE)
        term = monomials[m] if count == 1 else monomials[m] * count
        entries[(row, col)] = entries.get((row, col), ZERO) + term
    return Matrix(len(lefts) * len(rights), len(columns), entries)


class GradedQuotient:
    """A content-graded quotient of the free braided Hopf algebra.

    Everything is rooted at the free algebra: each content c up to the
    cutoff degree stores the ideal I_c, the quotient space Q_c with
    representative-word labels, and the projection/section pair between
    them, in dicts keyed by content and ordered by degree.  Structure
    blocks are derived:

        mul_{i,j} = proj_{i+j} o concat o (sect_i (x) sect_j)
        cop_c^{i} = (proj_i (x) proj_{c-i}) o Delta_c^{i,c-i} o sect_c

    both well-defined because the ideal is two-sided and generated by
    primitives.  Instances are immutable; quotients produce new ones.
    """

    __slots__ = ("braiding", "cutoff", "spaces", "projections", "sections", "ideal", "_shuffles")

    def __init__(self, braiding, cutoff, spaces, projections, sections, ideal, shuffles=None):
        self.braiding = braiding
        self.cutoff = cutoff
        self.spaces = spaces
        self.projections = projections
        self.sections = sections
        self.ideal = ideal
        self._shuffles = {} if shuffles is None else shuffles

    @classmethod
    def free(cls, braiding: DiagonalBraiding, cutoff: int) -> "GradedQuotient":
        assert cutoff >= 1
        contents = product(range(cutoff + 1), repeat=braiding.dim)
        spaces = {c: _free_space(c) for c in sorted(contents, key=sum) if sum(c) <= cutoff}
        eye = {c: Matrix.identity(space.dim) for c, space in spaces.items()}
        ideal = {c: Subspace.zero(space.dim) for c, space in spaces.items()}
        return cls(braiding, cutoff, spaces, eye, dict(eye), ideal)

    # -- shape -----------------------------------------------------------

    @property
    def dims(self) -> tuple:
        """Dimension per total degree, summed over the contents."""
        spaces = self.spaces.items()
        return tuple(sum(s.dim for c, s in spaces if sum(c) == n) for n in range(self.cutoff + 1))

    def total_dim(self) -> int:
        return sum(space.dim for space in self.spaces.values())

    def _check(self, *contents):
        for c in contents:
            if c not in self.spaces:
                raise ValueError(f"content {c} is not a content within cutoff {self.cutoff}")

    # -- structure blocks --------------------------------------------------

    def free_shuffle(self, content: tuple, left: tuple) -> Matrix:
        key = (content, left)
        if key not in self._shuffles:
            self._shuffles[key] = _shuffle_block(self.braiding, content, left)
        return self._shuffles[key]

    def mul_block(self, i: tuple, j: tuple) -> Matrix:
        """Multiplication Q_i (x) Q_j -> Q_{i+j}."""
        k = tuple(x + y for x, y in zip(i, j))
        self._check(i, j, k)
        words = _words(k)
        concat = [words[u + v] for u in _words(i) for v in _words(j)]
        return self.projections[k].select_columns(concat) @ self.sections[i].kron(self.sections[j])

    def cop_block(self, content: tuple, left: tuple) -> Matrix:
        """Coproduct component Q_c -> Q_left (x) Q_{c-left}."""
        right = _minus(content, left)
        self._check(content, left, right)
        split = self.projections[left].kron(self.projections[right])
        return split @ (self.free_shuffle(content, left) @ self.sections[content])


def primitives(Q: GradedQuotient, content: tuple) -> Subspace:
    """Kernel of all inner coproduct components on one content, inside Q_c.

    The (c,0) and (0,c) components hold automatically, so only splits with
    both sides nonzero constrain, and a split with a zero-dimensional side
    constrains nothing; on a single letter everything is primitive.
    """
    if content not in Q.spaces or not any(content):
        raise ValueError(f"content {content} must be nonzero and within cutoff {Q.cutoff}")
    blocks = [
        Q.cop_block(content, left)
        for left in _below(content)
        if any(left) and left != content
        and Q.spaces[left].dim and Q.spaces[_minus(content, left)].dim
    ]
    return kernel(vstack(blocks)) if blocks else Subspace.full(Q.spaces[content].dim)


def quotient_by_hopf_ideal(Q: GradedQuotient, gens: Sequence) -> GradedQuotient:
    """Quotient by the two-sided ideal generated by primitive elements.

    gens is a sequence of (content, vector) pairs, each vector given in the
    coordinates of Q_content with degree >= 2.  Every generator must be
    primitive in Q, checked against one primitive space per content; that
    makes the generated ideal a Hopf ideal, so the quotient inherits
    well-defined structure blocks.  Contents the ideal does not reach keep
    their spaces and maps.
    """
    if not gens:
        return Q
    found: dict = {}
    lifted = []  # (content, [(free word, coefficient)])
    for content, vector in gens:
        if content not in Q.spaces or sum(content) < 2:
            raise ValueError(f"generator content {content} must have degree within 2..{Q.cutoff}")
        vector = list(vector)
        if len(vector) != Q.spaces[content].dim:
            raise ValueError(f"generator has {len(vector)} coordinates, not {Q.spaces[content].dim}")
        if content not in found:
            found[content] = primitives(Q, content)
        if not found[content].contains(vector):
            raise ValueError(f"generator of content {content} is not primitive")
        words = list(_words(content))
        column = Q.sections[content] @ Matrix.column(vector)
        lifted.append((content, [(words[r], v) for (r, _), v in column.entries.items()]))

    spaces, projections, sections, ideal = (
        dict(Q.spaces), dict(Q.projections), dict(Q.sections), dict(Q.ideal)
    )
    for c in Q.spaces:
        words = _words(c)
        entries, nrows = {}, 0
        for d, terms in lifted:
            outside = _minus(c, d)
            if min(outside) < 0:
                continue
            for a in _below(outside):
                for u in _words(a):
                    for w in _words(_minus(outside, a)):
                        for g, value in terms:
                            entries[(nrows, words[u + g + w])] = value
                        nrows += 1
        if nrows:
            ideal[c] = ideal[c].add(Subspace.from_matrix_rows(Matrix(nrows, len(words), entries)))
            spaces[c], projections[c], sections[c] = quotient(_free_space(c), ideal[c])
    return GradedQuotient(Q.braiding, Q.cutoff, spaces, projections, sections, ideal, Q._shuffles)
