"""Content-graded quotients of the free braided Hopf algebra, on standard words.

The structure maps are homogeneous for the letter content (the multidegree
in Z^theta), so a quotient by a Hopf ideal I is built content by content:

* Q_c has the basis of the *standard words* of content c, the non-pivot
  words of the canonical echelon form of I_c in lex order.  They are
  prefix-closed, so Q_c is spanned by the *candidates* s*a, s standard of
  content c - a, whose relations are the lower ones pushed through the left
  multiplications L_b, plus the new generators.
* R_a: Q_{c-a} -> Q_c multiplies by a letter on the right; S_a: Q_c ->
  Q_{c-a} sends a standard word s*a to s.  Products are chains of R_a, and
  Delta(s*a) = Delta(s) Delta(a) gives cop(c, i) = sum over a of
  [chi(c-i, a) (R_a (x) 1) cop(c-a, i-a) + (1 (x) R_a) cop(c-a, i)] S_a,
  with chi(d, a) = prod_b q_ba^(d_b): a letter headed left picks up q_{b,a}
  per letter b it passes.  With no relations this is the quantum shuffle
  Delta^{i,c-i}(e_w) = sum over position sets S of content i of
  (prod q_{w_j, w_s} : j not in S, s in S, j < s) e_{w|S} (x) e_{w|Sc}.
* An ideal holding every word of one degree holds all longer ones, so
  nothing above the first zero degree is built.

Quotient ideals must be generated by primitive elements, which is what keeps
them Hopf ideals; quotient_by_hopf_ideal refuses anything else.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

from .braided import DiagonalBraiding, word_label
from .linalg import BasedSpace, Matrix, Subspace, kernel, quotient, vstack
from .scalars import ONE

__all__ = ["GradedQuotient", "MAX_CANDIDATES", "primitives", "quotient_by_hopf_ideal"]

# Free-like braidings on 2 to 5 letters are refused within 0.8 s at this bound
# (2-core Xeon, Python 3.11, timed with Fraction coefficients, before the
# integer residues); at 100 they would run up to 5.3 s, and 3-4 times longer
# per further degree.  Tests and benchmark jobs stay at 20 candidates or
# fewer, the 729-dimensional A3 at zeta_3 at 36.
MAX_CANDIDATES = 48


def _minus(c: tuple, i: tuple) -> tuple:
    return tuple(x - y for x, y in zip(c, i))


def _drop(c: tuple, a: int) -> tuple:
    """c less one letter a."""
    return c[:a] + (c[a] - 1,) + c[a + 1 :]


def _below(c: tuple):
    """Every content i with 0 <= i <= c, lexicographically."""
    return product(*(range(k + 1) for k in c))


class _Part(NamedTuple):
    """One built content c; the maps are keyed by letter."""

    space: BasedSpace  # Q_c, labelled by its standard words
    words: tuple  # the standard words
    embed: dict  # a -> Q_{c-a} -> span of the candidates, s -> s*a
    section: Matrix  # Q_c -> span of the candidates, on its standard words
    relations: Subspace  # I_c on the candidates, in canonical echelon form
    right: dict  # a -> R_a
    prefix: dict  # a -> S_a
    cop: dict  # i -> cop(c, i), for every i with both sides nonzero
    chi: tuple  # chi(c, a) per letter a


def _product(parts: dict, products: dict, i: tuple, j: tuple) -> Matrix:
    """mul_{i,j} on built contents, through R_a: u * (v*a) = R_a(u * v)."""
    if (i, j) not in products:
        k = tuple(x + y for x, y in zip(i, j))
        di, dj, dk = (len(parts[d].words) if d in parts else 0 for d in (i, j, k))
        block = Matrix(dk, di * dj) if any(j) else Matrix.identity(di)
        for a, S in parts[j].prefix.items() if di and dj and dk else ():
            if parts[_drop(k, a)].words and S.nrows:
                step = parts[k].right[a] @ _product(parts, products, i, _drop(j, a))
                block = block + step @ Matrix.identity(di).kron(S)
        products[(i, j)] = block
    return products[(i, j)]


def _build(braiding: DiagonalBraiding, parts: dict, products: dict, c: tuple, relations=None):
    """Content c from those below; relations default to the lower ones pushed up by L_b."""
    letters = [a for a, k in enumerate(c) if k]
    lower = {a: parts[_drop(c, a)] for a in letters}
    found = sorted((s + (a,), a, r) for a in letters for r, s in enumerate(lower[a].words))
    n = len(found)
    embed = {a: Matrix(n, len(lower[a].words),
                       {(j, r): ONE for j, (_, b, r) in enumerate(found) if b == a})
             for a in letters}
    if relations is None:
        rows = [Matrix(0, n)]
        for b in letters:
            e_b, below = tuple(int(x == b) for x in range(len(c))), lower[b]
            push = sum((embed[a] @ _product(parts, products, e_b, _drop(_drop(c, b), a))
                        @ E.transpose() for a, E in below.embed.items()),
                       Matrix(n, below.section.nrows))
            rows.append(below.relations.row_matrix @ push.transpose())
        relations = Subspace.from_matrix_rows(vstack(rows))
    labels = tuple(word_label(w) for w, _, _ in found)
    space, projection, section = quotient(BasedSpace(n, labels), relations)
    right = {a: projection @ embed[a] for a in letters}
    prefix = {a: embed[a].transpose() @ section for a in letters}
    cop = {}
    for i in _below(c) if space.dim else ():
        rest = _minus(c, i)
        if not any(i) or not any(rest):
            cop[i] = Matrix.identity(space.dim)
        elif parts[i].words and parts[rest].words:
            di, dr = len(parts[i].words), len(parts[rest].words)
            steps = [(parts[i].right[a].scale(parts[rest].chi[a]).kron(Matrix.identity(dr)),
                      lower[a].cop.get(_drop(i, a)), a) for a in letters if i[a]]
            steps += [(Matrix.identity(di).kron(parts[rest].right[a]), lower[a].cop.get(i), a)
                      for a in letters if rest[a]]
            cop[i] = sum((step @ (below @ prefix[a]) for step, below, a in steps
                          if below is not None), Matrix(di * dr, space.dim))
    words = tuple(found[j][0] for j, _ in sorted(section.entries))
    chi = tuple(x * braiding.q[letters[0]][a] for a, x in enumerate(lower[letters[0]].chi))
    return _Part(space, words, embed, section, relations, right, prefix, cop, chi)


def _shuffle_block(braiding: DiagonalBraiding, content: tuple, left: tuple) -> Matrix:
    """Delta^{left, content-left} of the free algebra: the quotient by nothing."""
    return GradedQuotient.free(braiding, max(sum(content), 1)).cop_block(content, left)


class GradedQuotient:
    """A content-graded quotient of the free braided Hopf algebra.

    `spaces` maps every content of degree up to `built` to Q_c, in degree
    order; once a degree vanishes, the contents above it are zero and left
    out, and `built` is the cutoff.  `ideal_degree` is the degree of the
    latest generators.  Instances are immutable; quotients produce new ones.
    """

    __slots__ = ("braiding", "cutoff", "built", "ideal_degree", "spaces", "_parts", "_products")

    def __init__(self, braiding, cutoff, built, ideal_degree, parts, products):
        vanished = built and not any(p.space.dim for c, p in parts.items() if sum(c) == built)
        self.braiding, self.cutoff, self.ideal_degree = braiding, cutoff, ideal_degree
        self.built = cutoff if vanished else built
        self.spaces = {c: part.space for c, part in parts.items()}
        self._parts = parts
        self._products = products  # (i, j) -> mul_{i,j}, filled on demand

    @classmethod
    def free(cls, braiding: DiagonalBraiding, cutoff: int, degree=None) -> "GradedQuotient":
        """The free algebra, built through `degree` (by default the cutoff)."""
        assert cutoff >= 1
        unit = _Part(BasedSpace(1, ("1",)), ((),), {}, Matrix.identity(1), Subspace.zero(1), {}, {},
                     {(0,) * braiding.dim: Matrix.identity(1)}, (ONE,) * braiding.dim)
        Q = cls(braiding, cutoff, 0, 0, {(0,) * braiding.dim: unit}, {})
        while Q.built < (cutoff if degree is None else degree):
            Q = Q.grown()
        return Q

    def grown(self) -> "GradedQuotient":
        """The same quotient built one degree further."""
        if self.built == self.cutoff:
            return self
        n, parts, products = self.built + 1, dict(self._parts), dict(self._products)
        sizes = {c: sum(self.spaces[_drop(c, a)].dim for a, k in enumerate(c) if k)
                 for c in _below((n,) * self.braiding.dim) if sum(c) == n}
        c = max(sizes, key=sizes.get)
        if sizes[c] > MAX_CANDIDATES:
            raise ValueError(f"degree {n}: content {c} has {sizes[c]} candidate words, "
                             f"more than {MAX_CANDIDATES}; lower the cutoff")
        for c in sizes:
            parts[c] = _build(self.braiding, parts, products, c)
        return GradedQuotient(self.braiding, self.cutoff, n, self.ideal_degree, parts, products)

    @property
    def dims(self) -> tuple:
        """Dimension per total degree, summed over the contents."""
        spaces = self.spaces.items()
        return tuple(sum(s.dim for c, s in spaces if sum(c) == n) for n in range(self.cutoff + 1))

    def total_dim(self) -> int:
        return sum(space.dim for space in self.spaces.values())

    def _dims(self, *contents) -> tuple:
        """The dims of contents built or known to vanish; raises on others."""
        for c in contents:
            inside = len(c) == self.braiding.dim and min(c) >= 0 and sum(c) <= self.cutoff
            if not (inside and (c in self.spaces or self.built == self.cutoff)):
                raise ValueError(f"content {c} is not a built content within cutoff {self.cutoff}")
        return tuple(self.spaces[c].dim if c in self.spaces else 0 for c in contents)

    def free_shuffle(self, content: tuple, left: tuple) -> Matrix:
        """Delta^{left, content-left} of the free algebra on this braiding."""
        if self.ideal_degree == 0 and content in self.spaces:  # this is the free algebra
            return self.cop_block(content, left)
        return _shuffle_block(self.braiding, content, left)

    def mul_block(self, i: tuple, j: tuple) -> Matrix:
        """Multiplication Q_i (x) Q_j -> Q_{i+j}."""
        self._dims(i, j, tuple(x + y for x, y in zip(i, j)))
        return _product(self._parts, self._products, i, j)

    def cop_block(self, content: tuple, left: tuple) -> Matrix:
        """Coproduct component Q_c -> Q_left (x) Q_{c-left}."""
        dc, dl, dr = self._dims(content, left, _minus(content, left))
        return self._parts[content].cop[left] if dc and dl and dr else Matrix(dl * dr, dc)


def primitives(Q: GradedQuotient, content: tuple) -> Subspace:
    """Kernel of all inner coproduct components on one content, inside Q_c.

    The (c,0) and (0,c) components hold automatically, so only splits with
    both sides nonzero constrain, and a split with a zero-dimensional side
    constrains nothing; on a single letter everything is primitive.
    """
    if content not in Q.spaces or not any(content):
        raise ValueError(f"content {content} must be nonzero and built within cutoff {Q.cutoff}")
    blocks = [Q.cop_block(content, left) for left in _below(content)
              if any(left) and left != content
              and Q.spaces[left].dim and Q.spaces[_minus(content, left)].dim]
    return kernel(vstack(blocks)) if blocks else Subspace.full(Q.spaces[content].dim)


def quotient_by_hopf_ideal(Q: GradedQuotient, gens: Sequence) -> GradedQuotient:
    """Quotient by the two-sided ideal generated by primitive elements.

    gens is a sequence of (content, vector) pairs, vectors in the coordinates
    of Q_content, all of one degree n >= 2 and >= Q.ideal_degree.  Each must
    be primitive in Q, checked once per content, which makes the ideal a Hopf
    ideal.  Contents with generators are rebuilt, the degrees above n again.
    """
    if not gens:
        return Q
    n, found, rows = sum(gens[0][0]), {}, {}
    for content, vector in gens:
        if content not in Q.spaces or not 2 <= sum(content) == n or n < Q.ideal_degree:
            raise ValueError(f"generator content {content} must have degree within "
                             f"{max(2, Q.ideal_degree)}..{Q.cutoff}, as every other generator")
        if len(vector := list(vector)) != Q.spaces[content].dim:
            raise ValueError(f"generator has {len(vector)} coordinates, not {Q.spaces[content].dim}")
        if content not in found:
            found[content] = primitives(Q, content)
        if not found[content].contains(vector):
            raise ValueError(f"generator of content {content} is not primitive")
        rows.setdefault(content, []).append(vector)
    parts = {c: part for c, part in Q._parts.items() if sum(c) <= n}
    products = {(i, j): m for (i, j), m in Q._products.items() if sum(i) + sum(j) < n}
    for c, vectors in rows.items():
        lifted = Matrix.from_rows(vectors) @ parts[c].section.transpose()
        relations = parts[c].relations.add(Subspace.from_matrix_rows(lifted))
        parts[c] = _build(Q.braiding, parts, products, c, relations)
    R = GradedQuotient(Q.braiding, Q.cutoff, n, n, parts, products)
    while R.built < Q.built:
        R = R.grown()
    return R
