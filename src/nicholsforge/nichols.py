"""Nichols algebra engine and its independent cross-check.

The engine runs the iterated primitive-quotient procedure: starting from
the free braided Hopf algebra truncated at a cutoff, repeatedly find the
primitives in the lowest degree >= 2 and quotient by the Hopf ideal they
generate, until no primitives remain above degree one.  Everything is
homogeneous in letter content, so each degree is searched content by
content and the primitives of all its contents are quotiented at once.
The scan builds each degree when it reaches it, from the final quotient
below, so one quotient per degree leaves no primitives there; nothing is
built above a degree that vanishes.

The oracle is deliberately a different computation: the rank of the n-th
quantum symmetrizer, the sum over all permutations of their positive braid
lifts, with each lift evaluated through the inversion-set product rather
than through reduced words.  The two must agree degree by degree; that
agreement is the main correctness property of the whole package.

For a diagonal braiding the inversion-set product on a word is a monomial
in the q_ab, so the oracle walks all n^d * d! (word, permutation) pairs
with integer bookkeeping only and does exact field arithmetic once per
distinct monomial value in each matrix entry.  Each permutation is
tabulated once per degree, as the place each position lands on and the
later positions it inverts with, so a pair costs one table lookup per
position inside C-level iterators: 0.4-0.8 microseconds a pair on a
2-core Xeon with Python 3.11, against about 5 for a pair-by-pair walk.
Degree 8 on one letter (40320 pairs) takes about 35 ms, two letters at
degree 7 a quarter of a second, and two letters at degree 8, the most
work admitted (ORACLE_MAX_PAIRS), 4 to 8 s.  Each further degree
multiplies the pair count by n * (d + 1).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from operator import itemgetter
from math import factorial
from typing import NamedTuple, Optional

from .braided import DiagonalBraiding, all_words, word_index
from .freehopf import GradedQuotient, primitives, quotient_by_hopf_ideal
from .linalg import Matrix, hstack, rank
from .scalars import ONE

__all__ = [
    "NicholsReport",
    "nichols_compute",
    "symmetrizer_rank",
    "symmetrizer_content_ranks",
    "check_oracle_work",
    "hilbert_series",
    "dims_symmetry_warning",
    "ORACLE_MAX_DEGREE",
    "ORACLE_MAX_PAIRS",
]

FINITE = "finite"
UNDETERMINED = "undetermined-at-cutoff"

# The oracle visits every (word, permutation) pair, n^d * d! of them.  The
# pair cap, 2^8 * 8! = 10,321,920 pairs or 4 to 8 s of walk, admits every
# request on one or two letters up to degree 8 and three letters up to
# degree 6; check_oracle_work refuses the rest instead of grinding, such as
# three letters at degree 8 (3^8 * 8! = 264,539,520 pairs, minutes).
ORACLE_MAX_DEGREE = 8
ORACLE_MAX_PAIRS = 2**8 * factorial(8)


class NicholsReport(NamedTuple):
    braiding: DiagonalBraiding
    cutoff: int
    dims: tuple
    relations: tuple  # (degree, dim of quotiented primitive space) per iteration
    termination: str  # FINITE or UNDETERMINED
    total_dim: Optional[int]
    quotient: GradedQuotient  # final state of the iteration


def nichols_compute(braiding: DiagonalBraiding, cutoff: int) -> NicholsReport:
    """Iterated primitive-quotient construction up to the cutoff degree.

    Finiteness is only ever claimed on hard evidence: some graded piece
    vanished and multiplication from degree one still covers every degree,
    which together force all higher pieces to vanish.  Anything else is
    reported as undetermined at this cutoff.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be at least 2")
    Q = GradedQuotient.free(braiding, cutoff, degree=1)
    relations = []
    for n in range(2, cutoff + 1):
        Q = Q.grown()
        gens = []
        for c, space in Q.spaces.items():
            if sum(c) == n and space.dim:
                basis = primitives(Q, c).basis
                gens += [(c, basis.column_vector(j)) for j in range(basis.ncols)]
        if gens:
            # degrees below n are final, so a primitive of the quotient in
            # degree n lifts to one already quotiented: no second pass
            Q = quotient_by_hopf_ideal(Q, gens)
            relations.append((n, len(gens)))

    dims = Q.dims
    letters = [tuple(int(a == b) for b in range(braiding.dim)) for a in range(braiding.dim)]

    def letter_products(c: tuple) -> Matrix:
        """x_a Q_{c - a} for every letter a in c, side by side inside Q_c."""
        return hstack(
            [Q.mul_block(letters[a], c[:a] + (k - 1,) + c[a + 1 :]) for a, k in enumerate(c) if k]
        )

    generated = all(
        rank(letter_products(c)) == space.dim
        for c, space in Q.spaces.items()
        if sum(c) >= 2 and space.dim
    )
    if generated and any(d == 0 for d in dims):
        first_zero = dims.index(0)
        assert all(d == 0 for d in dims[first_zero:]), "ideal saturation must close upward"
        termination, total = FINITE, sum(dims)
    else:
        termination, total = UNDETERMINED, None
    return NicholsReport(braiding, cutoff, dims, tuple(relations), termination, total, Q)


def check_oracle_work(dim: int, degree: int) -> None:
    """Refuse with ValueError an oracle degree on dim letters past either cap."""
    if degree > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle degree {degree} is above the cap of {ORACLE_MAX_DEGREE}")
    pairs = dim**degree * factorial(degree)
    if pairs > ORACLE_MAX_PAIRS:
        raise ValueError(f"oracle degree {degree} on {dim} letters is {pairs} (word, "
                         f"permutation) pairs, above the cap of {ORACLE_MAX_PAIRS}")


def symmetrizer_rank(braiding: DiagonalBraiding, degree: int) -> int:
    """Rank of the quantum symmetrizer on the degree-th tensor power.

    Independent of the engine: sums the braid lift of every permutation,
    each computed from its inversion set, and ranks the result one letter
    content at a time.
    """
    return sum(symmetrizer_content_ranks(braiding, degree).values())


def symmetrizer_content_ranks(braiding: DiagonalBraiding, degree: int) -> dict:
    """{letter content: rank of the symmetrizer on the words of that content}.

    The symmetrizer only reorders letters, so it is block diagonal by
    content and its rank is the sum of these.
    """
    check_oracle_work(braiding.dim, degree)
    n = braiding.dim
    contents: dict = {}
    for w in all_words(n, degree):
        contents.setdefault(tuple(map(w.count, range(n))), []).append(w)
    cache = ({}, {})  # the monomial values of the degree, shared by its contents
    return {c: rank(_symmetrizer_matrix(braiding, degree, words, cache))
            for c, words in contents.items()}


def _symmetrizer_matrix(braiding: DiagonalBraiding, degree: int,
                        words: Optional[list] = None, cache: Optional[tuple] = None) -> Matrix:
    """The quantum symmetrizer: every permutation's braid lift, summed.

    On the span of `words`, all words of the degree by default, which must
    hold every reordering of each of its words; rows and columns follow
    their order.

    On a word w the lift of a permutation p carries the factor
    prod q_ab^(m_ab), where m_ab counts its inversions (i, j) with
    (w_i, w_j) = (a, b), and sends w to the word p . w.  Both are sums over
    positions: position i adds w_i n^(degree-1-p(i)) to the index of p . w
    and q_(w_i w_j) for each later j it inverts with to m.  So each word
    gets one table of these terms, for every place and set of later
    positions, and each permutation picks one term per position from it
    (see _placements).  For each source word the permutations are only
    counted per (target word, exponent vector m), and each entry sums those
    counts per monomial value up to sign (see _signed_key); each distinct
    value whose signed count is nonzero is then multiplied once by it.
    The monomial values found so far are kept in `cache`, a pair of dicts
    that calls of the same braiding and degree may share.
    """
    n = braiding.dim
    if words is None:
        words = all_words(n, degree)
    if degree <= 1:  # the one permutation is the identity, with no inversions
        return Matrix.identity(len(words))
    dim = n**degree
    # m travels packed into one integer: m_ab is its digit a * n + b in base
    # `radix`, which no exponent reaches (each is at most the pair count).
    # A pair with q_ab = 1 contributes nothing, so its digit stays 0.  Each
    # term of a table is one (target index + dim * m) summand.
    radix = degree * (degree - 1) // 2 + 1
    weight = [[0 if q.is_one() else dim * radix ** (a * n + b) for b, q in enumerate(row)]
              for a, row in enumerate(braiding.q)]
    place = [n ** (degree - 1 - t) for t in range(degree)]
    placements = _placements(degree)
    # packed m -> (key, sign) of its monomial (_signed_key), and key -> the
    # monomial it stands for
    values, monomials = ({}, {}) if cache is None else cache
    counts: dict = {}  # (target index, col, key) -> permutations counted there, signed
    for col, w in enumerate(words):
        table = []
        for i, a in enumerate(w):
            # the weights of every subset of later positions, bit b for i + 1 + b
            subsets = [0]
            for b in w[i + 1 :]:
                step = weight[a][b]
                subsets += [s + step for s in subsets]
            table += [a * p + s for p in place for s in subsets]
        keys = Counter(map(sum, zip(*[pick(table) for pick in placements])))
        for key, count in keys.items():
            m, target = divmod(key, dim)
            found = values.get(m)
            if found is None:
                found = values[m] = _signed_key(_monomial(braiding, m, radix), monomials)
            vkey, sign = found
            cell = (target, col, vkey)
            counts[cell] = counts.get(cell, 0) + sign * count
    row = {word_index(w, n): k for k, w in enumerate(words)}
    entries: dict = {}
    for (target, col, vkey), count in counts.items():
        if count:
            term = monomials[vkey] * count
            cell = (row[target], col)
            cur = entries.get(cell)
            entries[cell] = term if cur is None else cur + term
    return Matrix(len(words), len(words), entries)


def _signed_key(value, monomials: dict) -> tuple:
    """(key, sign) with value = sign * monomials[key], a value or its negative.

    Keys are (conductor, coeffs), since Scalars are unhashable; a value whose
    negative is already kept reuses its key, so counts of v and -v cancel as
    integers.
    """
    negative = -value
    key = (negative.conductor, negative.coeffs)
    if key in monomials:
        return key, -1
    key = (value.conductor, value.coeffs)
    monomials[key] = value
    return key, 1


# Shared by the content blocks of a degree and kept for the life of the
# process: at most one immutable table per admitted degree, 2.6 MB at 8.
@lru_cache(maxsize=ORACLE_MAX_DEGREE + 1)
def _placements(degree: int) -> tuple:
    """Every permutation p of range(degree >= 2) as one table index per position.

    Position i's index is offset_i + p(i) * 2^(degree-1-i) + mask_i, where
    bit b of mask_i is set when p inverts i with i + 1 + b, and offset_i =
    degree * (2^degree - 2^(degree-i)) leaves room for the earlier
    positions.  Column i is an itemgetter that picks position i's term for
    every p from a table, in one order shared by all columns.

    Built degree by degree: a permutation of range(d) is one of range(d - 1)
    with the places >= v moved up by one and position d - 1 put on place v.
    That moves each earlier place and sets the bit for the new last
    position exactly when the place moved, so one lookup list per v turns
    every old index into its new one.
    """
    columns: list = []
    count = 1  # permutations so far, (d - 1)!
    for d in range(1, degree + 1):
        lifts = [[] for _ in range(d)]
        for k in range(d - 1):
            width = 1 << (d - 2 - k)  # mask values of position k below degree d
            offset = d * ((1 << d) - (1 << (d - k)))
            for x in range(d - 1):
                for mask in range(width):
                    for v, lift in enumerate(lifts):
                        up = x >= v
                        lift.append(offset + (x + up) * 2 * width + up * width + mask)
        columns = [tuple(chain.from_iterable(map(lift.__getitem__, column) for lift in lifts))
                   for column in columns]
        last = d * ((1 << d) - 2)
        columns.append(tuple(chain.from_iterable(repeat(last + v, count) for v in range(d))))
        count *= d
    return tuple(itemgetter(*column) for column in columns)


def _monomial(braiding: DiagonalBraiding, packed: int, radix: int):
    """prod q_ab^(m_ab) for the exponents packed base-radix at digit a * n + b."""
    n = braiding.dim
    value = ONE
    for ab in range(n * n):
        packed, e = divmod(packed, radix)
        if e:
            value = value * braiding.q[ab // n][ab % n] ** e
    return value


def hilbert_series(report: NicholsReport) -> list:
    """Graded dimensions; trailing zeros stripped once finiteness is known."""
    dims = list(report.dims)
    if report.termination == FINITE:
        while dims and dims[-1] == 0:
            dims.pop()
    return dims


def dims_symmetry_warning(report: NicholsReport) -> Optional[str]:
    """Soft check: finite graded dimensions are expected to be palindromic.

    Kept advisory rather than asserted; a violation means something worth a
    human look, not a definite engine bug.
    """
    if report.termination != FINITE:
        return None
    dims = hilbert_series(report)
    if dims != dims[::-1]:
        return f"graded dimensions {dims} are not palindromic"
    return None
