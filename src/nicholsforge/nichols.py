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
distinct monomial in each matrix entry.  The walk is the cost, a few
microseconds a pair: degree 8 on one letter (40320 pairs) takes a fraction
of a second, two letters at degree 7 about five seconds, and each further
degree multiplies the pair count by n * (d + 1).
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple, Optional

from .braided import DiagonalBraiding, all_words, word_index
from .freehopf import GradedQuotient, primitives, quotient_by_hopf_ideal
from .linalg import Matrix, hstack, rank
from .scalars import ONE

__all__ = [
    "NicholsReport",
    "nichols_compute",
    "symmetrizer_rank",
    "hilbert_series",
    "dims_symmetry_warning",
    "ORACLE_MAX_DEGREE",
]

FINITE = "finite"
UNDETERMINED = "undetermined-at-cutoff"

# The oracle visits every (word, permutation) pair.  Two letters at degree 9
# are 2^9 * 9! of them, far past a practical cross-check, so refuse instead
# of grinding.
ORACLE_MAX_DEGREE = 8


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


def symmetrizer_rank(braiding: DiagonalBraiding, degree: int) -> int:
    """Rank of the quantum symmetrizer on the degree-th tensor power.

    Independent of the engine: sums the braid lift of every permutation,
    each computed from its inversion set, and ranks the result.
    """
    if degree > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle degree {degree} exceeds cutoff {ORACLE_MAX_DEGREE}")
    if degree == 0:
        return 1
    return rank(_symmetrizer_matrix(braiding, degree))


def _symmetrizer_matrix(braiding: DiagonalBraiding, degree: int) -> Matrix:
    """The quantum symmetrizer: every permutation's braid lift, summed.

    On a word w the lift of a permutation carries the factor
    prod q_ab^(m_ab), where m_ab counts its inversions (i, j) with
    (w_i, w_j) = (a, b).  Column by column, the permutations are only
    counted per (target word, exponent vector m); each distinct monomial is
    then evaluated once and added with its integer count.
    """
    n = braiding.dim
    # m travels packed into one integer: m_ab is its digit a * n + b in base
    # `radix`, which no exponent reaches (each is at most the pair count).
    pairs = [(i, j) for i in range(degree) for j in range(i + 1, degree)]
    radix = len(pairs) + 1
    place = [n ** (degree - 1 - k) for k in range(degree)]
    monomials: dict = {}
    entries: dict = {}
    for w in all_words(n, degree):
        weighted = [(i, j, radix ** (w[i] * n + w[j])) for i, j in pairs]
        counts: dict = {}
        for perm in permutations(range(degree)):
            m = sum([weight for i, j, weight in weighted if perm[i] > perm[j]])
            # (perm . w) puts the letter at position pos onto position perm[pos]
            target = sum([letter * place[perm[pos]] for pos, letter in enumerate(w)])
            key = (target, m)
            counts[key] = counts.get(key, 0) + 1
        source = word_index(w, n)
        for (target, m), count in counts.items():
            value = monomials.get(m)
            if value is None:
                value = monomials[m] = _monomial(braiding, m, radix)
            key = (target, source)
            cur = entries.get(key)
            entries[key] = value * count if cur is None else cur + value * count
    dim = n**degree
    return Matrix(dim, dim, entries)


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
