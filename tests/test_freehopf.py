"""Free braided Hopf algebra on a diagonal braiding, graded by letter
content: shuffle coproduct, graded quotients, primitives."""

from itertools import combinations

import pytest

from nicholsforge import freehopf
from nicholsforge.braided import DiagonalBraiding, all_words, word_label
from nicholsforge.freehopf import GradedQuotient, primitives, quotient_by_hopf_ideal
from nicholsforge.linalg import BasedSpace, Matrix, Subspace, quotient
from nicholsforge.scalars import ONE, root_of_unity

TRIVIAL = DiagonalBraiding.from_entries([["1"]])
SIGN = DiagonalBraiding.from_entries([["-1"]])
QP = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])


def test_tensor_space_dims_and_labels():
    # the content (2, 1) piece of V^(x)3: its three words in mixed-radix order
    Q = GradedQuotient.free(QP, 3)
    assert Q.spaces[(2, 1)].labels == ("x1*x1*x2", "x1*x2*x1", "x2*x1*x1")
    assert [space.dim for c, space in Q.spaces.items() if sum(c) == 3] == [1, 3, 3, 1]
    assert Q.spaces[(0, 0)].labels == ("1",)
    assert [sum(c) for c in Q.spaces] == sorted(sum(c) for c in Q.spaces)


def test_shuffle_coproduct_counts_splits():
    # trivial braiding, degree 2: Delta(x*x) has (1,1) component 2 x(x)x
    block = GradedQuotient.free(TRIVIAL, 2).free_shuffle((2,), (1,))
    assert block.get(0, 0) == ONE + ONE


def test_shuffle_coproduct_sign_braiding_cancels():
    # q = -1: the two splits of x*x cancel, x*x is primitive
    assert GradedQuotient.free(SIGN, 2).free_shuffle((2,), (1,)).is_zero()


def test_shuffle_coproduct_outer_components_are_identity():
    Q = GradedQuotient.free(QP, 3)
    assert Q.free_shuffle((2, 1), (0, 0)) == Matrix.identity(3)
    assert Q.free_shuffle((2, 1), (2, 1)) == Matrix.identity(3)


def _subset_shuffle(braiding, content, left):
    """Delta^{left, content-left} straight from the definition: every
    position subset of every word, kept when its letters have content left."""
    n, k = braiding.dim, sum(left)
    right = tuple(c - i for c, i in zip(content, left))

    def of(c):
        return [w for w in all_words(n, sum(c)) if all(w.count(a) == x for a, x in enumerate(c))]

    lefts, rights, words = of(left), of(right), of(content)
    entries = {}
    for col, w in enumerate(words):
        for subset in combinations(range(len(w)), k):
            u = tuple(w[s] for s in subset)
            if u not in lefts:
                continue
            v = tuple(w[j] for j in range(len(w)) if j not in subset)
            factor = ONE
            for j in range(len(w)):
                for s in subset:
                    if j < s and j not in subset:
                        factor = factor * braiding.q[w[j]][w[s]]
            key = (lefts.index(u) * len(rights) + rights.index(v), col)
            entries[key] = entries[key] + factor if key in entries else factor
    return Matrix(len(lefts) * len(rights), len(words), entries)


def test_shuffle_block_matches_subset_sum():
    # per-letter position choices give exactly the content-filtered subsets
    b = DiagonalBraiding.from_entries(
        [["zeta(3)", "zeta(4)", "2"], ["-1", "zeta(3)^2", "zeta(5)"], ["1/3", "zeta(5)^2", "-1"]]
    )
    Q = GradedQuotient.free(b, 4)
    for content in [(2, 1, 1), (1, 2, 0), (0, 1, 3)]:
        for left in freehopf._below(content):
            assert Q.free_shuffle(content, left) == _subset_shuffle(b, content, left), (
                content,
                left,
            )


def test_free_quotient_dims_are_powers():
    Q = GradedQuotient.free(QP, 4)
    assert Q.dims == (1, 2, 4, 8, 16)
    assert Q.total_dim() == 31


def test_free_mul_block_concatenates():
    Q = GradedQuotient.free(QP, 3)
    # x1 * (x1 x2, x2 x1) = (x1 x1 x2, x1 x2 x1) inside (x1 x1 x2, x1 x2 x1, x2 x1 x1)
    assert Q.mul_block((1, 0), (1, 1)) == Matrix(3, 2, {(0, 0): ONE, (1, 1): ONE})
    # (x1 x2, x2 x1) * x1 = (x1 x2 x1, x2 x1 x1)
    assert Q.mul_block((1, 1), (1, 0)) == Matrix(3, 2, {(1, 0): ONE, (2, 1): ONE})
    with pytest.raises(ValueError):
        Q.mul_block((2, 0), (1, 1))  # degree 4 is past the cutoff


def test_primitives_of_free_algebra():
    Q = GradedQuotient.free(QP, 3)
    assert primitives(Q, (1, 0)).dim == primitives(Q, (0, 1)).dim == 1
    # degree 2 free Lie dimension is 1 classically; braided count differs:
    # x1*x1 and x2*x2 are primitive under q_ii = -1, plus one commutator
    assert [primitives(Q, c).dim for c in [(2, 0), (1, 1), (0, 2)]] == [1, 1, 1]


def test_primitive_degree_out_of_range():
    Q = GradedQuotient.free(QP, 2)
    for content in [(3, 0), (0, 0), (-1, 3)]:
        with pytest.raises(ValueError):
            primitives(Q, content)


def test_quotient_kills_generator_and_descendants():
    Q = GradedQuotient.free(SIGN, 4)
    # x*x is primitive for q = -1; kill it
    R = quotient_by_hopf_ideal(Q, [((2,), [ONE])])
    assert R.dims == (1, 1, 0, 0, 0)


def test_quotient_rejects_non_primitive_generator():
    Q = GradedQuotient.free(TRIVIAL, 3)
    # x*x is not primitive when q = 1
    with pytest.raises(ValueError):
        quotient_by_hopf_ideal(Q, [((2,), [ONE])])
    for content in [(1,), (4,)]:
        with pytest.raises(ValueError):
            quotient_by_hopf_ideal(Q, [(content, [ONE])])


def test_quotient_by_empty_ideal_is_same_object():
    Q = GradedQuotient.free(QP, 2)
    assert quotient_by_hopf_ideal(Q, []) is Q


def test_quotient_checks_primitives_once_per_content(monkeypatch):
    Q = GradedQuotient.free(QP, 4)
    gens = [(c, primitives(Q, c).basis.column_vector(0)) for c in [(2, 0), (1, 1), (0, 2)]]
    calls = []
    real = freehopf.primitives
    monkeypatch.setattr(freehopf, "primitives", lambda Q, c: calls.append(c) or real(Q, c))
    R = quotient_by_hopf_ideal(Q, gens + gens)
    assert calls == [(2, 0), (1, 1), (0, 2)]
    assert R.dims == (1, 2, 1, 0, 0)


def test_quotient_structure_blocks_stay_compatible():
    z3 = root_of_unity(3, 1)
    b = DiagonalBraiding(((z3,),))
    Q = GradedQuotient.free(b, 4)
    sub = primitives(Q, (3,))
    assert sub.dim == 1
    R = quotient_by_hopf_ideal(Q, [((3,), sub.basis.column_vector(0))])
    assert R.dims == (1, 1, 1, 0, 0)
    # multiplication must still land in the right space
    assert R.mul_block((1,), (1,)).shape == (1, 1)
    assert R.mul_block((1,), (2,)).shape == (0, 1)


def _words_of(n, content):
    """The words of a content, in lexicographic order."""
    words = all_words(n, sum(content))
    return [w for w in words if all(w.count(a) == x for a, x in enumerate(content))]


def test_standard_words_match_the_ideal_over_all_words():
    # the definition: the ideal spanned by u * g * w over all words, reduced
    # over every word of a content; its non-pivot words are the basis and
    # its projection gives the blocks
    b = DiagonalBraiding.from_entries([["zeta(3)", "1"], ["zeta(3)^2", "zeta(3)"]])
    Q = GradedQuotient.free(b, 5, degree=3)
    gens = [(c, primitives(Q, c).basis.column_vector(j))
            for c in [(3, 0), (2, 1), (1, 2), (0, 3)] for j in range(primitives(Q, c).dim)]
    R = quotient_by_hopf_ideal(Q, gens)
    while R.built < R.cutoff:
        R = R.grown()

    def lift(c, vector):
        word_of = {word_label(w): w for w in _words_of(2, c)}
        return c, {word_of[label]: v for label, v in zip(Q.spaces[c].labels, vector) if v}

    lifted = [lift(c, vector) for c, vector in gens]
    projections = {}
    for c in R.spaces:
        words = _words_of(2, c)
        position = {w: k for k, w in enumerate(words)}
        rows = []
        for d, terms in lifted:
            for u in all_words(2, sum(c) - sum(d)):
                for cut in range(len(u) + 1):
                    row = {}
                    for g, v in terms.items():
                        w = u[:cut] + g + u[cut:]
                        if w in position:
                            row[position[w]] = v
                    if row:
                        rows.append(row)
        entries = {(r, k): v for r, row in enumerate(rows) for k, v in row.items()}
        ideal = Subspace.from_matrix_rows(Matrix(len(rows), len(words), entries))
        labels = tuple(map(word_label, words))
        space, projection, section = quotient(BasedSpace(len(words), labels), ideal)
        assert R.spaces[c] == space, c
        projections[c] = (words, projection, section)
    for i in R.spaces:
        for j in R.spaces:
            k = tuple(x + y for x, y in zip(i, j))
            if k in R.spaces:
                words, projection, _ = projections[k]
                concat = [words.index(u + v) for u in projections[i][0] for v in projections[j][0]]
                sections = projections[i][2].kron(projections[j][2])
                expected = projection.select_columns(concat) @ sections
                assert R.mul_block(i, j) == expected, (i, j)
    for c in R.spaces:
        for i in freehopf._below(c):
            rest = tuple(x - y for x, y in zip(c, i))
            split = projections[i][1].kron(projections[rest][1])
            expected = split @ (_subset_shuffle(b, c, i) @ projections[c][2])
            assert R.cop_block(c, i) == expected, (c, i)
    # a quotient still hands out the free algebra's coproduct
    assert R.free_shuffle((2, 1), (1, 0)) == _subset_shuffle(b, (2, 1), (1, 0))


def test_quotient_refuses_generators_below_an_earlier_degree():
    # x2^2 and x1 x2 - x2 x1 are primitive in degree 2, x1^3 in degree 3
    b = DiagonalBraiding.from_entries([["zeta(3)", "1"], ["1", "-1"]])
    Q = GradedQuotient.free(b, 4)

    def gens(Q, contents):
        return [(c, primitives(Q, c).basis.column_vector(j))
                for c in contents for j in range(primitives(Q, c).dim)]

    cube, squares = gens(Q, [(3, 0)]), gens(Q, [(1, 1), (0, 2)])
    assert len(cube) == 1 and len(squares) == 2
    with pytest.raises(ValueError):
        quotient_by_hopf_ideal(Q, squares + cube)  # two degrees at once
    R = quotient_by_hopf_ideal(Q, cube)
    assert R.ideal_degree == 3
    with pytest.raises(ValueError):
        quotient_by_hopf_ideal(R, gens(R, [(1, 1), (0, 2)]))
    R = quotient_by_hopf_ideal(quotient_by_hopf_ideal(Q, squares), cube)
    assert R.dims == (1, 2, 2, 1, 0)
