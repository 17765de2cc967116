"""Exact sparse matrices over cyclotomic fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsforge.linalg import (
    BasedSpace,
    Matrix,
    Subspace,
    compose,
    hstack,
    inverse,
    kernel,
    quotient,
    rank,
    rref,
    vstack,
)
from nicholsforge.scalars import ONE, ZERO, from_rational, root_of_unity, scalar_to_json
from tests_support import solve


def m(rows):
    return Matrix.from_rows(rows)


def test_rref_canonical_form():
    pivots, R = rref(m([[2, 4], [1, 2]]))
    assert pivots == (0,)
    assert R == m([[1, 2]])


def test_rref_idempotent():
    M = m([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    pivots, R = rref(M)
    again = rref(R)
    assert again == (pivots, R)


def test_rank_drops_on_dependent_rows():
    assert rank(m([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert rank(Matrix.zero(3, 4)) == 0
    assert rank(Matrix.identity(5)) == 5


def test_kernel_is_right_null_space():
    M = m([[1, 2, 3], [4, 5, 6]])
    K = kernel(M)
    assert K.dim == 1
    assert (M @ K.basis).is_zero()


def test_kernel_of_invertible_is_zero():
    assert kernel(m([[1, 1], [0, 1]])).is_zero()


def test_solve_consistent_and_inconsistent():
    M = m([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5], [6]])
    x = solve(M, b)
    assert x is not None and M @ x == b

    singular = m([[1, 1], [1, 1]])
    assert solve(singular, Matrix.from_rows([[0], [1]])) is None


def test_inverse_round_trip_with_roots_of_unity():
    z = root_of_unity(3, 1)
    M = Matrix.from_rows([[ONE, z], [z, ONE]])
    assert M @ inverse(M) == Matrix.identity(2)
    with pytest.raises(ZeroDivisionError):
        inverse(m([[1, 2], [2, 4]]))


def test_one_by_one_inverse_matches_the_elimination():
    # a 1 x 1 inverse skips the rref of [M | I] and must give its very value,
    # conductor included
    for n in range(1, 13):
        z = root_of_unity(n, 1)
        values = (z, from_rational(2) + from_rational(3) * z - z * z, from_rational("-5/7") * z)
        for value in values:
            M = Matrix(1, 1, {(0, 0): value})
            expected = rref(hstack([M, Matrix.identity(1)]))[1].get(0, 1)
            got = inverse(M).get(0, 0)
            assert (got.conductor, got.coeffs) == (expected.conductor, expected.coeffs), (n, value)
    with pytest.raises(ZeroDivisionError):
        inverse(Matrix(1, 1))


def test_kron_mixed_shapes():
    A = m([[1, 2]])
    B = m([[3], [4]])
    K = A.kron(B)
    assert K.shape == (2, 2)
    assert K == m([[3, 6], [4, 8]])


def test_stacking():
    A, B = m([[1, 2]]), m([[3, 4]])
    assert vstack([A, B]) == m([[1, 2], [3, 4]])
    assert hstack([A, B]) == m([[1, 2, 3, 4]])


def test_subspace_membership_and_sum():
    U = Subspace.from_vectors(3, [[1, 0, 1]])
    V = Subspace.from_vectors(3, [[0, 1, 0]])
    W = U.add(V)
    assert W.dim == 2
    assert W.contains([from_rational(2), from_rational(3), from_rational(2)])
    assert not W.contains([ONE, ZERO, ZERO])


def test_subspace_canonical_equality():
    # same plane, different spanning sets
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.from_vectors(3, [[2, 2, 3], [1, 1, 1]])
    assert a == b


def test_quotient_projection_section():
    ambient = BasedSpace(4, ("e1", "e2", "e3", "e4"))
    sub = Subspace.from_vectors(4, [[1, 0, 1, 0], [0, 1, 0, 0]])
    space, proj, sect = quotient(ambient, sub)
    assert space.dim == 2
    assert proj @ sect == Matrix.identity(2)
    assert (proj @ sub.basis).is_zero()


entries = st.integers(-5, 5)


@st.composite
def small_matrices(draw, max_side=4):
    nrows = draw(st.integers(1, max_side))
    ncols = draw(st.integers(1, max_side))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Matrix.from_rows(rows)


@settings(max_examples=50, deadline=None)
@given(small_matrices())
def test_rank_nullity(M):
    assert rank(M) + kernel(M).dim == M.ncols


@settings(max_examples=50, deadline=None)
@given(small_matrices())
def test_transpose_involution_preserves_rank(M):
    assert M.transpose().transpose() == M
    assert rank(M.transpose()) == rank(M)


def test_unit_factors_keep_the_product_conductor():
    i = root_of_unity(4, 1)
    one_at_3 = root_of_unity(3, 1) ** 3
    assert one_at_3.is_one() and one_at_3.conductor == 3
    for left, right in ((ONE, i), (i, ONE)):
        for product in (m([[left]]).kron(m([[right]])), m([[left]]) @ m([[right]])):
            assert scalar_to_json(product.get(0, 0)) == {"conductor": 4, "coeffs": ["0", "1"]}
    # a 1 at conductor 3 times i lives at conductor 12, as every product does
    for left, right in ((one_at_3, i), (i, one_at_3)):
        for product in (m([[left]]).kron(m([[right]])), m([[left]]) @ m([[right]])):
            assert product.get(0, 0).conductor == 12
            assert product.get(0, 0) == i


def test_matrix_constructor_drops_zeros():
    # only the internal constructor for entries known to be nonzero skips
    # the filter; every other Matrix(...) still drops explicit zeros
    zero = from_rational(0)
    M = Matrix(2, 2, {(0, 0): ONE, (0, 1): ZERO, (1, 1): zero, (1, 0): ONE - ONE})
    assert M.entries == {(0, 0): ONE}
    assert M == Matrix(2, 2, {(0, 0): ONE})
    for derived in (M.transpose(), -M, M.kron(M), M.select_columns([1, 0]),
                    hstack([M, M]), vstack([M, M])):
        assert all(v for v in derived.entries.values())



def test_identity_at_conductor_one_keeps_a_block_at_conductor_three():
    z = root_of_unity(3, 1)
    block = m([[z, z ** 2], [z ** 3, z]])
    assert all(v.conductor == 3 for v in block.entries.values())
    for product in (Matrix.identity(2) @ block, block @ Matrix.identity(2)):
        assert product == block
        assert all(v.conductor == 3 for v in product.entries.values())


def test_a_sum_that_cancels_drops_its_entry():
    product = m([[1, 1], [1, 0]]) @ m([[1], [-1]])
    assert product.entries == {(1, 0): ONE}
    assert compose({(0, 0): ONE, (0, 1): ONE}, {(0, 0): ONE, (1, 0): -ONE}) == {}


def test_a_sum_of_roots_stays_at_their_conductor():
    z = root_of_unity(3, 1)
    product = m([[z, z ** 2]]) @ m([[1], [1]])
    assert scalar_to_json(product.get(0, 0)) == {"conductor": 3, "coeffs": ["-1", "0"]}
    assert product.get(0, 0) == -ONE
