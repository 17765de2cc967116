"""Exact sparse matrices over cyclotomic fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsforge.linalg import (
    BasedSpace,
    Matrix,
    Subspace,
    hstack,
    inverse,
    kernel,
    quotient,
    rank,
    rref,
    solve,
    vstack,
)
from nicholsforge.scalars import ONE, ZERO, from_rational, root_of_unity, scalar_to_json


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
    b = Matrix.column([5, 6])
    x = solve(M, b)
    assert x is not None and M @ x == b

    singular = m([[1, 1], [1, 1]])
    assert solve(singular, Matrix.column([0, 1])) is None


def test_inverse_round_trip_with_roots_of_unity():
    z = root_of_unity(3, 1)
    M = Matrix.from_rows([[ONE, z], [z, ONE]])
    assert M @ inverse(M) == Matrix.identity(2)
    with pytest.raises(ZeroDivisionError):
        inverse(m([[1, 2], [2, 4]]))


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
    ambient = BasedSpace.standard(4)
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
