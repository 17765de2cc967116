"""Nichols algebra computation against the quantum symmetrizer oracle."""

from itertools import permutations

import pytest

from nicholsforge.braided import DiagonalBraiding, braid_lift
from nicholsforge.linalg import Matrix
from nicholsforge.nichols import (
    FINITE,
    ORACLE_MAX_DEGREE,
    UNDETERMINED,
    _symmetrizer_matrix,
    dims_symmetry_warning,
    hilbert_series,
    nichols_compute,
    symmetrizer_rank,
)


def test_rank_one_truncated_line():
    # q a primitive N-th root: B(V) = K[x]/(x^N)
    for N in (2, 3, 5):
        report = nichols_compute(DiagonalBraiding.from_entries([[f"zeta({N})"]]), N + 2)
        assert report.termination == FINITE
        assert report.dims == (1,) * N + (0,) * 3
        assert report.total_dim == N
        assert hilbert_series(report) == [1] * N


def test_nothing_is_built_above_the_first_zero_degree():
    # x^2 = 0 at q = -1: degree 2 vanishes, so degrees 3..30 are never built
    report = nichols_compute(DiagonalBraiding.from_entries([["-1"]]), 30)
    assert report.termination == FINITE
    assert report.dims == (1, 1) + (0,) * 29
    assert sorted(report.quotient.spaces) == [(0,), (1,), (2,)]
    assert report.quotient.mul_block((1,), (20,)).shape == (0, 0)


def test_rank_one_q_equals_one_stays_free():
    report = nichols_compute(DiagonalBraiding.from_entries([["1"]]), 5)
    assert report.termination == UNDETERMINED
    assert report.total_dim is None
    assert report.dims == (1, 1, 1, 1, 1, 1)  # polynomial ring, no relations found


def test_quantum_plane_dims():
    qp = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])
    report = nichols_compute(qp, 6)
    assert report.termination == FINITE
    assert hilbert_series(report) == [1, 2, 1]
    assert report.total_dim == 4
    assert report.relations  # x_i^2 die in degree 2


def test_symmetrizer_rank_is_independent_check():
    qp = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])
    assert [symmetrizer_rank(qp, d) for d in range(4)] == [1, 2, 1, 0]


def test_symmetrizer_matches_iteration_on_cartan_type():
    # q_ii = zeta_3, off-diagonal q_ij q_ji = zeta_3^{-1}: A_2 Cartan datum.
    # The algebra is 27-dimensional with top degree 8; comparing the cutoff
    # window keeps the oracle in its cheap range.
    b = DiagonalBraiding.from_entries(
        [["zeta(3)", "zeta(3)^2"], ["1", "zeta(3)"]]
    )
    report = nichols_compute(b, 5)
    for d in range(6):
        assert symmetrizer_rank(b, d) == report.dims[d]


@pytest.mark.parametrize(
    "entries, degrees",
    [
        # q12 != q21, conductors 3 and 4 mixed with a rational
        ([["zeta(3)", "zeta(4)"], ["-1", "zeta(3)^2"]], range(1, 5)),
        ([["zeta(7)"]], range(1, 6)),
    ],
)
def test_symmetrizer_matrix_is_sum_of_braid_lifts(entries, degrees):
    # The oracle's matrix entry for entry, not just its rank, against the
    # lifts built from reduced words.
    b = DiagonalBraiding.from_entries(entries)
    for d in degrees:
        expected = Matrix.zero(b.dim**d, b.dim**d)
        for perm in permutations(range(d)):
            expected = expected + braid_lift(perm, b).matrix
        assert _symmetrizer_matrix(b, d) == expected, f"degree {d}"


def test_symmetrizer_rank_degree_cap():
    b = DiagonalBraiding.from_entries([["-1"]])
    with pytest.raises(ValueError):
        symmetrizer_rank(b, ORACLE_MAX_DEGREE + 1)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        nichols_compute(DiagonalBraiding.from_entries([["-1"]]), 1)


def test_symmetry_warning_only_on_asymmetric_dims():
    qp = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])
    assert dims_symmetry_warning(nichols_compute(qp, 6)) is None

    free = nichols_compute(DiagonalBraiding.from_entries([["1"]]), 4)
    assert dims_symmetry_warning(free) is None  # not finite, nothing to check


def _assert_root_system_dims(report, roots):
    """Every content dim is the coefficient of prod over the positive roots
    beta, with N_beta the order of q_beta, of (1 - t^(N_beta beta)) / (1 - t^beta)."""
    expected = {(0,) * len(roots[0][0]): 1}
    for beta, order in roots:
        grown = {}
        for c, d in expected.items():
            for m in range(order):
                key = tuple(x + m * y for x, y in zip(c, beta))
                grown[key] = grown.get(key, 0) + d
        expected = grown
    spaces = report.quotient.spaces
    assert set(expected) <= set(spaces)
    assert {c: space.dim for c, space in spaces.items()} == {c: expected.get(c, 0) for c in spaces}


def test_cartan_a2_content_dims_are_root_system_product():
    # A2 at zeta_3: positive roots (1,0), (0,1), (1,1), each with a braiding
    # scalar of order 3.  Cutoff 9 sees degree 9 vanish above the top degree
    # 8, which certifies finiteness.
    b = DiagonalBraiding.from_entries([["zeta(3)", "1"], ["zeta(3)^2", "zeta(3)"]])
    report = nichols_compute(b, 9)
    assert report.termination == FINITE
    assert report.total_dim == 27
    assert report.dims == (1, 2, 4, 4, 5, 4, 4, 2, 1, 0)
    _assert_root_system_dims(report, [((1, 0), 3), ((0, 1), 3), ((1, 1), 3)])


def test_cartan_a3_at_minus_one_content_dims():
    # A3 at -1: six positive roots, each with q_beta = -1; top degree 10
    b = DiagonalBraiding.from_entries([["-1", "-1", "1"], ["1", "-1", "-1"], ["1", "1", "-1"]])
    report = nichols_compute(b, 11)
    assert report.termination == FINITE
    assert report.total_dim == 64
    assert report.dims == (1, 3, 5, 8, 10, 10, 10, 8, 5, 3, 1, 0)
    roots = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]
    _assert_root_system_dims(report, [(beta, 2) for beta in roots])


def test_cartan_a2_at_zeta4_content_dims():
    # A2 at i: q_beta = i for all three positive roots; top degree 12
    b = DiagonalBraiding.from_entries([["zeta(4)", "1"], ["zeta(4)^3", "zeta(4)"]])
    report = nichols_compute(b, 13)
    assert report.termination == FINITE
    assert report.total_dim == 64
    assert report.dims == (1, 2, 4, 6, 7, 8, 8, 8, 7, 6, 4, 2, 1, 0)
    _assert_root_system_dims(report, [((1, 0), 4), ((0, 1), 4), ((1, 1), 4)])
