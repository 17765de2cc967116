"""Nichols algebra computation against the quantum symmetrizer oracle."""

from itertools import permutations

import pytest

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.linalg import Matrix
from nicholsforge.nichols import (
    FINITE,
    ORACLE_MAX_DEGREE,
    ORACLE_MAX_PAIRS,
    UNDETERMINED,
    _symmetrizer_matrix,
    check_oracle_work,
    dims_symmetry_warning,
    hilbert_series,
    nichols_compute,
    symmetrizer_content_ranks,
    symmetrizer_rank,
)

from tests_support import braid_lift, criterion_03_braidings, symmetrizer_matrix_reference


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


@pytest.mark.parametrize(
    "entries, degrees",
    [
        # q_ab = 1 off the diagonal, whose exponent digits the walk leaves out
        ([["zeta(3)", "1"], ["1", "-1"]], range(6)),
        # an entry of infinite order beside a root of unity
        ([["2", "zeta(4)"], ["-1", "-1"]], range(6)),
        # the mixed-conductor case of test_symmetrizer_matrix_is_sum_of_braid_lifts
        ([["zeta(3)", "zeta(4)"], ["-1", "zeta(3)^2"]], range(6)),
        # three letters, with q_ab = 1 and -1 mixed
        ([["-1", "1", "zeta(3)"], ["1", "zeta(4)", "-1"], ["zeta(3)^2", "1", "1"]], range(5)),
        # one letter: one word against all 8! permutations
        ([["zeta(7)"]], [8]),
    ],
)
def test_symmetrizer_matrix_matches_the_pair_by_pair_walk(entries, degrees):
    b = DiagonalBraiding.from_entries(entries)
    for d in degrees:
        assert _symmetrizer_matrix(b, d) == symmetrizer_matrix_reference(b, d), f"degree {d}"


def test_symmetrizer_matrix_matches_the_pair_by_pair_walk_on_criterion_03():
    for trial, b in enumerate(criterion_03_braidings()):
        for d in range(6):
            assert _symmetrizer_matrix(b, d) == symmetrizer_matrix_reference(b, d), (trial, d)


def test_symmetrizer_content_ranks_are_the_engine_content_dims():
    # the symmetrizer is block diagonal by letter content, so the oracle
    # checks every content dimension of the engine, not only their sums
    for trial, b in enumerate(criterion_03_braidings()):
        spaces = nichols_compute(b, 6).quotient.spaces
        for d in range(7):
            ranks = symmetrizer_content_ranks(b, d)
            assert {c for c in spaces if sum(c) == d} <= set(ranks), (trial, d)
            assert ranks == {c: spaces[c].dim if c in spaces else 0 for c in ranks}, (trial, d)


def test_symmetrizer_content_blocks_share_their_monomial_values(monkeypatch):
    # the content blocks of one degree share one cache of monomial values,
    # so ranking them block by block computes each value as often as one
    # walk of the whole matrix: 326 on A2 at zeta_3 in degree 6
    import nicholsforge.nichols as nichols

    calls = []
    monomial = nichols._monomial
    monkeypatch.setattr(nichols, "_monomial", lambda *args: calls.append(1) or monomial(*args))
    b = DiagonalBraiding.from_entries([["zeta(3)", "zeta(3)^2"], ["1", "zeta(3)"]])
    symmetrizer_content_ranks(b, 6)
    assert len(calls) == 326
    del calls[:]
    _symmetrizer_matrix(b, 6)
    assert len(calls) == 326


def test_symmetrizer_rank_degree_cap():
    b = DiagonalBraiding.from_entries([["-1"]])
    with pytest.raises(ValueError):
        symmetrizer_rank(b, ORACLE_MAX_DEGREE + 1)


def test_symmetrizer_rank_pair_cap():
    # two letters are admitted up to the degree cap, three letters stop at
    # degree 6 (3^7 * 7! pairs is past the cap), and the refusal does no work
    assert ORACLE_MAX_PAIRS == 2**ORACLE_MAX_DEGREE * 40320
    check_oracle_work(2, ORACLE_MAX_DEGREE)
    check_oracle_work(3, 6)
    with pytest.raises(ValueError, match="pairs"):
        check_oracle_work(3, 7)
    ext3 = DiagonalBraiding.from_entries([["-1", "1", "1"], ["1", "-1", "1"], ["1", "1", "-1"]])
    with pytest.raises(ValueError, match="pairs"):
        symmetrizer_content_ranks(ext3, 8)


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
