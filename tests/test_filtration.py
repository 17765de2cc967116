"""Filtrations, one-parameter degenerations, associated graded structures."""

from fractions import Fraction

import pytest

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.filtration import (
    FILTRATION_CONDITIONS,
    HopfFiltration,
    associated_graded,
    coradical_filtration,
    degenerate_limit,
    degree_filtration,
    filtration_conditions,
    lambda_exponent_report,
    one_param_orbit,
    primitive_dims_along_path,
    radical_filtration,
    split_basis,
)
from nicholsforge.linalg import Subspace
from nicholsforge.nichols import nichols_compute
from nicholsforge.structconst import from_nichols, verify_axioms
from tests_support import group_algebra_z2

QP = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])


@pytest.fixture(scope="module")
def qp_point():
    return from_nichols(nichols_compute(QP, 6))


@pytest.fixture(scope="module")
def rad(qp_point):
    return radical_filtration(qp_point)


@pytest.fixture(scope="module")
def cor(qp_point):
    return coradical_filtration(qp_point)


def test_radical_window_descends(rad):
    lo, hi = rad.window
    assert hi == 0 and lo < 0
    assert rad.kind == "radical"


def test_coradical_window_ascends(cor):
    lo, hi = cor.window
    assert lo == 0 and hi > 0
    assert cor.kind == "coradical"


def test_radical_layers_shrink_to_zero(rad, qp_point):
    dims = rad.layer_dims()
    lo, _ = rad.window
    # J^k eventually dies; the top layer is everything
    total = lambda d: sum(d.values())
    assert total(dims[0]) == qp_point.obj.total_dim()
    assert total(dims[lo]) < total(dims[0])


def test_all_seven_conditions_hold(rad, cor):
    for f in (rad, cor):
        conditions = filtration_conditions(f)
        assert tuple(conditions) == FILTRATION_CONDITIONS
        assert all(conditions.values()), conditions


def test_multiplicative_fails_at_the_top_index(qp_point):
    # x2 sits in F_0 and x1 in F_1, but their product in sector (1, 1) lies
    # outside F_1, the top of the window
    full = {label: Subspace.full(space.dim) for label, space in qp_point.obj.sectors.items()}
    f0 = {label: full[label] for label in [(0, 0), (0, 1)]}
    f1 = {label: full[label] for label in [(0, 0), (0, 1), (1, 0)]}
    f = HopfFiltration(qp_point, "test", (0, 1), {0: f0, 1: f1})
    assert filtration_conditions(f)["multiplicative"] is False


def test_filtrations_reject_disconnected_structures():
    kz2 = group_algebra_z2()
    with pytest.raises(ValueError):
        radical_filtration(kz2)
    with pytest.raises(ValueError):
        coradical_filtration(kz2)


def test_orbit_at_one_is_identity(qp_point, rad):
    split = split_basis(rad)
    assert one_param_orbit(qp_point, split, 1) == qp_point


def test_orbit_stays_hopf(qp_point, rad):
    split = split_basis(rad)
    moved = one_param_orbit(qp_point, split, Fraction(1, 3))
    assert verify_axioms(moved).passed


def test_limit_equals_associated_graded(qp_point, rad, cor):
    for f in (rad, cor):
        split = split_basis(f)
        assert degenerate_limit(qp_point, split) == associated_graded(qp_point, f)


def test_associated_graded_passes_axioms(qp_point, rad, cor):
    for f in (rad, cor):
        gr = associated_graded(qp_point, f)
        assert verify_axioms(gr).passed
        assert gr.grading is not None


def test_degree_filtration_is_idempotent(qp_point):
    f = degree_filtration(qp_point)
    assert associated_graded(qp_point, f) == qp_point


def test_no_negative_lambda_exponents(qp_point, rad, cor):
    for f in (rad, cor):
        report = lambda_exponent_report(qp_point, split_basis(f))
        assert report["violations"] == []
        assert report["entries"]


def test_primitive_dims_constant_along_path(qp_point, rad):
    split = split_basis(rad)
    from nicholsforge.scalars import root_of_unity

    dims = primitive_dims_along_path(qp_point, split, [1, Fraction(1, 2), root_of_unity(3, 1)])
    assert len(dims) == 4  # three samples plus the limit
    assert dims[0] == dims[1] == dims[2]
    assert dims[-1] >= dims[0]
