"""Dual structures and the three Nichols-detection criteria."""

import pytest

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.dualize import (
    dual_structure,
    generation_check,
    graded_dual,
    gragrc_check,
    pairing_report,
    primitives_of,
)
from nicholsforge.nichols import nichols_compute
from nicholsforge.structconst import (
    HopfStructure,
    from_nichols,
    grading_respected,
    verify_axioms,
)

QP = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])


@pytest.fixture(scope="module")
def qp_point():
    return from_nichols(nichols_compute(QP, 6))


@pytest.fixture(scope="module")
def line_point():
    return from_nichols(nichols_compute(DiagonalBraiding.from_entries([["zeta(3)"]]), 5))


def test_dual_passes_axioms(qp_point):
    assert verify_axioms(dual_structure(qp_point)).passed


def test_double_dual_is_identity(qp_point):
    t = qp_point
    ungraded = HopfStructure(t.obj, t.mul, t.unit, t.cop, t.counit, t.antipode, None)
    assert dual_structure(dual_structure(t)) == ungraded


def test_dual_negates_sector_labels(qp_point):
    d = dual_structure(qp_point)
    neg = qp_point.obj.backend.neg
    assert sorted(d.obj.sectors) == sorted(neg(l) for l in qp_point.obj.sectors)


def test_graded_dual_keeps_grading_and_axioms(qp_point):
    gd = graded_dual(qp_point)
    assert gd.grading is not None
    assert grading_respected(gd)
    assert verify_axioms(gd).passed
    assert sorted(gd.obj.sectors) == sorted(qp_point.obj.sectors)


def test_graded_dual_starred_labels_are_cosmetic(qp_point):
    gd = graded_dual(qp_point)
    # basis label strings pick up a star, dims per sector stay put
    gd_labels = [lbl for s in gd.obj.sectors.values() for lbl in s.labels]
    assert all("*" in lbl for lbl in gd_labels if lbl != "1*")

    def dims(t):
        return {l: s.dim for l, s in t.obj.sectors.items()}

    assert dims(gd) == dims(qp_point)


def test_graded_dual_requires_grading(qp_point):
    t = qp_point
    ungraded = HopfStructure(t.obj, t.mul, t.unit, t.cop, t.counit, t.antipode, None)
    with pytest.raises(ValueError):
        graded_dual(ungraded)


def test_primitive_space_dimension(qp_point):
    assert primitives_of(qp_point).dim == 2


def test_pairing_nondegenerate_on_nichols_point(qp_point):
    rep = pairing_report(qp_point)
    assert rep.verdict == "nichols"
    assert rep.dim_primitives == rep.dim_dual_primitives == rep.rank == 2


def test_generation_on_nichols_point(line_point):
    rep = generation_check(line_point)
    assert rep.verdict == "nichols"
    assert rep.generated_by_primitives and rep.dual_generated_by_primitives


def test_gragrc_on_nichols_point(line_point):
    rep = gragrc_check(line_point)
    assert rep.verdict == "nichols-by-gragrc"
    assert rep.witness is not None


def test_criteria_agree_on_quantum_plane(qp_point):
    assert pairing_report(qp_point).verdict == "nichols"
    assert generation_check(qp_point).verdict == "nichols"
    assert gragrc_check(qp_point).verdict == "nichols-by-gragrc"


def test_criteria_reject_disconnected_input():
    from tests_support import group_algebra_z2

    kz2 = group_algebra_z2()
    for checker in (pairing_report, generation_check, gragrc_check):
        with pytest.raises(ValueError):
            checker(kz2)
