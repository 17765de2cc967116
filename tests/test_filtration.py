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
from nicholsforge.dualize import dual_structure, graded_dual
from nicholsforge.linalg import BasedSpace, Matrix, Subspace
from nicholsforge.nichols import nichols_compute
from nicholsforge.scalars import ONE, from_rational
from nicholsforge.structconst import (
    DecomposedObject,
    HopfStructure,
    LabelBackend,
    act,
    from_nichols,
    verify_axioms,
)
from tests_support import coradical_chain_reference, group_algebra_z2

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


def _connected_not_coconnected():
    # basis (1, x) in one sector: x^2 = 0, so the counit kernel is nilpotent,
    # but cop(x) = x (x) 1 + 1 (x) x + x (x) x makes x* idempotent in the dual
    backend = LabelBackend(DiagonalBraiding.from_entries([["1"]]))
    obj = DecomposedObject(backend, {(0,): BasedSpace(2, ("1", "x"))})
    return HopfStructure(
        obj,
        {((0,), (0,)): Matrix(2, 4, {(0, 0): ONE, (1, 1): ONE, (1, 2): ONE})},
        Matrix(2, 1, {(0, 0): ONE}),
        {((0,), (0,)): Matrix(4, 2, {(0, 0): ONE, (1, 1): ONE, (2, 1): ONE, (3, 1): ONE})},
        Matrix(1, 2, {(0, 0): ONE}),
        {(0,): Matrix.identity(2)},
    )


def test_filtrations_reject_disconnected_structures():
    kz2 = group_algebra_z2()
    with pytest.raises(ValueError):
        radical_filtration(kz2)
    with pytest.raises(ValueError):
        coradical_filtration(kz2)


def test_filtrations_reject_structures_connected_on_one_side_only():
    t = _connected_not_coconnected()
    for s in (t, dual_structure(t)):
        for construct in (radical_filtration, coradical_filtration):
            with pytest.raises(ValueError, match="needs a connected and coconnected structure"):
                construct(s)


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


# -- the coradical chain as annihilators of the dual's radical powers --------


def _regrouped(t: HopfStructure, backend: LabelBackend, relabel) -> HopfStructure:
    """The same structure over coarser sectors: each new sector is the direct
    sum, in the old order, of the old sectors that relabel sends to it."""
    obj = t.obj
    offsets, dims, parts = {}, {}, {}
    for label, space in obj.sectors.items():
        new = relabel(label)
        offsets[label] = dims.get(new, 0)
        dims[new] = offsets[label] + space.dim
        parts.setdefault(new, []).extend(space.labels)
    sectors = {new: BasedSpace(dims[new], tuple(names)) for new, names in parts.items()}
    mul, cop = {}, {}
    for family, blocks in ((mul, t.mul), (cop, t.cop)):
        for (i, j), block in blocks.items():
            # pair index (a, b) of the old factors -> pair index of the new ones
            s_label, dj, DJ = obj.backend.add(i, j), obj.dim(j), dims[relabel(j)]
            entries = family.setdefault((relabel(i), relabel(j)), {})
            for (r, c), v in block.entries.items():
                a, b = divmod(c if family is mul else r, dj)
                pair = (offsets[i] + a) * DJ + offsets[j] + b
                if family is mul:
                    entries[(offsets[s_label] + r, pair)] = v
                else:
                    entries[(pair, offsets[s_label] + c)] = v
    antipode = {}
    for label, block in t.antipode.items():
        entries = antipode.setdefault(relabel(label), {})
        o = offsets[label]
        for (r, c), v in block.entries.items():
            entries[(o + r, o + c)] = v
    zero = obj.backend.zero
    Z, oz = relabel(zero), offsets[zero]
    grading = {}
    for label in obj.sectors:
        grading.setdefault(relabel(label), []).extend(t.grading[label])
    return HopfStructure(
        DecomposedObject(backend, sectors),
        {(I, J): Matrix(dims[backend.add(I, J)], dims[I] * dims[J], e) for (I, J), e in mul.items()},
        Matrix(dims[Z], 1, {(oz + r, 0): v for (r, _), v in t.unit.entries.items()}),
        {(I, J): Matrix(dims[I] * dims[J], dims[backend.add(I, J)], e) for (I, J), e in cop.items()},
        Matrix(1, dims[Z], {(0, oz + c): v for (_, c), v in t.counit.entries.items()}),
        {L: Matrix(dims[L], dims[L], e) for L, e in antipode.items()},
        grading,
    )


def _exterior_by_charge():
    # the exterior algebra on x, y, graded by the charge a - b of x^a y^b:
    # sector 0 holds 1 and xy, so layers cut through a sector
    t = from_nichols(nichols_compute(DiagonalBraiding.from_entries([["-1", "-1"], ["-1", "-1"]]), 3))
    backend = LabelBackend(DiagonalBraiding.from_entries([["-1"]]))
    return _regrouped(t, backend, lambda c: (c[0] - c[1],))


CORADICAL_CASES = {
    "quantum-plane": ([["-1", "1"], ["1", "-1"]], 6),
    "a2-at-minus-one": ([["-1", "-1"], ["1", "-1"]], 6),
    "exterior-3": ([["-1", "-1", "-1"], ["-1", "-1", "-1"], ["-1", "-1", "-1"]], 4),
    "z3-tensor-z3": ([["zeta(3)", "1"], ["1", "zeta(3)"]], 5),
    "line-zeta7": ([["zeta(7)"]], 7),
}


def _mixing(t: HopfStructure) -> dict:
    # lower triangular with diagonal 1, 2, 3, ...: sends every basis vector
    # of a sector into the span of the ones after it, the unit included
    return {
        label: Matrix(space.dim, space.dim, {
            (r, c): from_rational(r + 1 if r == c else 1)
            for r in range(space.dim) for c in range(r + 1)
        })
        for label, space in t.obj.sectors.items()
    }


@pytest.mark.parametrize("name", sorted(CORADICAL_CASES) + ["exterior-by-charge"])
def test_coradical_chain_matches_the_wedge_recursion(name):
    if name == "exterior-by-charge":
        t = _exterior_by_charge()
    else:
        entries, cutoff = CORADICAL_CASES[name]
        t = from_nichols(nichols_compute(DiagonalBraiding.from_entries(entries), cutoff))
    assert verify_axioms(t).passed
    conjugate = act(_mixing(t), t)
    for s in (t, dual_structure(t), graded_dual(t), conjugate, dual_structure(conjugate)):
        f = coradical_filtration(s)
        window, chain = coradical_chain_reference(s)
        assert f.window == window
        assert f.chain == chain
        assert coradical_filtration(s, dual_structure(s)).chain == chain
