"""Filtrations, one-parameter degenerations, associated graded structures."""

import random
from fractions import Fraction

import pytest

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.filtration import (
    FILTRATION_CONDITIONS,
    HopfFiltration,
    _scaled_coords,
    associated_graded,
    coradical_filtration,
    degenerate_limit,
    filtration_conditions,
    lambda_exponent_report,
    primitive_dims_along_path,
    radical_filtration,
    split_basis,
)
from nicholsforge.dualize import dual_structure, graded_dual
from nicholsforge.formats import canonical_dumps, hopf_to_json
from nicholsforge.linalg import BasedSpace, Matrix, Subspace
from nicholsforge.nichols import nichols_compute
from nicholsforge.scalars import ONE, from_rational, root_of_unity
from nicholsforge.structconst import (
    DecomposedObject,
    HopfStructure,
    LabelBackend,
    act,
    conjugate,
    from_nichols,
    primitive_sectors,
    verify_axioms,
)
from tests_support import (
    coradical_chain_reference,
    degenerate_limit_reference,
    degree_filtration,
    deleted,
    doubled,
    exterior_by_charge,
    filtration_conditions_reference,
    group_algebra_z2,
    hopf_entry_sites,
    mutate_hopf,
    one_param_orbit_reference,
    split_entry_exponents_reference,
)

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
    # the orbit is walked in split coordinates; at 1 it is the split's
    # conjugate itself, and conjugating back by the basis gives t
    split = split_basis(rad)
    at_one = _scaled_coords(split, 1)
    assert at_one == split.coords
    back = conjugate(at_one, split.basis, split.inverse_basis)
    assert (back.mul, back.unit, back.cop, back.counit, back.antipode) == (
        qp_point.mul, qp_point.unit, qp_point.cop, qp_point.counit, qp_point.antipode)


def test_orbit_stays_hopf():
    # the quantum plane's orbit stands still (every exponent is 0); the
    # mixed exterior algebra graded by charge has a radical split whose
    # orbit moves, and each of its points is still a Hopf structure
    t = _fixture("exterior-by-charge")
    split = split_basis(radical_filtration(act(_mixing(t), t)))
    moved = _scaled_coords(split, Fraction(1, 3))
    assert moved != split.coords
    assert verify_axioms(moved).passed


def _dumps(t: HopfStructure) -> str:
    return canonical_dumps(hopf_to_json(t))


def test_limit_equals_associated_graded(qp_point, rad, cor):
    # byte for byte, on the quantum plane and on every chain of the direct
    # check fixtures, theirs and their conjugates', that meets the conditions
    cases = [rad, cor]
    for name in DIRECT_CHECK_CASES:
        cases += [f for f in _own_and_mixed_chains(name) if all(filtration_conditions(f).values())]
    assert len(cases) > 2 + 2 * len(DIRECT_CHECK_CASES)
    for f in cases:
        limit = degenerate_limit(f.structure, f.split)
        graded = associated_graded(f.structure, f)
        assert limit == graded
        assert _dumps(limit) == _dumps(graded), (f.kind, f.window)


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
    dims = primitive_dims_along_path(qp_point, split, [1, Fraction(1, 2), root_of_unity(3, 1)])
    assert len(dims) == 4  # three samples plus the limit
    assert dims[0] == dims[1] == dims[2]
    assert dims[-1] >= dims[0]


# -- the coradical chain as annihilators of the dual's radical powers --------


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
        t = exterior_by_charge(2)
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


# -- the seven conditions against their direct forms -------------------------


DIRECT_CHECK_CASES = ["quantum-plane", "a2-at-minus-one", "exterior-3",
                      "exterior-by-charge", "exterior-3-by-charge"]


def _fixture(name: str) -> HopfStructure:
    if name.endswith("by-charge"):
        # on three letters sectors 1 and -1 have dimensions 1 and 3
        return exterior_by_charge(3 if name.startswith("exterior-3") else 2)
    entries, cutoff = CORADICAL_CASES[name]
    return from_nichols(nichols_compute(DiagonalBraiding.from_entries(entries), cutoff))


def _sector_chains(t: HopfStructure, rng, count: int) -> list:
    """Random chains of whole sectors, each layer adding sectors to the last."""
    labels = list(t.obj.sectors)
    chains = []
    for _ in range(count):
        lo = rng.randint(-2, 1)
        hi = lo + rng.randint(0, 2)
        kept, chain = set(), {}
        for i in range(lo, hi + 1):
            kept |= {label for label in labels if rng.random() < 0.4}
            chain[i] = {label: Subspace.full(t.obj.dim(label)) for label in labels if label in kept}
        chains.append(HopfFiltration(t, "sectors", (lo, hi), chain))
    return chains


def _filtrations(t: HopfStructure, rng) -> list:
    out = [radical_filtration(t), coradical_filtration(t)]
    if t.grading is not None:
        out.append(degree_filtration(t))
    return out + _sector_chains(t, rng, 4)


def _own_and_mixed_chains(name: str) -> list:
    t = _fixture(name)
    rng = random.Random(name)
    return [f for s in (t, act(_mixing(t), t)) for f in _filtrations(s, rng)]


@pytest.mark.parametrize("name", DIRECT_CHECK_CASES)
def test_conditions_on_the_dual_match_the_direct_checks(name):
    rng = random.Random(name)
    t = _fixture(name)
    own = _filtrations(t, rng)
    cases = own + _filtrations(act(_mixing(t), t), rng)
    # the radical, coradical and degree chains of t and one chain of sectors,
    # on about twenty doubled and twenty deleted entries of t
    sites = hopf_entry_sites(t)
    for edit in (doubled, deleted):
        for site in sites[:: max(1, len(sites) // 20)]:
            mutant = mutate_hopf(t, site, edit)
            cases += [HopfFiltration(mutant, f.kind, f.window, f.chain) for f in own[:4]]
    verdicts = []
    for f in cases:
        conditions = filtration_conditions(f)
        assert conditions == filtration_conditions_reference(f)
        verdicts.append(conditions)
    for key in ("comultiplicative", "counit-vanishing"):
        assert {v[key] for v in verdicts} == {True, False}


# -- the completed split and the exponent verdicts ---------------------------


@pytest.mark.parametrize("name", DIRECT_CHECK_CASES)
def test_completed_split_spans_every_layer(name):
    rng = random.Random(name)
    t = _fixture(name)
    chains = [f for s in (t, act(_mixing(t), t)) for f in _filtrations(s, rng)]
    assert any(not filtration_conditions(f)["exhausts"] for f in chains)
    for f in chains:
        split = split_basis(f)
        lo, hi = f.window
        completed = False
        for label, tags in split.indices.items():
            basis = split.basis[label]
            dim = f.structure.obj.dim(label)
            for i in range(lo, hi + 1):
                span = basis.select_columns([c for c, tag in enumerate(tags) if tag <= i])
                layer = f.at(i).get(label, Subspace.zero(dim))
                assert Subspace.from_columns(span) == layer, (f.kind, f.window, label, i)
            for c, tag in enumerate(tags):
                assert lo <= tag <= hi + 1
                if tag == hi + 1:
                    completed = True
                    assert list(basis.select_columns([c]).entries.values()) == [ONE]
        assert completed is not filtration_conditions(f)["exhausts"]


def _limit_or_error(limit, t, split) -> str:
    try:
        return _dumps(limit(t, split))
    except ValueError as err:
        return f"ValueError: {err}"


@pytest.mark.parametrize("name", DIRECT_CHECK_CASES)
def test_split_coordinates_match_the_act_references(name):
    # the exponent pass and the limit read the split's one conjugate and its
    # inverse; the references conjugate through act, which inverts every
    # block by elimination
    limits = 0
    for f in _own_and_mixed_chains(name):
        s, split = f.structure, f.split
        report = lambda_exponent_report(s, split)
        reference = split_entry_exponents_reference(s, split)
        assert [(e["family"], e["key"], e["row"], e["col"], e["exponent"])
                for e in report["entries"]] == [(*entry[:4], entry[5]) for entry in reference]
        # byte for byte where the chain meets the conditions, and the same
        # error where a negative exponent refuses the limit
        limit = _limit_or_error(degenerate_limit, s, split)
        assert limit == _limit_or_error(degenerate_limit_reference, s, split), (f.kind, f.window)
        assert limit.startswith("ValueError") is bool(report["violations"])
        limits += all(filtration_conditions(f).values())
    assert limits >= 2


@pytest.mark.parametrize("name", DIRECT_CHECK_CASES)
def test_primitive_dims_along_path_match_the_orbit_reference(name):
    # the walk takes each sample's primitive dimensions from the split
    # coordinates scaled entry by entry; the reference conjugates t through
    # act and takes them there.  Conjugation keeps them, so the scaled
    # coordinates are also compared with the orbit point itself.  A chain with a negative exponent has no
    # limit, so there the caller's limit, t itself, closes the walk.
    samples = [1, Fraction(1, 2), -3, root_of_unity(3, 1)]

    def total(s):
        return sum(sub.dim for sub in primitive_sectors(s).values())

    def constants(s):
        return s.mul, s.unit, s.cop, s.counit, s.antipode

    walks = set()
    for f in _own_and_mixed_chains(name):
        s, split = f.structure, f.split
        orbit = [one_param_orbit_reference(s, split, lam) for lam in samples]
        # the scaled coordinates are the orbit point conjugated by the basis
        # (the grading aside, which conjugate keeps only where P preserves it)
        for lam, point in zip(samples, orbit):
            back = conjugate(_scaled_coords(split, lam), split.basis, split.inverse_basis)
            assert constants(back) == constants(point), (f.kind, f.window, lam)
        expected = [total(point) for point in orbit]
        if lambda_exponent_report(s, split)["violations"]:
            assert primitive_dims_along_path(s, split, samples, s) == expected + [total(s)]
        else:
            limit = degenerate_limit_reference(s, split)
            assert primitive_dims_along_path(s, split, samples) == expected + [total(limit)]
            walks.add(tuple(expected) + (total(limit),))
    assert walks


def test_exponent_verdicts_match_the_reference_on_every_mutant():
    # every doubled and every deleted entry of each structure, under its
    # radical and coradical filtrations and two chains of whole sectors
    verdicts = []
    for name in ("quantum-plane", "exterior-by-charge", "a2-at-minus-one"):
        t = _fixture(name)
        own = [radical_filtration(t), coradical_filtration(t)]
        own += _sector_chains(t, random.Random(name), 2)
        for edit in (doubled, deleted):
            for site in hopf_entry_sites(t):
                mutant = mutate_hopf(t, site, edit)
                for f in own:
                    g = HopfFiltration(mutant, f.kind, f.window, f.chain)
                    conditions = filtration_conditions(g)
                    assert conditions == filtration_conditions_reference(g), (name, site, edit)
                    verdicts.append(conditions)
    assert len(verdicts) > 900
    for key in ("multiplicative", "comultiplicative"):
        assert {v[key] for v in verdicts} == {True, False}
