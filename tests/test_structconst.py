"""Structure-constant presentations: axioms, automorphisms, isomorphism
search, connectedness."""

import ast
from collections import Counter

import pytest

from nicholsforge import _kernel, structconst
from nicholsforge.braided import DiagonalBraiding
from nicholsforge.linalg import BasedSpace, Matrix, Subspace
from nicholsforge.nichols import nichols_compute
from nicholsforge.scalars import ONE, root_of_unity, scalar_to_json
from nicholsforge.structconst import (
    AXIOM_KEYS,
    DecomposedObject,
    HopfStructure,
    act,
    augmentation_powers,
    check_coconnected,
    check_connected,
    degree_layer,
    degree_one_generated,
    from_nichols,
    generated_by,
    generating_seeds,
    graded_iso_search,
    layer_dims,
    primitive_sectors,
    product_span,
    structurally_equal,
    unit_span,
    verify_axioms,
)

from tests_support import (
    compose_automorphisms,
    deleted,
    doubled,
    exterior_by_charge,
    grading_respected,
    group_algebra_z2,
    hopf_entry_sites,
    mutate_hopf,
    product_span_reference,
    verify_axioms_reference,
)

QP = DiagonalBraiding.from_entries([["-1", "1"], ["1", "-1"]])
A2_MINUS_ONE = DiagonalBraiding.from_entries([["-1", "-1"], ["1", "-1"]])

# Every mul or cop block entry of A2 at -1 (cutoff 5) doubled on its own:
# the site, first_failure(), and the bialgebra failure.  The first failure is
# the assoc failure of a mul mutant and the coassoc failure of a cop mutant.
# Doubling entry (0, 0) of cop ((0, 1), (1, 0)) first fails at the triple
# ((0, 1), (0, 1), (1, 0)), whose i + j = (0, 2) is not a sector.
DOUBLED_ENTRY_FAILURES = """\
mul ((0, 0), (0, 0)) (0, 0): assoc at ((0, 0), (0, 0), (0, 1)) | cop o mul at ((0, 0), (0, 0)) -> ((0, 0), (0, 0))
mul ((0, 0), (0, 1)) (0, 0): assoc at ((0, 0), (0, 0), (0, 1)) | cop o mul at ((0, 0), (1, 1)) -> ((0, 1), (1, 0))
mul ((0, 0), (1, 0)) (0, 0): assoc at ((0, 0), (0, 0), (1, 0)) | cop o mul at ((0, 0), (1, 1)) -> ((0, 1), (1, 0))
mul ((0, 0), (1, 1)) (0, 0): assoc at ((0, 0), (0, 0), (1, 1)) | cop o mul at ((0, 0), (1, 1)) -> ((0, 1), (1, 0))
mul ((0, 0), (1, 1)) (1, 1): assoc at ((0, 0), (0, 0), (1, 1)) | cop o mul at ((0, 0), (1, 1)) -> ((0, 1), (1, 0))
mul ((0, 0), (1, 2)) (0, 0): assoc at ((0, 0), (0, 0), (1, 2)) | cop o mul at ((0, 0), (1, 2)) -> ((0, 1), (1, 1))
mul ((0, 0), (2, 1)) (0, 0): assoc at ((0, 0), (0, 0), (2, 1)) | cop o mul at ((0, 0), (2, 1)) -> ((1, 0), (1, 1))
mul ((0, 0), (2, 2)) (0, 0): assoc at ((0, 0), (0, 0), (2, 2)) | cop o mul at ((0, 0), (2, 2)) -> ((0, 1), (2, 1))
mul ((0, 1), (0, 0)) (0, 0): assoc at ((0, 1), (0, 0), (0, 0)) | cop o mul at ((0, 1), (1, 0)) -> ((0, 1), (1, 0))
mul ((0, 1), (1, 0)) (1, 0): assoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((0, 1), (1, 0)) -> ((0, 1), (1, 0))
mul ((0, 1), (1, 1)) (0, 0): assoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((0, 1), (1, 1)) -> ((0, 1), (1, 1))
mul ((0, 1), (2, 1)) (0, 0): assoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((0, 1), (2, 1))
mul ((1, 0), (0, 0)) (0, 0): assoc at ((0, 1), (1, 0), (0, 0)) | cop o mul at ((1, 0), (0, 1)) -> ((0, 1), (1, 0))
mul ((1, 0), (0, 1)) (0, 0): assoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((1, 0), (0, 1)) -> ((0, 1), (1, 0))
mul ((1, 0), (1, 1)) (0, 1): assoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((1, 0), (1, 1)) -> ((1, 0), (1, 1))
mul ((1, 0), (1, 2)) (0, 0): assoc at ((1, 0), (0, 1), (1, 1)) | cop o mul at ((1, 0), (1, 2)) -> ((0, 1), (2, 1))
mul ((1, 1), (0, 0)) (0, 0): assoc at ((0, 1), (1, 1), (0, 0)) | cop o mul at ((1, 1), (0, 0)) -> ((0, 1), (1, 0))
mul ((1, 1), (0, 0)) (1, 1): assoc at ((0, 1), (1, 0), (0, 0)) | cop o mul at ((1, 1), (0, 0)) -> ((0, 1), (1, 0))
mul ((1, 1), (0, 1)) (0, 1): assoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((1, 1), (0, 1)) -> ((0, 1), (1, 1))
mul ((1, 1), (1, 0)) (0, 0): assoc at ((0, 1), (1, 1), (1, 0)) | cop o mul at ((1, 1), (1, 0)) -> ((1, 0), (1, 1))
mul ((1, 1), (1, 1)) (0, 0): assoc at ((1, 0), (0, 1), (1, 1)) | cop o mul at ((1, 1), (1, 1)) -> ((0, 1), (2, 1))
mul ((1, 1), (1, 1)) (0, 3): assoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((1, 1), (1, 1)) -> ((0, 1), (2, 1))
mul ((1, 2), (0, 0)) (0, 0): assoc at ((0, 1), (1, 1), (0, 0)) | cop o mul at ((1, 2), (0, 0)) -> ((0, 1), (1, 1))
mul ((1, 2), (1, 0)) (0, 0): assoc at ((0, 1), (1, 1), (1, 0)) | cop o mul at ((1, 2), (1, 0)) -> ((0, 1), (2, 1))
mul ((2, 1), (0, 0)) (0, 0): assoc at ((0, 1), (2, 1), (0, 0)) | cop o mul at ((2, 1), (0, 0)) -> ((1, 0), (1, 1))
mul ((2, 1), (0, 1)) (0, 0): assoc at ((1, 0), (1, 1), (0, 1)) | cop o mul at ((2, 1), (0, 1)) -> ((0, 1), (2, 1))
mul ((2, 2), (0, 0)) (0, 0): assoc at ((0, 1), (2, 1), (0, 0)) | cop o mul at ((2, 2), (0, 0)) -> ((0, 1), (2, 1))
cop ((0, 0), (0, 0)) (0, 0): coassoc at ((0, 0), (0, 0), (0, 1)) | cop o mul at ((0, 0), (0, 0)) -> ((0, 0), (0, 0))
cop ((0, 0), (0, 1)) (0, 0): coassoc at ((0, 0), (0, 0), (0, 1)) | cop o mul at ((0, 1), (1, 0)) -> ((0, 0), (1, 1))
cop ((0, 0), (1, 0)) (0, 0): coassoc at ((0, 0), (0, 0), (1, 0)) | cop o mul at ((0, 1), (1, 0)) -> ((0, 0), (1, 1))
cop ((0, 0), (1, 1)) (0, 0): coassoc at ((0, 0), (0, 0), (1, 1)) | cop o mul at ((0, 1), (1, 1)) -> ((0, 0), (1, 2))
cop ((0, 0), (1, 1)) (1, 1): coassoc at ((0, 0), (0, 0), (1, 1)) | cop o mul at ((0, 1), (1, 0)) -> ((0, 0), (1, 1))
cop ((0, 0), (1, 2)) (0, 0): coassoc at ((0, 0), (0, 0), (1, 2)) | cop o mul at ((0, 1), (1, 1)) -> ((0, 0), (1, 2))
cop ((0, 0), (2, 1)) (0, 0): coassoc at ((0, 0), (0, 0), (2, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((0, 0), (2, 2))
cop ((0, 0), (2, 2)) (0, 0): coassoc at ((0, 0), (0, 0), (2, 2)) | cop o mul at ((0, 1), (2, 1)) -> ((0, 0), (2, 2))
cop ((0, 1), (0, 0)) (0, 0): coassoc at ((0, 1), (0, 0), (0, 0)) | cop o mul at ((0, 1), (1, 0)) -> ((0, 1), (1, 0))
cop ((0, 1), (1, 0)) (0, 0): coassoc at ((0, 1), (0, 1), (1, 0)) | cop o mul at ((0, 1), (1, 1)) -> ((0, 1), (1, 1))
cop ((0, 1), (1, 0)) (0, 1): coassoc at ((0, 1), (0, 1), (1, 0)) | cop o mul at ((0, 1), (1, 0)) -> ((0, 1), (1, 0))
cop ((0, 1), (1, 1)) (0, 0): coassoc at ((0, 1), (0, 1), (1, 0)) | cop o mul at ((0, 1), (1, 1)) -> ((0, 1), (1, 1))
cop ((0, 1), (1, 1)) (1, 0): coassoc at ((0, 1), (0, 1), (1, 0)) | cop o mul at ((0, 1), (1, 1)) -> ((0, 1), (1, 1))
cop ((0, 1), (2, 1)) (0, 0): coassoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((0, 1), (2, 1))
cop ((1, 0), (0, 0)) (0, 0): coassoc at ((0, 1), (1, 0), (0, 0)) | cop o mul at ((0, 1), (1, 0)) -> ((1, 0), (0, 1))
cop ((1, 0), (0, 1)) (0, 0): coassoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((0, 1), (1, 1)) -> ((1, 1), (0, 1))
cop ((1, 0), (0, 1)) (0, 1): coassoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((0, 1), (1, 0)) -> ((1, 0), (0, 1))
cop ((1, 0), (1, 1)) (0, 0): coassoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 0), (1, 2))
cop ((1, 0), (1, 1)) (1, 0): coassoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 1), (1, 1))
cop ((1, 0), (1, 2)) (0, 0): coassoc at ((1, 0), (0, 1), (1, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 0), (1, 2))
cop ((1, 1), (0, 0)) (0, 0): coassoc at ((0, 1), (1, 0), (0, 0)) | cop o mul at ((0, 1), (1, 1)) -> ((1, 1), (0, 1))
cop ((1, 1), (0, 0)) (1, 1): coassoc at ((0, 1), (1, 0), (0, 0)) | cop o mul at ((0, 1), (1, 0)) -> ((1, 1), (0, 0))
cop ((1, 1), (0, 1)) (0, 0): coassoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((0, 1), (1, 1)) -> ((1, 1), (0, 1))
cop ((1, 1), (0, 1)) (1, 0): coassoc at ((0, 1), (1, 0), (0, 1)) | cop o mul at ((0, 1), (1, 1)) -> ((1, 1), (0, 1))
cop ((1, 1), (1, 0)) (0, 0): coassoc at ((0, 1), (1, 0), (1, 0)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 1), (1, 1))
cop ((1, 1), (1, 0)) (1, 0): coassoc at ((0, 1), (1, 0), (1, 0)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 1), (1, 1))
cop ((1, 1), (1, 1)) (1, 0): coassoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 1), (1, 1))
cop ((1, 1), (1, 1)) (2, 0): coassoc at ((0, 1), (1, 0), (1, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 1), (1, 1))
cop ((1, 2), (0, 0)) (0, 0): coassoc at ((0, 1), (1, 1), (0, 0)) | cop o mul at ((0, 1), (1, 1)) -> ((1, 2), (0, 0))
cop ((1, 2), (1, 0)) (0, 0): coassoc at ((0, 1), (1, 1), (1, 0)) | cop o mul at ((0, 1), (2, 1)) -> ((1, 2), (1, 0))
cop ((2, 1), (0, 0)) (0, 0): coassoc at ((0, 1), (2, 1), (0, 0)) | cop o mul at ((0, 1), (2, 1)) -> ((2, 1), (0, 1))
cop ((2, 1), (0, 1)) (0, 0): coassoc at ((1, 0), (1, 1), (0, 1)) | cop o mul at ((0, 1), (2, 1)) -> ((2, 1), (0, 1))
cop ((2, 2), (0, 0)) (0, 0): coassoc at ((0, 1), (2, 1), (0, 0)) | cop o mul at ((0, 1), (2, 1)) -> ((2, 2), (0, 0))
"""


@pytest.fixture(scope="module")
def qp_point():
    return from_nichols(nichols_compute(QP, 6))


def test_from_nichols_rejects_undetermined():
    free = nichols_compute(DiagonalBraiding.from_entries([["1"]]), 3)
    with pytest.raises(ValueError):
        from_nichols(free)


def test_quantum_plane_point_shape(qp_point):
    t = qp_point
    assert t.obj.total_dim() == 4
    assert sorted(t.obj.sectors) == [(0, 0), (1, 0), (1, 1), (0, 1)] or len(t.obj.sectors) == 4
    assert t.grading is not None
    assert grading_respected(t)


def test_quantum_plane_passes_all_axioms(qp_point):
    report = verify_axioms(qp_point)
    assert report.passed
    assert list(report.results) == list(AXIOM_KEYS)


def test_axioms_catch_broken_associativity(qp_point):
    t = qp_point
    key, block = next(iter(t.mul.items()))
    broken_mul = dict(t.mul)
    broken_mul[key] = block.scale(root_of_unity(3, 1))
    broken = HopfStructure(t.obj, broken_mul, t.unit, t.cop, t.counit, t.antipode, t.grading)
    report = verify_axioms(broken)
    assert not report.passed
    assert report.first_failure() is not None


def test_malformed_blocks_short_circuit(qp_point):
    t = qp_point
    bad = dict(t.mul)
    (i, j) = next(iter(bad))
    bad[(i, j)] = Matrix.identity(17)  # shape cannot match
    broken = HopfStructure(t.obj, bad, t.unit, t.cop, t.counit, t.antipode, t.grading)
    report = verify_axioms(broken)
    assert report.results["well-formed"] is False
    assert report.results["assoc"] is None


def test_connectedness(qp_point):
    assert check_connected(qp_point)
    assert check_coconnected(qp_point)
    kz2 = group_algebra_z2()
    assert verify_axioms(kz2).passed
    assert not check_connected(kz2)


def test_degree_one_generates(qp_point):
    assert degree_one_generated(qp_point)
    assert not generated_by(qp_point, {})  # unit alone is not enough


def test_primitive_sectors(qp_point):
    prims = primitive_sectors(qp_point)
    # the two generators are exactly the primitives of a Nichols algebra point
    assert sum(sub.dim for sub in prims.values()) == 2


def test_act_round_trip_and_axioms(qp_point):
    t = qp_point
    z = root_of_unity(4, 1)
    label = next(l for l in t.obj.sectors if sum(abs(x) for x in l) == 1)
    gamma = {label: Matrix(1, 1, {(0, 0): z})}
    moved = act(gamma, t)
    assert verify_axioms(moved).passed
    inv = {label: Matrix(1, 1, {(0, 0): z.inverse()})}
    assert act(inv, moved) == t
    assert compose_automorphisms(t, inv, gamma)[label] == Matrix.identity(1)


def test_iso_search_finds_conjugating_map(qp_point):
    t = qp_point
    label = next(l for l in t.obj.sectors if sum(abs(x) for x in l) == 1)
    gamma = {label: Matrix(1, 1, {(0, 0): root_of_unity(5, 2)})}
    moved = act(gamma, t)
    found = graded_iso_search(t, moved)
    assert found is not None
    assert structurally_equal(act(found, t), moved)


def test_iso_search_identity(qp_point):
    assert graded_iso_search(qp_point, qp_point) is not None


def test_iso_search_rejects_different_shapes(qp_point):
    other = from_nichols(nichols_compute(DiagonalBraiding.from_entries([["-1"]]), 4))
    assert graded_iso_search(qp_point, other) is None


def test_structurally_equal_ignores_basis_label_strings(qp_point):
    t = qp_point
    renamed_sectors = {
        label: BasedSpace(space.dim, tuple(f"v{k}" for k in range(space.dim)))
        for label, space in t.obj.sectors.items()
    }
    renamed = HopfStructure(
        DecomposedObject(t.obj.backend, renamed_sectors),
        t.mul, t.unit, t.cop, t.counit, t.antipode, t.grading,
    )
    assert renamed != t  # strict equality sees the labels
    assert structurally_equal(renamed, t)  # structural equality does not


def test_braid_flip_scales_by_qform(qp_point):
    t = qp_point
    labels = [l for l in t.obj.sectors if sum(abs(x) for x in l) == 1]
    i, j = labels[0], labels[1]
    flip = t.braid_flip(i, i)
    assert flip.get(0, 0) == -ONE  # q_ii = -1
    assert t.braid_flip(i, j).get(0, 0) == ONE


def test_splits_index_pairs_sectors_by_sum(qp_point):
    obj = qp_point.obj
    assert list(obj.sectors) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert obj.splits((1, 1)) == (
        ((0, 0), (1, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 0)),
    )
    assert obj.splits((0, 0)) == (((0, 0), (0, 0)),)
    assert obj.splits((2, 0)) == (((1, 0), (1, 0)),)  # a sum that is no sector
    assert obj.splits((3, 3)) == ()


def test_doubled_entries_fail_at_pinned_sites():
    t = from_nichols(nichols_compute(A2_MINUS_ONE, 5))
    lines = []
    for family, own, other in (("mul", "assoc", "coassoc"), ("cop", "coassoc", "assoc")):
        blocks = getattr(t, family)
        for key in sorted(blocks):
            for pos in sorted(blocks[key].entries):
                maps = {"mul": dict(t.mul), "cop": dict(t.cop)}
                maps[family][key] = doubled(blocks[key], pos)
                mutant = HopfStructure(t.obj, maps["mul"], t.unit, maps["cop"], t.counit,
                                       t.antipode, t.grading)
                report = verify_axioms(mutant)
                first = report.first_failure()
                assert report.failures[own] == first and other not in report.failures
                lines.append(f"{family} {key} {pos}: {first} | {report.failures['bialgebra']}")
    assert "\n".join(lines) + "\n" == DOUBLED_ENTRY_FAILURES


# The package checks the coalgebra axioms on the dual; the reference checks
# them on the structure itself.  Their reports must be equal, verdict and
# first failure alike, on every doubled and every deleted single entry.
MUTATED_CASES = {
    "quantum-plane": ([["-1", "1"], ["1", "-1"]], 6),
    "a2-at-minus-one": ([["-1", "-1"], ["1", "-1"]], 6),
    "exterior-3": ([["-1", "-1", "-1"], ["-1", "-1", "-1"], ["-1", "-1", "-1"]], 4),
}


def _mutants(t):
    return [t] + [mutate_hopf(t, site, edit)
                  for edit in (doubled, deleted) for site in hopf_entry_sites(t)]


def _compared_report(t):
    report, reference = verify_axioms(t), verify_axioms_reference(t)
    assert (report.results, report.failures) == (reference.results, reference.failures)
    return report


# Regrouped by charge, sector l and sector -l of the exterior algebra on
# three letters have dimensions 1 and 3: the dual's sector at -l is not t's.
BY_CHARGE = {"exterior-by-charge": 2, "exterior-3-by-charge": 3}


@pytest.mark.parametrize("name", sorted(MUTATED_CASES) + sorted(BY_CHARGE) + ["k-z2"])
def test_axioms_on_the_dual_match_the_direct_checks(name):
    if name == "k-z2":
        t = group_algebra_z2()
    elif name in BY_CHARGE:
        t = exterior_by_charge(BY_CHARGE[name])
    else:
        entries, cutoff = MUTATED_CASES[name]
        t = from_nichols(nichols_compute(DiagonalBraiding.from_entries(entries), cutoff))
    failed = {key for s in _mutants(t) for key in _compared_report(s).failures}
    # the coalgebra axioms fail on some mutants, so the comparison has teeth;
    # K[Z2] has one sector, where a rescaled coproduct stays coassociative
    assert {"counit", "bialgebra", "antipode-right"} <= failed
    assert "coassoc" in failed or name == "k-z2"


def test_axioms_on_the_dual_match_the_direct_checks_at_zeta3():
    # A2 at zeta_3 is 27-dimensional, so one sample: a cop entry between two
    # different sectors, doubled
    t = from_nichols(nichols_compute(
        DiagonalBraiding.from_entries([["zeta(3)", "1"], ["zeta(3)^2", "zeta(3)"]]), 10))
    site = next(site for site in hopf_entry_sites(t) if site[0] == "cop" and site[1][0] != site[1][1])
    assert "coassoc" in _compared_report(mutate_hopf(t, site)).failures


# -- the reduced checks on the generating sectors ------------------------------

A3_MINUS_ONE = DiagonalBraiding.from_entries([["-1", "-1", "1"], ["1", "-1", "-1"],
                                              ["1", "1", "-1"]])
REDUCIBLE = ("assoc", "coassoc", "bialgebra")
SITE_AXIOMS = (("assoc at", "assoc"), ("coassoc at", "coassoc"), ("left unit", "unit"),
               ("right unit", "unit"), ("left counit", "counit"), ("right counit", "counit"),
               ("cop o", "bialgebra"), ("counit o", "bialgebra"), ("antipode at", "antipode"))


def _axiom_of(description):
    return next(axiom for prefix, axiom in SITE_AXIOMS if description.startswith(prefix))


@pytest.fixture()
def scans(monkeypatch):
    """Record every scan verify_axioms runs as (kind, axiom, site descriptions, outcome).

    A reduced scan (_holds) only answers whether its sites hold; a full scan
    (_first_failure) names the first site that fails.
    """
    seen = []

    def recorded(kind, scan):
        def wrapper(sites):
            sites = list(sites)
            outcome = scan(iter(sites))
            descriptions = [description for description, _, _ in sites]
            seen.append((kind, _axiom_of(descriptions[0]), descriptions, outcome))
            return outcome

        return wrapper

    monkeypatch.setattr(structconst, "_holds", recorded("reduced", structconst._holds))
    monkeypatch.setattr(structconst, "_first_failure",
                        recorded("full", structconst._first_failure))
    return seen


def _scan_counts(seen):
    return Counter((kind, axiom) for kind, axiom, _, _ in seen)


def _full_scan_report(t):
    # the kept decision forced to None: every axiom is checked by its full scan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HopfStructure, "seeds", property(lambda self: None))
        return verify_axioms(t)


def _reducible(t, results):
    # the preconditions of facts (a)-(c) in the structconst docstring
    gens, cogens = t.seeds or (None, None)
    return {
        "assoc": gens is not None and results["unit"],
        "coassoc": cogens is not None and results["counit"],
        "bialgebra": gens is not None and results["assoc"] and results["unit"],
    }


# The a2-at-minus-one mutants include those of
# test_doubled_entries_fail_at_pinned_sites: cutoffs 5 and 6 give one structure.
@pytest.mark.parametrize("name", sorted(MUTATED_CASES))
def test_reduced_checks_fail_wherever_the_full_scan_does(name, scans):
    entries, cutoff = MUTATED_CASES[name]
    t = from_nichols(nichols_compute(DiagonalBraiding.from_entries(entries), cutoff))
    reduced_failures = Counter()
    for s in _mutants(t):
        full = _full_scan_report(s)
        del scans[:]
        report = verify_axioms(s)
        assert (report.results, report.failures) == (full.results, full.failures)
        for axiom, reducible in _reducible(s, report.results).items():
            ran = [(kind, outcome) for kind, key, _, outcome in scans if key == axiom]
            if not reducible:
                assert [kind for kind, _ in ran] == ["full"]
            elif full.results[axiom]:
                assert ran == [("reduced", True)]
            else:
                # the reduced sites alone fail, and only then the full scan runs
                assert ran == [("reduced", False), ("full", full.failures[axiom])]
                reduced_failures[axiom] += 1
    # in the quantum plane every product of three generators is zero, so a
    # mutant that keeps the unit axiom stays associative, and one that keeps
    # the counit axiom coassociative
    assert set(reduced_failures) == ({"bialgebra"} if name == "quantum-plane" else set(REDUCIBLE))


def test_scans_per_axiom_are_pinned(scans):
    t = from_nichols(nichols_compute(A2_MINUS_ONE, 5))
    assert verify_axioms(t).passed
    # the three reducible axioms by their reduced scans alone
    assert _scan_counts(scans) == {
        ("full", "unit"): 1, ("reduced", "assoc"): 1, ("full", "counit"): 1,
        ("reduced", "coassoc"): 1, ("reduced", "bialgebra"): 1, ("full", "antipode"): 2,
    }
    del scans[:]
    mutant = mutate_hopf(t, ("mul", ((0, 1), (1, 0)), (1, 0)))
    report = verify_axioms(mutant)
    assert report.failures["assoc"] == "assoc at ((0, 1), (1, 0), (0, 1))"
    # assoc falls back to its full scan, and the bialgebra axiom, whose
    # reduced check needs associativity, is scanned in full
    assert _scan_counts(scans) == {
        ("full", "unit"): 1, ("reduced", "assoc"): 1, ("full", "assoc"): 1,
        ("full", "counit"): 1, ("reduced", "coassoc"): 1, ("full", "bialgebra"): 1,
        ("full", "antipode"): 2,
    }


def test_a3_at_minus_one_passes_on_its_reduced_sites(scans):
    t = from_nichols(nichols_compute(A3_MINUS_ONE, 11))
    assert verify_axioms(t).passed
    assert not [axiom for kind, axiom, _, _ in scans if kind == "full" and axiom in REDUCIBLE]
    sites = {axiom: descriptions for kind, axiom, descriptions, _ in scans if kind == "reduced"}
    # 859 of the 3,596 triples on each side: those whose first factor is a
    # degree-one sector, (g, j, k) with j + k no sector included
    assert len(sites["assoc"]) == len(sites["coassoc"]) == 859
    # the bialgebra pieces formed for the cop o mul sites visited: 1,996 of 74,155
    obj, add = t.obj, t.obj.backend.add
    pairs = {ast.literal_eval(d[len("cop o mul at "):d.index(" ->")])
             for d in sites["bialgebra"] if d.startswith("cop o mul")}
    pieces = sum(add(a1, b1) in obj.sectors and add(a2, b2) in obj.sectors
                 for a, b in pairs for a1, a2 in obj.splits(a) for b1, b2 in obj.splits(b))
    assert pieces == 1996


# -- labeled spans ---------------------------------------------------------------

# The six structures the benchmark emits, at one choice of Galois conjugate
# and twist, with the cutoff that certifies each one finite.
BENCHMARK_POINTS = {
    "qp": ([["-1", "1"], ["1", "-1"]], 3),
    "a2m1": ([["-1", "-1"], ["1", "-1"]], 5),
    "ext3": ([["-1", "1", "1"], ["1", "-1", "1"], ["1", "1", "-1"]], 4),
    "z3z3": ([["zeta(3)", "1"], ["1", "zeta(3)"]], 5),
    "z4z4": ([["zeta(4)", "1"], ["1", "zeta(4)"]], 7),
    "line7": ([["zeta(7)"]], 7),
}


def _written(span):
    # every entry as the documents write it, so with its conductor, which
    # Scalar equality does not compare
    return {label: (sub.ambient_dim, [(key, scalar_to_json(v))
                                      for key, v in sorted(sub.row_matrix.entries.items())])
            for label, sub in span.items()}


def _assert_matches_pairwise(t, A, B, *extra):
    span = product_span(t, A, B, *extra)
    assert _written(span) == _written(product_span_reference(t, A, B, *extra))
    return span


@pytest.mark.parametrize("name", sorted(BENCHMARK_POINTS))
def test_product_span_matches_the_pairwise_sums(name, monkeypatch):
    entries, cutoff = BENCHMARK_POINTS[name]
    t = from_nichols(nichols_compute(DiagonalBraiding.from_entries(entries), cutoff))
    for s in (t, t.dual):
        ideal = s.powers[0]
        for power in s.powers:
            _assert_matches_pairwise(s, power, ideal)
    # every step generated_by takes, checked against the pairwise sums
    steps = []
    monkeypatch.setattr(structconst, "product_span",
                        lambda *args: steps.append(args) or _assert_matches_pairwise(*args))
    gens = degree_layer(t, (1,))
    assert generated_by(t, gens)
    neg = t.obj.backend.neg
    coseed = {neg(g): Subspace.full(t.obj.dim(g)) for g in gens}
    assert generated_by(t.dual, coseed)
    assert steps


def test_product_span_matches_the_pairwise_sums_across_conductors():
    # products at conductors 1 and 3 joined with spans at conductors 4 and 1:
    # each label's elimination writes its entries at the lcm of its inputs
    t = from_nichols(nichols_compute(
        DiagonalBraiding.from_entries([["zeta(3)", "1"], ["zeta(3)^2", "zeta(3)"]]), 10))
    i = root_of_unity(4, 1)
    extra = {(1, 1): Subspace.from_vectors(2, [[ONE, i]]),
             (1, 2): Subspace.from_vectors(2, [[ONE, i]]), (0, 1): Subspace.full(1)}
    ideal = t.powers[0]
    span = _assert_matches_pairwise(t, ideal, ideal, extra)
    conductors = {label: {v.conductor for v in span[label].row_matrix.entries.values()}
                  for label in ((1, 1), (1, 2), (2, 2), (0, 1))}
    assert conductors == {(1, 1): {4}, (1, 2): {12}, (2, 2): {3}, (0, 1): {1}}


@pytest.fixture()
def eliminations(monkeypatch):
    """A list that grows by one entry for every elimination the kernel runs."""
    calls = []
    real = _kernel.active.rref_rows
    monkeypatch.setattr(_kernel.active, "rref_rows",
                        lambda *args: calls.append(None) or real(*args))
    return calls


def test_product_span_eliminates_once_per_label(eliminations):
    t = from_nichols(nichols_compute(A2_MINUS_ONE, 5))
    ideal = t.powers[0]
    gens = degree_layer(t, (1,))
    for args in ((ideal, ideal), (ideal, gens, ideal), ({}, {}, unit_span(t), gens)):
        del eliminations[:]
        span = product_span(t, *args)
        assert len(eliminations) == len(span) > 0


def test_generating_seeds_multiply_only_the_labels_that_grew(eliminations, monkeypatch):
    # each round of generated_by multiplies by the seed only the labels
    # that grew in the round before, and eliminates only the labels their
    # products reach; multiplying and eliminating the whole closure every
    # round took 164 eliminations here
    entries, cutoff = BENCHMARK_POINTS["z4z4"]
    t = from_nichols(nichols_compute(DiagonalBraiding.from_entries(entries), cutoff))
    calls = []
    span = structconst.product_span
    monkeypatch.setattr(structconst, "product_span", lambda *args: calls.append(1) or span(*args))
    del eliminations[:]
    assert generating_seeds(t) == ({(1, 0), (0, 1)}, {(-1, 0), (0, -1)})
    assert (len(calls), len(eliminations)) == (14, 40)


def test_a3_at_minus_one_powers_take_few_eliminations(eliminations):
    t = from_nichols(nichols_compute(A3_MINUS_ONE, 11))
    del eliminations[:]
    powers = augmentation_powers(t)
    assert [sum(layer_dims(p).values()) for p in powers][:2] == [63, 60]
    # one per sector of each power after J, and one for the counit kernel;
    # an elimination per product and per sum took 2,408
    assert len(eliminations) <= 200
