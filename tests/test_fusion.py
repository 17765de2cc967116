"""Fusion data verification and pointed Drinfeld-center examples."""

from itertools import product

import pytest

from nicholsforge.braided import YDDatum, yd_to_braiding
from nicholsforge.fusion import (
    FusionData,
    line_braiding,
    pointed_center_data,
    verify_all,
    verify_braiding,
    verify_duality,
    verify_pentagon,
    verify_units,
    well_formed,
)
from nicholsforge.linalg import Matrix
from nicholsforge.scalars import ONE, from_rational, root_of_unity
from tests_support import fusion_entry_sites, fusion_mutation_detected, mutate_fusion


@pytest.fixture(scope="module")
def z2():
    return pointed_center_data([2])


@pytest.fixture(scope="module")
def z3():
    return pointed_center_data([3])


def test_center_sizes(z2, z3):
    assert z2.size == 4
    assert z3.size == 9
    assert pointed_center_data([2, 2]).size == 16


def test_factors_must_be_positive():
    with pytest.raises(ValueError):
        pointed_center_data([0])


def test_unit_is_simple_zero(z2):
    assert z2.dual[0] == 0
    for i in range(z2.size):
        assert z2.dim(0, i, i) == 1
        assert z2.dim(i, 0, i) == 1


def test_fusion_follows_group_law(z3):
    # simples are (g, chi) pairs; tensor adds both coordinates
    for i in range(z3.size):
        for j in range(z3.size):
            targets = [k for k in range(z3.size) if z3.dim(i, j, k)]
            assert len(targets) == 1


def test_z2_passes_each_verifier(z2):
    assert well_formed(z2).passed
    assert verify_pentagon(z2).passed
    assert verify_units(z2).passed
    assert verify_duality(z2).passed
    assert verify_braiding(z2).passed


def test_z3_passes_verify_all(z2, z3):
    reports = verify_all(z3)
    assert [r.check for r in reports] == [
        "well-formed",
        "pentagon",
        "units",
        "duality",
        "braiding",
    ]
    assert all(r.passed for r in reports)
    assert [r.checked for r in reports] == [7749, 6561, 81, 18, 1458]
    assert [r.checked for r in verify_all(z2)] == [424, 256, 16, 8, 128]


def test_braiding_scalar_is_character_value(z3):
    # sigma((g,chi),(h,psi)) = psi(g); simple index is 3*g + chi
    zeta = root_of_unity(3, 1)
    s = z3.braid_block(3 * 1 + 0, 3 * 0 + 1, 3 * 1 + 1)  # psi = chi_1, g = 1
    assert s.get(0, 0) == zeta


def test_line_braiding_matches_yetter_drinfeld(z3):
    zeta = root_of_unity(3, 1)
    lines = [3 * 1 + 1, 3 * 2 + 2, 3 * 1 + 2]
    got = line_braiding(z3, lines)
    datum = YDDatum(
        (3,),
        ((1,), (2,), (1,)),
        ((zeta,), (zeta * zeta,), (zeta * zeta,)),
    )
    assert got == yd_to_braiding(datum)


def _scale_assoc_entry(F, two):
    key, block = next(iter(sorted(F.assoc.items())))
    pos = next(iter(sorted(block.entries)))
    entries = dict(block.entries)
    entries[pos] = entries[pos] * two
    new = dict(F.assoc)
    new[key] = Matrix(block.nrows, block.ncols, entries)
    return FusionData(
        F.size, F.fusion, new, F.braiding, F.left_units, F.right_units, F.dual, F.ev, F.coev
    )


def test_scaled_associator_entry_is_caught(z2):
    mutant = _scale_assoc_entry(z2, from_rational(2))
    reports = verify_all(mutant, stop_early=True)
    assert not all(r.passed for r in reports)
    failing = [r for r in reports if not r.passed]
    assert failing[0].failures  # failure site is recorded, not raised


def test_scaled_braiding_entry_is_caught(z2):
    key, block = next(iter(sorted(z2.braiding.items())))
    entries = {pos: v * from_rational(3) for pos, v in block.entries.items()}
    new = dict(z2.braiding)
    new[key] = Matrix(block.nrows, block.ncols, entries)
    mutant = FusionData(
        z2.size, z2.fusion, z2.assoc, new, z2.left_units, z2.right_units, z2.dual, z2.ev, z2.coev
    )
    assert not verify_braiding(mutant, stop_early=True).passed


def test_missing_dual_space_is_malformed(z2):
    # drop the evaluation morphism of the nontrivial simple
    ev = dict(z2.ev)
    first = next(k for k in sorted(ev) if k != 0)
    ev[first] = Matrix(1, 1)
    mutant = FusionData(
        z2.size, z2.fusion, z2.assoc, z2.braiding,
        z2.left_units, z2.right_units, z2.dual, ev, z2.coev,
    )
    report = well_formed(mutant)
    assert not report.passed


# -- Fibonacci: tau (x) tau = 1 (+) tau, the smallest non-pointed example ------


def fibonacci_data(sign=-1):
    """Fibonacci data over Q(zeta5); sign is that of the (tau, tau) F-entry."""
    z5 = root_of_unity(5, 1)
    phi = ONE + z5 + z5 ** 4
    inv_phi = z5 + z5 ** 4
    fusion = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    # assoc[(1,1,1,a,1,c)] indexed by (a, c); every other admissible block is 1
    f_tau = {(0, 0): inv_phi, (0, 1): ONE, (1, 0): inv_phi, (1, 1): inv_phi * sign}
    assoc = {}
    for i, j, k, a, b, c in product(range(2), repeat=6):
        if all(fusion.get(key) for key in ((i, j, a), (a, k, b), (i, c, b), (j, k, c))):
            value = f_tau[(a, c)] if (i, j, k, b) == (1, 1, 1, 1) else ONE
            assoc[(i, j, k, a, b, c)] = Matrix(1, 1, {(0, 0): value})
    braiding = {key: Matrix.identity(1) for key in fusion}
    braiding[(1, 1, 0)] = Matrix(1, 1, {(0, 0): root_of_unity(5, 3)})
    braiding[(1, 1, 1)] = Matrix(1, 1, {(0, 0): root_of_unity(10, 3)})
    units = {0: ONE, 1: ONE}
    ev = {0: Matrix.identity(1), 1: Matrix(1, 1, {(0, 0): phi})}
    coev = {0: Matrix.identity(1), 1: Matrix.identity(1)}
    return FusionData(2, fusion, assoc, braiding, units, dict(units), (0, 1), ev, coev)


def test_fibonacci_passes_verify_all():
    fib = fibonacci_data()
    assert fib.fuse(1, 1) == ((0, 1), (1, 1))
    reports = verify_all(fib)
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    assert [r.checked for r in reports] == [65, 27, 5, 4, 24]


def test_fibonacci_sign_flip_is_located():
    reports = {r.check: r for r in verify_all(fibonacci_data(sign=1))}
    assert reports["well-formed"].passed and reports["units"].passed
    assert reports["pentagon"].failures == ((1, 1, 1, 1, 0), (1, 1, 1, 1, 1))
    assert reports["duality"].failures == (("zigzag-2", 1),)
    assert reports["braiding"].failures == (
        ("hexagon-forward", 1, 1, 1, 1),
        ("hexagon-backward", 1, 1, 1, 1),
    )


def test_fibonacci_single_site_mutants_are_caught():
    fib = fibonacci_data()
    sites = fusion_entry_sites(fib)
    assert len(sites) == 28
    survivors = [site for site in sites if not fusion_mutation_detected(mutate_fusion(fib, site))]
    assert not survivors
