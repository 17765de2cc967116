"""Shared builders for the test suite."""

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.fusion import (
    FusionData,
    verify_braiding,
    verify_duality,
    verify_pentagon,
    verify_units,
)
from nicholsforge.linalg import BasedSpace, Matrix
from nicholsforge.scalars import ONE
from nicholsforge.structconst import DecomposedObject, HopfStructure, LabelBackend


def group_algebra_z2():
    """K[Z/2] on basis (e, g): honest Hopf algebra that is not connected."""
    backend = LabelBackend(DiagonalBraiding.from_entries([["1"]]))
    obj = DecomposedObject(backend, {(0,): BasedSpace(2, ("e", "g"))})
    return HopfStructure(
        obj,
        {((0,), (0,)): Matrix(2, 4, {(0, 0): ONE, (1, 1): ONE, (1, 2): ONE, (0, 3): ONE})},
        Matrix(2, 1, {(0, 0): ONE}),
        {((0,), (0,)): Matrix(4, 2, {(0, 0): ONE, (3, 1): ONE})},
        Matrix(1, 2, {(0, 0): ONE, (0, 1): ONE}),
        {(0,): Matrix.identity(2)},
    )


def doubled(block, pos):
    """The block with the entry at pos doubled."""
    entries = dict(block.entries)
    entries[pos] = entries[pos] + entries[pos]
    return Matrix(block.nrows, block.ncols, entries)


def fusion_entry_sites(F):
    sites = []
    for key in sorted(F.assoc):
        for pos in sorted(F.assoc[key].entries):
            sites.append(("assoc", key, pos))
    for key in sorted(F.braiding):
        for pos in sorted(F.braiding[key].entries):
            sites.append(("braiding", key, pos))
    for i in sorted(F.left_units):
        sites.append(("left-unit", i, None))
    for i in sorted(F.right_units):
        sites.append(("right-unit", i, None))
    for i in sorted(F.ev):
        for pos in sorted(F.ev[i].entries):
            sites.append(("ev", i, pos))
    for i in sorted(F.coev):
        for pos in sorted(F.coev[i].entries):
            sites.append(("coev", i, pos))
    return sites


def mutate_fusion(F, site):
    family, key, pos = site
    assoc, braiding = dict(F.assoc), dict(F.braiding)
    left, right = dict(F.left_units), dict(F.right_units)
    ev, coev = dict(F.ev), dict(F.coev)
    if family == "assoc":
        assoc[key] = doubled(assoc[key], pos)
    elif family == "braiding":
        braiding[key] = doubled(braiding[key], pos)
    elif family == "left-unit":
        left[key] = left[key] + left[key]
    elif family == "right-unit":
        right[key] = right[key] + right[key]
    elif family == "ev":
        ev[key] = doubled(ev[key], pos)
    else:
        coev[key] = doubled(coev[key], pos)
    return FusionData(F.size, F.fusion, assoc, braiding, left, right, F.dual, ev, coev)


def fusion_mutation_detected(F):
    # cheap verifiers first; a mutation only needs to trip one of them
    for checker in (verify_units, verify_duality, verify_braiding, verify_pentagon):
        if not checker(F, stop_early=True).passed:
            return True
    return False
