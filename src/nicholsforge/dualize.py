"""Dual Hopf structures and the Nichols-ness criteria built on them.

The pairing between a dual tensor product and a tensor product nests
factors inside out: (xi (x) eta) applied to (x (x) y) is eta(x) * xi(y).
With that convention the dual of a structure over sectors gamma lives over
the negated labels, the braiding scalar between dual sectors equals the
original one (exponents negate twice), and taking the dual twice returns
the original structure on the nose.  For the abelian Yetter-Drinfeld
picture this is the statement that the dual line of (g, chi) is
(g^{-1}, chi^{-1}), which evaluates to the same q matrix.

Three Nichols criteria live here: nondegeneracy of the pairing between
primitives and dual primitives, generation by primitives on both sides,
and isomorphy of the two associated graded structures.  Wherever they all
reach a verdict they must agree; the tests hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .linalg import BasedSpace, Matrix, Subspace, rank
from .scalars import ZERO
from .structconst import (
    DecomposedObject,
    HopfStructure,
    check_coconnected,
    check_connected,
    generated_by,
    graded_iso_search,
    primitive_sectors,
)

__all__ = [
    "PairingReport",
    "GenerationReport",
    "GragrcReport",
    "dual_structure",
    "graded_dual",
    "primitives_of",
    "pairing_report",
    "generation_check",
    "gragrc_check",
    "nichols_criteria",
]


def _dual_label(text: str) -> str:
    # involutive marker so that dualizing twice restores the labels
    return text[:-1] if text.endswith("*") else text + "*"


def dual_structure(t: HopfStructure) -> HopfStructure:
    """Transpose-dual: multiplication and coproduct trade places.

    Sector labels negate; the grading does not transport (the graded dual
    is a separate operation that also restores positive labels).
    """
    obj = t.obj
    backend = obj.backend
    neg = backend.neg
    sectors = {
        neg(label): BasedSpace(space.dim, tuple(_dual_label(s) for s in space.labels))
        for label, space in obj.sectors.items()
    }
    dual_obj = DecomposedObject(backend, sectors)

    mul = {}
    for (beta, alpha), block in t.cop.items():
        # m*[c, (a, b)] = cop^{beta, alpha}[(b, a), c]
        d_alpha = obj.dim(alpha)
        d_beta = obj.dim(beta)
        target = obj.dim(backend.add(alpha, beta))
        entries = {}
        for (r, c), v in block.entries.items():
            b, a = divmod(r, d_alpha)
            entries[(c, a * d_beta + b)] = v
        mul[(neg(alpha), neg(beta))] = Matrix(target, d_alpha * d_beta, entries)

    cop = {}
    for (beta, alpha), block in t.mul.items():
        # cop*[(a, b), c] = m_{beta, alpha}[c, (b, a)]
        d_alpha = obj.dim(alpha)
        d_beta = obj.dim(beta)
        source = obj.dim(backend.add(alpha, beta))
        entries = {}
        for (c, rc), v in block.entries.items():
            b, a = divmod(rc, d_alpha)
            entries[(a * d_beta + b, c)] = v
        cop[(neg(alpha), neg(beta))] = Matrix(d_alpha * d_beta, source, entries)

    antipode = {neg(i): block.transpose() for i, block in t.antipode.items()}
    return HopfStructure(
        dual_obj,
        mul,
        t.counit.transpose(),
        cop,
        t.unit.transpose(),
        antipode,
        None,
    )


def graded_dual(t: HopfStructure) -> HopfStructure:
    """Degreewise dual of a graded structure, graded again in positive degrees.

    Labels are negated back after dualizing, which is harmless because the
    braiding form only sees products of label exponents; the original
    grading then describes the dual components verbatim.
    """
    if t.grading is None:
        raise ValueError("graded dual needs a graded structure")
    dual = dual_structure(t)
    backend = dual.obj.backend
    neg = backend.neg
    sectors = {neg(label): space for label, space in dual.obj.sectors.items()}
    obj = DecomposedObject(backend, sectors)
    mul = {(neg(i), neg(j)): block for (i, j), block in dual.mul.items()}
    cop = {(neg(i), neg(j)): block for (i, j), block in dual.cop.items()}
    antipode = {neg(i): block for i, block in dual.antipode.items()}
    grading = {label: t.grading[label] for label in sectors}
    return HopfStructure(obj, mul, dual.unit, cop, dual.counit, antipode, grading)


def primitives_of(t: HopfStructure) -> Subspace:
    """Primitive elements as one subspace over the flattened coordinates.

    Sectors are flattened in the object's own order; the labeled version of
    the same computation is primitive_sectors in the structconst module.
    """
    return _flattened(t, primitive_sectors(t))


def _flattened(t: HopfStructure, by_sector: dict) -> Subspace:
    total = t.obj.total_dim()
    offset = 0
    vectors = []
    for label, space in t.obj.sectors.items():
        sub = by_sector.get(label)
        if sub is not None:
            for r in range(sub.dim):
                flat = [ZERO] * total
                for c in range(space.dim):
                    v = sub.row_matrix.get(r, c)
                    if v:
                        flat[offset + c] = v
                vectors.append(flat)
        offset += space.dim
    return Subspace.from_vectors(total, vectors)


@dataclass(frozen=True)
class PairingReport:
    dim_primitives: int
    dim_dual_primitives: int
    matrix: Matrix  # rows: dual primitives, columns: primitives
    rank: int
    verdict: str  # "nichols" or "not-determined"


def _checked_dual(t: HopfStructure) -> HopfStructure:
    """The dual of t, once t is known to be connected and coconnected."""
    dual = dual_structure(t)
    if not check_connected(t) or not check_coconnected(t, dual):
        raise ValueError("structure is not connected and coconnected")
    return dual


# Each criterion checks its preconditions when called alone; nichols_criteria
# decides them once, computes the primitives of each side once, and hands the
# checked dual on.


def pairing_report(t: HopfStructure, dual: Optional[HopfStructure] = None) -> PairingReport:
    """Evaluate dual primitives on primitives; nondegeneracy certifies Nichols.

    The flattened coordinates of the dual object align index by index with
    the original ones (sector gamma pairs with sector -gamma), so the
    pairing matrix is a plain product of the two echelon bases.
    """
    if dual is None:
        dual = _checked_dual(t)
    return _pairing(t, dual, primitive_sectors(t), primitive_sectors(dual))


def _pairing(t: HopfStructure, dual: HopfStructure, prims: dict, dual_prims: dict) -> PairingReport:
    flat = _flattened(t, prims)
    dual_flat = _flattened(dual, dual_prims)
    matrix = dual_flat.row_matrix @ flat.basis
    r = rank(matrix)
    square = flat.dim == dual_flat.dim
    verdict = "nichols" if square and r == flat.dim else "not-determined"
    return PairingReport(flat.dim, dual_flat.dim, matrix, r, verdict)


@dataclass(frozen=True)
class GenerationReport:
    generated_by_primitives: bool
    dual_generated_by_primitives: bool

    @property
    def verdict(self) -> str:
        both = self.generated_by_primitives and self.dual_generated_by_primitives
        return "nichols" if both else "not-determined"


def generation_check(t: HopfStructure, dual: Optional[HopfStructure] = None) -> GenerationReport:
    """Whether primitives generate the structure, and dually."""
    if dual is None:
        dual = _checked_dual(t)
    return GenerationReport(
        generated_by(t, primitive_sectors(t)),
        generated_by(dual, primitive_sectors(dual)),
    )


@dataclass(frozen=True)
class GragrcReport:
    verdict: str  # "nichols-by-gragrc" or "inconclusive"
    witness: Optional[dict]  # sector automorphism when found
    detail: str = ""


def gragrc_check(t: HopfStructure, dual: Optional[HopfStructure] = None) -> GragrcReport:
    """Compare the radical and coradical associated graded structures.

    An isomorphism between them is a sufficient condition for t to be a
    Nichols algebra; anything short of a found isomorphism is reported as
    inconclusive, including structures the restricted search cannot handle.
    `dual` is as for pairing_report.
    """
    if dual is None:
        dual = _checked_dual(t)
    from .filtration import associated_graded, coradical_filtration, radical_filtration

    gra = associated_graded(t, radical_filtration(t, dual))
    grc = associated_graded(t, coradical_filtration(t, dual))
    try:
        witness = graded_iso_search(gra, grc)
    except ValueError as err:
        return GragrcReport("inconclusive", None, f"search not applicable: {err}")
    if witness is None:
        return GragrcReport("inconclusive", None, "no isomorphism in the searched family")
    return GragrcReport("nichols-by-gragrc", witness)


def nichols_criteria(t: HopfStructure) -> Tuple[PairingReport, GenerationReport, GragrcReport]:
    """All three criteria, deciding the preconditions, the dual and each side's primitives once."""
    dual = _checked_dual(t)
    prims, dual_prims = primitive_sectors(t), primitive_sectors(dual)
    return (
        _pairing(t, dual, prims, dual_prims),
        GenerationReport(generated_by(t, prims), generated_by(dual, dual_prims)),
        gragrc_check(t, dual),
    )
