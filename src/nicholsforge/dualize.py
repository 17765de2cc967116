"""Graded duals and the Nichols-ness criteria built on duality.

The transpose dual, dual_structure, lives in structconst, where each
structure keeps its own (HopfStructure.dual) and the axiom verifier checks
the coalgebra half of a structure on it; it is re-exported here beside
graded_dual, which regrades it in positive degrees.

Three Nichols criteria live here: nondegeneracy of the pairing between
primitives and dual primitives, generation by primitives on both sides,
and isomorphy of the two associated graded structures.  Wherever they all
reach a verdict they must agree; the tests hold them to that.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .linalg import Matrix, Subspace, rank
from .scalars import ZERO
from .structconst import (
    DecomposedObject,
    HopfStructure,
    check_coconnected,
    check_connected,
    dual_structure,
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


def graded_dual(t: HopfStructure) -> HopfStructure:
    """Degreewise dual of a graded structure, graded again in positive degrees.

    Labels are negated back after dualizing, which is harmless because the
    braiding form only sees products of label exponents; the original
    grading then describes the dual components verbatim.
    """
    if t.grading is None:
        raise ValueError("graded dual needs a graded structure")
    dual = t.dual
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


class PairingReport(NamedTuple):
    dim_primitives: int
    dim_dual_primitives: int
    matrix: Matrix  # rows: dual primitives, columns: primitives
    rank: int
    verdict: str  # "nichols" or "not-determined"


def _checked_dual(t: HopfStructure) -> HopfStructure:
    """The dual of t, once t is known to be connected and coconnected."""
    if not check_connected(t) or not check_coconnected(t):
        raise ValueError("structure is not connected and coconnected")
    return t.dual


# Each criterion checks its preconditions when called alone; nichols_criteria
# decides them once and computes the primitives of each side once.


def pairing_report(t: HopfStructure) -> PairingReport:
    """Evaluate dual primitives on primitives; nondegeneracy certifies Nichols.

    The flattened coordinates of the dual object align index by index with
    the original ones (sector gamma pairs with sector -gamma), so the
    pairing matrix is a plain product of the two echelon bases.
    """
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


class GenerationReport(NamedTuple):
    generated_by_primitives: bool
    dual_generated_by_primitives: bool

    @property
    def verdict(self) -> str:
        both = self.generated_by_primitives and self.dual_generated_by_primitives
        return "nichols" if both else "not-determined"


def generation_check(t: HopfStructure) -> GenerationReport:
    """Whether primitives generate the structure, and dually."""
    dual = _checked_dual(t)
    return GenerationReport(
        generated_by(t, primitive_sectors(t)),
        generated_by(dual, primitive_sectors(dual)),
    )


class GragrcReport(NamedTuple):
    verdict: str  # "nichols-by-gragrc" or "inconclusive"
    witness: Optional[dict]  # sector automorphism when found
    detail: str = ""


def gragrc_check(t: HopfStructure) -> GragrcReport:
    """Compare the radical and coradical associated graded structures.

    An isomorphism between them is a sufficient condition for t to be a
    Nichols algebra; anything short of a found isomorphism is reported as
    inconclusive, including structures the restricted search cannot handle.
    """
    _checked_dual(t)
    return _gragrc(t)


def _gragrc(t: HopfStructure) -> GragrcReport:
    from .filtration import associated_graded, coradical_filtration, radical_filtration

    gra = associated_graded(t, radical_filtration(t))
    grc = associated_graded(t, coradical_filtration(t))
    try:
        witness = graded_iso_search(gra, grc)
    except ValueError as err:
        return GragrcReport("inconclusive", None, f"search not applicable: {err}")
    if witness is None:
        return GragrcReport("inconclusive", None, "no isomorphism in the searched family")
    return GragrcReport("nichols-by-gragrc", witness)


def nichols_criteria(t: HopfStructure) -> Tuple[PairingReport, GenerationReport, GragrcReport]:
    """All three criteria, deciding the preconditions and each side's primitives once."""
    dual = _checked_dual(t)
    prims, dual_prims = primitive_sectors(t), primitive_sectors(dual)
    return (
        _pairing(t, dual, prims, dual_prims),
        GenerationReport(generated_by(t, prims), generated_by(dual, dual_prims)),
        _gragrc(t),
    )
