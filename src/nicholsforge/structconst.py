"""Hopf structures as points in a space of structure constants.

An object decomposes into isotypic sectors indexed by formal lines: integer
label vectors with a braiding form q(a, b) between them (the diagonal
backend).  Tensor products of lines multiply by adding labels, so every
structure map is a family of blocks keyed by source sector labels, with the
target label implied.  Blocks that would target a missing sector are forced
zero and simply absent; equality of structures is equality of the stored
nonzero blocks.

The pairing between a dual tensor product and a tensor product nests
factors inside out: (xi (x) eta) applied to (x (x) y) is eta(x) * xi(y).
With that convention the dual of a structure over sectors gamma lives over
the negated labels, the braiding scalar between dual sectors equals the
original one (exponents negate twice), and taking the dual twice returns
the original structure on the nose.  For the abelian Yetter-Drinfeld
picture this is the statement that the dual line of (g, chi) is
(g^{-1}, chi^{-1}), which evaluates to the same q matrix.

The axiom verifier works block by block in this decomposition and never
materializes a full multiplication matrix; it finds the blocks that meet
through the object's index of sector pairs by their sum, and checks the
coalgebra axioms as the algebra axioms of the dual.  Connectedness is the
nilpotency of the counit kernel, bounded by the total dimension;
coconnectedness is the same check on the dual structure.  A structure keeps
its dual and the powers of its counit kernel once built, so every check and
filtration on it shares one computation of each.  The isomorphism
search covers graded degree-one-generated structures whose degree-one
sector parts are lines with independent labels; within that family the
degree-by-degree search below is decisive, and label permutations are
deliberately not searched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .braided import DiagonalBraiding
from .linalg import BasedSpace, Matrix, Subspace, hstack, inverse, kernel, rank, rref, vstack
from .scalars import ONE, ZERO, Scalar

# Only from_nichols reads engine output, so the structure commands never
# compile the engine (see from_nichols).
if TYPE_CHECKING:
    from .nichols import NicholsReport

__all__ = [
    "LabelBackend",
    "DecomposedObject",
    "HopfStructure",
    "AxiomReport",
    "AXIOM_KEYS",
    "well_formed_problem",
    "dual_structure",
    "verify_axioms",
    "augmentation_powers",
    "check_connected",
    "check_coconnected",
    "act",
    "compose_automorphisms",
    "structurally_equal",
    "graded_iso_search",
    "from_nichols",
    "primitive_sectors",
    "product_span",
    "generated_by",
    "degree_one_generated",
    "unit_span",
    "grading_respected",
]


class LabelBackend(NamedTuple):
    """Formal lines indexed by integer vectors, braided diagonally.

    The braiding between lines a and b is the scalar qform(a, b) times the
    flip; labels add under tensor product.  Negative exponents appear once
    dual objects enter, so qform works over all integer labels.
    """

    braiding: DiagonalBraiding

    @property
    def rank(self) -> int:
        return self.braiding.dim

    @property
    def zero(self) -> tuple:
        return (0,) * self.rank

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(-x for x in a)

    def qform(self, a: tuple, b: tuple) -> Scalar:
        value = ONE
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    value = value * self.braiding.q[i][j] ** (ai * bj)
        return value


class DecomposedObject:
    """Ordered family of multiplicity spaces indexed by line labels."""

    __slots__ = ("backend", "sectors", "_splits")

    def __init__(self, backend: LabelBackend, sectors: dict):
        for label, space in sectors.items():
            if len(label) != backend.rank:
                raise ValueError(f"label {label} has wrong rank")
            if space.dim == 0:
                raise ValueError(f"sector {label} must not be zero-dimensional")
        self.backend = backend
        self.sectors = dict(sectors)
        self._splits = None

    def dim(self, label: tuple) -> int:
        space = self.sectors.get(label)
        return space.dim if space else 0

    def splits(self, s: tuple) -> tuple:
        """The sector pairs (i, j) with i + j = s, in sector order of i.

        s is any label, a sector or not; the index over all sums is built on
        first use.
        """
        if self._splits is None:
            index: dict = {}
            for i in self.sectors:
                for j in self.sectors:
                    index.setdefault(self.backend.add(i, j), []).append((i, j))
            self._splits = {total: tuple(pairs) for total, pairs in index.items()}
        return self._splits.get(s, ())

    @property
    def labels(self) -> list:
        return list(self.sectors)

    def total_dim(self) -> int:
        return sum(space.dim for space in self.sectors.values())

    def __eq__(self, other):
        if not isinstance(other, DecomposedObject):
            return NotImplemented
        return self.backend == other.backend and self.sectors == other.sectors

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"DecomposedObject({len(self.sectors)} sectors, dim {self.total_dim()})"


_UNSET = object()  # augmentation powers not computed yet; None is a result


def _drop_zero_blocks(blocks: dict) -> dict:
    return {k: v for k, v in blocks.items() if not v.is_zero()}


class HopfStructure:
    """Structure constants (m, u, cop, counit, antipode) over a decomposed object.

    mul[(i, j)] maps B_i (x) B_j into B_{i+j}; cop[(i, j)] maps B_{i+j} into
    B_i (x) B_j; antipode[i] is an endomorphism of B_i.  Absent blocks are
    zero maps.  grading, when present, assigns a degree to every basis
    vector of every sector; it rides along so filtration and isomorphism
    machinery can stay graded-aware, and participates in equality.  The
    dual and the augmentation powers are built on first use and kept, so
    the blocks must not change after that.
    """

    __slots__ = ("obj", "mul", "unit", "cop", "counit", "antipode", "grading",
                 "_dual", "_powers")

    def __init__(self, obj, mul, unit, cop, counit, antipode, grading=None):
        self.obj = obj
        self.mul = _drop_zero_blocks(mul)
        self.unit = unit
        self.cop = _drop_zero_blocks(cop)
        self.counit = counit
        self.antipode = _drop_zero_blocks(antipode)
        if grading is not None:
            grading = {
                label: tuple(grading[label]) for label in grading if label in obj.sectors
            }
        self.grading = grading
        self._dual = None
        self._powers = _UNSET

    @property
    def dual(self) -> "HopfStructure":
        """dual_structure(self), built on first use."""
        if self._dual is None:
            self._dual = dual_structure(self)
        return self._dual

    @property
    def powers(self) -> Optional[list]:
        """augmentation_powers(self), computed on first use."""
        if self._powers is _UNSET:
            self._powers = augmentation_powers(self)
        return self._powers

    # -- block access with zero defaults ---------------------------------

    def mul_at(self, i: tuple, j: tuple) -> Matrix:
        block = self.mul.get((i, j))
        if block is not None:
            return block
        target = self.obj.backend.add(i, j)
        return Matrix(self.obj.dim(target), self.obj.dim(i) * self.obj.dim(j))

    def cop_at(self, i: tuple, j: tuple) -> Matrix:
        block = self.cop.get((i, j))
        if block is not None:
            return block
        source = self.obj.backend.add(i, j)
        return Matrix(self.obj.dim(i) * self.obj.dim(j), self.obj.dim(source))

    def antipode_at(self, i: tuple) -> Matrix:
        block = self.antipode.get(i)
        if block is not None:
            return block
        d = self.obj.dim(i)
        return Matrix(d, d)

    def braid_flip(self, i: tuple, j: tuple) -> Matrix:
        """The braiding B_i (x) B_j -> B_j (x) B_i: qform-scaled flip."""
        di, dj = self.obj.dim(i), self.obj.dim(j)
        q = self.obj.backend.qform(i, j)
        entries = {}
        for a in range(di):
            for b in range(dj):
                entries[(b * di + a, a * dj + b)] = q
        return Matrix(di * dj, di * dj, entries)

    def __eq__(self, other):
        if not isinstance(other, HopfStructure):
            return NotImplemented
        return self.obj == other.obj and structurally_equal(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        graded = "graded" if self.grading is not None else "ungraded"
        return f"HopfStructure(dim {self.obj.total_dim()}, {graded})"


AXIOM_KEYS = (
    "well-formed",
    "assoc",
    "unit",
    "coassoc",
    "counit",
    "bialgebra",
    "antipode-left",
    "antipode-right",
)


class AxiomReport:
    """Verdict per axiom; None marks a check skipped after malformed blocks."""

    __slots__ = ("results", "failures")

    def __init__(self, results: dict, failures: Optional[dict] = None):
        self.results = results
        self.failures = {} if failures is None else failures

    @property
    def passed(self) -> bool:
        return all(self.results.get(key) is True for key in AXIOM_KEYS)

    def first_failure(self) -> Optional[str]:
        for key in AXIOM_KEYS:
            if self.results.get(key) is False:
                return self.failures.get(key, key)
        return None


def well_formed_problem(t: HopfStructure) -> Optional[str]:
    """What keeps the blocks from fitting the sectors, or None when they fit."""
    obj = t.obj
    zero = obj.backend.zero
    if obj.dim(zero) == 0:
        return "no unit sector"
    if t.unit.shape != (obj.dim(zero), 1):
        return f"unit block has shape {t.unit.shape}"
    if t.counit.shape != (1, obj.dim(zero)):
        return f"counit block has shape {t.counit.shape}"
    for (i, j), block in t.mul.items():
        if i not in obj.sectors or j not in obj.sectors:
            return f"mul block at missing sector pair {(i, j)}"
        target = obj.backend.add(i, j)
        want = (obj.dim(target), obj.dim(i) * obj.dim(j))
        if block.shape != want:
            return f"mul block {(i, j)} has shape {block.shape}, want {want}"
        if target not in obj.sectors:
            return f"mul block {(i, j)} targets missing sector {target}"
    for (i, j), block in t.cop.items():
        if i not in obj.sectors or j not in obj.sectors:
            return f"cop block at missing sector pair {(i, j)}"
        source = obj.backend.add(i, j)
        want = (obj.dim(i) * obj.dim(j), obj.dim(source))
        if block.shape != want:
            return f"cop block {(i, j)} has shape {block.shape}, want {want}"
        if source not in obj.sectors:
            return f"cop block {(i, j)} drawn from missing sector {source}"
    for i, block in t.antipode.items():
        if i not in obj.sectors:
            return f"antipode block at missing sector {i}"
        if block.shape != (obj.dim(i), obj.dim(i)):
            return f"antipode block {i} has shape {block.shape}"
    if t.grading is not None:
        for label, space in obj.sectors.items():
            degrees = t.grading.get(label)
            if degrees is None or len(degrees) != space.dim:
                return f"grading missing or wrong length at sector {label}"
    return None


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


def verify_axioms(t: HopfStructure) -> AxiomReport:
    """Exact blockwise verification of all Hopf axioms.

    A malformed structure short-circuits: the shape problem is reported
    under well-formed and every actual axiom is left unevaluated.  The
    coalgebra half is the algebra half of the dual t.dual, checked at the
    mirrored sites in t's order and reported under t's descriptions:

        coassoc at (i, j, k)        assoc of the dual at (-k, -j, -i)
        left / right counit at i    right / left unit of the dual at -i
        cop o unit at (i, j)        counit o mul of the dual at (-j, -i)
        antipode-right at s         antipode-left of the dual at -s

    cop o mul and counit o unit are their own duals and stay on t.
    """
    results: dict = {key: None for key in AXIOM_KEYS}
    failures: dict = {}

    problem = well_formed_problem(t)
    results["well-formed"] = problem is None
    if problem is not None:
        failures["well-formed"] = problem
        return AxiomReport(results, failures)

    dual = t.dual
    obj = t.obj
    add, neg = obj.backend.add, obj.backend.neg
    labels = obj.labels
    zero = obj.backend.zero
    # identities by dimension, as sectors at l and -l may differ in dimension
    eye = {d: Matrix.identity(d) for d in {space.dim for space in obj.sectors.values()}}

    def check(key: str, sites) -> None:
        # one verdict over (description, lhs, rhs) sites, keeping the first failure
        failed = [description for description, lhs, rhs in sites if lhs != rhs]
        results[key] = not failed
        if failed:
            failures[key] = failed[0]

    # the algebra half, on s = t or s = dual
    def assoc(s, i, j, k):  # m(m x 1) = m(1 x m) on B_i x B_j x B_k
        return (s.mul_at(add(i, j), k) @ s.mul_at(i, j).kron(eye[s.obj.dim(k)]),
                s.mul_at(i, add(j, k)) @ eye[s.obj.dim(i)].kron(s.mul_at(j, k)))

    def unit(s, i, left):  # m(u x 1) = 1 or m(1 x u) = 1 on B_i
        one = eye[s.obj.dim(i)]
        return (s.mul_at(zero, i) @ s.unit.kron(one) if left else
                s.mul_at(i, zero) @ one.kron(s.unit)), one

    def counit_mul(s, i, j):
        # counit kills every product that lands in the unit sector except 0 x 0
        return s.counit @ s.mul_at(i, j), (s.counit.kron(s.counit) if i == zero else
                                           Matrix(1, s.obj.dim(i) * s.obj.dim(j)))

    def antipode_left(s, label):  # m(S x 1)cop = u eps on B_label
        d = s.obj.dim(label)
        total = Matrix(d, d)
        for i, j in s.obj.splits(label):
            half = s.antipode_at(i).kron(eye[s.obj.dim(j)])
            total = total + s.mul_at(i, j) @ half @ s.cop_at(i, j)
        return total, (s.unit @ s.counit if label == zero else Matrix(d, d))

    # Both sides of (co)associativity at (i, j, k) are zero unless i+j+k
    # is a sector and so is i+j or j+k; the rest are skipped, and the
    # triples kept are visited in label order.
    position = {label: n for n, label in enumerate(labels)}
    triples = set()
    for s in labels:
        for ij, k in obj.splits(s):
            triples.update((i, j, k) for i, j in obj.splits(ij))
        for i, jk in obj.splits(s):
            triples.update((i, j, k) for j, k in obj.splits(jk))
    triples = sorted(triples, key=lambda ijk: [position[x] for x in ijk])
    sides = ("left", "right")

    check("assoc", ((f"assoc at {(i, j, k)}", *assoc(t, i, j, k)) for i, j, k in triples))
    check("unit", ((f"{side} unit at {i}", *unit(t, i, side == "left"))
                   for i in labels for side in sides))
    check("coassoc", ((f"coassoc at {(i, j, k)}", *assoc(dual, neg(k), neg(j), neg(i)))
                      for i, j, k in triples))
    check("counit", ((f"{side} counit at {i}", *unit(dual, neg(i), side == "right"))
                     for i in labels for side in sides))

    def bialgebra():
        # cop and counit are algebra maps, with the braiding insertion; the
        # pieces over splits (a1, a2) of a and (b1, b2) of b land in
        # (a1+b1, a2+b2)
        flips: dict = {}  # a braiding flip depends only on its sector pair
        for a in labels:
            for b in labels:
                pieces: dict = {}
                for a1, a2 in obj.splits(a):
                    for b1, b2 in obj.splits(b):
                        i, j = add(a1, b1), add(a2, b2)
                        if i not in obj.sectors or j not in obj.sectors:
                            continue
                        piece = t.mul_at(a1, b1).kron(t.mul_at(a2, b2))
                        if (a2, b1) not in flips:
                            flips[(a2, b1)] = t.braid_flip(a2, b1)
                        swap = eye[obj.dim(a1)].kron(flips[(a2, b1)]).kron(eye[obj.dim(b2)])
                        piece = piece @ swap @ t.cop_at(a1, a2).kron(t.cop_at(b1, b2))
                        pieces[(i, j)] = pieces[(i, j)] + piece if (i, j) in pieces else piece
                for i, j in obj.splits(add(a, b)):
                    rhs = pieces.get((i, j))
                    if rhs is None:
                        rhs = Matrix(obj.dim(i) * obj.dim(j), obj.dim(a) * obj.dim(b))
                    yield f"cop o mul at {(a, b)} -> {(i, j)}", t.cop_at(i, j) @ t.mul_at(a, b), rhs
        for i, j in obj.splits(zero):
            yield (f"counit o mul at {(i, j)}", *counit_mul(t, i, j))
        for i, j in obj.splits(zero):
            yield (f"cop o unit at {(i, j)}", *counit_mul(dual, neg(j), neg(i)))
        yield "counit o unit", t.counit @ t.unit, Matrix.identity(1)

    check("bialgebra", bialgebra())
    check("antipode-left", ((f"antipode at sector {s}", *antipode_left(t, s)) for s in labels))
    check("antipode-right", ((f"antipode at sector {s}", *antipode_left(dual, neg(s)))
                             for s in labels))
    return AxiomReport(results, failures)


# -- labeled subspaces -------------------------------------------------------


def unit_span(t: HopfStructure) -> dict:
    """The image of the unit as a labeled subspace."""
    zero = t.obj.backend.zero
    sub = Subspace.from_columns(t.unit)
    return {zero: sub} if not sub.is_zero() else {}


def product_span(t: HopfStructure, A: dict, B: dict) -> dict:
    """Labeled span of m(A (x) B)."""
    out: dict = {}
    for i, sub_a in A.items():
        for j, sub_b in B.items():
            target = t.obj.backend.add(i, j)
            if target not in t.obj.sectors:
                continue
            image = t.mul_at(i, j) @ sub_a.basis.kron(sub_b.basis)
            if image.is_zero():
                continue
            span = Subspace.from_columns(image)
            cur = out.get(target)
            out[target] = span if cur is None else cur.add(span)
    return {label: sub for label, sub in out.items() if not sub.is_zero()}


def _labeled_union(A: dict, B: dict) -> dict:
    out = dict(A)
    for label, sub in B.items():
        cur = out.get(label)
        out[label] = sub if cur is None else cur.add(sub)
    return out


def _labeled_dims(A: dict) -> dict:
    return {label: sub.dim for label, sub in A.items()}


def generated_by(t: HopfStructure, seed: dict) -> bool:
    """Whether the unit plus the seed generates everything under products.

    The closure grows by products with the seed, which by associativity
    reaches the same subalgebra as products of the closure with itself.
    """
    closure = _labeled_union(unit_span(t), seed)
    while True:
        grown = _labeled_union(closure, product_span(t, closure, seed))
        if _labeled_dims(grown) == _labeled_dims(closure):
            break
        closure = grown
    full = {label: space.dim for label, space in t.obj.sectors.items()}
    return _labeled_dims(closure) == full


def _degree_parts(t: HopfStructure, degree: int) -> dict:
    """Labeled span of the basis vectors sitting in one degree."""
    assert t.grading is not None
    out = {}
    for label, space in t.obj.sectors.items():
        vectors = []
        for k in range(space.dim):
            if t.grading[label][k] == degree:
                row = [ZERO] * space.dim
                row[k] = ONE
                vectors.append(row)
        if vectors:
            out[label] = Subspace.from_vectors(space.dim, vectors)
    return out


def degree_one_generated(t: HopfStructure) -> bool:
    if t.grading is None:
        raise ValueError("structure carries no grading")
    return generated_by(t, _degree_parts(t, 1))


def grading_respected(t: HopfStructure) -> bool:
    """Whether every stored block is homogeneous for the carried grading."""
    if t.grading is None:
        return False
    g = t.grading
    obj = t.obj
    for (i, j), block in t.mul.items():
        target = obj.backend.add(i, j)
        dj = obj.dim(j)
        for (r, c), _ in block.entries.items():
            if g[target][r] != g[i][c // dj] + g[j][c % dj]:
                return False
    for (i, j), block in t.cop.items():
        source = obj.backend.add(i, j)
        dj = obj.dim(j)
        for (r, c), _ in block.entries.items():
            if g[source][c] != g[i][r // dj] + g[j][r % dj]:
                return False
    for i, block in t.antipode.items():
        for (r, c), _ in block.entries.items():
            if g[i][r] != g[i][c]:
                return False
    zero = obj.backend.zero
    for (r, _), _ in t.unit.entries.items():
        if g[zero][r] != 0:
            return False
    for (_, c), _ in t.counit.entries.items():
        if g[zero][c] != 0:
            return False
    return True


# -- connectedness ------------------------------------------------------------


def augmentation_powers(t: HopfStructure) -> Optional[list]:
    """The nonzero powers J, J^2, ... of the counit kernel J, or None.

    J is an ideal, so its powers form a decreasing chain, and a power with
    the dimensions of the one before means the chain stalls above zero.  A
    chain still moving after total-dimension steps, which only input that
    fails associativity can give, is cut off there.  None marks both.
    """
    obj = t.obj
    zero = obj.backend.zero
    ideal = {}
    for label, space in obj.sectors.items():
        sub = kernel(t.counit) if label == zero else Subspace.full(space.dim)
        if sub.dim:
            ideal[label] = sub
    powers: list = []
    power = ideal
    while power:
        if len(powers) == obj.total_dim():
            return None
        powers.append(power)
        nxt = product_span(t, power, ideal)
        if _labeled_dims(nxt) == _labeled_dims(power):
            return None
        power = nxt
    return powers


def check_connected(t: HopfStructure) -> bool:
    """Nilpotency of the counit kernel.  Expects the axioms to hold."""
    return t.powers is not None


def check_coconnected(t: HopfStructure) -> bool:
    """Connectedness of the dual."""
    return check_connected(t.dual)


# -- group action -------------------------------------------------------------


def _normalize_automorphism(t: HopfStructure, gamma: dict) -> tuple:
    """Fill identity blocks, check shapes, return (gamma, gamma_inverse)."""
    full: dict = {}
    inv: dict = {}
    for label, space in t.obj.sectors.items():
        block = gamma.get(label)
        if block is None:
            block = Matrix.identity(space.dim)
        if block.shape != (space.dim, space.dim):
            raise ValueError(f"automorphism block at {label} has shape {block.shape}")
        try:
            inv[label] = inverse(block)
        except ZeroDivisionError:
            raise ValueError(f"automorphism block at {label} is singular") from None
        full[label] = block
    return full, inv


def act(gamma: dict, t: HopfStructure) -> HopfStructure:
    """Conjugate the structure constants by a block automorphism.

    gamma maps sector labels to invertible matrices; missing sectors act as
    the identity.  The grading survives exactly when every block preserves
    it, otherwise the result is ungraded.
    """
    full, inv = _normalize_automorphism(t, gamma)
    backend = t.obj.backend
    mul = {}
    for (i, j), block in t.mul.items():
        target = backend.add(i, j)
        mul[(i, j)] = full[target] @ block @ inv[i].kron(inv[j])
    cop = {}
    for (i, j), block in t.cop.items():
        source = backend.add(i, j)
        cop[(i, j)] = full[i].kron(full[j]) @ block @ inv[source]
    antipode = {i: full[i] @ block @ inv[i] for i, block in t.antipode.items()}
    zero = backend.zero
    unit = full[zero] @ t.unit
    counit = t.counit @ inv[zero]
    grading = t.grading
    if grading is not None:
        for label, block in full.items():
            degrees = grading[label]
            if any(degrees[r] != degrees[c] for (r, c) in block.entries):
                grading = None
                break
    return HopfStructure(t.obj, mul, unit, cop, counit, antipode, grading)


def compose_automorphisms(t: HopfStructure, outer: dict, inner: dict) -> dict:
    """Per-sector product outer o inner, filling identities for gaps."""
    out = {}
    for label, space in t.obj.sectors.items():
        a = outer.get(label, Matrix.identity(space.dim))
        b = inner.get(label, Matrix.identity(space.dim))
        out[label] = a @ b
    return out


# -- primitives ---------------------------------------------------------------


def primitive_sectors(t: HopfStructure) -> dict:
    """Labeled subspace of primitives: cop(x) = x (x) 1 + 1 (x) x."""
    obj = t.obj
    zero = obj.backend.zero
    out = {}
    for s, space in obj.sectors.items():
        blocks = []
        for i, j in obj.splits(s):
            block = t.cop_at(i, j)
            if (i, j) == (s, zero):
                block = block - Matrix.identity(space.dim).kron(t.unit)
            if (i, j) == (zero, s):
                block = block - t.unit.kron(Matrix.identity(space.dim))
            blocks.append(block)
        sub = kernel(vstack(blocks)) if blocks else Subspace.full(space.dim)
        if not sub.is_zero():
            out[s] = sub
    return out


# -- isomorphism search -------------------------------------------------------


def structurally_equal(t1: HopfStructure, t2: HopfStructure) -> bool:
    """Equality of all structure constants, ignoring basis label strings.

    A structure and its double dual, or a graded dual rebuilt from scratch,
    carry the same blocks under differently named bases; the names alone
    must not separate them.  Everything else, grading included, has to
    match on the nose.
    """
    obj1, obj2 = t1.obj, t2.obj
    if obj1.backend != obj2.backend:
        return False
    if sorted(obj1.sectors) != sorted(obj2.sectors):
        return False
    if any(obj1.dim(label) != obj2.dim(label) for label in obj1.sectors):
        return False
    return (
        t1.mul == t2.mul
        and t1.unit == t2.unit
        and t1.cop == t2.cop
        and t1.counit == t2.counit
        and t1.antipode == t2.antipode
        and t1.grading == t2.grading
    )


def graded_iso_search(t1: HopfStructure, t2: HopfStructure) -> Optional[dict]:
    """Search for gamma with act(gamma, t1) = t2, in the monomial family.

    Both structures must be graded and generated in degree one (anything
    else raises).  The search assumes degree-one sector parts are at most
    lines with integer-independent labels, so each sector holds the products
    of one multiset of generators, and any isomorphism in this family fixes
    each sector and scales generators by scalars that cancel in every axiom.

    The search runs degree by degree from the unit.  A sector's candidate
    columns are the columns kept one degree down, multiplied on the right by
    a generator.  The RREF pivots of the candidates in t1 are kept, as a
    basis of the sector, and the same columns are taken in t2, so both sides
    hold the same products of generators; gamma maps the t1 columns onto
    the t2 ones.  Candidates that fail to span a sector end the search, and
    the final comparison act(gamma, t1) = t2 decides.  Basis label strings
    carry no weight.  Returns the automorphism as a label -> Matrix dict, or
    None.
    """
    for t in (t1, t2):
        if t.grading is None:
            raise ValueError("isomorphism search requires graded structures")
        if not degree_one_generated(t):
            raise ValueError("isomorphism search requires degree-one generation")

    if t1.obj.backend != t2.obj.backend or t1.grading != t2.grading:
        return None
    if sorted(t1.obj.sectors) != sorted(t2.obj.sectors):
        return None
    if any(t1.obj.dim(label) != t2.obj.dim(label) for label in t1.obj.sectors):
        return None

    obj = t1.obj
    deg1_1 = _degree_parts(t1, 1)
    deg1_2 = _degree_parts(t2, 1)
    if sorted(deg1_1) != sorted(deg1_2):
        return None
    if any(sub.dim != 1 for sub in deg1_1.values()):
        return None
    if any(sub.dim != 1 for sub in deg1_2.values()):
        return None
    gen_labels = sorted(deg1_1)
    # integer independence keeps the sector-content decomposition unique
    label_matrix = Matrix.from_rows([list(lab) for lab in gen_labels]).transpose()
    if rank(label_matrix) != len(gen_labels):
        return None

    gamma: dict = {}
    candidates = {obj.backend.zero: [(t1.unit, t2.unit)]}
    while candidates:
        kept = {}
        for sector, columns in candidates.items():
            phi1 = hstack([c1 for c1, _ in columns])
            pivots, _ = rref(phi1)
            if len(pivots) != obj.dim(sector):
                return None  # products fail to span, despite generation: give up
            kept[sector] = (phi1.select_columns(pivots),
                            hstack([c2 for _, c2 in columns]).select_columns(pivots))
            gamma[sector] = kept[sector][1] @ inverse(kept[sector][0])
        candidates = {}
        for r, (cols1, cols2) in kept.items():
            for g in gen_labels:
                s = obj.backend.add(r, g)
                if s in obj.sectors:
                    candidates.setdefault(s, []).append((
                        t1.mul_at(r, g) @ cols1.kron(deg1_1[g].basis),
                        t2.mul_at(r, g) @ cols2.kron(deg1_2[g].basis),
                    ))

    return gamma if structurally_equal(act(gamma, t1), t2) else None


# -- packaging engine output --------------------------------------------------


def from_nichols(report: NicholsReport) -> HopfStructure:
    """Package a finite engine result as a graded structure-constant point.

    The engine is already graded by letter content, so its nonzero content
    spaces are the sectors and its blocks are the structure constants as
    they stand.  Raises on an undetermined report: only a certified finite
    algebra is a point.
    """
    from .nichols import FINITE

    if report.termination != FINITE:
        raise ValueError("structure constants need a finite Nichols algebra")
    Q = report.quotient
    backend = LabelBackend(report.braiding)
    obj = DecomposedObject(backend, {c: space for c, space in Q.spaces.items() if space.dim})
    sectors = obj.sectors

    mul = {}
    cop = {}
    for k in sectors:
        for i, j in obj.splits(k):
            mul[(i, j)] = Q.mul_block(i, j)
            cop[(i, j)] = Q.cop_block(k, i)

    # S_c = -(1 + sum over 0 < i < c of m(S_i (x) 1) cop^{i,c-i}), by degree
    antipode = {backend.zero: Matrix.identity(1)}
    for c, space in sectors.items():
        if c == backend.zero:
            continue
        total = Matrix.identity(space.dim)
        for i, j in obj.splits(c):
            if backend.zero not in (i, j):
                piece = mul[(i, j)] @ antipode[i].kron(Matrix.identity(sectors[j].dim))
                total = total + piece @ cop[(i, j)]
        antipode[c] = -total

    unit = Matrix.identity(1)
    counit = Matrix.identity(1)
    grading = {c: (sum(c),) * space.dim for c, space in sectors.items()}
    return HopfStructure(obj, mul, unit, cop, counit, antipode, grading)
