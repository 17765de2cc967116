"""Algebra filtrations, one-parameter orbits, and degenerations.

A filtration here is an increasing chain of labeled subspaces indexed by a
finite window of integers, zero below the window and everything above it.
The radical chain hangs the powers of the augmentation ideal at indices
0, -1, -2, ...; the coradical chain climbs from the span of the unit at
index 0.  The two are dual: the coradical chain of t at index n is the
annihilator of the (n+1)-st power of the augmentation ideal of the dual,
so both come from the powers the structure keeps, its own or its dual's.
On a Hopf structure either one satisfies the seven compatibility
conditions of filtration_conditions, which reads all seven from the signs
of the lambda exponents of one split.  Those conditions are exactly what
makes the one-parameter family of conjugates by

    phi(lambda) = sum_i lambda^{-i} * (projection onto the i-th piece)

extend across lambda = 0: in split coordinates every structure constant
picks up a single power of lambda, non-negative whenever the filtration
conditions hold, and the limit keeps the exponent-zero entries only.
The constructors only build the chain; a caller that relies on the
conditions runs filtration_conditions itself.

Why the exponents decide the conditions.  split_basis tags each basis
vector v_a of a sector with tau(a), the window index where its pivot first
appears, or hi + 1 for the unit vectors that complete a chain that does
not exhaust.  Pivots of nested echelon forms nest, so the vectors tagged
at most n lie in F_n, have distinct leading columns and number dim F_n.
None is tagged below lo and all at most hi + 1, so F_n = span{v_a :
tau(a) <= n} for every integer n, and the sum of F_n (x) F_m over n + m = k
is span{v_a (x) v_b : tau(a) + tau(b) <= k}.  Each condition says that
a structure map sends the span of index k into the span of index k, for
every k, the ground field sitting at index 0: unit-in-zero is 1 in F_0,
counit-vanishing is counit(F_{-1}) = 0.  That holds exactly when no entry
of the map in these coordinates has a negative exponent, the source
vector's index minus the target vector's: a basis vector of index k must
have no coordinate on a target tagged above k, and linearity does the
rest.  The entries are those of mul (source index tau(a) + tau(b)), cop
(target index tau(a) + tau(b)), the unit (source index 0), the counit
(target index 0) and S, each against its own condition.  exhausts holds
when nothing is tagged hi + 1, and bounded-below always holds.  The
coordinates need a well-formed structure, every block of the shape its
sectors give it, which the structure commands check on loading.

There is one conjugation per split: split_basis holds the basis P and its
inverse and forms P^{-1} . t . P once.  The limit (through the exponent
pass) and associated_graded (through exponents of its own) are two filters
of it, which the tests pin down to agree entry for entry.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import Matrix, Subspace, inverse, kernel
from .scalars import ONE, ZERO, Scalar, from_rational
from .structconst import (
    DecomposedObject,
    HopfStructure,
    conjugate,
    full_layer,
    layer_dims,
    primitive_sectors,
)

__all__ = [
    "HopfFiltration",
    "GradingSplit",
    "FILTRATION_CONDITIONS",
    "filtration_conditions",
    "radical_filtration",
    "coradical_filtration",
    "split_basis",
    "degenerate_limit",
    "associated_graded",
    "lambda_exponent_report",
    "primitive_dims_along_path",
]

Layer = Dict[tuple, Subspace]

FILTRATION_CONDITIONS = (
    "exhausts",
    "bounded-below",
    "multiplicative",
    "comultiplicative",
    "counit-vanishing",
    "unit-in-zero",
    "antipode-stable",
)


def _layer_leq(lower: Layer, upper: Layer) -> bool:
    for label, sub in lower.items():
        if sub.dim == 0:
            continue
        target = upper.get(label)
        if target is None or not target.contains_columns(sub.basis):
            return False
    return True


def _annihilator(obj: DecomposedObject, layer: Layer) -> Layer:
    """The annihilator in obj of a layer of the dual object: sector -gamma of
    the dual pairs with sector gamma coordinate for coordinate, so in sector
    gamma it is the kernel of the rows spanning the layer in sector -gamma."""
    neg = obj.backend.neg
    out = {}
    for label, space in obj.sectors.items():
        rows = layer.get(neg(label))
        sub = kernel(rows.row_matrix) if rows is not None else Subspace.full(space.dim)
        if sub.dim:
            out[label] = sub
    return out


class HopfFiltration:
    """Nested chain of labeled subspaces compatible with a Hopf structure.

    chain maps every index in window = (lo, hi) to a layer, a dict from
    sector label to a subspace of that sector; sectors may be omitted when
    the subspace is zero.  Below the window the filtration is zero, above
    it the whole object (the layer `full`).  Construction checks only the
    chain's shape and nesting; filtration_conditions judges compatibility.
    The split is built on first use and kept.
    """

    __slots__ = ("structure", "kind", "window", "chain", "full", "_split")

    def __init__(self, structure: HopfStructure, kind: str, window: Tuple[int, int], chain: Dict[int, Layer]):
        lo, hi = window
        if lo > hi:
            raise ValueError("empty filtration window")
        if set(chain) != set(range(lo, hi + 1)):
            raise ValueError("chain must cover exactly the window indices")
        obj = structure.obj
        for layer in chain.values():
            for label, sub in layer.items():
                if label not in obj.sectors:
                    raise ValueError(f"layer mentions unknown sector {label}")
                if sub.ambient_dim != obj.sectors[label].dim:
                    raise ValueError(f"subspace in sector {label} has wrong ambient dimension")
        for i in range(lo, hi):
            if not _layer_leq(chain[i], chain[i + 1]):
                raise ValueError(f"filtration chain is not nested at index {i}")
        self.structure = structure
        self.kind = kind
        self.window = window
        self.chain = chain
        self.full = full_layer(obj)
        self._split = None

    @property
    def split(self) -> "GradingSplit":
        """split_basis(self), built on first use."""
        if self._split is None:
            self._split = split_basis(self)
        return self._split

    def at(self, i: int) -> Layer:
        lo, hi = self.window
        return {} if i < lo else self.full if i > hi else self.chain[i]

    def layer_dims(self) -> Dict[int, dict]:
        return {i: layer_dims(self.chain[i]) for i in self.chain}


def filtration_conditions(f: HopfFiltration) -> Dict[str, bool]:
    """Verify the seven compatibility conditions, one verdict per key.

    Each is read from the signs of the lambda exponents in the coordinates
    of f.split, as the module docstring proves; the structure must be
    well-formed.
    """
    split = f.split
    negative = {family for family, _, _, exponents in _split_exponents(split)
                if any(e < 0 for e in exponents.values())}
    top = f.window[1] + 1
    results = {"exhausts": all(top not in tags for tags in split.indices.values())}
    # nothing is tagged below the window, where every layer is zero, so the
    # filtration is bounded below by construction and there is nothing to check
    results["bounded-below"] = True
    for name, family in (("multiplicative", "mul"), ("comultiplicative", "cop"),
                         ("counit-vanishing", "counit"), ("unit-in-zero", "unit"),
                         ("antipode-stable", "antipode")):
        results[name] = family not in negative
    return results


def _connected_both_ways(t: HopfStructure) -> None:
    # both sides, whichever one a constructor reads: the structures keep
    # their powers, so later checks and filtrations reuse them
    if not t.connected_and_coconnected:
        raise ValueError("filtration needs a connected and coconnected structure")


def radical_filtration(t: HopfStructure) -> HopfFiltration:
    """Powers of the augmentation ideal, J^k sitting at index -k."""
    _connected_both_ways(t)
    powers = t.powers
    chain = {0: full_layer(t.obj)}
    for k, power in enumerate(powers, 1):
        chain[-k] = power
    return HopfFiltration(t, "radical", (-len(powers), 0), chain)


def coradical_filtration(t: HopfStructure) -> HopfFiltration:
    """Wedge powers of the unit span, read off the radical powers of the dual.

    For a finite-dimensional coalgebra the wedge chain C_n = C_{n-1} ^ C_0
    is the chain of annihilators of J*^{n+1}, J* the counit kernel of the
    dual, and the last nonzero power J*^N puts the whole object at index N.
    The powers exist exactly when t is coconnected.
    """
    _connected_both_ways(t)
    powers = t.dual.powers
    chain = {n: _annihilator(t.obj, power) for n, power in enumerate(powers)}
    chain[len(powers)] = full_layer(t.obj)
    return HopfFiltration(t, "coradical", (0, len(powers)), chain)


class GradingSplit(NamedTuple):
    """A basis refining a filtration, tagged by filtration index.

    basis[label] has the chosen vectors as columns, ordered by increasing
    index, and inverse_basis[label] is its inverse; indices[label] records
    the filtration index of each column and degrees(label) its non-negative
    renaming (indices are negated for chains that descend below zero, kept
    as-is otherwise).  coords is the structure in these coordinates,
    inverse_basis . t . basis.
    """

    kind: str
    basis: Dict[tuple, Matrix]
    inverse_basis: Dict[tuple, Matrix]
    indices: Dict[tuple, Tuple[int, ...]]
    coords: HopfStructure

    def degree_of(self, index: int) -> int:
        return -index if self.kind == "radical" else index

    def degrees(self, label) -> Tuple[int, ...]:
        return tuple(self.degree_of(i) for i in self.indices[label])


def split_basis(f: HopfFiltration) -> GradingSplit:
    """Pick echelon complements layer by layer.

    Within each sector the reduced rows of layer i whose pivot column is
    new relative to layer i-1 represent the i-th graded piece; stacking
    them in index order gives a deterministic basis adapted to the chain.
    A chain that does not exhaust is completed by the unit vectors of the
    missing pivot columns, tagged hi + 1, where every layer is the whole
    object.  This is the one place a filtration inverts anything.
    """
    t = f.structure
    lo, hi = f.window
    basis = {}
    inverse_basis = {}
    indices = {}
    for label, space in t.obj.sectors.items():
        seen = set()
        columns = []
        tags = []
        for i in range(lo, hi + 1):
            sub = f.at(i).get(label)
            if sub is None:
                continue
            for row_idx, pivot in enumerate(sub.pivots):
                if pivot in seen:
                    continue
                seen.add(pivot)
                columns.append([sub.row_matrix.get(row_idx, c) for c in range(space.dim)])
                tags.append(i)
        for c in range(space.dim):
            if c not in seen:
                columns.append([ONE if r == c else ZERO for r in range(space.dim)])
                tags.append(hi + 1)
        mat = Matrix.from_columns(columns)
        basis[label] = mat
        inverse_basis[label] = inverse(mat)
        indices[label] = tuple(tags)
    return GradingSplit(f.kind, basis, inverse_basis, indices, conjugate(t, inverse_basis, basis))


def _as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return from_rational(value)


def _split_exponents(split: GradingSplit):
    """The structure in split coordinates, block by block, with exponents.

    Yields (family, key, block, exponents) for every block of split.coords,
    exponents mapping each entry position of the block to its lambda
    exponent, the source index minus the target index, as phi(lambda)
    scales the index-i piece by lambda^{-i}.
    """
    coords = split.coords
    obj = coords.obj
    backend = obj.backend
    idx = split.indices
    zero = backend.zero

    for (i, j), block in coords.mul.items():
        s, dj = backend.add(i, j), obj.dim(j)
        yield "mul", (i, j), block, {
            (r, c): idx[i][c // dj] + idx[j][c % dj] - idx[s][r] for r, c in block.entries}
    for (i, j), block in coords.cop.items():
        s, dj = backend.add(i, j), obj.dim(j)
        yield "cop", (i, j), block, {
            (r, c): idx[s][c] - idx[i][r // dj] - idx[j][r % dj] for r, c in block.entries}
    yield "unit", zero, coords.unit, {(r, c): -idx[zero][r] for r, c in coords.unit.entries}
    yield "counit", zero, coords.counit, {(r, c): idx[zero][c] for r, c in coords.counit.entries}
    for label, block in coords.antipode.items():
        yield "antipode", label, block, {
            (r, c): idx[label][c] - idx[label][r] for r, c in block.entries}


def _scaled_coords(split: GradingSplit, lam) -> HopfStructure:
    """split.coords with every entry times lambda to its exponent: the orbit
    point phi(lambda) . t . phi(lambda)^{-1} in split coordinates, where
    phi(lambda) = basis . diag(lambda^{-index}) . basis^{-1}."""
    lam = _as_scalar(lam)
    if lam.is_zero():
        raise ValueError("the orbit parameter must be invertible; take degenerate_limit for 0")
    powers: Dict[int, Scalar] = {}
    blocks = {"mul": {}, "cop": {}, "unit": {}, "counit": {}, "antipode": {}}
    for family, key, block, exponents in _split_exponents(split):
        entries = dict(block.entries)
        for pos, e in exponents.items():
            if e:
                if e not in powers:
                    powers[e] = lam ** e
                entries[pos] = entries[pos] * powers[e]
        blocks[family][key] = Matrix._nonzero(block.nrows, block.ncols, entries)
    coords = split.coords
    zero = coords.obj.backend.zero
    return HopfStructure(coords.obj, blocks["mul"], blocks["unit"][zero], blocks["cop"],
                         blocks["counit"][zero], blocks["antipode"], coords.grading)


def degenerate_limit(t: HopfStructure, split: GradingSplit) -> HopfStructure:
    """Send the orbit parameter to zero: keep the exponent-0 entries.

    split is the split of a filtration of t and holds t in its coordinates.
    Entries with positive exponent vanish in the limit; a negative
    exponent means the split does not refine a compatible filtration and
    is reported as an error rather than truncated.
    """
    blocks = {"mul": {}, "cop": {}, "unit": {}, "counit": {}, "antipode": {}}
    violations = []
    for family, key, block, exponents in _split_exponents(split):
        violations += [(family, key, r, c, e) for (r, c), e in exponents.items() if e < 0]
        entries = {pos: v for pos, v in block.entries.items() if exponents[pos] == 0}
        blocks[family][key] = Matrix(block.nrows, block.ncols, entries)
    if violations:
        raise ValueError(f"split is not compatible with the structure: negative lambda exponents at {violations[:4]}")
    zero = t.obj.backend.zero
    grading = {label: split.degrees(label) for label in t.obj.sectors}
    return HopfStructure(t.obj, blocks["mul"], blocks["unit"][zero], blocks["cop"],
                         blocks["counit"][zero], blocks["antipode"], grading)


def associated_graded(t: HopfStructure, f: HopfFiltration) -> HopfStructure:
    """Build the graded structure from the filtration quotients directly.

    Works in the coordinates of f.split and keeps, per structure constant,
    the part where the filtration indices balance exactly; this is the
    layerwise composition projection . map . inclusion written in one
    matrix per block.  Its exponent filter is its own, independent of the
    exponent pass that degenerate_limit reads, which must agree with it.
    """
    split = f.split
    coords = split.coords
    obj = t.obj
    backend = obj.backend
    idx = split.indices
    zero = backend.zero

    def filter_entries(block: Matrix, exponent) -> Matrix:
        entries = {pos: v for pos, v in block.entries.items() if exponent(*pos) == 0}
        return Matrix(block.nrows, block.ncols, entries)

    mul = {}
    for (i_label, j_label), block in coords.mul.items():
        s_label = backend.add(i_label, j_label)
        dj = obj.dim(j_label)
        mul[(i_label, j_label)] = filter_entries(
            block,
            lambda r, c: idx[i_label][c // dj] + idx[j_label][c % dj] - idx[s_label][r],
        )
    cop = {}
    for (i_label, j_label), block in coords.cop.items():
        s_label = backend.add(i_label, j_label)
        dj = obj.dim(j_label)
        cop[(i_label, j_label)] = filter_entries(
            block,
            lambda r, c: idx[s_label][c] - idx[i_label][r // dj] - idx[j_label][r % dj],
        )
    antipode = {}
    for label, block in coords.antipode.items():
        antipode[label] = filter_entries(block, lambda r, c: idx[label][c] - idx[label][r])
    unit = filter_entries(coords.unit, lambda r, c: -idx[zero][r])
    counit = filter_entries(coords.counit, lambda r, c: idx[zero][c])
    grading = {label: split.degrees(label) for label in obj.sectors}
    return HopfStructure(obj, mul, unit, cop, counit, antipode, grading)


def lambda_exponent_report(t: HopfStructure, split: GradingSplit) -> dict:
    """Exponent inventory of the one-parameter family, for reports."""
    entries = []
    violations = []
    for family, key, _, exponents in _split_exponents(split):
        for (r, c), e in exponents.items():
            record = {"family": family, "key": key, "row": r, "col": c, "exponent": e}
            entries.append(record)
            if e < 0:
                violations.append(record)
    return {"entries": entries, "violations": violations}


def primitive_dims_along_path(t: HopfStructure, split: GradingSplit, lams: Sequence,
                              limit: Optional[HopfStructure] = None) -> List[int]:
    """Total primitive dimension at each sample parameter, then at the limit.

    The orbit point at lambda is basis . (split.coords scaled) . basis^{-1},
    where each entry of split.coords is scaled by lambda to its exponent.
    Conjugating by the basis keeps primitive dimensions, so each sample
    takes them from the scaled coordinates, with one power of lambda per
    distinct exponent and no matrix product.  The limit is
    degenerate_limit(t, split), unless the caller has it.
    """

    def total(structure: HopfStructure) -> int:
        return sum(sub.dim for sub in primitive_sectors(structure).values())

    dims = [total(_scaled_coords(split, lam)) for lam in lams]
    dims.append(total(degenerate_limit(t, split) if limit is None else limit))
    return dims
