"""Algebra filtrations, one-parameter orbits, and degenerations.

A filtration here is an increasing chain of labeled subspaces indexed by a
finite window of integers, zero below the window and everything above it.
The radical chain hangs the powers of the augmentation ideal at indices
0, -1, -2, ...; the coradical chain climbs from the span of the unit at
index 0.  The two are dual: the coradical chain of t at index n is the
annihilator of the (n+1)-st power of the augmentation ideal of the dual,
so both come from the powers the structure keeps, its own or its dual's.
On a Hopf structure either one satisfies the seven compatibility
conditions of filtration_conditions, which checks the coalgebra ones as
algebra conditions of the annihilator filtration on the dual.  Those
conditions are exactly what makes the one-parameter family of conjugates by

    phi(lambda) = sum_i lambda^{-i} * (projection onto the i-th piece)

extend across lambda = 0: in split coordinates every structure constant
picks up a single power of lambda, non-negative whenever the filtration
conditions hold, and the limit keeps the exponent-zero entries only.
The constructors only build the chain; a caller that relies on the
conditions runs filtration_conditions itself.

The limit is computed twice by design: once by that exponent filter and
once degree by degree from the filtration quotients (associated_graded).
The two must agree entry for entry, which the tests pin down.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import Matrix, Subspace, inverse, kernel
from .scalars import ONE, ZERO, Scalar, from_rational
from .structconst import DecomposedObject, HopfStructure, act, primitive_sectors

__all__ = [
    "HopfFiltration",
    "GradingSplit",
    "FILTRATION_CONDITIONS",
    "filtration_conditions",
    "radical_filtration",
    "coradical_filtration",
    "degree_filtration",
    "split_basis",
    "one_param_orbit",
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


def _full_layer(obj: DecomposedObject) -> Layer:
    return {label: Subspace.full(space.dim) for label, space in obj.sectors.items()}


def _layer_leq(lower: Layer, upper: Layer) -> bool:
    for label, sub in lower.items():
        if sub.dim == 0:
            continue
        target = upper.get(label)
        if target is None or not target.contains_columns(sub.basis):
            return False
    return True


def _layer_is_full(obj: DecomposedObject, layer: Layer) -> bool:
    return all(
        label in layer and layer[label].dim == space.dim
        for label, space in obj.sectors.items()
    )


def _layer_dims(layer: Layer) -> dict:
    return {label: sub.dim for label, sub in layer.items() if sub.dim}


def _layer_at(window: Tuple[int, int], chain: Dict[int, Layer], full: Layer, i: int) -> Layer:
    lo, hi = window
    return {} if i < lo else full if i > hi else chain[i]


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
    """

    __slots__ = ("structure", "kind", "window", "chain", "full")

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
        self.full = _full_layer(obj)

    def at(self, i: int) -> Layer:
        return _layer_at(self.window, self.chain, self.full, i)

    def layer_dims(self) -> Dict[int, dict]:
        return {i: _layer_dims(self.chain[i]) for i in self.chain}


def _multiplicative(t: HopfStructure, window: Tuple[int, int], at) -> bool:
    """Whether layer i times layer j lies in layer i + j, for all i and j.

    A factor below the window is zero and a target above it is everything,
    so only the pairs with both factors from lo and i + j <= hi can fail;
    the image of each pair of sector bases must lie in its target sector.
    """
    lo, hi = window
    add = t.obj.backend.add
    for i in range(lo, hi + 2):
        for j in range(lo, min(hi + 1, hi - i) + 1):
            target = at(i + j)
            for a, sub_a in at(i).items():
                for b, sub_b in at(j).items():
                    block = t.mul.get((a, b))
                    if block is None:
                        continue
                    image = block @ sub_a.basis.kron(sub_b.basis)
                    into = target.get(add(a, b))
                    if not image.is_zero() and (into is None or not into.contains_columns(image)):
                        return False
    return True


def _unit_in_zero(t: HopfStructure, at) -> bool:
    zero = t.obj.backend.zero
    return at(0).get(zero, Subspace.zero(t.obj.dim(zero))).contains_columns(t.unit)


def filtration_conditions(f: HopfFiltration) -> Dict[str, bool]:
    """Verify the seven compatibility conditions, one verdict per key.

    The coalgebra conditions are algebra conditions on the dual of the
    filtered structure.  There the annihilators G_n of F_{-n-1} form a
    filtration on the window (-hi-1, -lo-1); F is comultiplicative exactly
    when G is multiplicative, and the counit vanishes on F_{-1} exactly
    when the dual's unit lies in G_0.
    """
    t = f.structure
    dual = t.dual
    lo, hi = f.window
    g_window = (-hi - 1, -lo - 1)
    g_chain = {-n - 1: _annihilator(dual.obj, layer) for n, layer in f.chain.items()}
    g_at = partial(_layer_at, g_window, g_chain, _full_layer(dual.obj))
    results = {"exhausts": _layer_is_full(t.obj, f.at(hi))}
    # `at` returns the empty layer below the window, so the filtration is
    # bounded below by construction and there is nothing to check
    results["bounded-below"] = True
    results["multiplicative"] = _multiplicative(t, f.window, f.at)
    results["comultiplicative"] = _multiplicative(dual, g_window, g_at)
    results["counit-vanishing"] = _unit_in_zero(dual, g_at)
    results["unit-in-zero"] = _unit_in_zero(t, f.at)
    results["antipode-stable"] = all(
        sub.contains_columns(t.antipode_at(label) @ sub.basis)
        for i in range(lo, hi + 1)
        for label, sub in f.at(i).items()
        if sub.dim
    )
    return results


def _connected_both_ways(t: HopfStructure) -> None:
    # both sides, whichever one a constructor reads: the structures keep
    # their powers, so later checks and filtrations reuse them
    if t.powers is None or t.dual.powers is None:
        raise ValueError("filtration needs a connected and coconnected structure")


def radical_filtration(t: HopfStructure) -> HopfFiltration:
    """Powers of the augmentation ideal, J^k sitting at index -k."""
    _connected_both_ways(t)
    powers = t.powers
    chain = {0: _full_layer(t.obj)}
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
    chain[len(powers)] = _full_layer(t.obj)
    return HopfFiltration(t, "coradical", (0, len(powers)), chain)


def degree_filtration(t: HopfStructure) -> HopfFiltration:
    """The filtration a grading already carries: everything of degree <= i."""
    if t.grading is None:
        raise ValueError("degree filtration needs a graded structure")
    degrees = [d for degs in t.grading.values() for d in degs]
    if any(d < 0 for d in degrees):
        raise ValueError("degree filtration needs non-negative degrees")
    hi = max(degrees, default=0)
    chain = {}
    for i in range(hi + 1):
        layer = {}
        for label, space in t.obj.sectors.items():
            vectors = []
            for pos, d in enumerate(t.grading[label]):
                if d <= i:
                    vec = [ZERO] * space.dim
                    vec[pos] = ONE
                    vectors.append(vec)
            if vectors:
                layer[label] = Subspace.from_vectors(space.dim, vectors)
        chain[i] = layer
    return HopfFiltration(t, "degree", (0, hi), chain)


class GradingSplit(NamedTuple):
    """A basis refining a filtration, tagged by filtration index.

    basis[label] has the chosen vectors as columns, ordered by increasing
    index; indices[label] records the filtration index of each column and
    degrees[label] its non-negative renaming (indices are negated for
    chains that descend below zero, kept as-is otherwise).
    """

    structure: HopfStructure
    kind: str
    window: Tuple[int, int]
    basis: Dict[tuple, Matrix]
    inverse_basis: Dict[tuple, Matrix]
    indices: Dict[tuple, Tuple[int, ...]]

    def degree_of(self, index: int) -> int:
        return -index if self.kind == "radical" else index

    def degrees(self, label) -> Tuple[int, ...]:
        return tuple(self.degree_of(i) for i in self.indices[label])


def split_basis(f: HopfFiltration) -> GradingSplit:
    """Pick echelon complements layer by layer.

    Within each sector the reduced rows of layer i whose pivot column is
    new relative to layer i-1 represent the i-th graded piece; stacking
    them in index order gives a deterministic basis adapted to the chain.
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
        if len(columns) != space.dim:
            raise ValueError(f"filtration misses {space.dim - len(columns)} directions in sector {label}")
        mat = Matrix.from_columns(columns)
        basis[label] = mat
        inverse_basis[label] = inverse(mat)
        indices[label] = tuple(tags)
    return GradingSplit(t, f.kind, f.window, basis, inverse_basis, indices)


def _as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return from_rational(value)


def one_param_orbit(t: HopfStructure, split: GradingSplit, lam) -> HopfStructure:
    """Conjugate by phi(lambda) = basis . diag(lambda^{-index}) . basis^{-1}."""
    lam = _as_scalar(lam)
    if lam.is_zero():
        raise ValueError("the orbit parameter must be invertible; take degenerate_limit for 0")
    gamma = {}
    for label, mat in split.basis.items():
        diag = Matrix.diagonal([lam ** (-i) for i in split.indices[label]])
        gamma[label] = mat @ diag @ split.inverse_basis[label]
    return act(gamma, t)


def _split_entry_exponents(t: HopfStructure, split: GradingSplit):
    """Structure constants in split coordinates with their lambda exponents.

    Yields (family, key, row, col, value, exponent) for every nonzero
    entry of the conjugated structure.  Exponent conventions follow from
    phi(lambda) scaling the index-i piece by lambda^{-i}.
    """
    conj = act(dict(split.inverse_basis), t)
    obj = t.obj
    backend = obj.backend
    idx = split.indices
    zero = backend.zero

    for (i_label, j_label), block in conj.mul.items():
        s_label = backend.add(i_label, j_label)
        dj = obj.dim(j_label)
        for (r, c), v in block.entries.items():
            a, b = divmod(c, dj)
            e = idx[i_label][a] + idx[j_label][b] - idx[s_label][r]
            yield ("mul", (i_label, j_label), r, c, v, e)
    for (i_label, j_label), block in conj.cop.items():
        s_label = backend.add(i_label, j_label)
        dj = obj.dim(j_label)
        for (r, c), v in block.entries.items():
            a, b = divmod(r, dj)
            e = idx[s_label][c] - idx[i_label][a] - idx[j_label][b]
            yield ("cop", (i_label, j_label), r, c, v, e)
    for (r, c), v in conj.unit.entries.items():
        yield ("unit", zero, r, c, v, -idx[zero][r])
    for (r, c), v in conj.counit.entries.items():
        yield ("counit", zero, r, c, v, idx[zero][c])
    for label, block in conj.antipode.items():
        for (r, c), v in block.entries.items():
            yield ("antipode", label, r, c, v, idx[label][c] - idx[label][r])


def degenerate_limit(t: HopfStructure, split: GradingSplit) -> HopfStructure:
    """Send the orbit parameter to zero: keep the exponent-0 entries.

    Entries with positive exponent vanish in the limit; a negative
    exponent means the split does not refine a compatible filtration and
    is reported as an error rather than truncated.
    """
    obj = t.obj
    kept = {"mul": {}, "cop": {}, "unit": {}, "counit": {}, "antipode": {}}
    violations = []
    for family, key, r, c, v, e in _split_entry_exponents(t, split):
        if e < 0:
            violations.append((family, key, r, c, e))
        elif e == 0:
            kept[family].setdefault(key, {})[(r, c)] = v
    if violations:
        raise ValueError(f"split is not compatible with the structure: negative lambda exponents at {violations[:4]}")

    backend = obj.backend
    zero = backend.zero
    d0 = obj.dim(zero)

    def rebuild(family: str, shape) -> dict:
        blocks = {}
        for key, entries in kept[family].items():
            nrows, ncols = shape(key)
            blocks[key] = Matrix(nrows, ncols, entries)
        return blocks

    mul = rebuild("mul", lambda k: (obj.dim(backend.add(*k)), obj.dim(k[0]) * obj.dim(k[1])))
    cop = rebuild("cop", lambda k: (obj.dim(k[0]) * obj.dim(k[1]), obj.dim(backend.add(*k))))
    antipode = rebuild("antipode", lambda k: (obj.dim(k), obj.dim(k)))
    unit = Matrix(d0, 1, kept["unit"].get(zero, {}))
    counit = Matrix(1, d0, kept["counit"].get(zero, {}))
    grading = {label: split.degrees(label) for label in obj.sectors}
    return HopfStructure(obj, mul, unit, cop, counit, antipode, grading)


def associated_graded(t: HopfStructure, f: HopfFiltration,
                      split: Optional[GradingSplit] = None) -> HopfStructure:
    """Build the graded structure from the filtration quotients directly.

    Works in the split basis (split_basis(f), unless the caller has it) and
    keeps, per structure constant, the part where the filtration indices
    balance exactly; this is the layerwise composition projection . map .
    inclusion written in one matrix per block.  Independent of
    degenerate_limit, which must agree with it.
    """
    if split is None:
        split = split_basis(f)
    obj = t.obj
    backend = obj.backend
    idx = split.indices
    P = split.basis
    Pinv = split.inverse_basis
    zero = backend.zero

    def filter_entries(block: Matrix, exponent) -> Matrix:
        entries = {pos: v for pos, v in block.entries.items() if exponent(*pos) == 0}
        return Matrix(block.nrows, block.ncols, entries)

    mul = {}
    for (i_label, j_label), block in t.mul.items():
        s_label = backend.add(i_label, j_label)
        dj = obj.dim(j_label)
        full = Pinv[s_label] @ block @ P[i_label].kron(P[j_label])
        mul[(i_label, j_label)] = filter_entries(
            full,
            lambda r, c: idx[i_label][c // dj] + idx[j_label][c % dj] - idx[s_label][r],
        )
    cop = {}
    for (i_label, j_label), block in t.cop.items():
        s_label = backend.add(i_label, j_label)
        dj = obj.dim(j_label)
        full = Pinv[i_label].kron(Pinv[j_label]) @ block @ P[s_label]
        cop[(i_label, j_label)] = filter_entries(
            full,
            lambda r, c: idx[s_label][c] - idx[i_label][r // dj] - idx[j_label][r % dj],
        )
    antipode = {}
    for label, block in t.antipode.items():
        full = Pinv[label] @ block @ P[label]
        antipode[label] = filter_entries(full, lambda r, c: idx[label][c] - idx[label][r])
    unit = filter_entries(Pinv[zero] @ t.unit, lambda r, c: -idx[zero][r])
    counit = filter_entries(t.counit @ P[zero], lambda r, c: idx[zero][c])
    grading = {label: split.degrees(label) for label in obj.sectors}
    return HopfStructure(obj, mul, unit, cop, counit, antipode, grading)


def lambda_exponent_report(t: HopfStructure, split: GradingSplit) -> dict:
    """Exponent inventory of the one-parameter family, for reports."""
    entries = []
    violations = []
    for family, key, r, c, _, e in _split_entry_exponents(t, split):
        record = {"family": family, "key": key, "row": r, "col": c, "exponent": e}
        entries.append(record)
        if e < 0:
            violations.append(record)
    return {"entries": entries, "violations": violations}


def primitive_dims_along_path(t: HopfStructure, split: GradingSplit, lams: Sequence,
                              limit: Optional[HopfStructure] = None) -> List[int]:
    """Total primitive dimension at each sample parameter, then at the limit.

    The limit is degenerate_limit(t, split), unless the caller has it.
    """

    def total(structure: HopfStructure) -> int:
        return sum(sub.dim for sub in primitive_sectors(structure).values())

    dims = [total(one_param_orbit(t, split, lam)) for lam in lams]
    dims.append(total(degenerate_limit(t, split) if limit is None else limit))
    return dims
