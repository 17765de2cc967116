"""Coordinate data for braided fusion categories and its equation checkers.

Everything is presented through multiplicity spaces: V[i,j -> k] has
dimension fusion[(i, j, k)], the associator is a family of blocks

    assoc[(i, j, k, a, b, c)] : V[i,j -> a] (x) V[a,k -> b]
                                    -> V[i,c -> b] (x) V[j,k -> c],

the braiding a family sigma[(i, j, k)] : V[i,j -> k] -> V[j,i -> k], and
units and duality reduce to scalars and short vectors because the unit
multiplicity spaces are at most one-dimensional.  Simples are indexed
0..size-1 with 0 the unit object.

The pentagon and triangle come straight off the tree calculus.  The forward
hexagon is composed in coordinates, and the backward hexagon is the forward
one of the reverse braiding, so it needs no second form.  The pentagon,
hexagon and full-associator routes compose scalars on basis coordinates,
one key per basis vector of a tree's multiplicity spaces, whatever the
multiplicities.  A route walks each start key's column through its jumps
on its own, summing only where two paths meet, and skips the product with
an entry that is 1, which each block's column table marks once (see
_columns and _route).  Keys carry the instance they belong to, so one route
composes a batch of instances: the pentagon all instances (k, l, t) of one
outer pair (i, j), on keys prefixed by (k, l, t); the full associators all
z and all outer indices b of one (x, y), on keys prefixed by (z, b); and
each hexagon family all instances (i, j, k, t) of one outer index i, on keys
prefixed by the whole instance.  Each instance's end vertex and map are
then compared on their own, so failures stay located (see _agree).  Only
the second duality zig-zag is still derived by hand (see docs/FORMATS.md
for the composition tables, including the convention that reordering
multiplicity factors uses the plain flip).
Every verifier reports located failures instead of raising.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm, prod
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import Matrix, inverse, rank
from .scalars import ONE, Scalar, root_of_unity

__all__ = [
    "FusionData",
    "FusionReport",
    "well_formed",
    "verify_pentagon",
    "verify_units",
    "verify_duality",
    "verify_braiding",
    "verify_all",
    "pointed_center_data",
    "MAX_CENTER_SIMPLES",
]


# one column of a block: (output leg indices, entry or None) for every
# basis vector of its output legs
Column = List[Tuple[tuple, Optional[Scalar]]]


class FusionData:
    __slots__ = ("size", "fusion", "assoc", "braiding", "left_units", "right_units", "dual",
                 "ev", "coev", "_rules", "assoc_columns", "braid_columns")
    _FIELDS = __slots__[:9]

    def __init__(
        self,
        size: int,
        fusion: Dict[Tuple[int, int, int], int],
        assoc: Dict[Tuple[int, int, int, int, int, int], Matrix],
        braiding: Dict[Tuple[int, int, int], Matrix],
        left_units: Dict[int, Scalar],   # coordinate of l_i in V[0,i -> i]
        right_units: Dict[int, Scalar],  # coordinate of r_i in V[i,0 -> i]
        dual: Tuple[int, ...],
        ev: Dict[int, Matrix],    # 1 x dim V[dual(i),i -> 0]
        coev: Dict[int, Matrix],  # dim V[i,dual(i) -> 0] x 1
    ):
        self.size = size
        self.fusion = fusion
        self.assoc = assoc
        self.braiding = braiding
        self.left_units = left_units
        self.right_units = right_units
        self.dual = dual
        self.ev = ev
        self.coev = coev
        # (i, j) -> ((k, N_ij^k), ...) over the nonzero entries, k ascending
        rules: Dict[Tuple[int, int], list] = {}
        for (i, j, k), n in sorted(fusion.items()):
            if n:
                rules.setdefault((i, j), []).append((k, n))
        self._rules = {key: tuple(v) for key, v in rules.items()}
        # assoc and braiding keys -> the block's columns, built as routes read
        # them; threads that race on a key store equal values
        self.assoc_columns = _ColumnTable(self._assoc_block_columns)
        self.braid_columns = _ColumnTable(self._braid_block_columns)

    def replace(self, **changes) -> "FusionData":
        """A copy with the given fields changed.  Under the same fusion rules
        it reads the columns of every assoc and braiding block it shares
        with self from self's tables, which build and keep them for self and
        for every other such copy, and shares the tables of a family it
        does not change at all."""
        fields = {name: getattr(self, name) for name in self._FIELDS}
        fields.update(changes)
        copy = FusionData(**fields)
        if copy.fusion is self.fusion:
            copy.assoc_columns = _kept(self.assoc_columns, self.assoc, copy.assoc,
                                       copy._assoc_block_columns)
            copy.braid_columns = _kept(self.braid_columns, self.braiding, copy.braiding,
                                       copy._braid_block_columns)
        return copy

    def dim(self, i: int, j: int, k: int) -> int:
        return self.fusion.get((i, j, k), 0)

    def fuse(self, i: int, j: int) -> Tuple[Tuple[int, int], ...]:
        """The simples k in i (x) j with their multiplicities, k ascending."""
        return self._rules.get((i, j), ())

    def assoc_block(self, i: int, j: int, k: int, a: int, b: int, c: int) -> Matrix:
        block = self.assoc.get((i, j, k, a, b, c))
        if block is not None:
            return block
        rows = self.dim(i, c, b) * self.dim(j, k, c)
        cols = self.dim(i, j, a) * self.dim(a, k, b)
        return Matrix(rows, cols)

    def braid_block(self, i: int, j: int, k: int) -> Matrix:
        block = self.braiding.get((i, j, k))
        if block is not None:
            return block
        return Matrix(self.dim(j, i, k), self.dim(i, j, k))

    def _assoc_block_columns(self, x: int, y: int, z: int, a: int, b: int, c: int
                             ) -> Dict[tuple, Column]:
        """alpha_{x,y,z} from (a, b) to (c, b) by columns: each index pair of
        V[x,y -> a] (x) V[a,z -> b] maps to every index pair of
        V[x,c -> b] (x) V[y,z -> c] with its entry, None for a zero."""
        return _columns(self.assoc_block(x, y, z, a, b, c),
                        (self.dim(x, y, a), self.dim(a, z, b)),
                        (self.dim(x, c, b), self.dim(y, z, c)))

    def _braid_block_columns(self, i: int, j: int, k: int) -> Dict[tuple, Column]:
        """sigma_{i,j} at k by columns, as _assoc_block_columns."""
        return _columns(self.braid_block(i, j, k), (self.dim(i, j, k),), (self.dim(j, i, k),))


class _ColumnTable(dict):
    """Block keys -> the block's columns, built on the first lookup of a key."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[..., Dict[tuple, Column]]):
        super().__init__()
        self.build = build

    def __missing__(self, key: tuple) -> Dict[tuple, Column]:
        columns = self[key] = self.build(*key)
        return columns


def _kept(tables: _ColumnTable, blocks: dict, copied: dict, build) -> _ColumnTable:
    """A copy's column table of one family: tables itself when copied is
    blocks, else a table that takes the columns of each block copied
    shares with blocks from tables, which builds and keeps them, and builds
    the columns of the other blocks with build."""
    if copied is blocks:
        return tables

    def shared_or_own(*key):
        if copied.get(key) is blocks.get(key):
            return tables[key]
        return build(*key)

    return _ColumnTable(shared_or_own)


class FusionReport(NamedTuple):
    check: str
    passed: bool
    failures: Tuple[tuple, ...]
    checked: int


# -- routes on basis coordinates ----------------------------------------------
#
# A basis key is a labeling of the internal edges of a fusion tree followed
# by one index per leg, the multiplicity spaces along the tree, all in one
# flat tuple, after a prefix that names the instance: the pentagon's keys
# are (k, l, t, a, b, u, v, w), the full associators' (z, b, a, u, v), the
# hexagons' (i, j, k, t, a, u, v).  Jumps never rewrite the prefix, so one
# route composes many instances side by side without mixing them (_split
# parts them).  A vertex is the sorted list of basis keys a route reaches.
# A jump maps one key to the (key_out, value) pairs it reaches, None for a
# zero value: it reads its block's column at the indices of the legs it
# acts on (assoc_columns, braid_columns), rewrites those indices and keeps
# the others.  _route composes the jumps into maps {(key_out, key_in):
# Scalar} with no zeros.  Zero values are kept as keys, so a vertex lists
# every basis key of every reachable labeling; a labeling with a
# zero-dimensional leg has no keys, so no jump tests admissibility.  For
# associative, symmetric fusion rules that is every admissible labeling of
# its tree, so two routes between the same trees end on equal vertices.
# When every multiplicity is 1, each index is 0 and a map holds one scalar
# per pair of labelings.

Jump = Callable[[tuple], Iterable[Tuple[tuple, Optional[Scalar]]]]


@lru_cache(maxsize=None)
def _indices(dims: tuple) -> tuple:
    """The leg indices of every basis vector of legs of these dims, first leg slowest."""
    return tuple(product(*[range(d) for d in dims]))


def _columns(block: Matrix, dims_in: tuple, dims_out: tuple) -> Dict[tuple, Column]:
    """The block's columns keyed by input leg indices, each listing every
    tuple of output leg indices (first leg slowest) with its entry.  An
    entry equal to 1 is stored as the object ONE, which is how _route tells
    it apart without testing it again."""
    get = block.entries.get
    outs = _indices(dims_out)
    columns = {}
    for c, idx in enumerate(_indices(dims_in)):
        column = []
        for r, out in enumerate(outs):
            v = get((r, c))
            column.append((out, ONE if v is not None and v.is_one() else v))
        columns[idx] = column
    return columns


def _route(keys: Iterable[tuple], *jumps: Jump):
    """Apply the jumps in order; return the end vertex and the composite map.

    Each start key's column, a sparse vector of (key, value or None) pairs,
    is carried through the jumps on its own.  None marks a key reached with
    a zero value: it is part of the vertex, and its jumps are followed for
    their keys only.  A factor that is ONE (see _columns) is not multiplied,
    and values are summed only where two paths meet, in a step that reaches
    more than one key.
    """
    end = set()
    total = {}
    for key_in in keys:
        column = [(key_in, ONE)]
        for jump in jumps:
            step = []
            for key, v in column:
                for key_out, s in jump(key):
                    step.append((key_out, None if s is None or v is None else
                                 v if s is ONE else s if v is ONE else s * v))
            column = _merged(step) if len(step) > 1 else step
        for key_out, v in column:
            end.add(key_out)
            if v is not None:
                total[(key_out, key_in)] = v
    return sorted(end), total


def _merged(step: list) -> list:
    """A column step with the values of equal keys summed, a zero sum None."""
    merged: dict = {}
    for key_out, v in step:
        if key_out not in merged:
            merged[key_out] = v
        elif v is not None:
            cur = merged[key_out]
            if cur is not None:
                v = cur + v
            merged[key_out] = v if v else None
    return list(merged.items())


def _split(keys: List[tuple], total: dict, n: int) -> dict:
    """A batched route's end vertex and map by instance, the first n entries
    of each key: prefix -> (its end keys, its map)."""
    out: dict = {}
    for key in keys:
        out.setdefault(key[:n], ([], {}))[0].append(key)
    for pair, v in total.items():
        out[pair[0][:n]][1][pair] = v
    return out


def _agree(start: List[tuple], route1: Sequence[Jump], route2: Sequence[Jump],
           instances: List[tuple]) -> List[bool]:
    """Whether two batched routes from start agree at each instance, a key
    prefix.  Both run once over all the instances.  Routes that agree agree
    at every instance; routes that differ are split by instance, whose end
    vertex and map are then compared on their own."""
    ends1, ends2 = _route(start, *route1), _route(start, *route2)
    if ends1 == ends2:
        return [True] * len(instances)
    n = len(instances[0])
    ends1, ends2 = _split(*ends1, n), _split(*ends2, n)
    return [ends1.get(instance) == ends2.get(instance) for instance in instances]


def _matrix(total: dict, rows: List[tuple], cols: List[tuple]) -> Matrix:
    """A route's map laid out over the given basis keys."""
    row = {key: r for r, key in enumerate(rows)}
    col = {key: c for c, key in enumerate(cols)}
    entries = {(row[key_out], col[key_in]): v for (key_out, key_in), v in total.items()}
    return Matrix._nonzero(len(rows), len(cols), entries)


def _associator_route(F: FusionData, x: int, y: int, zs: Iterable[int],
                      outer: Iterable[int]):
    """The keys and the jump of alpha_{x,y,z} at each z in zs and each
    outer index b in outer, on the keys (z, b, a, u, v): (z, b) -> (the
    keys (z, b, a, u, v) of the sum over a, the keys (z, b, c, p, q) of the
    sum over c) for each (z, b) whose spaces have keys, ascending, and the
    jump between them."""
    outer = set(outer)
    spaces: dict = {}
    for z in zs:
        for a, n in F.fuse(x, y):
            for b, m in F.fuse(a, z):
                if b in outer:
                    spaces.setdefault((z, b), ([], []))[0].extend(
                        (z, b, a, u, v) for u, v in _indices((n, m)))
        for c, n in F.fuse(y, z):
            for b, m in F.fuse(x, c):
                if b in outer:
                    spaces.setdefault((z, b), ([], []))[1].extend(
                        (z, b, c, p, q) for p, q in _indices((m, n)))

    rules, assoc = F._rules, F.assoc_columns

    def alpha(key):
        z, b, a, u, v = key
        for c, _ in rules.get((y, z), ()):
            for (p, q), s in assoc[(x, y, z, a, b, c)][(u, v)]:
                yield (z, b, c, p, q), s

    return dict(sorted(spaces.items())), alpha


def _full_associators(F: FusionData, x: int, y: int, zs: Iterable[int],
                      outer: Iterable[int]) -> dict:
    """The whole associator alpha_{x,y,z} at each z in zs and each outer
    index b in outer whose spaces have keys, composed as one route: (z, b)
    -> (its map, from the keys of the sum over a to those of the sum over c;
    those two key lists), as _associator_route lists them."""
    spaces, alpha = _associator_route(F, x, y, zs, outer)
    start = [key for src, _ in spaces.values() for key in src]
    ends = _split(*_route(start, alpha), 2)
    return {zb: (ends[zb][1] if zb in ends else {}, src, tgt)
            for zb, (src, tgt) in spaces.items()}


# -- well-formedness -----------------------------------------------------------


def _invertible(entries: dict, rows: Sequence, cols: Sequence) -> bool:
    """Whether the map with these entries between the given basis keys is invertible.

    Between spaces of dimension at most one it is when each key has its one
    entry; a larger map takes a rank.
    """
    if len(rows) != len(cols):
        return False
    if len(cols) <= 1:
        return len(entries) == len(cols)
    return rank(_matrix(entries, rows, cols)) == len(cols)


def well_formed(F: FusionData) -> FusionReport:
    """Shape and unit-multiplicity constraints plus invertibility checks."""
    failures = []
    checked = 0
    s = F.size
    if s < 1:
        return FusionReport("well-formed", False, (("no-simples",),), 1)
    if len(F.dual) != s or F.dual[0] != 0 or any(F.dual[F.dual[i]] != i for i in range(s)):
        failures.append(("dual-involution",))
    for (i, j, k), n in F.fusion.items():
        checked += 1
        if n < 0 or not (0 <= i < s and 0 <= j < s and 0 <= k < s):
            failures.append(("fusion-entry", i, j, k))
    for i in range(s):
        for j in range(s):
            checked += 2
            if F.dim(0, i, j) != (1 if i == j else 0):
                failures.append(("left-unit-space", i, j))
            if F.dim(i, 0, j) != (1 if i == j else 0):
                failures.append(("right-unit-space", i, j))
            checked += 1
            if j != F.dual[i] and F.dim(i, j, 0) != 0:
                failures.append(("dual-space", i, j))
        checked += 2
        if F.dim(i, F.dual[i], 0) < 1:
            failures.append(("missing-coev-space", i))
        if F.dim(F.dual[i], i, 0) < 1:
            failures.append(("missing-ev-space", i))
        li = F.left_units.get(i)
        ri = F.right_units.get(i)
        checked += 2
        if li is None or li.is_zero():
            failures.append(("left-unit", i))
        if ri is None or ri.is_zero():
            failures.append(("right-unit", i))
        evi = F.ev.get(i)
        coevi = F.coev.get(i)
        checked += 2
        if evi is None or evi.shape != (1, F.dim(F.dual[i], i, 0)) or evi.is_zero():
            failures.append(("ev", i))
        if coevi is None or coevi.shape != (F.dim(i, F.dual[i], 0), 1) or coevi.is_zero():
            failures.append(("coev", i))
    for (i, j, k), block in F.braiding.items():
        checked += 1
        n = F.dim(i, j, k)
        if (F.dim(j, i, k) != n or block.shape != (n, n)
                or not _invertible(block.entries, range(n), range(n))):
            failures.append(("braiding-block", i, j, k))
    for (i, j, k), n in F.fusion.items():
        if n and (i, j, k) not in F.braiding:
            failures.append(("braiding-missing", i, j, k))
            checked += 1
    for key, block in F.assoc.items():
        checked += 1
        i, j, k, a, b, c = key
        rows = F.dim(i, c, b) * F.dim(j, k, c)
        cols = F.dim(i, j, a) * F.dim(a, k, b)
        if block.shape != (rows, cols):
            failures.append(("assoc-shape",) + key)
    for i, j in product(range(s), repeat=2):
        # a full associator between spaces with no keys is invertible
        checked += s * s
        for (k, b), (full, src, tgt) in _full_associators(F, i, j, range(s), range(s)).items():
            if not _invertible(full, tgt, src):
                failures.append(("assoc-not-invertible", i, j, k, b))
    return FusionReport("well-formed", not failures, tuple(failures[:32]), checked)


# -- the pentagon --------------------------------------------------------------


def _pentagon_routes(F: FusionData, i: int, j: int):
    """The start vertex and the jumps of both routes of every pentagon
    instance (k, l, t) of the outer pair (i, j).  Keys are (k, l, t, a, b,
    u, v, w): the instance, then the labeling and leg indices; the jumps
    keep the instance, so a route composes each one on its own."""
    fuse_ij = F.fuse(i, j)
    start = [
        (k, l, t, a, b, u, v, w)
        for k in range(F.size)
        for a, n_a in fuse_ij
        for b, n_b in F.fuse(a, k)
        for l in range(F.size)
        for t, n_t in F.fuse(b, l)
        for u, v, w in _indices((n_a, n_b, n_t))
    ]

    rules, assoc = F._rules, F.assoc_columns

    # route 1: alpha on legs (1,2), alpha on legs (1,3), alpha on legs (2,3)
    def alpha_ijk(key):
        k, l, t, a, b, u, v, w = key
        for c, _ in rules.get((j, k), ()):
            for (p, q), s in assoc[(i, j, k, a, b, c)][(u, v)]:
                yield (k, l, t, c, b, p, q, w), s

    def alpha_icl(key):
        k, l, t, c, b, u, v, w = key
        for f, _ in rules.get((c, l), ()):
            for (p, q), s in assoc[(i, c, l, b, t, f)][(u, w)]:
                yield (k, l, t, c, f, p, v, q), s

    def alpha_jkl(key):
        k, l, t, c, f, u, v, w = key
        for g, _ in rules.get((k, l), ()):
            for (p, q), s in assoc[(j, k, l, c, f, g)][(v, w)]:
                yield (k, l, t, f, g, u, p, q), s

    # route 2: alpha on legs (2,3), then alpha on legs (1,2)
    def alpha_akl(key):
        k, l, t, a, b, u, v, w = key
        for d, _ in rules.get((k, l), ()):
            for (p, q), s in assoc[(a, k, l, b, t, d)][(v, w)]:
                yield (k, l, t, a, d, u, p, q), s

    def alpha_ijd(key):
        k, l, t, a, d, u, v, w = key
        for f, _ in rules.get((j, d), ()):
            for (p, q), s in assoc[(i, j, d, a, t, f)][(u, v)]:
                yield (k, l, t, f, d, p, q, w), s

    return start, (alpha_ijk, alpha_icl, alpha_jkl), (alpha_akl, alpha_ijd)


def verify_pentagon(F: FusionData, stop_early: bool = False) -> FusionReport:
    """Both re-association routes around the pentagon agree, instance by
    instance (i, j, k, l, t), composed one outer pair (i, j) at a time."""
    failures = []
    checked = 0
    for i, j in product(range(F.size), repeat=2):
        start, route1, route2 = _pentagon_routes(F, i, j)
        instances = sorted({key[:3] for key in start})
        for (k, l, t), holds in zip(instances, _agree(start, route1, route2, instances)):
            checked += 1
            if not holds:
                failures.append((i, j, k, l, t))
                if stop_early:
                    return FusionReport("pentagon", False, tuple(failures), checked)
    return FusionReport("pentagon", not failures, tuple(failures[:32]), checked)


# -- units ---------------------------------------------------------------------


def verify_units(F: FusionData, stop_early: bool = False) -> FusionReport:
    """Re-associating past the unit turns r_i (x) v into v (x) l_j."""
    failures = []
    checked = 0
    for i in range(F.size):
        ri = F.right_units.get(i)
        if ri is None:
            continue
        for j in range(F.size):
            lj = F.left_units.get(j)
            if lj is None:
                continue
            for k, n in F.fuse(i, j):
                checked += 1
                # alpha_{i,0,j} at a=i, b=k, c=j: V[i,0->i] (x) V[i,j->k]
                #   -> V[i,j->k] (x) V[0,j->j]
                block = F.assoc_block(i, 0, j, i, k, j)
                if block.scale(ri) != Matrix.identity(n).scale(lj):
                    failures.append((i, j, k))
                    if stop_early:
                        return FusionReport("units", False, tuple(failures), checked)
    return FusionReport("units", not failures, tuple(failures[:32]), checked)


# -- duality -------------------------------------------------------------------


def _zigzag_one(F: FusionData, i: int) -> Optional[tuple]:
    """coev feeds the associator, ev closes it; the loop must be 1."""
    ib = F.dual[i]
    # start: coev_i (x) l_i in V[i,ib -> 0] (x) V[0,i -> i]
    start = F.coev[i].kron(Matrix(1, 1, {(0, 0): F.left_units[i]}))
    # alpha_{i,ib,i} at a=0, b=i, c=0: target V[i,0 -> i] (x) V[ib,i -> 0]
    block = F.assoc_block(i, ib, i, 0, i, 0)
    out = block @ start
    # read off the r_i coordinate on the first leg, ev on the second
    d = F.dim(ib, i, 0)
    value = (F.ev[i] @ Matrix(d, 1, {(r, 0): out.get(r, 0) for r in range(d)})).get(0, 0)
    loop = value * F.right_units[i].inverse()
    if not loop.is_one():
        return ("zigzag-1", i)
    return None


def _zigzag_two(F: FusionData, i: int) -> Optional[tuple]:
    """The mirrored loop through the inverse associator, also 1."""
    ib = F.dual[i]
    # start: r_ib (x) coev_i in V[ib,0 -> ib] (x) V[i,ib -> 0]
    start = Matrix(1, 1, {(0, 0): F.right_units[ib]}).kron(F.coev[i])
    full, src, tgt = _full_associators(F, ib, i, (ib,), (ib,)).get((ib, ib), ({}, [], []))
    try:
        inv = inverse(_matrix(full, tgt, src))
    except ZeroDivisionError:
        return ("zigzag-2-associator", i)
    # both spaces have a unit leg: their keys (ib, ib, 0, 0, q) and
    # (ib, ib, 0, u, 0) follow one another from (ib, ib, 0, 0, 0)
    first = (ib, ib, 0, 0, 0)
    if first not in tgt or first not in src:
        return ("zigzag-2-space", i)
    vec = Matrix(
        len(tgt), 1, {(tgt.index(first) + r, 0): start.get(r, 0) for r in range(start.nrows)}
    )
    out = inv @ vec
    # result sits in V[ib,i -> 0] (x) V[0,ib -> ib]; close with ev and l_ib
    base = src.index(first)
    d = F.dim(ib, i, 0)
    column = Matrix(d, 1, {(r, 0): out.get(base + r, 0) for r in range(d)})
    value = (F.ev[i] @ column).get(0, 0)
    loop = value * F.left_units[ib].inverse()
    if not loop.is_one():
        return ("zigzag-2", i)
    return None


def verify_duality(F: FusionData, stop_early: bool = False) -> FusionReport:
    failures = []
    checked = 0
    for i in range(F.size):
        for probe in (_zigzag_one, _zigzag_two):
            checked += 1
            failure = probe(F, i)
            if failure is not None:
                failures.append(failure)
                if stop_early:
                    return FusionReport("duality", False, tuple(failures), checked)
    return FusionReport("duality", not failures, tuple(failures[:32]), checked)


# -- hexagons ------------------------------------------------------------------
#
# Both hexagons act on vertices keyed (i, j, k, t, a, u, v): the instance,
# then a labeling with two legs.  The jumps read the instance from the key
# and keep it, so one route composes any batch of instances side by side;
# verify_braiding batches all instances (i, j, k, t) of one outer index i.


def _hexagon_start(F: FusionData, i: int, j: int, k: int, t: int) -> List[tuple]:
    """The start keys of the forward hexagon at (i, j, k, t)."""
    return [(i, j, k, t, a, u, v)
            for a, n in F.fuse(i, j) for u, v in _indices((n, F.dim(a, k, t)))]


def _hexagon_jumps(F: FusionData):
    """The jumps of both sides of the forward hexagon, for every instance."""
    rules, assoc, braid = F._rules, F.assoc_columns, F.braid_columns

    def sigma_ij(key):  # sigma_{i,j} (x) 1
        i, j, k, t, a, u, v = key
        for (p,), s in braid[(i, j, a)][(u,)]:
            yield (i, j, k, t, a, p, v), s

    def alpha_jik(key):
        i, j, k, t, a, u, v = key
        for c, _ in rules.get((i, k), ()):
            for (p, q), s in assoc[(j, i, k, a, t, c)][(u, v)]:
                yield (i, j, k, t, c, p, q), s

    def sigma_ik(key):  # 1 (x) sigma_{i,k}
        i, j, k, t, c, u, v = key
        for (q,), s in braid[(i, k, c)][(v,)]:
            yield (i, j, k, t, c, u, q), s

    def alpha_ijk(key):
        i, j, k, t, a, u, v = key
        for c, _ in rules.get((j, k), ()):
            for (p, q), s in assoc[(i, j, k, a, t, c)][(u, v)]:
                yield (i, j, k, t, c, p, q), s

    def flip_sigma_ic(key):  # flip . (sigma_{i,c} (x) 1)
        i, j, k, t, c, u, v = key
        for (p,), s in braid[(i, c, t)][(u,)]:
            yield (i, j, k, t, c, v, p), s

    def alpha_jki(key):
        i, j, k, t, c, u, v = key
        for d, _ in rules.get((k, i), ()):
            for (p, q), s in assoc[(j, k, i, c, t, d)][(u, v)]:
                yield (i, j, k, t, d, p, q), s

    return (sigma_ij, alpha_jik, sigma_ik), (alpha_ijk, flip_sigma_ic, alpha_jki)


def _hexagon_verdicts(F: Optional[FusionData], instances: List[tuple]) -> List[bool]:
    """Whether the forward hexagon holds at each instance (i, j, k, t), both
    sides composed once over all of them; without data every instance fails."""
    if F is None:
        return [False] * len(instances)
    start = [key for instance in instances for key in _hexagon_start(F, *instance)]
    return _agree(start, *_hexagon_jumps(F), instances)


def _reversed(F: FusionData) -> Optional[FusionData]:
    """F with the reverse braiding sigma'_{j,i} = sigma_{i,j}^{-1}, or None
    when some braiding block has no inverse."""
    braiding = {}
    for (i, j, k), block in F.braiding.items():
        if block.nrows != block.ncols:
            return None
        try:
            braiding[(j, i, k)] = inverse(block)
        except ZeroDivisionError:
            return None
    return F.replace(braiding=braiding)


def verify_braiding(F: FusionData, stop_early: bool = False) -> FusionReport:
    """Both hexagon families as exact block identities.

    The backward hexagon at (i, j, k) is the forward hexagon of the reverse
    braiding at (k, i, j) with both sides inverted, so that is what is
    checked.  Without a reverse braiding every backward instance fails.
    Each outer index i composes its forward and its backward instances in
    one batch each.  No route raises, so a batch needs no fallback: every
    key a jump looks up in a column table is built over the same fusion
    dims as the space the key lives in, and no route divides.
    """
    mirror = _reversed(F)
    failures = []
    checked = 0
    for i in range(F.size):
        instances = []
        for j, k in product(range(F.size), repeat=2):
            targets = {t for a, _ in F.fuse(i, j) for t, _ in F.fuse(a, k)}
            targets |= {t for a, _ in F.fuse(j, k) for t, _ in F.fuse(i, a)}
            instances += [(i, j, k, t) for t in sorted(targets)]
        forward = _hexagon_verdicts(F, instances)
        backward = _hexagon_verdicts(mirror, [(k, i, j, t) for i, j, k, t in instances])
        for instance, forward_holds, backward_holds in zip(instances, forward, backward):
            checked += 2
            if not forward_holds:
                failures.append(("hexagon-forward",) + instance)
            if not backward_holds:
                failures.append(("hexagon-backward",) + instance)
            if failures and stop_early:
                return FusionReport("braiding", False, tuple(failures), checked)
    return FusionReport("braiding", not failures, tuple(failures[:32]), checked)


def verify_all(F: FusionData, stop_early: bool = False) -> List[FusionReport]:
    reports = [well_formed(F)]
    if not reports[0].passed:
        return reports
    reports.append(verify_pentagon(F, stop_early))
    reports.append(verify_units(F, stop_early))
    reports.append(verify_duality(F, stop_early))
    reports.append(verify_braiding(F, stop_early))
    return reports


# -- pointed generators --------------------------------------------------------

# The center of a group of order n has n^2 simples and n^6 associator blocks:
# 64 simples (order 8) take seconds and a 25 MB document, 144 do not finish.
MAX_CENTER_SIMPLES = 64


def pointed_center_data(factors: Sequence[int]) -> FusionData:
    """Drinfeld-center data of a finite abelian group given by cyclic factors.

    Simples are pairs (group element, character); fusion is the group law,
    the associator is trivial, and the braiding scalar between (g, chi)
    and (h, psi) is psi(g).
    """
    factors = tuple(int(d) for d in factors)
    if any(d < 1 for d in factors):
        raise ValueError("cyclic factors must be positive")
    size = prod(factors) ** 2
    if size > MAX_CENTER_SIMPLES:
        raise ValueError(f"the center of a group of order {prod(factors)} has {size} simples, "
                         f"above the bound of {MAX_CENTER_SIMPLES}")
    elements = list(product(*[range(d) for d in factors])) or [()]
    simples = [(g, chi) for g in elements for chi in elements]
    index = {gc: pos for pos, gc in enumerate(simples)}
    s = len(simples)
    order = lcm(*factors)

    def char_value(chi: tuple, g: tuple) -> Scalar:
        e = sum(c * x * (order // d) for c, x, d in zip(chi, g, factors)) % order
        return root_of_unity(order, e)

    def mul(a: tuple, b: tuple) -> tuple:
        g = tuple((x + y) % d for x, y, d in zip(a[0], b[0], factors))
        chi = tuple((x + y) % d for x, y, d in zip(a[1], b[1], factors))
        return (g, chi)

    fusion = {}
    for a in simples:
        for b in simples:
            fusion[(index[a], index[b], index[mul(a, b)])] = 1

    one = Matrix.identity(1)
    assoc = {}
    for a in simples:
        for b in simples:
            for c in simples:
                ia, ib, ic = index[a], index[b], index[c]
                ab = index[mul(a, b)]
                bc = index[mul(b, c)]
                abc = index[mul(mul(a, b), c)]
                assoc[(ia, ib, ic, ab, abc, bc)] = one

    braiding = {}
    for a in simples:
        for b in simples:
            braiding[(index[a], index[b], index[mul(a, b)])] = Matrix(
                1, 1, {(0, 0): char_value(b[1], a[0])}
            )

    inverse_of = {}
    for a in simples:
        g, chi = a
        inv = (
            tuple((-x) % d for x, d in zip(g, factors)),
            tuple((-x) % d for x, d in zip(chi, factors)),
        )
        inverse_of[index[a]] = index[inv]
    dual = tuple(inverse_of[i] for i in range(s))

    left = {i: ONE for i in range(s)}
    right = {i: ONE for i in range(s)}
    ev = {i: Matrix(1, 1, {(0, 0): ONE}) for i in range(s)}
    coev = {i: Matrix(1, 1, {(0, 0): ONE}) for i in range(s)}
    return FusionData(s, fusion, assoc, braiding, left, right, dual, ev, coev)
