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
one of the reverse braiding (FusionData.mirror), so it needs no second form.
The pentagon and the hexagons are walked on basis coordinates, one key per
basis vector of a tree's multiplicity spaces, whatever the multiplicities:
one loop nest per check follows every path of each start key through the
legs of both routes, multiplies along it, skips a factor that is ONE, and
sums only at the end key (see _pentagon_ends and _hexagon_ends).  A check
reads each leg from a table it fills on first use, so a leg that many
instances share, such as alpha_{a,k,l} for every outer pair (i, j) with a
in i (x) j, is read once per check.  Each instance is then decided on its
own, so failures stay located (see _holds).  A full associator is one leg
and is built directly.  Only the second duality zig-zag is still derived by
hand (see docs/FORMATS.md for the composition tables, including the
convention that reordering multiplicity factors uses the plain flip).
Every verifier reports located failures instead of raising.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm, prod
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
                 "ev", "coev", "_rules", "assoc_columns", "braid_columns", "_mirror")
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
        # assoc and braiding keys -> the block's columns, built as checks read
        # them; threads that race on a key store equal values
        self.assoc_columns = _ColumnTable(self._assoc_block_columns)
        self.braid_columns = _ColumnTable(self._braid_block_columns)
        # empty until mirror() builds the mirror, then holding it
        self._mirror: list = []

    def replace(self, **changes) -> "FusionData":
        """A copy with the given fields changed.  Under the same fusion rules
        it reads the columns of every assoc and braiding block it shares
        with self from self's tables, which build and keep them for self and
        for every other such copy, and shares the tables of a family it
        does not change at all.  Under the same braiding too, it shares the
        mirror with self (see mirror)."""
        fields = {name: getattr(self, name) for name in self._FIELDS}
        fields.update(changes)
        copy = FusionData(**fields)
        if copy.fusion is self.fusion:
            copy.assoc_columns = _kept(self.assoc_columns, self.assoc, copy.assoc,
                                       copy._assoc_block_columns)
            copy.braid_columns = _kept(self.braid_columns, self.braiding, copy.braiding,
                                       copy._braid_block_columns)
            if copy.braiding is self.braiding:
                copy._mirror = self._mirror
        return copy

    def mirror(self) -> Optional["FusionData"]:
        """self with the reverse braiding sigma'_{j,i,k} = sigma_{i,j,k}^{-1},
        or None when some braiding block has no inverse.  It is built on
        first use and kept.  A copy that shares it (see replace) takes its
        inverse blocks and their columns, with the copy's other fields."""
        if not self._mirror:
            self._mirror.append(_reversed(self))
        mirror = self._mirror[0]
        fields = {name: getattr(self, name) for name in self._FIELDS if name != "braiding"}
        if mirror is not None and any(getattr(mirror, n) is not v for n, v in fields.items()):
            mirror = mirror.replace(**fields)
            self._mirror = [mirror]
        return mirror

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

    def _alpha_legs(self, x: int, y: int, z: int, a: int, b: int, u: int, v: int) -> list:
        """alpha_{x,y,z} from (a, b) at the basis vector (u, v) of
        V[x,y -> a] (x) V[a,z -> b]: (c, p, q, entry or None) for every basis
        vector (p, q) of V[x,c -> b] (x) V[y,z -> c], over every c in y (x) z."""
        columns = self.assoc_columns
        return [(c, p, q, s) for c, _ in self._rules.get((y, z), ())
                for (p, q), s in columns[(x, y, z, a, b, c)][(u, v)]]

    def _sigma_legs(self, i: int, j: int, k: int, u: int) -> list:
        """sigma_{i,j} at k on the basis vector u of V[i,j -> k]: (p, entry or
        None) for every basis vector p of V[j,i -> k]."""
        return [(p, s) for (p,), s in self.braid_columns[(i, j, k)][(u,)]]


class _ColumnTable(dict):
    """Keys -> the value build gives them, built on the first lookup of a key."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[..., object]):
        super().__init__()
        self.build = build

    def __missing__(self, key: tuple):
        value = self[key] = self.build(*key)
        return value


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


def _reversed(F: FusionData) -> Optional[FusionData]:
    """F with the reverse braiding, or None when some braiding block has no
    inverse (see FusionData.mirror)."""
    braiding = {}
    for (i, j, k), block in F.braiding.items():
        if block.nrows != block.ncols:
            return None
        try:
            braiding[(j, i, k)] = inverse(block)
        except ZeroDivisionError:
            return None
    return F.replace(braiding=braiding)


class FusionReport(NamedTuple):
    check: str
    passed: bool
    failures: Tuple[tuple, ...]
    checked: int


# -- walks on basis coordinates ------------------------------------------------
#
# A basis key is a labeling of the internal edges of a fusion tree followed
# by one index per leg, the multiplicity spaces along the tree: the
# pentagon's start keys are (a, b, u, v, w), the hexagons' (a, u, v).  A
# route is a sequence of legs, each a block acting on some legs of a key: it
# reads the block's column at those legs' indices (_alpha_legs,
# _sigma_legs), rewrites them and keeps the others.  A check walks every
# path of each start key through both routes, multiplying along it with
# _times, except by a factor that is ONE, and sums the paths that meet at
# an end key with _plus.  A start key's end column maps each end key it
# reaches to its entry, None for a zero.  Zero entries are followed for
# their keys, so a column lists every basis key of every reachable
# labeling; a labeling with a zero-dimensional leg has no keys, so no leg
# tests admissibility.  For associative, symmetric fusion rules that is
# every admissible labeling of the end tree, so two routes between the
# same trees reach the same keys.  When every multiplicity is 1, each index
# is 0 and a column holds one entry per labeling.


@lru_cache(maxsize=None)
def _indices(dims: tuple) -> tuple:
    """The leg indices of every basis vector of legs of these dims, first leg slowest."""
    return tuple(product(*[range(d) for d in dims]))


def _columns(block: Matrix, dims_in: tuple, dims_out: tuple) -> Dict[tuple, Column]:
    """The block's columns keyed by input leg indices, each listing every
    tuple of output leg indices (first leg slowest) with its entry.  An
    entry equal to 1 is stored as the object ONE, which is how the walks
    tell it apart without testing it again."""
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


def _times(x: Optional[Scalar], y: Optional[Scalar]) -> Optional[Scalar]:
    """Two entries along a path multiplied, None for zero.  The walks skip
    a factor that is ONE before they call it."""
    return None if x is None or y is None else x * y


def _plus(x: Optional[Scalar], y: Optional[Scalar]) -> Optional[Scalar]:
    """Two paths' entries at one end key summed, None for zero."""
    if x is None or y is None:
        return y if x is None else x
    total = x + y
    return total if total else None


def _holds(ends: list) -> bool:
    """Whether the two routes of one instance agree, given each start key's
    pair of end columns.  They do when every pair is equal.  Otherwise they
    do when both reach the same end keys from the instance's start keys,
    and each start key's nonzero entries are equal on both: the end vertex
    and the map of each route, compared as a whole."""
    for one, two in ends:
        if one != two:
            break
    else:
        return True
    reached = [set(), set()]
    for pair in ends:
        for keys, column in zip(reached, pair):
            keys.update(column)
    return reached[0] == reached[1] and all(
        {key: v for key, v in one.items() if v is not None}
        == {key: v for key, v in two.items() if v is not None} for one, two in ends)


def _matrix(total: dict, rows: List[tuple], cols: List[tuple]) -> Matrix:
    """A map {(key_out, key_in): Scalar} laid out over the given basis keys."""
    row = {key: r for r, key in enumerate(rows)}
    col = {key: c for c, key in enumerate(cols)}
    entries = {(row[key_out], col[key_in]): v for (key_out, key_in), v in total.items()}
    return Matrix._nonzero(len(rows), len(cols), entries)


def _full_associator(F: FusionData, x: int, y: int, z: int, b: int):
    """The whole associator alpha_{x,y,z} at the outer index b: its nonzero
    entries {(key_out, key_in): Scalar} from the keys (a, u, v) of the sum
    over a to the keys (c, p, q) of the sum over c, and those two key
    lists, ascending."""
    src = [(a, u, v) for a, n in F.fuse(x, y) for u, v in _indices((n, F.dim(a, z, b)))]
    tgt = [(c, p, q) for c, n in F.fuse(y, z) for p, q in _indices((F.dim(x, c, b), n))]
    entries = {((c, p, q), (a, u, v)): s for a, u, v in src
               for c, p, q, s in F._alpha_legs(x, y, z, a, b, u, v) if s is not None}
    return entries, src, tgt


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
    for i, j, k in product(range(s), repeat=3):
        # a full associator between spaces with no keys is invertible
        checked += s
        outer = {b for a, _ in F.fuse(i, j) for b, _ in F.fuse(a, k)}
        outer |= {b for c, _ in F.fuse(j, k) for b, _ in F.fuse(i, c)}
        for b in sorted(outer):
            if 0 <= b < s:
                full, src, tgt = _full_associator(F, i, j, k, b)
                if not _invertible(full, tgt, src):
                    failures.append(("assoc-not-invertible", i, j, k, b))
    return FusionReport("well-formed", not failures, tuple(failures[:32]), checked)


# -- the pentagon --------------------------------------------------------------


def _pentagon_ends(alpha: _ColumnTable, i: int, j: int, k: int, l: int, t: int,
                   starts: List[tuple]) -> list:
    """Each start key's pair of end columns on the two routes of the
    pentagon (i, j, k, l, t), from its start keys (a, b, u, v, w), given as
    (a, b, the leg indices (u, v, w)); alpha is the check's table of
    FusionData._alpha_legs.

    Route 1 applies alpha_{i,j,k} on legs (1, 2), alpha_{i,c,l} on legs
    (1, 3) and alpha_{j,k,l} on legs (2, 3); route 2 applies alpha_{a,k,l}
    on legs (2, 3) and alpha_{i,j,d} on legs (1, 2).  Both end on the keys
    (f, g, p, q, r) of V[i,f -> t] (x) V[j,g -> f] (x) V[k,l -> g].
    """
    ends = []
    for a, b, indices in starts:
        for u, v, w in indices:
            one: dict = {}
            for c, p, q, x in alpha[i, j, k, a, b, u, v]:
                for f, p1, w1, y in alpha[i, c, l, b, t, p, w]:
                    xy = y if x is ONE else x if y is ONE else _times(x, y)
                    for g, q1, w2, z in alpha[j, k, l, c, f, q, w1]:
                        key = (f, g, p1, q1, w2)
                        value = z if xy is ONE else xy if z is ONE else _times(xy, z)
                        one[key] = _plus(one[key], value) if key in one else value
            two: dict = {}
            for d, v1, w1, x in alpha[a, k, l, b, t, v, w]:
                for f, u1, v2, y in alpha[i, j, d, a, t, u, v1]:
                    key = (f, d, u1, v2, w1)
                    value = y if x is ONE else x if y is ONE else _times(x, y)
                    two[key] = _plus(two[key], value) if key in two else value
            ends.append((one, two))
    return ends


def verify_pentagon(F: FusionData, stop_early: bool = False) -> FusionReport:
    """Both re-association routes around the pentagon agree, instance by
    instance (i, j, k, l, t), each start key walked on its own."""
    alpha, rules = _ColumnTable(F._alpha_legs), F._rules
    failures = []
    checked = 0
    for i, j, k in product(range(F.size), repeat=3):
        starts: dict = {}
        for a, n_a in rules.get((i, j), ()):
            for b, n_b in rules.get((a, k), ()):
                for l in range(F.size):
                    for t, n_t in rules.get((b, l), ()):
                        starts.setdefault((l, t), []).append((a, b, _indices((n_a, n_b, n_t))))
        for l, t in sorted(starts):
            checked += 1
            if not _holds(_pentagon_ends(alpha, i, j, k, l, t, starts[l, t])):
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
    full, src, tgt = _full_associator(F, ib, i, ib, ib)
    try:
        inv = inverse(_matrix(full, tgt, src))
    except ZeroDivisionError:
        return ("zigzag-2-associator", i)
    # both spaces have a unit leg: their keys (0, 0, q) and (0, u, 0) follow
    # one another from (0, 0, 0)
    first = (0, 0, 0)
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


def _hexagon_ends(F: FusionData, alpha: _ColumnTable, sigma: _ColumnTable,
                  i: int, j: int, k: int, t: int) -> list:
    """Each start key's pair of end columns on the two sides of the forward
    hexagon (i, j, k, t), from its start keys (a, u, v) of
    V[i,j -> a] (x) V[a,k -> t]; alpha and sigma are the check's tables of
    FusionData._alpha_legs and _sigma_legs, the latter of the braiding the
    hexagon is checked for.

    The left side applies sigma_{i,j} (x) 1, alpha_{j,i,k} and
    1 (x) sigma_{i,k}; the right side applies alpha_{i,j,k},
    flip . (sigma_{i,c} (x) 1) and alpha_{j,k,i}.  Both end on the keys
    (c, p, q) of V[j,c -> t] (x) V[k,i -> c].
    """
    ends = []
    for a, n in F.fuse(i, j):
        for u, v in _indices((n, F.dim(a, k, t))):
            left: dict = {}
            for u1, x in sigma[i, j, a, u]:
                for c, p, q, y in alpha[j, i, k, a, t, u1, v]:
                    xy = y if x is ONE else x if y is ONE else _times(x, y)
                    for q1, z in sigma[i, k, c, q]:
                        key = (c, p, q1)
                        value = z if xy is ONE else xy if z is ONE else _times(xy, z)
                        left[key] = _plus(left[key], value) if key in left else value
            right: dict = {}
            for c, p, q, x in alpha[i, j, k, a, t, u, v]:
                for p1, y in sigma[i, c, t, p]:
                    xy = y if x is ONE else x if y is ONE else _times(x, y)
                    for d, q1, r, z in alpha[j, k, i, c, t, q, p1]:
                        key = (d, q1, r)
                        value = z if xy is ONE else xy if z is ONE else _times(xy, z)
                        right[key] = _plus(right[key], value) if key in right else value
            ends.append((left, right))
    return ends


def verify_braiding(F: FusionData, stop_early: bool = False) -> FusionReport:
    """Both hexagon families as exact block identities.

    The backward hexagon at (i, j, k) is the forward hexagon of the reverse
    braiding at (k, i, j) with both sides inverted, so that is what is
    checked, on F.mirror().  Without a reverse braiding every backward
    instance fails.  No walk raises: every column a leg reads is built over
    the same fusion dims as the space its key lives in, and no walk divides.
    """
    mirror = F.mirror()
    alpha = _ColumnTable(F._alpha_legs)
    sigma = _ColumnTable(F._sigma_legs)
    reverse = None if mirror is None else _ColumnTable(mirror._sigma_legs)
    failures = []
    checked = 0
    for i, j, k in product(range(F.size), repeat=3):
        targets = {t for a, _ in F.fuse(i, j) for t, _ in F.fuse(a, k)}
        targets |= {t for a, _ in F.fuse(j, k) for t, _ in F.fuse(i, a)}
        for t in sorted(targets):
            checked += 2
            if not _holds(_hexagon_ends(F, alpha, sigma, i, j, k, t)):
                failures.append(("hexagon-forward", i, j, k, t))
            if reverse is None or not _holds(_hexagon_ends(F, alpha, reverse, k, i, j, t)):
                failures.append(("hexagon-backward", i, j, k, t))
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
