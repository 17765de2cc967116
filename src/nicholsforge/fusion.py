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
multiplicities (see _route).  Only the second duality zig-zag is still
derived by hand (see docs/FORMATS.md for the composition tables, including
the convention that reordering multiplicity factors uses the plain flip).
Every verifier reports located failures instead of raising.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm, prod
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .braided import DiagonalBraiding
from .linalg import Matrix, _times, inverse, rank
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
    "line_braiding",
]


# one column of a block: (output leg indices, entry or None) for every
# basis vector of its output legs
Column = List[Tuple[tuple, Optional[Scalar]]]


class FusionData:
    __slots__ = ("size", "fusion", "assoc", "braiding", "left_units", "right_units", "dual",
                 "ev", "coev", "_rules", "_assoc_columns", "_braid_columns")
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
        # assoc and braiding keys -> the block's columns, filled as routes read
        # them; threads that race on a key store equal values
        self._assoc_columns: Dict[tuple, Dict[tuple, Column]] = {}
        self._braid_columns: Dict[tuple, Dict[tuple, Column]] = {}

    def replace(self, **changes) -> "FusionData":
        """A copy with the given fields changed and nothing read yet."""
        fields = {name: getattr(self, name) for name in self._FIELDS}
        fields.update(changes)
        return FusionData(**fields)

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

    def assoc_columns(self, x: int, y: int, z: int, a: int, b: int, c: int) -> Dict[tuple, Column]:
        """alpha_{x,y,z} from (a, b) to (c, b) by columns: each index pair of
        V[x,y -> a] (x) V[a,z -> b] maps to every index pair of
        V[x,c -> b] (x) V[y,z -> c] with its entry, None for a zero."""
        key = (x, y, z, a, b, c)
        columns = self._assoc_columns.get(key)
        if columns is None:
            columns = self._assoc_columns[key] = _columns(
                self.assoc_block(*key), (self.dim(x, y, a), self.dim(a, z, b)),
                (self.dim(x, c, b), self.dim(y, z, c)))
        return columns

    def braid_columns(self, i: int, j: int, k: int) -> Dict[tuple, Column]:
        """sigma_{i,j} at k by columns, as assoc_columns."""
        key = (i, j, k)
        columns = self._braid_columns.get(key)
        if columns is None:
            columns = self._braid_columns[key] = _columns(
                self.braid_block(*key), (self.dim(i, j, k),), (self.dim(j, i, k),))
        return columns


class FusionReport(NamedTuple):
    check: str
    passed: bool
    failures: Tuple[tuple, ...]
    checked: int


# -- routes on basis coordinates ----------------------------------------------
#
# A basis key is a labeling of the internal edges of a fusion tree followed
# by one index per leg, the multiplicity spaces along the tree, all in one
# flat tuple: the pentagon's keys are (a, b, u, v, w).  A vertex is the
# sorted list of basis keys a route reaches.  A jump maps one key to the
# (key_out, value) pairs it reaches, None for a zero value: it reads its
# block's column at the indices of the legs it acts on (assoc_columns,
# braid_columns), rewrites those indices and keeps the others.  _route
# composes the jumps into maps {(key_out, key_in): Scalar} with no zeros.
# Zero values are kept as keys, so a vertex lists every basis key of every
# reachable labeling; a labeling with a zero-dimensional leg has no keys, so
# no jump tests admissibility.  For associative, symmetric fusion rules that
# is every admissible labeling of its tree, so two routes between the same
# trees end on equal vertices.  When every multiplicity is 1, each index is 0 and a
# map holds one scalar per pair of labelings.

Jump = Callable[[tuple], Iterable[Tuple[tuple, Optional[Scalar]]]]


@lru_cache(maxsize=None)
def _indices(dims: tuple) -> tuple:
    """The leg indices of every basis vector of legs of these dims, first leg slowest."""
    return tuple(product(*[range(d) for d in dims]))


def _columns(block: Matrix, dims_in: tuple, dims_out: tuple) -> Dict[tuple, Column]:
    """The block's columns keyed by input leg indices, each listing every
    tuple of output leg indices (first leg slowest) with its entry."""
    get = block.entries.get
    outs = _indices(dims_out)
    columns = {}
    for c, idx in enumerate(_indices(dims_in)):
        columns[idx] = [(out, get((r, c))) for r, out in enumerate(outs)]
    return columns


def _compose(step: dict, total: dict) -> dict:
    """step after total.  Products of nonzero scalars are nonzero, so only a
    sum can leave a zero to drop."""
    by_mid: dict = {}
    for (mid, key_in), v in total.items():
        by_mid.setdefault(mid, []).append((key_in, v, v.is_one()))
    out: dict = {}
    summed = False
    for (key_out, mid), s in step.items():
        s_one = s.is_one()
        for key_in, v, v_one in by_mid.get(mid, ()):
            term = _times(s, s_one, v, v_one)
            cur = out.get((key_out, key_in))
            if cur is None:
                out[(key_out, key_in)] = term
            else:
                out[(key_out, key_in)] = cur + term
                summed = True
    return {key: v for key, v in out.items() if v} if summed else out


def _route(keys: List[tuple], *jumps: Jump):
    """Apply the jumps in order; return the end vertex and the composite map."""
    total = None
    for jump in jumps:
        reached = set()
        step = {}
        for key in keys:
            for key_out, v in jump(key):
                reached.add(key_out)
                if v is not None:
                    step[(key_out, key)] = v
        keys = sorted(reached)
        total = step if total is None else _compose(step, total)
    return keys, total


def _matrix(total: dict, rows: List[tuple], cols: List[tuple]) -> Matrix:
    """A route's map laid out over the given basis keys."""
    row = {key: r for r, key in enumerate(rows)}
    col = {key: c for c, key in enumerate(cols)}
    entries = {(row[key_out], col[key_in]): v for (key_out, key_in), v in total.items()}
    return Matrix._nonzero(len(rows), len(cols), entries)


def _full_associator(F: FusionData, x: int, y: int, z: int, b: int):
    """The whole associator at outer index b: its map, from the keys (a, u, v)
    of the sum over a to the keys (c, p, q) of the sum over c."""
    src = [(a, u, v) for a, n in F.fuse(x, y) for u, v in _indices((n, F.dim(a, z, b)))]
    tgt = [(c, p, q) for c, n in F.fuse(y, z) for p, q in _indices((F.dim(x, c, b), n))]
    return _route(src, _alpha(F, x, y, z, b))[1], src, tgt


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
    for i, j, k, b in product(range(s), repeat=4):
        full, src, tgt = _full_associator(F, i, j, k, b)
        checked += 1
        if not _invertible(full, tgt, src):
            failures.append(("assoc-not-invertible", i, j, k, b))
    return FusionReport("well-formed", not failures, tuple(failures[:32]), checked)


# -- the pentagon --------------------------------------------------------------


def _pentagon_routes(F: FusionData, i: int, j: int, k: int, l: int, t: int):
    """The start vertex, keyed (a, b, u, v, w), and the jumps of both routes."""
    start = [
        (a, b, u, v, w)
        for a, n_a in F.fuse(i, j)
        for b, n_b in F.fuse(a, k)
        for u, v, w in _indices((n_a, n_b, F.dim(b, l, t)))
    ]

    # route 1: alpha on legs (1,2), alpha on legs (1,3), alpha on legs (2,3)
    def alpha_ijk(key):
        a, b, u, v, w = key
        for c, _ in F.fuse(j, k):
            for (p, q), s in F.assoc_columns(i, j, k, a, b, c)[(u, v)]:
                yield (c, b, p, q, w), s

    def alpha_icl(key):
        c, b, u, v, w = key
        for f, _ in F.fuse(c, l):
            for (p, q), s in F.assoc_columns(i, c, l, b, t, f)[(u, w)]:
                yield (c, f, p, v, q), s

    def alpha_jkl(key):
        c, f, u, v, w = key
        for g, _ in F.fuse(k, l):
            for (p, q), s in F.assoc_columns(j, k, l, c, f, g)[(v, w)]:
                yield (f, g, u, p, q), s

    # route 2: alpha on legs (2,3), then alpha on legs (1,2)
    def alpha_akl(key):
        a, b, u, v, w = key
        for d, _ in F.fuse(k, l):
            for (p, q), s in F.assoc_columns(a, k, l, b, t, d)[(v, w)]:
                yield (a, d, u, p, q), s

    def alpha_ijd(key):
        a, d, u, v, w = key
        for f, _ in F.fuse(j, d):
            for (p, q), s in F.assoc_columns(i, j, d, a, t, f)[(u, v)]:
                yield (f, d, p, q, w), s

    return start, (alpha_ijk, alpha_icl, alpha_jkl), (alpha_akl, alpha_ijd)


def _pentagon_holds(F: FusionData, i: int, j: int, k: int, l: int, t: int) -> bool:
    start, route1, route2 = _pentagon_routes(F, i, j, k, l, t)
    return _route(start, *route1) == _route(start, *route2)


def verify_pentagon(F: FusionData, stop_early: bool = False) -> FusionReport:
    """Both re-association routes around the pentagon agree, tuple by tuple."""
    failures = []
    checked = 0
    for i, j, k, l in product(range(F.size), repeat=4):
        targets = {t for a, _ in F.fuse(i, j) for b, _ in F.fuse(a, k) for t, _ in F.fuse(b, l)}
        for t in sorted(targets):
            checked += 1
            if not _pentagon_holds(F, i, j, k, l, t):
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
    if (0, 0, 0) not in tgt or (0, 0, 0) not in src:
        return ("zigzag-2-space", i)
    vec = Matrix(
        len(tgt), 1, {(tgt.index((0, 0, 0)) + r, 0): start.get(r, 0) for r in range(start.nrows)}
    )
    out = inv @ vec
    # result sits in V[ib,i -> 0] (x) V[0,ib -> ib]; close with ev and l_ib
    base = src.index((0, 0, 0))
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
# Both hexagons act on vertices keyed (a, u, v) with two legs.  _alpha is the
# associator jump between them; the braiding jumps keep the labeling.


def _alpha(F: FusionData, x: int, y: int, z: int, b: int) -> Jump:
    """alpha_{x,y,z} at outer index b: (a, u, v) on V[x,y->a], V[a,z->b] to (c, p, q)."""

    def jump(key):
        a, u, v = key
        for c, _ in F.fuse(y, z):
            for (p, q), s in F.assoc_columns(x, y, z, a, b, c)[(u, v)]:
                yield (c, p, q), s
    return jump


def _hexagon_routes(F: FusionData, i: int, j: int, k: int, t: int):
    """The start vertex and the jumps of both sides of the forward hexagon."""
    start = [(a, u, v) for a, n in F.fuse(i, j) for u, v in _indices((n, F.dim(a, k, t)))]

    def sigma_ij(key):  # sigma_{i,j} (x) 1
        a, u, v = key
        for (p,), s in F.braid_columns(i, j, a)[(u,)]:
            yield (a, p, v), s

    def sigma_ik(key):  # 1 (x) sigma_{i,k}
        c, u, v = key
        for (q,), s in F.braid_columns(i, k, c)[(v,)]:
            yield (c, u, q), s

    def flip_sigma_ic(key):  # flip . (sigma_{i,c} (x) 1)
        c, u, v = key
        for (p,), s in F.braid_columns(i, c, t)[(u,)]:
            yield (c, v, p), s

    return (start, (sigma_ij, _alpha(F, j, i, k, t), sigma_ik),
            (_alpha(F, i, j, k, t), flip_sigma_ic, _alpha(F, j, k, i, t)))


def _hexagon_forward(F: FusionData, i: int, j: int, k: int, t: int) -> bool:
    """Braid i past j then k, against braiding i past the fused pair."""
    start, left, right = _hexagon_routes(F, i, j, k, t)
    return not start or _route(start, *left) == _route(start, *right)


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
    mirror = F.replace(braiding=braiding)
    # the same associator, so the columns read so far serve both
    mirror._assoc_columns = F._assoc_columns
    return mirror


def verify_braiding(F: FusionData, stop_early: bool = False) -> FusionReport:
    """Both hexagon families as exact block identities.

    The backward hexagon at (i, j, k) is the forward hexagon of the reverse
    braiding at (k, i, j) with both sides inverted, so that is what is
    checked.  Without a reverse braiding every backward instance fails.
    """
    mirror = _reversed(F)
    failures = []
    checked = 0
    for i, j, k in product(range(F.size), repeat=3):
        targets = {t for a, _ in F.fuse(i, j) for t, _ in F.fuse(a, k)}
        targets |= {t for a, _ in F.fuse(j, k) for t, _ in F.fuse(i, a)}
        for t in sorted(targets):
            checked += 2
            for name, data, args in (("hexagon-forward", F, (i, j, k, t)),
                                     ("hexagon-backward", mirror, (k, i, j, t))):
                try:
                    ok = data is not None and _hexagon_forward(data, *args)
                except (KeyError, ZeroDivisionError):
                    ok = False
                if not ok:
                    failures.append((name, i, j, k, t))
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


def line_braiding(F: FusionData, lines: Sequence[int]) -> DiagonalBraiding:
    """Diagonal braiding carried by chosen invertible simples.

    Requires each pairwise fusion to be multiplicity-free so the braiding
    block is a single scalar.
    """
    q = []
    for i in lines:
        row = []
        for j in lines:
            candidates = F.fuse(i, j)
            if len(candidates) != 1 or candidates[0][1] != 1:
                raise ValueError(f"simples {i} and {j} do not fuse to a single line")
            row.append(F.braid_block(i, j, candidates[0][0]).get(0, 0))
        q.append(tuple(row))
    return DiagonalBraiding(tuple(q))
