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
one of the reverse braiding, so it needs no second form.  Only the second
duality zig-zag is still derived by hand (see docs/FORMATS.md for the
composition tables, including the convention that reordering multiplicity
factors uses the plain flip).  Every verifier reports located failures
instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from math import lcm, prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .braided import DiagonalBraiding
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
    "line_braiding",
]


@dataclass(frozen=True)
class FusionData:
    size: int
    fusion: Dict[Tuple[int, int, int], int]
    assoc: Dict[Tuple[int, int, int, int, int, int], Matrix]
    braiding: Dict[Tuple[int, int, int], Matrix]
    left_units: Dict[int, Scalar]   # coordinate of l_i in V[0,i -> i]
    right_units: Dict[int, Scalar]  # coordinate of r_i in V[i,0 -> i]
    dual: Tuple[int, ...]
    ev: Dict[int, Matrix]    # 1 x dim V[dual(i),i -> 0]
    coev: Dict[int, Matrix]  # dim V[i,dual(i) -> 0] x 1
    # (i, j) -> ((k, N_ij^k), ...) over the nonzero entries, k ascending
    _rules: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        rules: Dict[Tuple[int, int], list] = {}
        for (i, j, k), n in sorted(self.fusion.items()):
            if n:
                rules.setdefault((i, j), []).append((k, n))
        object.__setattr__(self, "_rules", {key: tuple(v) for key, v in rules.items()})

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


@dataclass(frozen=True)
class FusionReport:
    check: str
    passed: bool
    failures: Tuple[tuple, ...]
    checked: int


# -- direct sums of small tensor products -------------------------------------
#
# A vertex is a key-sorted list of (key, leg-dims): one component per
# labeling of the internal edges of a fusion tree, with coordinate space the
# direct sum over components of the tensor product of the legs.  A jump
# maps one component to the (key_out, dims_out, block) triples it reaches;
# _route assembles the jumps into matrices between whole vertices.  Zero
# blocks are kept, so a vertex lists every reachable labeling.  For
# associative, symmetric fusion rules that is every admissible labeling of
# its tree, so two routes between the same trees end on equal vertices.

Vertex = List[Tuple[tuple, tuple]]
Jump = Callable[[tuple, tuple], Iterable[Tuple[tuple, tuple, Matrix]]]


def _total(comps: Vertex) -> int:
    return sum(prod(dims) for _, dims in comps)


def _offsets(comps: Vertex) -> Dict[tuple, int]:
    out = {}
    pos = 0
    for key, dims in comps:
        out[key] = pos
        pos += prod(dims)
    return out


def _assemble(comps_out: Vertex, comps_in: Vertex, blocks: Dict[tuple, Matrix]) -> Matrix:
    roff = _offsets(comps_out)
    coff = _offsets(comps_in)
    entries = {}
    for (key_out, key_in), block in blocks.items():
        r0 = roff[key_out]
        c0 = coff[key_in]
        for (r, c), v in block.entries.items():
            entries[(r0 + r, c0 + c)] = v
    return Matrix(_total(comps_out), _total(comps_in), entries)


def _route(comps: Vertex, *jumps: Jump) -> Tuple[Vertex, Matrix]:
    """Apply the jumps in order; return the end vertex and the composite map."""
    total = None
    for jump in jumps:
        dims_out: Dict[tuple, tuple] = {}
        blocks: Dict[tuple, Matrix] = {}
        for key, dims in comps:
            for key_out, dims_k, block in jump(key, dims):
                dims_out[key_out] = dims_k
                prev = blocks.get((key_out, key))
                blocks[(key_out, key)] = block if prev is None else prev + block
        out = sorted(dims_out.items())
        step = _assemble(out, comps, blocks)
        total = step if total is None else step @ total
        comps = out
    return comps, total


def _flip(d1: int, d2: int) -> Matrix:
    entries = {}
    for x in range(d1):
        for y in range(d2):
            entries[(y * d1 + x, x * d2 + y)] = ONE
    return Matrix(d1 * d2, d1 * d2, entries)


def _pair02(block: Matrix, src: tuple, tgt: tuple) -> Matrix:
    """Extend a map on legs (0, 2) by the identity on the middle leg."""
    s0, s1, s2 = src
    t0, _, t2 = tgt
    entries = {}
    for (r, c), v in block.entries.items():
        x_out, z_out = divmod(r, t2)
        x_in, z_in = divmod(c, s2)
        for y in range(s1):
            entries[((x_out * s1 + y) * t2 + z_out, (x_in * s1 + y) * s2 + z_in)] = v
    return Matrix(t0 * s1 * t2, s0 * s1 * s2, entries)


def _assoc_full(F: FusionData, x: int, y: int, z: int, b: int):
    """The whole associator at fixed outer indices: sum over a to sum over c."""
    src = [((a,), (n, F.dim(a, z, b))) for a, n in F.fuse(x, y) if F.dim(a, z, b)]
    tgt = [((c,), (F.dim(x, c, b), n)) for c, n in F.fuse(y, z) if F.dim(x, c, b)]
    blocks = {
        ((c,), (a,)): F.assoc_block(x, y, z, a, b, c) for (a,), _ in src for (c,), _ in tgt
    }
    return _assemble(tgt, src, blocks), src, tgt


# -- well-formedness -----------------------------------------------------------


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
        if F.dim(j, i, k) != n or block.shape != (n, n) or (n and rank(block) != n):
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
        full, src, tgt = _assoc_full(F, i, j, k, b)
        checked += 1
        if _total(src) != _total(tgt) or rank(full) != _total(src):
            failures.append(("assoc-not-invertible", i, j, k, b))
    return FusionReport("well-formed", not failures, tuple(failures[:32]), checked)


# -- the pentagon --------------------------------------------------------------


def _pentagon_holds(F: FusionData, i: int, j: int, k: int, l: int, t: int) -> bool:
    start = [
        ((a, b), (n_a, n_b, F.dim(b, l, t)))
        for a, n_a in F.fuse(i, j)
        for b, n_b in F.fuse(a, k)
        if F.dim(b, l, t)
    ]

    # route 1: alpha on legs (1,2), alpha on legs (1,3), alpha on legs (2,3)
    def alpha_ijk(key, dims):
        a, b = key
        for c, n in F.fuse(j, k):
            if (d := F.dim(i, c, b)):
                block = F.assoc_block(i, j, k, a, b, c).kron(Matrix.identity(dims[2]))
                yield (c, b), (d, n, dims[2]), block

    def alpha_icl(key, dims):
        c, b = key
        for f, n in F.fuse(c, l):
            if (d := F.dim(i, f, t)):
                out = (d, dims[1], n)
                yield (c, f), out, _pair02(F.assoc_block(i, c, l, b, t, f), dims, out)

    def alpha_jkl(key, dims):
        c, f = key
        for g, n in F.fuse(k, l):
            if (d := F.dim(j, g, f)):
                block = Matrix.identity(dims[0]).kron(F.assoc_block(j, k, l, c, f, g))
                yield (f, g), (dims[0], d, n), block

    # route 2: alpha on legs (2,3), then alpha on legs (1,2)
    def alpha_akl(key, dims):
        a, b = key
        for d, n in F.fuse(k, l):
            if (m := F.dim(a, d, t)):
                block = Matrix.identity(dims[0]).kron(F.assoc_block(a, k, l, b, t, d))
                yield (a, d), (dims[0], m, n), block

    def alpha_ijd(key, dims):
        a, d = key
        for f, n in F.fuse(j, d):
            if (m := F.dim(i, f, t)):
                block = F.assoc_block(i, j, d, a, t, f).kron(Matrix.identity(dims[2]))
                yield (f, d), (m, n, dims[2]), block

    return _route(start, alpha_ijk, alpha_icl, alpha_jkl) == _route(start, alpha_akl, alpha_ijd)


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
    full, src, tgt = _assoc_full(F, ib, i, ib, ib)
    try:
        inv = inverse(full)
    except ZeroDivisionError:
        return ("zigzag-2-associator", i)
    src_off = _offsets(src)
    tgt_off = _offsets(tgt)
    if (0,) not in tgt_off or (0,) not in src_off:
        return ("zigzag-2-space", i)
    vec = Matrix(
        full.nrows, 1, {(tgt_off[(0,)] + r, 0): start.get(r, 0) for r in range(start.nrows)}
    )
    out = inv @ vec
    # result sits in V[ib,i -> 0] (x) V[0,ib -> ib]; close with ev and l_ib
    base = src_off[(0,)]
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
# Both hexagons act on vertices keyed (a,) with two legs.  _alpha is the
# associator jump between them; the braiding jumps keep the key.


def _alpha(F: FusionData, x: int, y: int, z: int, b: int) -> Jump:
    """alpha_{x,y,z} at outer index b: (a,) with legs V[x,y->a], V[a,z->b] to (c,)."""
    def jump(key, dims):
        (a,) = key
        for c, n in F.fuse(y, z):
            if (m := F.dim(x, c, b)):
                yield (c,), (m, n), F.assoc_block(x, y, z, a, b, c)
    return jump


def _hexagon_forward(F: FusionData, i: int, j: int, k: int, t: int) -> bool:
    """Braid i past j then k, against braiding i past the fused pair."""
    start = [((a,), (n, F.dim(a, k, t))) for a, n in F.fuse(i, j) if F.dim(a, k, t)]
    if not start:
        return True

    def sigma_ij(key, dims):  # sigma_{i,j} (x) 1
        (a,) = key
        yield key, (F.dim(j, i, a), dims[1]), F.braid_block(i, j, a).kron(Matrix.identity(dims[1]))

    def sigma_ik(key, dims):  # 1 (x) sigma_{i,k}
        (c,) = key
        yield key, (dims[0], F.dim(k, i, c)), Matrix.identity(dims[0]).kron(F.braid_block(i, k, c))

    def flip_sigma_ic(key, dims):  # flip . (sigma_{i,c} (x) 1)
        (c,) = key
        sigma = F.braid_block(i, c, t)
        block = _flip(sigma.nrows, dims[1]) @ sigma.kron(Matrix.identity(dims[1]))
        yield key, (dims[1], F.dim(c, i, t)), block

    left = _route(start, sigma_ij, _alpha(F, j, i, k, t), sigma_ik)
    right = _route(start, _alpha(F, i, j, k, t), flip_sigma_ic, _alpha(F, j, k, i, t))
    return left == right


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
    return replace(F, braiding=braiding)


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


def pointed_center_data(factors: Sequence[int]) -> FusionData:
    """Drinfeld-center data of a finite abelian group given by cyclic factors.

    Simples are pairs (group element, character); fusion is the group law,
    the associator is trivial, and the braiding scalar between (g, chi)
    and (h, psi) is psi(g).
    """
    factors = tuple(int(d) for d in factors)
    if any(d < 1 for d in factors):
        raise ValueError("cyclic factors must be positive")
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
