"""Exact linear algebra over cyclotomic scalars.

Matrices are sparse maps (row, col) -> Scalar with no stored zeros.  Every
rank, kernel, and quotient goes through one canonical reduced-row-echelon
routine in the kernel package, so equal subspaces always have syntactically
equal bases.  Kernels here are right kernels: vectors v with M @ v = 0.

Everything is immutable in practice (nothing mutates a Matrix after
construction), which is what lets the CLI fan work out across threads
without locks.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence

from ._kernel import active as _K
from .scalars import ONE, ZERO, FieldContext, Scalar, field_context, from_rational

__all__ = [
    "Matrix",
    "BasedSpace",
    "Subspace",
    "rank",
    "rref",
    "kernel",
    "solve",
    "inverse",
    "quotient",
    "hstack",
    "vstack",
]


def _as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int):
        return from_rational(value)
    raise TypeError(f"matrix entries must be Scalar or int, got {type(value).__name__}")


def _times(va: Scalar, a_one: bool, vb: Scalar, b_one: bool) -> Scalar:
    """va * vb, given whether each factor is 1.

    A 1 whose conductor divides the other factor's leaves that factor as
    the product, conductor included, so it is reused without multiplying;
    any other 1 would lift the product to a larger conductor.
    """
    if a_one and vb.conductor % va.conductor == 0:
        return vb
    if b_one and va.conductor % vb.conductor == 0:
        return va
    return va * vb


class Matrix:
    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: Optional[dict] = None):
        assert nrows >= 0 and ncols >= 0
        self.nrows = nrows
        self.ncols = ncols
        if entries:
            self.entries = {k: v for k, v in entries.items() if v}
        else:
            self.entries = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def _nonzero(cls, nrows: int, ncols: int, entries: dict) -> "Matrix":
        """A matrix on entries already known to be nonzero, taken as they are."""
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.entries = entries
        return m

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows):
            assert len(row) == ncols, "ragged rows"
            for j, value in enumerate(row):
                s = _as_scalar(value)
                if s:
                    entries[(i, j)] = s
        return cls(nrows, ncols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        return cls.from_rows(list(columns)).transpose() if columns else cls(0, 0)

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        return cls.from_rows([[v] for v in values])

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        n = len(values)
        entries = {}
        for i, value in enumerate(values):
            s = _as_scalar(value)
            if s:
                entries[(i, i)] = s
        return cls(n, n, entries)

    # -- access ---------------------------------------------------------

    def get(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), ZERO)

    def column_vector(self, j: int) -> list:
        col = [ZERO] * self.nrows
        for (r, c), v in self.entries.items():
            if c == j:
                col[r] = v
        return col

    def select_columns(self, cols: Sequence[int]) -> "Matrix":
        pos = {c: k for k, c in enumerate(cols)}
        entries = {}
        for (r, c), v in self.entries.items():
            k = pos.get(c)
            if k is not None:
                entries[(r, k)] = v
        return Matrix._nonzero(self.nrows, len(cols), entries)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        entries = dict(self.entries)
        for k, v in other.entries.items():
            cur = entries.get(k)
            entries[k] = v if cur is None else cur + v
        return Matrix(self.nrows, self.ncols, entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._nonzero(self.nrows, self.ncols, {k: -v for k, v in self.entries.items()})

    def scale(self, s) -> "Matrix":
        s = _as_scalar(s)
        if not s:
            return Matrix(self.nrows, self.ncols)
        return Matrix(self.nrows, self.ncols, {k: s * v for k, v in self.entries.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        assert self.ncols == other.nrows, f"shape mismatch {self.shape} @ {other.shape}"
        by_row: dict[int, list] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v, v.is_one()))
        acc: dict[tuple, Scalar] = {}
        for (r, k), va in self.entries.items():
            a_one = va.is_one()
            for c, vb, b_one in by_row.get(k, ()):
                key = (r, c)
                cur = acc.get(key)
                prod = _times(va, a_one, vb, b_one)
                acc[key] = prod if cur is None else cur + prod
        return Matrix(self.nrows, other.ncols, acc)

    def transpose(self) -> "Matrix":
        return Matrix._nonzero(self.ncols, self.nrows,
                               {(c, r): v for (r, c), v in self.entries.items()})

    def kron(self, other: "Matrix") -> "Matrix":
        # Index identification (i, j) -> i * dim(other) + j on both sides,
        # matching concatenation of tensor words.  A product of nonzero
        # field elements is nonzero, so nothing needs filtering.
        right = [(rb, cb, vb, vb.is_one()) for (rb, cb), vb in other.entries.items()]
        entries = {}
        for (ra, ca), va in self.entries.items():
            a_one = va.is_one()
            for rb, cb, vb, b_one in right:
                entries[(ra * other.nrows + rb, ca * other.ncols + cb)] = _times(va, a_one, vb, b_one)
        return Matrix._nonzero(self.nrows * other.nrows, self.ncols * other.ncols, entries)

    # -- predicates ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if set(self.entries) != set(other.entries):
            return False
        return all(v == other.entries[k] for k, v in self.entries.items())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"


def hstack(mats: Sequence[Matrix]) -> Matrix:
    assert mats, "need at least one matrix"
    nrows = mats[0].nrows
    entries = {}
    offset = 0
    for m in mats:
        assert m.nrows == nrows
        for (r, c), v in m.entries.items():
            entries[(r, c + offset)] = v
        offset += m.ncols
    return Matrix._nonzero(nrows, offset, entries)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    assert mats, "need at least one matrix"
    ncols = mats[0].ncols
    entries = {}
    offset = 0
    for m in mats:
        assert m.ncols == ncols
        for (r, c), v in m.entries.items():
            entries[(r + offset, c)] = v
        offset += m.nrows
    return Matrix._nonzero(offset, ncols, entries)


# -- echelon plumbing -------------------------------------------------------


def _common_context(M: Matrix) -> FieldContext:
    return field_context(lcm(*(v.conductor for v in M.entries.values())))


def _kernel_rows(M: Matrix, ctx: FieldContext) -> list:
    zero_entry = (0,) * ctx.phi + (1,)
    rows = [[zero_entry] * M.ncols for _ in range(M.nrows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v._lift_to(ctx.conductor)
    return rows


def _matrix_from_kernel_rows(rows, ncols: int, ctx: FieldContext) -> Matrix:
    entries = {}
    for r, row in enumerate(rows):
        for c in range(ncols):
            cell = row[c]
            if not _K.poly_is_zero(cell):
                entries[(r, c)] = Scalar(ctx.conductor, tuple(cell))
    return Matrix(len(rows), ncols, entries)


def rref(M: Matrix) -> tuple:
    """(pivot columns, canonical reduced row echelon matrix, zero rows dropped)."""
    if not M.entries:
        return (), Matrix(0, M.ncols)
    ctx = _common_context(M)
    pivots, rows = _K.rref_rows(_kernel_rows(M, ctx), ctx.red, ctx.modpoly)
    return tuple(pivots), _matrix_from_kernel_rows(rows, M.ncols, ctx)


def rank(M: Matrix) -> int:
    return len(rref(M)[0])


def kernel(M: Matrix) -> "Subspace":
    """Right null space {v : M @ v = 0} with canonical echelon basis."""
    pivots, R = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(M.ncols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [ZERO] * M.ncols
        v[f] = ONE
        for i, p in enumerate(pivots):
            entry = R.get(i, f)
            if entry:
                v[p] = -entry
        vectors.append(v)
    return Subspace.from_vectors(M.ncols, vectors)


def solve(M: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some x with M @ x = b, or None.  Free variables are set to zero."""
    assert b.nrows == M.nrows and b.ncols == 1
    pivots, R = rref(hstack([M, b]))
    if M.ncols in pivots:
        return None
    entries = {}
    for i, p in enumerate(pivots):
        v = R.get(i, M.ncols)
        if v:
            entries[(p, 0)] = v
    return Matrix(M.ncols, 1, entries)


def inverse(M: Matrix) -> Matrix:
    assert M.nrows == M.ncols, "inverse of a non-square matrix"
    n = M.nrows
    if n == 1:
        # a 1 x 1 matrix is its entry, inverted without an elimination
        entry = M.entries.get((0, 0))
        if entry is None:
            raise ZeroDivisionError("matrix is singular")
        return Matrix._nonzero(1, 1, {(0, 0): entry.inverse()})
    pivots, R = rref(hstack([M, Matrix.identity(n)]))
    if pivots != tuple(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return R.select_columns(range(n, 2 * n))


# -- spaces ---------------------------------------------------------------


class BasedSpace:
    """A finite-dimensional space with a fixed, named basis."""

    __slots__ = ("dim", "labels")

    def __init__(self, dim: int, labels: tuple):
        assert len(labels) == dim, "label count must match dimension"
        assert len(set(labels)) == dim, "labels must be distinct"
        self.dim = dim
        self.labels = labels

    def __eq__(self, other):
        if not isinstance(other, BasedSpace):
            return NotImplemented
        return self.dim == other.dim and self.labels == other.labels

    def __hash__(self):
        return hash((self.dim, self.labels))

    def __repr__(self) -> str:
        return f"BasedSpace({self.dim}, {self.labels!r})"

    @classmethod
    def standard(cls, dim: int, prefix: str = "e") -> "BasedSpace":
        return cls(dim, tuple(f"{prefix}{i + 1}" for i in range(dim)))


class Subspace:
    """Span of vectors inside an ambient coordinate space.

    Stored as the canonical reduced echelon matrix whose rows span the
    subspace; two Subspaces are equal iff their stored matrices are, so
    equality needs no further elimination.  The basis property exposes the
    same data with basis vectors as columns.
    """

    __slots__ = ("ambient_dim", "row_matrix", "pivots")

    def __init__(self, ambient_dim: int, row_matrix: Matrix, pivots: tuple):
        # Trusted constructor: row_matrix must already be canonical.
        self.ambient_dim = ambient_dim
        self.row_matrix = row_matrix
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return cls.zero(ambient_dim)
        M = Matrix.from_rows(vectors)
        assert M.ncols == ambient_dim
        pivots, R = rref(M)
        return cls(ambient_dim, R, pivots)

    @classmethod
    def from_columns(cls, columns: Matrix) -> "Subspace":
        return cls.from_matrix_rows(columns.transpose())

    @classmethod
    def from_matrix_rows(cls, M: Matrix) -> "Subspace":
        pivots, R = rref(M)
        return cls(M.ncols, R, pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(0, ambient_dim), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> Matrix:
        """Basis vectors as columns, per the subspace contract."""
        return self.row_matrix.transpose()

    def is_zero(self) -> bool:
        return not self.pivots

    def contains(self, vector: Sequence) -> bool:
        v = list(vector)
        assert len(v) == self.ambient_dim
        for i, p in enumerate(self.pivots):
            c = v[p]
            if c:
                for j in range(p, self.ambient_dim):
                    e = self.row_matrix.get(i, j)
                    if e:
                        v[j] = v[j] - c * e
        return all(not x for x in v)

    def contains_columns(self, M: Matrix) -> bool:
        return all(self.contains(M.column_vector(j)) for j in range(M.ncols))

    def add(self, other: "Subspace") -> "Subspace":
        assert self.ambient_dim == other.ambient_dim
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return Subspace.from_matrix_rows(vstack([self.row_matrix, other.row_matrix]))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.row_matrix == other.row_matrix

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def quotient(ambient: BasedSpace, sub: Subspace) -> tuple:
    """Quotient space with projection and section.

    projection @ section is the identity on the quotient, and the kernel of
    the projection is exactly sub.  The quotient basis is the image of the
    standard vectors at the non-pivot columns, keeping their labels.
    """
    if ambient.dim != sub.ambient_dim:
        raise ValueError(f"ambient dim {ambient.dim} != subspace ambient {sub.ambient_dim}")
    pivot_set = set(sub.pivots)
    free = [c for c in range(ambient.dim) if c not in pivot_set]
    space = BasedSpace(len(free), tuple(ambient.labels[f] for f in free))
    proj_entries = {}
    for j, f in enumerate(free):
        proj_entries[(j, f)] = ONE
    for i, p in enumerate(sub.pivots):
        for j, f in enumerate(free):
            entry = sub.row_matrix.get(i, f)
            if entry:
                proj_entries[(j, p)] = -entry
    projection = Matrix(len(free), ambient.dim, proj_entries)
    section = Matrix(ambient.dim, len(free), {(f, j): ONE for j, f in enumerate(free)})
    return space, projection, section
