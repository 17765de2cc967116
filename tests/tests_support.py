"""Shared builders for the test suite."""

import contextlib
import io
import os
from math import prod
from typing import NamedTuple, Optional

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.fusion import (
    FusionData,
    verify_braiding,
    verify_duality,
    verify_pentagon,
    verify_units,
)
from nicholsforge.linalg import BasedSpace, Matrix, Subspace, inverse, kernel, quotient, vstack
from nicholsforge.nichols import nichols_compute
from nicholsforge.scalars import ONE
from nicholsforge.filtration import _layer_is_full, _layer_leq
from nicholsforge.structconst import (
    AXIOM_KEYS,
    AxiomReport,
    DecomposedObject,
    HopfStructure,
    LabelBackend,
    from_nichols,
    product_span,
    unit_span,
    well_formed_problem,
)


class InvokeResult(NamedTuple):
    exit_code: int
    output: str  # standard output and standard error, in the order written
    exception: Optional[BaseException]


class CliRunner:
    """Runs a command line in this process and keeps what it printed.

    `invoke` calls `cli.main(args=..., prog_name=...)`, which always exits.
    A nonzero exit keeps its SystemExit as `exception`; any other exception
    counts as exit 1, or propagates when catch_exceptions is false.  `env`
    sets environment variables for the call, and a None value unsets one.
    """

    def invoke(self, cli, args=(), env=None, catch_exceptions=True) -> InvokeResult:
        stream = io.StringIO()
        saved = {name: os.environ.get(name) for name in env or {}}
        exit_code, exception = 0, None
        try:
            _set_environ(env or {})
            with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
                cli.main(args=list(args), prog_name="nicholsforge")
        except SystemExit as stop:
            code = stop.code
            exit_code = 0 if code is None else code if isinstance(code, int) else 1
            exception = stop if exit_code else None
        except Exception as err:
            if not catch_exceptions:
                raise
            exit_code, exception = 1, err
        finally:
            _set_environ(saved)
        return InvokeResult(exit_code, stream.getvalue(), exception)


def _set_environ(values: dict) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def group_algebra_z2():
    """K[Z/2] on basis (e, g): honest Hopf algebra that is not connected."""
    backend = LabelBackend(DiagonalBraiding.from_entries([["1"]]))
    obj = DecomposedObject(backend, {(0,): BasedSpace(2, ("e", "g"))})
    return HopfStructure(
        obj,
        {((0,), (0,)): Matrix(2, 4, {(0, 0): ONE, (1, 1): ONE, (1, 2): ONE, (0, 3): ONE})},
        Matrix(2, 1, {(0, 0): ONE}),
        {((0,), (0,)): Matrix(4, 2, {(0, 0): ONE, (3, 1): ONE})},
        Matrix(1, 2, {(0, 0): ONE, (0, 1): ONE}),
        {(0,): Matrix.identity(2)},
    )


def regrouped(t: HopfStructure, backend: LabelBackend, relabel) -> HopfStructure:
    """The same structure over coarser sectors: each new sector is the direct
    sum, in the old order, of the old sectors that relabel sends to it."""
    obj = t.obj
    offsets, dims, parts = {}, {}, {}
    for label, space in obj.sectors.items():
        new = relabel(label)
        offsets[label] = dims.get(new, 0)
        dims[new] = offsets[label] + space.dim
        parts.setdefault(new, []).extend(space.labels)
    sectors = {new: BasedSpace(dims[new], tuple(names)) for new, names in parts.items()}
    mul, cop = {}, {}
    for family, blocks in ((mul, t.mul), (cop, t.cop)):
        for (i, j), block in blocks.items():
            # pair index (a, b) of the old factors -> pair index of the new ones
            s_label, dj, DJ = obj.backend.add(i, j), obj.dim(j), dims[relabel(j)]
            entries = family.setdefault((relabel(i), relabel(j)), {})
            for (r, c), v in block.entries.items():
                a, b = divmod(c if family is mul else r, dj)
                pair = (offsets[i] + a) * DJ + offsets[j] + b
                if family is mul:
                    entries[(offsets[s_label] + r, pair)] = v
                else:
                    entries[(pair, offsets[s_label] + c)] = v
    antipode = {}
    for label, block in t.antipode.items():
        entries = antipode.setdefault(relabel(label), {})
        o = offsets[label]
        for (r, c), v in block.entries.items():
            entries[(o + r, o + c)] = v
    zero = obj.backend.zero
    Z, oz = relabel(zero), offsets[zero]
    grading = {}
    for label in obj.sectors:
        grading.setdefault(relabel(label), []).extend(t.grading[label])
    return HopfStructure(
        DecomposedObject(backend, sectors),
        {(I, J): Matrix(dims[backend.add(I, J)], dims[I] * dims[J], e) for (I, J), e in mul.items()},
        Matrix(dims[Z], 1, {(oz + r, 0): v for (r, _), v in t.unit.entries.items()}),
        {(I, J): Matrix(dims[I] * dims[J], dims[backend.add(I, J)], e) for (I, J), e in cop.items()},
        Matrix(1, dims[Z], {(0, oz + c): v for (_, c), v in t.counit.entries.items()}),
        {L: Matrix(dims[L], dims[L], e) for L, e in antipode.items()},
        grading,
    )


def exterior_by_charge(letters):
    """The exterior algebra on x_1, ..., x_n, graded by the charge a_1 - a_2 - ... - a_n.

    On two letters sector 0 holds 1 and x_1 x_2, so layers cut through a
    sector; on three, sector 1 is 1-dimensional and sector -1 is
    3-dimensional.
    """
    q = DiagonalBraiding.from_entries([["-1"] * letters] * letters)
    t = from_nichols(nichols_compute(q, letters + 1))
    backend = LabelBackend(DiagonalBraiding.from_entries([["-1"]]))
    return regrouped(t, backend, lambda c: (c[0] - sum(c[1:]),))


def doubled(block, pos):
    """The block with the entry at pos doubled."""
    entries = dict(block.entries)
    entries[pos] = entries[pos] + entries[pos]
    return Matrix(block.nrows, block.ncols, entries)


def deleted(block, pos):
    """The block with the entry at pos set to zero."""
    entries = dict(block.entries)
    del entries[pos]
    return Matrix(block.nrows, block.ncols, entries)


def hopf_entry_sites(t):
    """Every nonzero structure-constant entry, in a deterministic order."""
    sites = []
    for key in sorted(t.mul):
        for pos in sorted(t.mul[key].entries):
            sites.append(("mul", key, pos))
    for key in sorted(t.cop):
        for pos in sorted(t.cop[key].entries):
            sites.append(("cop", key, pos))
    for key in sorted(t.antipode):
        for pos in sorted(t.antipode[key].entries):
            sites.append(("antipode", key, pos))
    for pos in sorted(t.unit.entries):
        sites.append(("unit", None, pos))
    for pos in sorted(t.counit.entries):
        sites.append(("counit", None, pos))
    return sites


def mutate_hopf(t, site, edit=doubled):
    """t with edit (doubled or deleted) applied to the entry at site."""
    family, key, pos = site
    mul, cop, antipode = dict(t.mul), dict(t.cop), dict(t.antipode)
    unit, counit = t.unit, t.counit
    if family == "mul":
        mul[key] = edit(mul[key], pos)
    elif family == "cop":
        cop[key] = edit(cop[key], pos)
    elif family == "antipode":
        antipode[key] = edit(antipode[key], pos)
    elif family == "unit":
        unit = edit(unit, pos)
    else:
        counit = edit(counit, pos)
    return HopfStructure(t.obj, mul, unit, cop, counit, antipode, t.grading)


def fusion_entry_sites(F):
    sites = []
    for key in sorted(F.assoc):
        for pos in sorted(F.assoc[key].entries):
            sites.append(("assoc", key, pos))
    for key in sorted(F.braiding):
        for pos in sorted(F.braiding[key].entries):
            sites.append(("braiding", key, pos))
    for i in sorted(F.left_units):
        sites.append(("left-unit", i, None))
    for i in sorted(F.right_units):
        sites.append(("right-unit", i, None))
    for i in sorted(F.ev):
        for pos in sorted(F.ev[i].entries):
            sites.append(("ev", i, pos))
    for i in sorted(F.coev):
        for pos in sorted(F.coev[i].entries):
            sites.append(("coev", i, pos))
    return sites


def mutate_fusion(F, site):
    family, key, pos = site
    assoc, braiding = dict(F.assoc), dict(F.braiding)
    left, right = dict(F.left_units), dict(F.right_units)
    ev, coev = dict(F.ev), dict(F.coev)
    if family == "assoc":
        assoc[key] = doubled(assoc[key], pos)
    elif family == "braiding":
        braiding[key] = doubled(braiding[key], pos)
    elif family == "left-unit":
        left[key] = left[key] + left[key]
    elif family == "right-unit":
        right[key] = right[key] + right[key]
    elif family == "ev":
        ev[key] = doubled(ev[key], pos)
    else:
        coev[key] = doubled(coev[key], pos)
    return FusionData(F.size, F.fusion, assoc, braiding, left, right, F.dual, ev, coev)


def fusion_mutation_detected(F):
    # cheap verifiers first; a mutation only needs to trip one of them
    for checker in (verify_units, verify_duality, verify_braiding, verify_pentagon):
        if not checker(F, stop_early=True).passed:
            return True
    return False


# -- references for the fusion checkers: every block a matrix -----------------
#
# The package composes scalars on basis keys, one per basis vector of a
# tree's multiplicity spaces.  These routes work on components, one per
# labeling of a tree, and build every block as a matrix on the direct sum
# of their tensor products, with explicit identity Kronecker products,
# pair02_reference and flip_reference; the package's verdicts must agree
# with theirs instance by instance.  A component is (key, legs), the legs
# being the dimensions of the multiplicity spaces along the tree.


def _total(comps):
    return sum(prod(legs) for _, legs in comps)


def _offsets(comps):
    out = {}
    pos = 0
    for key, legs in comps:
        out[key] = pos
        pos += prod(legs)
    return out


def _assemble(comps_out, comps_in, blocks):
    roff = _offsets(comps_out)
    coff = _offsets(comps_in)
    entries = {}
    for (key_out, key_in), block in blocks.items():
        r0 = roff[key_out]
        c0 = coff[key_in]
        for (r, c), v in block.entries.items():
            entries[(r0 + r, c0 + c)] = v
    return Matrix._nonzero(_total(comps_out), _total(comps_in), entries)


def _assoc_full(F, x, y, z, b):
    """The whole associator at fixed outer indices: sum over a to sum over c."""
    src = [((a,), (n, F.dim(a, z, b))) for a, n in F.fuse(x, y) if F.dim(a, z, b)]
    tgt = [((c,), (F.dim(x, c, b), n)) for c, n in F.fuse(y, z) if F.dim(x, c, b)]
    blocks = {
        ((c,), (a,)): F.assoc_block(x, y, z, a, b, c) for (a,), _ in src for (c,), _ in tgt
    }
    return _assemble(tgt, src, blocks), src, tgt


def route_reference(comps, *jumps):
    """Apply the jumps in order; return the end vertex and the composite map."""
    total = None
    for jump in jumps:
        dims_out = {}
        blocks = {}
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


def flip_reference(d1, d2):
    """The plain flip V1 (x) V2 -> V2 (x) V1 of dims d1, d2."""
    entries = {}
    for x in range(d1):
        for y in range(d2):
            entries[(y * d1 + x, x * d2 + y)] = ONE
    return Matrix(d1 * d2, d1 * d2, entries)


def pair02_reference(block, src, tgt):
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


def pentagon_reference(F, i, j, k, l, t):
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
                yield (c, f), out, pair02_reference(F.assoc_block(i, c, l, b, t, f), dims, out)

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

    return (route_reference(start, alpha_ijk, alpha_icl, alpha_jkl)
            == route_reference(start, alpha_akl, alpha_ijd))


def _alpha_reference(F, x, y, z, b):
    def jump(key, dims):
        (a,) = key
        for c, n in F.fuse(y, z):
            if (m := F.dim(x, c, b)):
                yield (c,), (m, n), F.assoc_block(x, y, z, a, b, c)
    return jump


def hexagon_forward_reference(F, i, j, k, t):
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
        block = flip_reference(sigma.nrows, dims[1]) @ sigma.kron(Matrix.identity(dims[1]))
        yield key, (dims[1], F.dim(c, i, t)), block

    left = route_reference(start, sigma_ij, _alpha_reference(F, j, i, k, t), sigma_ik)
    right = route_reference(start, _alpha_reference(F, i, j, k, t), flip_sigma_ic,
                            _alpha_reference(F, j, k, i, t))
    return left == right


# -- references for constructions the package now derives by duality ----------


def hexagon_backward_reference(F, i, j, k, t):
    """The backward hexagon composed literally, with inverted associators.

    Route 1 is 1 (x) sigma_{j,k}, then alpha_{i,k,j}^{-1}, then
    sigma_{i,k} (x) 1; route 2 is alpha_{i,j,k}^{-1}, then
    flip . (1 (x) sigma_{a,k}), then alpha_{k,i,j}^{-1}.  Each braiding step
    must land on the source or target vertex of the associator it meets.
    """
    full_ijk, src_ijk, start = _assoc_full(F, i, j, k, t)
    if not start:
        return True
    full_ikj, src_ikj, tgt_ikj = _assoc_full(F, i, k, j, t)
    full_kij, src_kij, tgt_kij = _assoc_full(F, k, i, j, t)

    def sigma_jk(key, dims):  # 1 (x) sigma_{j,k}
        (c,) = key
        yield key, (dims[0], F.dim(k, j, c)), Matrix.identity(dims[0]).kron(F.braid_block(j, k, c))

    def sigma_ik(key, dims):  # sigma_{i,k} (x) 1
        (a,) = key
        yield key, (F.dim(k, i, a), dims[1]), F.braid_block(i, k, a).kron(Matrix.identity(dims[1]))

    def flip_sigma_ak(key, dims):  # flip . (1 (x) sigma_{a,k})
        (a,) = key
        sigma = F.braid_block(a, k, t)
        block = flip_reference(dims[0], sigma.nrows) @ Matrix.identity(dims[0]).kron(sigma)
        yield key, (F.dim(k, a, t), dims[0]), block

    mid1, m1 = route_reference(start, sigma_jk)
    end1, m3 = route_reference(src_ikj, sigma_ik)
    mid2, m2 = route_reference(src_ijk, flip_sigma_ak)
    if mid1 != tgt_ikj or mid2 != tgt_kij or end1 != src_kij:
        return False
    left = m3 @ inverse(full_ikj) @ m1
    right = inverse(full_kij) @ m2 @ inverse(full_ijk)
    return left == right


def coradical_chain_reference(t):
    """Coradical chain by the wedge recursion C_n = C_{n-1} ^ C_0.

    C_n is everything whose coproduct vanishes in
    (C / C_{n-1}) (x) (C / C_0); returns (window, chain) with the layers
    keyed by sector and zero subspaces left out.
    """
    obj = t.obj
    base = {label: sub for label, sub in unit_span(t).items() if sub.dim}
    chain = {0: base}
    n = 0
    while any(label not in chain[n] or chain[n][label].dim < space.dim
              for label, space in obj.sectors.items()):
        assert n <= obj.total_dim(), "coradical chain fails to exhaust"
        prev = chain[n]
        n += 1
        layer = {}
        for s_label, space in obj.sectors.items():
            blocks = []
            for i_label, j_label in obj.splits(s_label):
                block = t.cop.get((i_label, j_label))
                if block is None:
                    continue
                left_space = obj.sectors[i_label]
                left_sub = prev.get(i_label, Subspace.zero(left_space.dim))
                _, proj_left, _ = quotient(left_space, left_sub)
                right_space = obj.sectors[j_label]
                right_sub = base.get(j_label, Subspace.zero(right_space.dim))
                _, proj_right, _ = quotient(right_space, right_sub)
                if proj_left.nrows == 0 or proj_right.nrows == 0:
                    continue
                blocks.append(proj_left.kron(proj_right) @ block)
            sub = kernel(vstack(blocks)) if blocks else Subspace.full(space.dim)
            if sub.dim:
                layer[s_label] = sub
        chain[n] = layer
    return (0, n), chain


# -- references for the checks the package now runs on the dual --------------

# verify_axioms checks the coalgebra axioms as the algebra axioms of the
# dual, and filtration_conditions the coalgebra conditions as algebra
# conditions of the annihilator filtration on the dual.  These are the
# direct forms, on the structure itself, with their bodies as the package
# had them (f.sector_at is _sector_at here); the package's reports must
# equal theirs.


def verify_axioms_reference(t):
    """Exact blockwise verification of all Hopf axioms, the coalgebra half on t.

    A malformed structure short-circuits: the shape problem is reported
    under well-formed and every actual axiom is left unevaluated.
    """
    results: dict = {key: None for key in AXIOM_KEYS}
    failures: dict = {}

    problem = well_formed_problem(t)
    results["well-formed"] = problem is None
    if problem is not None:
        failures["well-formed"] = problem
        return AxiomReport(results, failures)

    obj = t.obj
    backend = obj.backend
    labels = obj.labels
    zero = backend.zero

    def record(key, description, lhs, rhs):
        if lhs == rhs:
            return True
        if key not in failures:
            failures[key] = description
        return False

    eye = {label: Matrix.identity(obj.dim(label)) for label in labels}
    flips: dict = {}  # a braiding flip depends only on its sector pair

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

    # associativity: m(m x 1) = m(1 x m) on B_i x B_j x B_k
    ok = True
    for i, j, k in triples:
        lhs = t.mul_at(backend.add(i, j), k) @ t.mul_at(i, j).kron(eye[k])
        rhs = t.mul_at(i, backend.add(j, k)) @ eye[i].kron(t.mul_at(j, k))
        ok = record("assoc", f"assoc at {(i, j, k)}", lhs, rhs) and ok
    results["assoc"] = ok

    # unit: m(u x 1) = 1 = m(1 x u)
    ok = True
    for i in labels:
        left = t.mul_at(zero, i) @ t.unit.kron(eye[i])
        right = t.mul_at(i, zero) @ eye[i].kron(t.unit)
        ok = record("unit", f"left unit at {i}", left, eye[i]) and ok
        ok = record("unit", f"right unit at {i}", right, eye[i]) and ok
    results["unit"] = ok

    # coassociativity: (cop x 1)cop = (1 x cop)cop into B_i x B_j x B_k
    ok = True
    for i, j, k in triples:
        lhs = t.cop_at(i, j).kron(eye[k]) @ t.cop_at(backend.add(i, j), k)
        rhs = eye[i].kron(t.cop_at(j, k)) @ t.cop_at(i, backend.add(j, k))
        ok = record("coassoc", f"coassoc at {(i, j, k)}", lhs, rhs) and ok
    results["coassoc"] = ok

    # counit: (eps x 1)cop = 1 = (1 x eps)cop
    ok = True
    for i in labels:
        left = t.counit.kron(eye[i]) @ t.cop_at(zero, i)
        right = eye[i].kron(t.counit) @ t.cop_at(i, zero)
        ok = record("counit", f"left counit at {i}", left, eye[i]) and ok
        ok = record("counit", f"right counit at {i}", right, eye[i]) and ok
    results["counit"] = ok

    # bialgebra: cop and counit are algebra maps, with the braiding insertion;
    # the pieces over splits (a1, a2) of a and (b1, b2) of b land in
    # (a1+b1, a2+b2)
    ok = True
    for a in labels:
        for b in labels:
            pieces: dict = {}
            for a1, a2 in obj.splits(a):
                for b1, b2 in obj.splits(b):
                    i, j = backend.add(a1, b1), backend.add(a2, b2)
                    if i not in obj.sectors or j not in obj.sectors:
                        continue
                    piece = t.mul_at(a1, b1).kron(t.mul_at(a2, b2))
                    flip = flips.get((a2, b1))
                    if flip is None:
                        flip = flips[(a2, b1)] = t.braid_flip(a2, b1)
                    swap = eye[a1].kron(flip).kron(eye[b2])
                    piece = piece @ swap @ t.cop_at(a1, a2).kron(t.cop_at(b1, b2))
                    pieces[(i, j)] = pieces[(i, j)] + piece if (i, j) in pieces else piece
            for i, j in obj.splits(backend.add(a, b)):
                lhs = t.cop_at(i, j) @ t.mul_at(a, b)
                rhs = pieces.get((i, j))
                if rhs is None:
                    rhs = Matrix(obj.dim(i) * obj.dim(j), obj.dim(a) * obj.dim(b))
                ok = record("bialgebra", f"cop o mul at {(a, b)} -> {(i, j)}", lhs, rhs) and ok
    for i, j in obj.splits(zero):
        # counit kills every product that lands in the unit sector except 0 x 0
        lhs = t.counit @ t.mul_at(i, j)
        rhs = t.counit.kron(t.counit) if i == zero else Matrix(1, obj.dim(i) * obj.dim(j))
        ok = record("bialgebra", f"counit o mul at {(i, j)}", lhs, rhs) and ok
    for i, j in obj.splits(zero):
        lhs = t.cop_at(i, j) @ t.unit
        rhs = t.unit.kron(t.unit) if i == zero else Matrix(obj.dim(i) * obj.dim(j), 1)
        ok = record("bialgebra", f"cop o unit at {(i, j)}", lhs, rhs) and ok
    one = Matrix.identity(1)
    ok = record("bialgebra", "counit o unit", t.counit @ t.unit, one) and ok
    results["bialgebra"] = ok

    # antipode: m(S x 1)cop = u eps = m(1 x S)cop, per total sector
    for key, use_left in (("antipode-left", True), ("antipode-right", False)):
        ok = True
        for s in labels:
            total = Matrix(obj.dim(s), obj.dim(s))
            for i, j in obj.splits(s):
                if use_left:
                    half = t.antipode_at(i).kron(eye[j])
                else:
                    half = eye[i].kron(t.antipode_at(j))
                total = total + t.mul_at(i, j) @ half @ t.cop_at(i, j)
            want = t.unit @ t.counit if s == zero else Matrix(obj.dim(s), obj.dim(s))
            ok = record(key, f"antipode at sector {s}", total, want) and ok
        results[key] = ok

    return AxiomReport(results, failures)


def _sector_at(f, i, label):
    sub = f.at(i).get(label)
    return Subspace.zero(f.structure.obj.dim(label)) if sub is None else sub


def filtration_conditions_reference(f):
    """The seven compatibility conditions, the coalgebra ones checked on f itself."""
    t = f.structure
    obj = t.obj
    backend = obj.backend
    lo, hi = f.window
    results = {}

    results["exhausts"] = _layer_is_full(obj, f.at(hi))
    # `at` returns the empty layer below the window, so the filtration is
    # bounded below by construction and there is nothing to check
    results["bounded-below"] = True

    # a factor below the window is zero and a target above it is everything,
    # so only the pairs with both factors from lo and i + j <= hi can fail
    ok = True
    for i in range(lo, hi + 2):
        for j in range(lo, min(hi + 1, hi - i) + 1):
            image = product_span(t, f.at(i), f.at(j))
            if not _layer_leq(image, f.at(i + j)):
                ok = False
    results["multiplicative"] = ok

    ok = True
    for k in range(lo, hi + 2):
        layer = f.at(k)
        for s_label, sub in layer.items():
            if sub.dim == 0:
                continue
            for i_label, j_label in obj.splits(s_label):
                block = t.cop.get((i_label, j_label))
                if block is None:
                    continue
                di = obj.dim(i_label)
                dj = obj.dim(j_label)
                pieces = []
                for i in range(lo, hi + 2):
                    j = k - i
                    if j < lo:
                        continue
                    left = _sector_at(f, i, i_label)
                    right = _sector_at(f, j, j_label)
                    if left.dim == 0 or right.dim == 0:
                        continue
                    pieces.append(left.row_matrix.kron(right.row_matrix))
                allowed = (
                    Subspace.from_matrix_rows(vstack(pieces))
                    if pieces
                    else Subspace.zero(di * dj)
                )
                image = block @ sub.basis
                if not allowed.contains_columns(image):
                    ok = False
    results["comultiplicative"] = ok

    zero = backend.zero
    below = _sector_at(f, -1, zero)
    results["counit-vanishing"] = below.dim == 0 or (t.counit @ below.basis).is_zero()
    results["unit-in-zero"] = _sector_at(f, 0, zero).contains_columns(t.unit)

    ok = True
    for i in range(lo, hi + 1):
        for label, sub in f.at(i).items():
            if sub.dim == 0:
                continue
            if not sub.contains_columns(t.antipode_at(label) @ sub.basis):
                ok = False
    results["antipode-stable"] = ok
    return results
