"""Shared builders for the test suite."""

from math import prod

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.fusion import (
    FusionData,
    verify_braiding,
    verify_duality,
    verify_pentagon,
    verify_units,
)
from nicholsforge.linalg import BasedSpace, Matrix, Subspace, inverse, kernel, quotient, vstack
from nicholsforge.scalars import ONE
from nicholsforge.structconst import DecomposedObject, HopfStructure, LabelBackend, unit_span


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
