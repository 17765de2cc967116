"""Shared builders for the test suite."""

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.fusion import (
    FusionData,
    _assoc_full,
    _flip,
    _route,
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
        block = _flip(dims[0], sigma.nrows) @ Matrix.identity(dims[0]).kron(sigma)
        yield key, (F.dim(k, a, t), dims[0]), block

    mid1, m1 = _route(start, sigma_jk)
    end1, m3 = _route(src_ikj, sigma_ik)
    mid2, m2 = _route(src_ijk, flip_sigma_ak)
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
