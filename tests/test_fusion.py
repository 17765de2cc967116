"""Fusion data verification and pointed Drinfeld-center examples."""

from itertools import product
from math import prod

import pytest

from nicholsforge.braided import YDDatum, yd_to_braiding
from nicholsforge.fusion import (
    FusionData,
    FusionReport,
    _ColumnTable,
    _full_associator,
    _hexagon_ends,
    _holds,
    _pentagon_ends,
    pointed_center_data,
    verify_all,
    verify_braiding,
    verify_duality,
    verify_pentagon,
    verify_units,
    well_formed,
)
from nicholsforge.linalg import Matrix
from nicholsforge.scalars import ONE, from_rational, root_of_unity
from tests_support import (
    _alpha_column,
    _assoc_full,
    _offsets,
    deleted,
    fusion_entry_sites,
    fusion_mutation_detected,
    hexagon_backward_reference,
    hexagon_forward_reference,
    hexagon_forward_reference_routes,
    hexagon_jumps,
    hexagon_start,
    line_braiding,
    mutate_fusion,
    pentagon_jumps,
    pentagon_reference,
    pentagon_reference_routes,
    pentagon_start,
    reversed_braiding,
    route_reference,
    verify_braiding_reference,
)


@pytest.fixture(scope="module")
def z2():
    return pointed_center_data([2])


@pytest.fixture(scope="module")
def z3():
    return pointed_center_data([3])


def test_center_sizes(z2, z3):
    assert z2.size == 4
    assert z3.size == 9
    assert pointed_center_data([2, 2]).size == 16


def test_factors_must_be_positive():
    with pytest.raises(ValueError):
        pointed_center_data([0])


def test_unit_is_simple_zero(z2):
    assert z2.dual[0] == 0
    for i in range(z2.size):
        assert z2.dim(0, i, i) == 1
        assert z2.dim(i, 0, i) == 1


def test_fusion_follows_group_law(z3):
    # simples are (g, chi) pairs; tensor adds both coordinates
    for i in range(z3.size):
        for j in range(z3.size):
            targets = [k for k in range(z3.size) if z3.dim(i, j, k)]
            assert len(targets) == 1


def test_z2_passes_each_verifier(z2):
    assert well_formed(z2).passed
    assert verify_pentagon(z2).passed
    assert verify_units(z2).passed
    assert verify_duality(z2).passed
    assert verify_braiding(z2).passed


def test_z3_passes_verify_all(z2, z3):
    reports = verify_all(z3)
    assert [r.check for r in reports] == [
        "well-formed",
        "pentagon",
        "units",
        "duality",
        "braiding",
    ]
    assert all(r.passed for r in reports)
    assert [r.checked for r in reports] == [7749, 6561, 81, 18, 1458]
    assert [r.checked for r in verify_all(z2)] == [424, 256, 16, 8, 128]


def test_braiding_scalar_is_character_value(z3):
    # sigma((g,chi),(h,psi)) = psi(g); simple index is 3*g + chi
    zeta = root_of_unity(3, 1)
    s = z3.braid_block(3 * 1 + 0, 3 * 0 + 1, 3 * 1 + 1)  # psi = chi_1, g = 1
    assert s.get(0, 0) == zeta


def test_line_braiding_matches_yetter_drinfeld(z3):
    zeta = root_of_unity(3, 1)
    lines = [3 * 1 + 1, 3 * 2 + 2, 3 * 1 + 2]
    got = line_braiding(z3, lines)
    datum = YDDatum(
        (3,),
        ((1,), (2,), (1,)),
        ((zeta,), (zeta * zeta,), (zeta * zeta,)),
    )
    assert got == yd_to_braiding(datum)


def _scale_assoc_entry(F, two):
    key, block = next(iter(sorted(F.assoc.items())))
    pos = next(iter(sorted(block.entries)))
    entries = dict(block.entries)
    entries[pos] = entries[pos] * two
    new = dict(F.assoc)
    new[key] = Matrix(block.nrows, block.ncols, entries)
    return FusionData(
        F.size, F.fusion, new, F.braiding, F.left_units, F.right_units, F.dual, F.ev, F.coev
    )


def test_scaled_associator_entry_is_caught(z2):
    mutant = _scale_assoc_entry(z2, from_rational(2))
    reports = verify_all(mutant, stop_early=True)
    assert not all(r.passed for r in reports)
    failing = [r for r in reports if not r.passed]
    assert failing[0].failures  # failure site is recorded, not raised


def test_scaled_braiding_entry_is_caught(z2):
    key, block = next(iter(sorted(z2.braiding.items())))
    entries = {pos: v * from_rational(3) for pos, v in block.entries.items()}
    new = dict(z2.braiding)
    new[key] = Matrix(block.nrows, block.ncols, entries)
    mutant = FusionData(
        z2.size, z2.fusion, z2.assoc, new, z2.left_units, z2.right_units, z2.dual, z2.ev, z2.coev
    )
    assert not verify_braiding(mutant, stop_early=True).passed


def test_singular_braiding_block_is_reported_not_raised(z2):
    # the backward hexagon needs the inverse braiding; without one it fails
    key = next(k for k in sorted(z2.braiding) if k[0] != 0)
    new = dict(z2.braiding)
    new[key] = Matrix(1, 1)
    mutant = FusionData(
        z2.size, z2.fusion, z2.assoc, new, z2.left_units, z2.right_units, z2.dual, z2.ev, z2.coev
    )
    report = verify_braiding(mutant)
    assert not report.passed
    assert any(f[0] == "hexagon-backward" for f in report.failures)


def test_missing_dual_space_is_malformed(z2):
    # drop the evaluation morphism of the nontrivial simple
    ev = dict(z2.ev)
    first = next(k for k in sorted(ev) if k != 0)
    ev[first] = Matrix(1, 1)
    mutant = FusionData(
        z2.size, z2.fusion, z2.assoc, z2.braiding,
        z2.left_units, z2.right_units, z2.dual, ev, z2.coev,
    )
    report = well_formed(mutant)
    assert not report.passed


# -- Fibonacci: tau (x) tau = 1 (+) tau, the smallest non-pointed example ------


def fibonacci_data(sign=-1):
    """Fibonacci data over Q(zeta5); sign is that of the (tau, tau) F-entry."""
    z5 = root_of_unity(5, 1)
    phi = ONE + z5 + z5 ** 4
    inv_phi = z5 + z5 ** 4
    fusion = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    # assoc[(1,1,1,a,1,c)] indexed by (a, c); every other admissible block is 1
    f_tau = {(0, 0): inv_phi, (0, 1): ONE, (1, 0): inv_phi, (1, 1): inv_phi * sign}
    assoc = {}
    for i, j, k, a, b, c in product(range(2), repeat=6):
        if all(fusion.get(key) for key in ((i, j, a), (a, k, b), (i, c, b), (j, k, c))):
            value = f_tau[(a, c)] if (i, j, k, b) == (1, 1, 1, 1) else ONE
            assoc[(i, j, k, a, b, c)] = Matrix(1, 1, {(0, 0): value})
    braiding = {key: Matrix.identity(1) for key in fusion}
    braiding[(1, 1, 0)] = Matrix(1, 1, {(0, 0): root_of_unity(5, 3)})
    braiding[(1, 1, 1)] = Matrix(1, 1, {(0, 0): root_of_unity(10, 3)})
    units = {0: ONE, 1: ONE}
    ev = {0: Matrix.identity(1), 1: Matrix(1, 1, {(0, 0): phi})}
    coev = {0: Matrix.identity(1), 1: Matrix.identity(1)}
    return FusionData(2, fusion, assoc, braiding, units, dict(units), (0, 1), ev, coev)


def test_fibonacci_passes_verify_all():
    fib = fibonacci_data()
    assert fib.fuse(1, 1) == ((0, 1), (1, 1))
    reports = verify_all(fib)
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    assert [r.checked for r in reports] == [65, 27, 5, 4, 24]


def test_fibonacci_sign_flip_is_located():
    reports = {r.check: r for r in verify_all(fibonacci_data(sign=1))}
    assert reports["well-formed"].passed and reports["units"].passed
    assert reports["pentagon"].failures == ((1, 1, 1, 1, 0), (1, 1, 1, 1, 1))
    assert reports["duality"].failures == (("zigzag-2", 1),)
    assert reports["braiding"].failures == (
        ("hexagon-forward", 1, 1, 1, 1),
        ("hexagon-backward", 1, 1, 1, 1),
    )


def test_fibonacci_single_site_mutants_are_caught():
    fib = fibonacci_data()
    sites = fusion_entry_sites(fib)
    assert len(sites) == 28
    survivors = [site for site in sites if not fusion_mutation_detected(mutate_fusion(fib, site))]
    assert not survivors


def gauged(F):
    """F after dividing the basis vector of each multiplicity space
    V[i,j -> k] by f(i, j) = 2 + i + 3j: every block, unit coordinate, ev
    and coev in the new bases.

    Every check holds in every gauge, but here the braiding scalars are no
    longer their own inverses and the associators are not all 1.
    """
    def f(i, j):
        return from_rational(2 + i + 3 * j)

    assoc = {
        (i, j, k, a, b, c): block.scale(f(i, c) * f(j, k) * (f(i, j) * f(a, k)).inverse())
        for (i, j, k, a, b, c), block in F.assoc.items()
    }
    braiding = {
        (i, j, k): block.scale(f(j, i) * f(i, j).inverse())
        for (i, j, k), block in F.braiding.items()
    }
    left = {i: v * f(0, i) for i, v in F.left_units.items()}
    right = {i: v * f(i, 0) for i, v in F.right_units.items()}
    ev = {i: block.scale(f(F.dual[i], i).inverse()) for i, block in F.ev.items()}
    coev = {i: block.scale(f(i, F.dual[i])) for i, block in F.coev.items()}
    return FusionData(F.size, F.fusion, assoc, braiding, left, right, F.dual, ev, coev)


@pytest.mark.parametrize("name", ["z2-center", "z2-center-gauged", "fibonacci-", "fibonacci+"])
def test_backward_hexagon_matches_the_literal_composite(name):
    # verify_braiding checks the backward hexagon as the forward hexagon of
    # the reverse braiding; the literal composite with inverted associators
    # must fail at exactly the same instances, on every single-site mutant
    F = {
        "z2-center": lambda: pointed_center_data([2]),
        "z2-center-gauged": lambda: gauged(pointed_center_data([2])),
        "fibonacci-": lambda: fibonacci_data(sign=-1),
        "fibonacci+": lambda: fibonacci_data(sign=1),
    }[name]()
    failing = 0
    for G in [F] + [mutate_fusion(F, site) for site in fusion_entry_sites(F)]:
        report = verify_braiding(G)
        assert len(report.failures) < 32  # the report lists every failure
        got = {f[1:] for f in report.failures if f[0] == "hexagon-backward"}
        expected = set()
        for i, j, k in product(range(G.size), repeat=3):
            targets = {t for a, _ in G.fuse(i, j) for t, _ in G.fuse(a, k)}
            targets |= {t for a, _ in G.fuse(j, k) for t, _ in G.fuse(i, a)}
            expected |= {(i, j, k, t) for t in targets
                         if not hexagon_backward_reference(G, i, j, k, t)}
        assert got == expected
        failing += len(expected)
    assert failing > 0


# -- basis-key routes against the matrix references ------------------------------


def multiplicity_two_data():
    """Rank 2 with X (x) X = 1 + 2X: well formed, with a 2-dimensional leg.

    Each full associator is unit lower triangular (the identity when a unit
    object is involved) and the braiding on V[X,X -> X] is [[1, 1], [0, -1]].
    The pentagon and hexagons fail at some instances; the only fixture
    whose routes reach a multiplicity index 1.
    """
    fusion = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 2}
    shape = FusionData(2, fusion, {}, {}, {}, {}, (0, 1), {}, {})
    assoc = {}
    for i, j, k, b in product(range(2), repeat=4):
        _, src, tgt = _assoc_full(shape, i, j, k, b)
        row0, col0 = _offsets(tgt), _offsets(src)
        for (c,), (m, n) in tgt:
            for (a,), (p, q) in src:
                entries = {}
                for r, col in product(range(m * n), range(p * q)):
                    row, column = row0[(c,)] + r, col0[(a,)] + col
                    if row == column:
                        entries[(r, col)] = ONE
                    elif row > column and 0 not in (i, j, k):
                        entries[(r, col)] = from_rational(row + column + 1)
                assoc[(i, j, k, a, b, c)] = Matrix(m * n, p * q, entries)
    braiding = {key: Matrix.identity(n) for key, n in fusion.items()}
    braiding[(1, 1, 0)] = Matrix(1, 1, {(0, 0): from_rational(-1)})
    braiding[(1, 1, 1)] = Matrix(2, 2, {(0, 0): ONE, (0, 1): ONE, (1, 1): from_rational(-1)})
    units = {0: ONE, 1: ONE}
    ev = {0: Matrix.identity(1), 1: Matrix.identity(1)}
    return FusionData(2, fusion, assoc, braiding, units, dict(units), (0, 1), ev, dict(ev))


def test_multiplicity_two_data_is_well_formed_and_fails_located():
    F = multiplicity_two_data()
    assert F.fuse(1, 1) == ((0, 1), (1, 2))
    reports = {r.check: r for r in verify_all(F)}
    assert [r.passed for r in reports.values()] == [True, False, True, True, False]
    assert reports["pentagon"].failures == ((1, 1, 1, 1, 0), (1, 1, 1, 1, 1))
    assert reports["braiding"].failures == (
        ("hexagon-forward", 1, 1, 1, 0), ("hexagon-backward", 1, 1, 1, 0),
        ("hexagon-forward", 1, 1, 1, 1), ("hexagon-backward", 1, 1, 1, 1),
    )


def test_singular_full_associators_are_located():
    # Z2 center: every full associator is 1 x 1.  Deleting the entry of
    # alpha_{1,1,1} from (0, 1) to (0, 1) leaves the one at (1, 1, 1, 1)
    # singular, the one the second zig-zag of the self-dual simple 1 inverts.
    z2 = pointed_center_data([2])
    key = (1, 1, 1, 0, 1, 0)
    mutant = z2.replace(assoc={**z2.assoc, key: deleted(z2.assoc[key], (0, 0))})
    assert well_formed(mutant).failures == (("assoc-not-invertible", 1, 1, 1, 1),)
    assert verify_duality(mutant).failures == (("zigzag-1", 1), ("zigzag-2-associator", 1))
    # multiplicity two: the full associator at (1, 1, 1, 1) is 5 x 5 and
    # unit lower triangular; its (a, c) = (1, 1) block starts on the diagonal
    F = multiplicity_two_data()
    key = (1, 1, 1, 1, 1, 1)
    assert _assoc_full(F, 1, 1, 1, 1)[0].shape == (5, 5)
    mutant = F.replace(assoc={**F.assoc, key: deleted(F.assoc[key], (0, 0))})
    assert well_formed(mutant).failures == (("assoc-not-invertible", 1, 1, 1, 1),)


def test_one_by_one_braiding_blocks_are_decided_without_a_rank(monkeypatch):
    import nicholsforge.fusion as fusion

    calls = []
    rank = fusion.rank
    monkeypatch.setattr(fusion, "rank", lambda block: calls.append(block.shape) or rank(block))
    z3 = pointed_center_data([3])
    assert well_formed(z3).passed
    assert calls == []  # every block of pointed data is 1 x 1
    # a deleted 1 x 1 block is singular, and located
    key = (1, 2, 0)
    mutant = z3.replace(braiding={**z3.braiding, key: deleted(z3.braiding[key], (0, 0))})
    assert well_formed(mutant).failures == (("braiding-block",) + key,)
    # a 2 x 2 block still takes its rank
    F = multiplicity_two_data()
    assert well_formed(F).passed and (2, 2) in calls


def test_misshapen_associator_block_is_located_not_raised():
    # a 2 x 2 block where the spaces are 1-dimensional: the full associator
    # reads the block only where its spaces have coordinates
    z2 = pointed_center_data([2])
    key = (1, 1, 1, 0, 1, 0)
    block = Matrix(2, 2, {(0, 0): ONE, (1, 1): ONE})
    report = well_formed(z2.replace(assoc={**z2.assoc, key: block}))
    assert report.failures == (("assoc-shape",) + key,)




# -- the walk, instance by instance ---------------------------------------------


def _pentagon_alone(F, i, j, k, l, t):
    """The start keys of the one pentagon instance (i, j, k, l, t) and each
    one's pair of end columns, walked for this instance alone."""
    start = pentagon_start(F, i, j, k, l, t)
    groups = [(a, b, [(u, v, w)]) for a, b, u, v, w in start]
    return start, _pentagon_ends(_ColumnTable(F._alpha_legs), i, j, k, l, t, groups)


def _hexagon_alone(F, i, j, k, t):
    """The start keys of the forward hexagon (i, j, k, t) and each one's
    pair of end columns, walked for this instance alone."""
    alpha, sigma = _ColumnTable(F._alpha_legs), _ColumnTable(F._sigma_legs)
    return hexagon_start(F, i, j, k, t), _hexagon_ends(F, alpha, sigma, i, j, k, t)


def _walked(start, ends, side):
    """One route of a walk as route_reference gives it: the sorted end keys
    reached from start, and the map {(key_out, key_in): value} without zeros."""
    reached, total = set(), {}
    for key_in, pair in zip(start, ends):
        for key_out, v in pair[side].items():
            reached.add(key_out)
            if v is not None:
                total[(key_out, key_in)] = v
    return sorted(reached), total


def _laid_out(start, ends, side, comps_in, comps_out, n):
    """One route of a walk over the components of a matrix reference: the
    sorted end keys reached, and the map as a matrix.  A key is n labels,
    then one index per leg, first leg slowest."""
    def position(comps):
        offsets, dims = _offsets(comps), dict(comps)

        def at(key):
            flat = 0
            for index, d in zip(key[n:], dims[key[:n]]):
                flat = flat * d + index
            return offsets[key[:n]] + flat
        return at

    reached, total = _walked(start, ends, side)
    row, col = position(comps_out), position(comps_in)
    size = (sum(prod(dims) for _, dims in comps_out), sum(prod(dims) for _, dims in comps_in))
    return reached, Matrix(*size, {(row(key_out), col(key_in)): v
                                   for (key_out, key_in), v in total.items()})


def _instances(F):
    """Every pentagon and hexagon instance, as the verifiers enumerate them."""
    out = []
    for i, j, k, l in product(range(F.size), repeat=4):
        targets = {t for a, _ in F.fuse(i, j) for b, _ in F.fuse(a, k) for t, _ in F.fuse(b, l)}
        out += [("pentagon", (i, j, k, l, t)) for t in sorted(targets)]
    for i, j, k in product(range(F.size), repeat=3):
        targets = {t for a, _ in F.fuse(i, j) for t, _ in F.fuse(a, k)}
        targets |= {t for a, _ in F.fuse(j, k) for t, _ in F.fuse(i, a)}
        for t in sorted(targets):
            out += [("hexagon-forward", (i, j, k, t)), ("hexagon-backward", (k, i, j, t))]
    return out


def test_jumps_match_the_kronecker_forms():
    # the walk follows each start key's paths through the legs of a route in
    # one loop nest, with no map per leg; so each leg is held to its
    # Kronecker form through its route's map.  On the data with
    # 2-dimensional legs, at every pentagon and hexagon instance (the
    # backward ones on the reverse braiding), each route's walked end keys
    # and map are those of the product of its legs' Kronecker forms, built
    # from identity Kronecker products, pair02_reference and flip_reference
    F = multiplicity_two_data()
    mirror = reversed_braiding(F)
    compared = []
    for kind, args in _instances(F):
        if kind == "pentagon":
            (start, ends), n = _pentagon_alone(F, *args), 2
            comps, *routes = pentagon_reference_routes(F, *args)
        else:
            data = F if kind == "hexagon-forward" else mirror
            (start, ends), n = _hexagon_alone(data, *args), 1
            comps, *routes = hexagon_forward_reference_routes(data, *args)
            if not comps:
                assert not start
                continue
        for side, (comps_out, matrix) in enumerate(routes):
            keys = sorted(label + legs for label, dims in comps_out
                          for legs in product(*[range(d) for d in dims]))
            walked = _laid_out(start, ends, side, comps, comps_out, n)
            assert walked == (keys, matrix), (kind, args, side)
            compared.append(tuple(dims for _, dims in comps))
    assert len(compared) == 102
    assert ((1, 1, 2), (2, 1, 1), (2, 2, 2)) in compared and ((1, 1), (2, 2)) in compared


def _verdict(F, mirror, instance, reference):
    """One instance as the matrix references decide it, or as the walk does."""
    name, args = instance
    if name == "pentagon":
        if reference:
            return pentagon_reference(F, *args)
        return _holds(_pentagon_alone(F, *args)[1])
    data = F if name == "hexagon-forward" else mirror
    if data is None:
        return False
    if not reference:
        return _holds(_hexagon_alone(data, *args)[1])
    try:
        return hexagon_forward_reference(data, *args)
    except (KeyError, ZeroDivisionError):
        return False


class _Reads(dict):
    """A block table that records the keys looked up in it."""

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


def _reference_reads(F, instances):
    """The assoc and braiding sites each instance reads on the reference route.

    Which blocks a route reads depends on the fusion rules alone, so a
    single-site mutant can change the reference verdict only at the
    instances that read that site.  A backward instance reads the reverse
    braiding, whose block (j, i, k) is built from the block (i, j, k).
    """
    assoc, braiding = _Reads(F.assoc), _Reads(F.braiding)
    assoc.seen, braiding.seen = set(), set()
    G = F.replace(assoc=assoc, braiding=braiding)
    mirror = reversed_braiding(G)
    reverse = _Reads(mirror.braiding)
    reverse.seen = set()
    mirror = mirror.replace(braiding=reverse)
    reads, verdicts = {}, {}
    for instance in instances:
        for table in (assoc, braiding, reverse):
            table.seen.clear()
        verdicts[instance] = _verdict(G, mirror, instance, reference=True)
        reads[instance] = ({("assoc", key) for key in assoc.seen}
                           | {("braiding", key) for key in braiding.seen}
                           | {("braiding", (j, i, k)) for i, j, k in reverse.seen})
    return reads, verdicts


def _readers(reads):
    """Each site -> the instances that read it."""
    readers = {}
    for instance, sites in reads.items():
        for site in sites:
            readers.setdefault(site, []).append(instance)
    return readers


def _reference_mirror(G, site, clean_reverse):
    """The reverse braiding of the mutant G at site, for the references: the
    clean data's with G's associator, unless site is a braiding entry."""
    return reversed_braiding(G) if site[0] == "braiding" else clean_reverse.replace(assoc=G.assoc)


FIXTURES = {
    "z2-center": lambda: pointed_center_data([2]),
    "z3-center": lambda: pointed_center_data([3]),
    "z2-center-gauged": lambda: gauged(pointed_center_data([2])),
    "fibonacci-": lambda: fibonacci_data(sign=-1),
    "fibonacci+": lambda: fibonacci_data(sign=1),
    "multiplicity-two": multiplicity_two_data,
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_routes_match_the_matrix_references_instance_by_instance(name):
    # The package walks scalars on basis keys; the references build
    # every block as a matrix.  Verdicts must agree at
    # every instance of the clean data and of every single-site mutant.  On
    # a mutant the reference is rerun only where it reads the mutated site;
    # the package is rerun everywhere, except on the Z3 center, where it too
    # is rerun only at those instances (6,561 pentagons times 846 mutants).
    F = FIXTURES[name]()
    instances = _instances(F)
    # only the fixture with a multiplicity above 1 reaches a multiplicity index 1
    index_one = False
    for kind, args in instances:
        if kind == "pentagon":
            ends = _pentagon_alone(F, *args)[1]
            index_one |= any(1 in key[2:] for one, _ in ends for key in one)
    assert index_one == (name == "multiplicity-two")
    reads, clean = _reference_reads(F, instances)
    readers = _readers(reads)
    assert {inst: _verdict(F, F.mirror(), inst, reference=False) for inst in instances} == clean
    clean_reverse = reversed_braiding(F)
    everywhere = name != "z3-center"
    failing = 0
    for site in fusion_entry_sites(F):
        G = mutate_fusion(F, site)
        touched = readers.get(site[:2], [])
        expected = dict(clean) if everywhere else {}
        mirror = _reference_mirror(G, site, clean_reverse)
        expected.update({inst: _verdict(G, mirror, inst, reference=True) for inst in touched})
        mirror = G.mirror()
        got = {inst: _verdict(G, mirror, inst, reference=False)
               for inst in (instances if everywhere else touched)}
        assert got == expected, site
        failing += sum(not verdict for verdict in expected.values())
    assert failing > 0


def test_each_leg_is_read_once_per_check(monkeypatch):
    # a check reads each leg from a table it fills on first use.  On the Z3
    # center every block has one basis vector a side, so the pentagon walks
    # 32,805 legs for its 6,561 instances but builds 729, one per associator
    # block: alpha_{a,k,l} is shared by the 9 outer pairs (i, j) of each a.
    # The hexagons build the same 729 and the 81 legs of each braiding for
    # their 1,458 instances, and well_formed the 729 of its full associators
    calls = []
    for name in ("_alpha_legs", "_sigma_legs"):
        legs = getattr(FusionData, name)
        monkeypatch.setattr(FusionData, name, lambda self, *key, legs=legs, name=name:
                            calls.append(name) or legs(self, *key))
    z3 = pointed_center_data([3])
    assert well_formed(z3).checked == 7749 and calls == ["_alpha_legs"] * 729
    del calls[:]
    assert verify_pentagon(z3).checked == 6561 and calls == ["_alpha_legs"] * 729
    del calls[:]
    assert verify_braiding(z3).checked == 1458
    assert sorted(calls) == ["_alpha_legs"] * 729 + ["_sigma_legs"] * 162


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_batched_pentagon_matches_the_reference_on_every_mutant(name):
    # verify_pentagon, with and without stop_early, against pentagon_reference
    # walked over every instance in the verifier's order, on the clean data
    # and every single-site mutant; on the Z3 center every third site, with
    # the reference rerun only where it reads the mutated site
    F = FIXTURES[name]()
    instances = [args for kind, args in _instances(F) if kind == "pentagon"]
    sites = fusion_entry_sites(F)
    if name == "z3-center":
        reads, clean = _reference_reads(F, [("pentagon", args) for args in instances])
        sites = sites[::3]
    failing = 0
    for site in [None] + sites:
        G = F if site is None else mutate_fusion(F, site)
        if name == "z3-center":
            rerun = [args for args in instances if site and site[:2] in reads[("pentagon", args)]]
            verdicts = {args: clean[("pentagon", args)] for args in instances}
        else:
            rerun, verdicts = instances, {}
        verdicts.update({args: pentagon_reference(G, *args) for args in rerun})
        expected = [args for args in instances if not verdicts[args]]
        report = verify_pentagon(G)
        assert report.failures == tuple(expected[:32]), site
        assert (report.passed, report.checked) == (not expected, len(instances)), site
        first = verify_pentagon(G, stop_early=True)
        if expected:
            stop = instances.index(expected[0]) + 1
            assert first == ("pentagon", False, (expected[0],), stop), site
        else:
            assert first == report, site
        failing += bool(expected)
    assert failing > 0


def test_gauged_z3_center_multiplies_along_every_path():
    # the Z3 center's associators are all 1, so no walk there multiplies
    # along a pentagon path; gauged, 11 of its 729 associator scalars and 5
    # of its 81 braiding scalars are 1.  verify_all passes, and on every 9th
    # single-site mutant verify_pentagon and verify_braiding report what the
    # matrix references decide, rerun only at the instances that read the
    # mutated site
    F = gauged(pointed_center_data([3]))
    for family, ones in (("assoc", 11), ("braiding", 5)):
        scalars = [v for block in getattr(F, family).values() for v in block.entries.values()]
        assert sum(v.is_one() for v in scalars) == ones, family
    assert all(report.passed for report in verify_all(F))
    instances = _instances(F)
    reads, clean = _reference_reads(F, instances)
    assert all(clean.values())
    readers = _readers(reads)
    pentagons = [args for kind, args in instances if kind == "pentagon"]
    hexagons = [(kind, args) for kind, args in instances if kind != "pentagon"]
    clean_reverse = reversed_braiding(F)
    sites = fusion_entry_sites(F)[::9]
    failing = 0
    for site in sites:
        G = mutate_fusion(F, site)
        mirror = _reference_mirror(G, site, clean_reverse)
        failed = {inst for inst in readers.get(site[:2], [])
                  if not _verdict(G, mirror, inst, reference=True)}
        expected = [args for args in pentagons if ("pentagon", args) in failed]
        assert verify_pentagon(G) == FusionReport(
            "pentagon", not expected, tuple(expected[:32]), len(pentagons)), site
        expected = []
        for kind, args in hexagons:
            if (kind, args) in failed:
                if kind == "hexagon-backward":  # the instance (k, i, j, t) of (i, j, k, t)
                    k, i, j, t = args
                    args = (i, j, k, t)
                expected.append((kind, *args))
        assert verify_braiding(G) == FusionReport(
            "braiding", not expected, tuple(expected[:32]), len(hexagons)), site
        failing += bool(failed)
    assert len(sites) == 94 and failing > 0


# -- the walk against the compose-based route ----------------------------------


def _walked_routes(F, mirror, instance):
    """The end keys and map of each route one instance walks alone: both
    sides of a pentagon or hexagon, or the full associator at (x, y, z, b),
    whose end keys are those of its target when it has a start key."""
    name, args = instance
    if name == "associator":
        entries, src, tgt = _full_associator(F, *args)
        return [(tgt if src else [], entries)]
    if name == "pentagon":
        start, ends = _pentagon_alone(F, *args)
    else:
        start, ends = _hexagon_alone(F if name == "hexagon-forward" else mirror, *args)
    return [_walked(start, ends, side) for side in (0, 1)]


def _reference_routes(F, mirror, instance):
    """The same routes as _walked_routes, composed by route_reference from
    jumps read off the blocks."""
    name, args = instance
    if name == "associator":
        x, y, z, b = args

        def alpha(key):
            a, u, v = key
            for c, _ in F.fuse(y, z):
                for (p, q), s in _alpha_column(F, x, y, z, a, b, c, u, v):
                    yield (c, p, q), s

        start = [(a, u, v) for a, n in F.fuse(x, y)
                 for u, v in product(range(n), range(F.dim(a, z, b)))]
        return [route_reference(start, alpha)]
    if name == "pentagon":
        start, routes = pentagon_start(F, *args), pentagon_jumps(F, *args)
    else:
        data = F if name == "hexagon-forward" else mirror
        start, routes = hexagon_start(data, *args), hexagon_jumps(data, *args)
    return [route_reference(start, *jumps) for jumps in routes]


def _package_reads(F, instances):
    """The assoc and braiding sites each instance's walks read: the keys
    they add to emptied column tables.  A backward instance reads the
    reverse braiding, whose block (j, i, k) is built from the block (i, j, k)."""
    mirror = F.mirror()
    tables = (F.assoc_columns, F.braid_columns, mirror.braid_columns)
    reads = {}
    for instance in instances:
        for table in tables:
            table.clear()
        _walked_routes(F, mirror, instance)
        reads[instance] = ({("assoc", key) for key in F.assoc_columns}
                           | {("braiding", key) for key in F.braid_columns}
                           | {("braiding", (j, i, k)) for i, j, k in mirror.braid_columns})
    return reads


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_column_walk_matches_the_compose_route_on_every_mutant(name):
    # every route the checkers walk, at every instance of the clean data and
    # of every single-site mutant, reaches the end keys and has the map of
    # route_reference, which composes jumps read off the blocks with
    # linalg.compose.  A mutant is walked only at the instances (pentagon,
    # hexagon or full associator) whose walks read the mutated site;
    # elsewhere its walks are the clean ones.
    F = FIXTURES[name]()
    instances = _instances(F) + [("associator", args)
                                 for args in product(range(F.size), repeat=4)]
    sites = fusion_entry_sites(F)
    readers = _readers(_package_reads(F, instances))
    compared = 0
    runs = [(None, instances)] + [(site, readers.get(site[:2], [])) for site in sites]
    for site, walked in runs:
        G = F if site is None else mutate_fusion(F, site)
        mirror = G.mirror()
        for instance in walked:
            if instance[0] != "hexagon-backward" or mirror is not None:
                assert (_walked_routes(G, mirror, instance)
                        == _reference_routes(G, mirror, instance)), (site, instance)
                compared += 1
    assert compared > len(sites)


@pytest.mark.parametrize("name", [name for name in sorted(FIXTURES) if name != "z3-center"])
def test_batched_hexagons_match_the_instance_walk_on_every_mutant(name):
    # verify_braiding walks the hexagons in one loop nest per check; its
    # report, with and without stop_early, must be what composing each
    # instance alone by route_reference gives
    F = FIXTURES[name]()
    failing = 0
    for site in [None] + fusion_entry_sites(F):
        G = F if site is None else mutate_fusion(F, site)
        for stop_early in (False, True):
            expected = verify_braiding_reference(G, stop_early)
            assert verify_braiding(G, stop_early) == expected, (site, stop_early)
        failing += not expected.passed
    assert failing > 0
