"""Fusion data verification and pointed Drinfeld-center examples."""

from itertools import product

import pytest

from nicholsforge.braided import YDDatum, yd_to_braiding
from nicholsforge.fusion import (
    FusionData,
    _associator_route,
    _hexagon_jumps,
    _hexagon_start,
    _matrix,
    _pentagon_routes,
    _reversed,
    _route,
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
    _assoc_full,
    _offsets,
    deleted,
    flip_reference,
    fusion_entry_sites,
    fusion_mutation_detected,
    hexagon_alone,
    hexagon_backward_reference,
    hexagon_forward_reference,
    line_braiding,
    mutate_fusion,
    pair02_reference,
    pentagon_reference,
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
    """F after rescaling each multiplicity space V[i,j -> k] by 2 + i + 3j.

    The hexagons hold in every gauge, but here the braiding scalars are no
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
    return FusionData(
        F.size, F.fusion, assoc, braiding, F.left_units, F.right_units, F.dual, F.ev, F.coev
    )


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


def _by_labeling(keys, n):
    """Basis keys grouped by their labeling, the first n entries, with leg dims."""
    groups = {}
    for key in keys:
        groups.setdefault(key[:n], []).append(key)
    return {label: (ks, tuple(max(key[p] for key in ks) + 1 for p in range(n, len(ks[0]))))
            for label, ks in groups.items()}


def _jump_blocks_match(start, prefix, n, jumps, references):
    """Each jump's map from one labeling to another, laid out over their
    basis keys, against its reference form; returns the blocks compared.
    Keys start with an instance prefix of that many entries, which the
    references do not see."""
    keys, compared = start, []
    n += prefix
    for jump, reference in zip(jumps, references):
        for label_in, (cols, dims_in) in _by_labeling(keys, n).items():
            out, total = _route(cols, jump)
            for label_out, (rows, dims_out) in _by_labeling(out, n).items():
                part = {pair: v for pair, v in total.items() if pair[0][:n] == label_out}
                expected = reference(label_in[prefix:], label_out[prefix:], dims_in, dims_out)
                assert _matrix(part, rows, cols) == expected, (jump, label_in, label_out)
                compared.append((dims_in, dims_out))
        keys = _route(keys, jump)[0]
    return compared


def _pentagon_alone(F, i, j, k, l, t):
    """The start keys and both routes of the one pentagon instance
    (i, j, k, l, t): the batch of the pair (i, j) cut to its keys prefixed
    by (k, l, t)."""
    start, route1, route2 = _pentagon_routes(F, i, j)
    return [key for key in start if key[:3] == (k, l, t)], route1, route2


def test_jumps_match_the_kronecker_forms():
    # a jump acts on some legs of a basis key by rewriting their indices; the
    # references build the same maps from identity Kronecker products,
    # pair02_reference and flip_reference, on the data with 2-dimensional legs
    F = multiplicity_two_data()
    one = Matrix.identity
    i = j = k = l = t = 1
    start, route1, route2 = _pentagon_alone(F, i, j, k, l, t)
    compared = _jump_blocks_match(start, 3, 2, route1, [
        lambda a_b, c_b, dims, _: F.assoc_block(i, j, k, *a_b, c_b[0]).kron(one(dims[2])),
        lambda c_b, c_f, dims, out: pair02_reference(
            F.assoc_block(i, c_b[0], l, c_b[1], t, c_f[1]), dims, out),
        lambda c_f, f_g, dims, _: one(dims[0]).kron(F.assoc_block(j, k, l, *c_f, f_g[1])),
    ])
    compared += _jump_blocks_match(start, 3, 2, route2, [
        lambda a_b, a_d, dims, _: one(dims[0]).kron(F.assoc_block(a_b[0], k, l, a_b[1], t, a_d[1])),
        lambda a_d, f_d, dims, _: F.assoc_block(i, j, a_d[1], a_d[0], t, f_d[0]).kron(one(dims[2])),
    ])
    start, (left, right) = _hexagon_start(F, i, j, k, t), _hexagon_jumps(F)
    compared += _jump_blocks_match(start, 4, 1, left, [
        lambda a, _, dims, __: F.braid_block(i, j, *a).kron(one(dims[1])),
        lambda a, c, _, __: F.assoc_block(j, i, k, *a, t, *c),
        lambda c, _, dims, __: one(dims[0]).kron(F.braid_block(i, k, *c)),
    ])
    compared += _jump_blocks_match(start, 4, 1, right, [
        lambda a, c, _, __: F.assoc_block(i, j, k, *a, t, *c),
        lambda c, _, dims, out: flip_reference(out[1], dims[1])
        @ F.braid_block(i, *c, t).kron(one(dims[1])),
        lambda c, d, _, __: F.assoc_block(j, k, i, *c, t, *d),
    ])
    assert len(compared) == 43
    assert ((2, 2, 2), (2, 2, 2)) in compared and ((1, 1, 2), (2, 1, 1)) in compared


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


def _verdict(F, mirror, instance, reference):
    """One instance as verify_pentagon or verify_braiding decides it."""
    name, args = instance
    if name == "pentagon":
        if reference:
            return pentagon_reference(F, *args)
        start, route1, route2 = _pentagon_alone(F, *args)
        return _route(start, *route1) == _route(start, *route2)
    data = F if name == "hexagon-forward" else mirror
    if data is None:
        return False
    if not reference:
        return hexagon_alone(data, *args)
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
    mirror = _reversed(G)
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
    # The package composes scalars on basis keys; the references build
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
            start, route1, _ = _pentagon_alone(F, *args)
            index_one |= any(1 in key[5:] for key in _route(start, *route1)[0])
    assert index_one == (name == "multiplicity-two")
    reads, clean = _reference_reads(F, instances)
    readers = {}
    for inst in instances:
        for site in reads[inst]:
            readers.setdefault(site, []).append(inst)
    clean_mirror = _reversed(F)
    assert {inst: _verdict(F, clean_mirror, inst, reference=False) for inst in instances} == clean
    everywhere = name != "z3-center"
    failing = 0
    for site in fusion_entry_sites(F):
        G = mutate_fusion(F, site)
        mirror = _reversed(G) if site[0] == "braiding" else clean_mirror.replace(assoc=G.assoc)
        touched = readers.get(site[:2], [])
        expected = dict(clean) if everywhere else {}
        expected.update({inst: _verdict(G, mirror, inst, reference=True) for inst in touched})
        got = {inst: _verdict(G, mirror, inst, reference=False)
               for inst in (instances if everywhere else touched)}
        assert got == expected, site
        failing += sum(not verdict for verdict in expected.values())
    assert failing > 0


def test_routes_run_once_per_outer_pair(monkeypatch):
    # the pentagon composes its two routes once per outer pair (i, j), for
    # all 81 instances (k, l, t) of the pair on the Z3 center, the full
    # associators one route per (x, y), for all 9 z and 9 outer indices b,
    # and the hexagons one route per side and per family for each outer
    # index i, for all 81 instances (j, k, t) of it
    import nicholsforge.fusion as fusion

    calls = []
    route = fusion._route
    monkeypatch.setattr(fusion, "_route", lambda *args: calls.append(1) or route(*args))
    z3 = pointed_center_data([3])
    assert well_formed(z3).checked == 7749 and len(calls) == 81
    del calls[:]
    assert verify_pentagon(z3).checked == 6561 and len(calls) == 162
    del calls[:]
    assert verify_braiding(z3).checked == 1458 and len(calls) == 36


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


# -- the column walk against the compose-based route -------------------------


def _checker_runs(F):
    """Every route the checkers compose on F, batched as they batch them."""
    well_formed(F)
    verify_pentagon(F)
    verify_duality(F)
    verify_braiding(F)


def _single_routes(F, mirror, instance):
    """The routes one instance takes alone, as (start, jumps) pairs: both
    sides of a pentagon or hexagon, or the full associator at (x, y, z, b)."""
    name, args = instance
    if name == "associator":
        x, y, z, b = args
        spaces, alpha = _associator_route(F, x, y, (z,), (b,))
        return [(spaces.get((z, b), ([], []))[0], (alpha,))]
    if name == "pentagon":
        start, route1, route2 = _pentagon_alone(F, *args)
    else:
        data = F if name == "hexagon-forward" else mirror
        start, (route1, route2) = _hexagon_start(data, *args), _hexagon_jumps(data)
    return [(start, route1), (start, route2)]


def _package_reads(F, instances):
    """The assoc and braiding sites each instance's routes read: the keys
    its routes add to emptied column tables.  A backward instance reads the
    reverse braiding, whose block (j, i, k) is built from the block (i, j, k)."""
    mirror = _reversed(F)
    tables = (F.assoc_columns, F.braid_columns, mirror.braid_columns)
    reads = {}
    for instance in instances:
        for table in tables:
            table.clear()
        for start, jumps in _single_routes(F, mirror, instance):
            _route(start, *jumps)
        reads[instance] = ({("assoc", key) for key in F.assoc_columns}
                           | {("braiding", key) for key in F.braid_columns}
                           | {("braiding", (j, i, k)) for i, j, k in mirror.braid_columns})
    return reads


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_column_walk_matches_the_compose_route_on_every_mutant(name, monkeypatch):
    # every route the checkers compose, on the clean data and on every
    # single-site mutant, gives the end vertex and map of route_reference.
    # On the Z3 center a mutant's routes are walked one instance at a time,
    # only at the instances (pentagon, hexagon or full associator) whose
    # routes read the mutated site; elsewhere they are the clean routes.
    import nicholsforge.fusion as fusion

    route, walked = fusion._route, []

    def both(keys, *jumps):
        keys = list(keys)
        got = route(keys, *jumps)
        assert got == route_reference(keys, *jumps)
        walked.append(len(keys))
        return got

    monkeypatch.setattr(fusion, "_route", both)
    F = FIXTURES[name]()
    sites = fusion_entry_sites(F)
    _checker_runs(F)
    if name != "z3-center":
        for site in sites:
            _checker_runs(mutate_fusion(F, site))
        assert len(walked) > len(sites)
        return
    instances = _instances(F) + [("associator", args)
                                 for args in product(range(F.size), repeat=4)]
    monkeypatch.setattr(fusion, "_route", route)
    readers = {}
    for instance, sites_read in _package_reads(F, instances).items():
        for site in sites_read:
            readers.setdefault(site, []).append(instance)
    monkeypatch.setattr(fusion, "_route", both)
    clean_mirror = _reversed(F)
    compared = 0
    for site in sites:
        G = mutate_fusion(F, site)
        mirror = _reversed(G) if site[0] == "braiding" else clean_mirror.replace(assoc=G.assoc)
        for instance in readers.get(site[:2], []):
            for start, jumps in _single_routes(G, mirror, instance):
                fusion._route(start, *jumps)
                compared += 1
    assert compared > len(sites)


@pytest.mark.parametrize("name", [name for name in sorted(FIXTURES) if name != "z3-center"])
def test_batched_hexagons_match_the_instance_walk_on_every_mutant(name):
    # verify_braiding composes the hexagons of one outer index i in one
    # batch per family and side; its report, with and without stop_early,
    # must be what composing each instance alone gives
    F = FIXTURES[name]()
    failing = 0
    for site in [None] + fusion_entry_sites(F):
        G = F if site is None else mutate_fusion(F, site)
        for stop_early in (False, True):
            expected = verify_braiding_reference(G, stop_early)
            assert verify_braiding(G, stop_early) == expected, (site, stop_early)
        failing += not expected.passed
    assert failing > 0
