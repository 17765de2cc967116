"""Acceptance gate: one test per numbered criterion, run with pytest -v.

One unnumbered test checks the filtration conditions that criteria 06-09
rely on.

Shared fixtures are cached at module level so every criterion sees the same
instances: the rank-one lines at zeta_N for N in 2..7 and the quantum plane.
All arithmetic is exact, so every comparison below is equality, never a
numeric tolerance.  Stated time budgets are asserted inside the tests.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache

from tests_support import CliRunner

from nicholsforge.braided import DiagonalBraiding
from nicholsforge.cli import main
from nicholsforge.dualize import (
    generation_check,
    graded_dual,
    gragrc_check,
    pairing_report,
)
from nicholsforge.filtration import (
    FILTRATION_CONDITIONS,
    associated_graded,
    coradical_filtration,
    degenerate_limit,
    filtration_conditions,
    lambda_exponent_report,
    primitive_dims_along_path,
    radical_filtration,
    split_basis,
)
from nicholsforge.formats import fusion_to_json, save_document
from nicholsforge.fusion import pointed_center_data, verify_all
from nicholsforge.nichols import nichols_compute, symmetrizer_rank
from nicholsforge.scalars import root_of_unity
from nicholsforge.structconst import (
    check_coconnected,
    check_connected,
    from_nichols,
    graded_iso_search,
    verify_axioms,
)
from tests_support import (
    SEED,
    criterion_03_braidings,
    fusion_entry_sites,
    fusion_mutation_detected,
    hopf_entry_sites,
    mutate_fusion,
    mutate_hopf,
)

QP_ENTRIES = [["-1", "1"], ["1", "-1"]]


# -- shared instances ---------------------------------------------------------


@lru_cache(maxsize=None)
def instance_reports():
    out = {}
    for N in range(2, 8):
        b = DiagonalBraiding.from_entries([[f"zeta({N})"]])
        out[f"line{N}"] = nichols_compute(b, N + 1)
    out["qp"] = nichols_compute(DiagonalBraiding.from_entries(QP_ENTRIES), 6)
    return out


@lru_cache(maxsize=None)
def instances():
    return {name: from_nichols(rep) for name, rep in instance_reports().items()}


@lru_cache(maxsize=None)
def filtration_of(name, kind):
    t = instances()[name]
    return radical_filtration(t) if kind == "radical" else coradical_filtration(t)


@lru_cache(maxsize=None)
def split_of(name, kind):
    return split_basis(filtration_of(name, kind))


@lru_cache(maxsize=None)
def graded_family():
    """Every graded structure the suite produces, keyed for error messages."""
    fam = {}
    for name, t in instances().items():
        fam[name] = t
        for kind in ("radical", "coradical"):
            fam[f"{name}/gr-{kind}"] = associated_graded(t, filtration_of(name, kind))
            fam[f"{name}/limit-{kind}"] = degenerate_limit(t, split_of(name, kind))
        fam[f"{name}/dual"] = graded_dual(t)
    return fam


# -- mutation helpers ---------------------------------------------------------


def hopf_mutation_detected(t):
    if not verify_axioms(t).passed:
        return True
    return not (check_connected(t) and check_coconnected(t))


def run_cli(args, env=None):
    result = CliRunner().invoke(main, args, env=env, catch_exceptions=False)
    return result


# -- criteria -----------------------------------------------------------------


def test_criterion_01_rank_one_lines(tmp_path):
    for N in range(2, 8):
        path = tmp_path / f"line{N}.json"
        path.write_text(json.dumps({"type": "diagonal", "q": [[f"zeta({N})"]]}))
        started = time.monotonic()
        result = run_cli(
            [
                "nichols", str(path),
                "--max-degree", str(N + 1),
                "--oracle-degree", str(N + 1),
                "--json",
            ]
        )
        elapsed = time.monotonic() - started
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["results"]["hilbert_series"] == [1] * N
        assert doc["results"]["total_dim"] == N
        assert doc["results"]["termination"] == "finite"
        oracle = doc["results"]["oracle"]
        assert len(oracle) == N + 2  # degrees 0..N+1
        assert all(row["agree"] for row in oracle)
        assert elapsed < 5.0, f"N={N} took {elapsed:.2f}s, budget 5s"


def test_criterion_02_quantum_plane(tmp_path):
    path = tmp_path / "qp.json"
    path.write_text(json.dumps({"type": "diagonal", "q": QP_ENTRIES}))
    started = time.monotonic()
    result = run_cli(
        ["nichols", str(path), "--max-degree", "6", "--oracle-degree", "6", "--json"]
    )
    elapsed = time.monotonic() - started
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["results"]["hilbert_series"] == [1, 2, 1]
    assert doc["results"]["total_dim"] == 4
    oracle = doc["results"]["oracle"]
    assert len(oracle) == 7
    for row in oracle:
        assert row["engine"] == row["oracle"]
        assert row["agree"]
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_criterion_03_random_braidings_match_oracle():
    started = time.monotonic()
    for trial, b in enumerate(criterion_03_braidings()):
        report = nichols_compute(b, 6)
        for d in range(7):
            expected = symmetrizer_rank(b, d)
            assert report.dims[d] == expected, (
                f"trial {trial}: degree {d} engine {report.dims[d]} oracle {expected}"
            )
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_04_axioms_and_mutation_sensitivity():
    started = time.monotonic()
    points = instances()
    for name, t in points.items():
        assert verify_axioms(t).passed, name
        assert check_connected(t), name
        assert check_coconnected(t), name

    rng = random.Random(SEED)
    names = sorted(points)
    site_table = {name: hopf_entry_sites(points[name]) for name in names}
    survivors = []
    for _ in range(100):
        name = rng.choice(names)
        site = rng.choice(site_table[name])
        mutant = mutate_hopf(points[name], site)
        if not hopf_mutation_detected(mutant):
            survivors.append((name, site))
    assert not survivors, f"undetected mutations: {survivors[:5]}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_05_all_graded_structures_connected_both_ways():
    for key, t in graded_family().items():
        assert t.grading is not None, key
        assert check_connected(t), key
        assert check_coconnected(t), key


def test_criterion_06_associated_graded_isomorphic():
    started = time.monotonic()
    fam = graded_family()
    for name, t in instances().items():
        gra = fam[f"{name}/gr-radical"]
        grc = fam[f"{name}/gr-coradical"]
        assert verify_axioms(gra).passed, name
        assert verify_axioms(grc).passed, name
        assert graded_iso_search(gra, t) is not None, f"{name}: gr-radical vs original"
        assert graded_iso_search(t, grc) is not None, f"{name}: original vs gr-coradical"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_filtration_conditions_hold_for_every_instance():
    # criteria 06-09 build both filtrations of each instance and rely on
    # these conditions; the constructors themselves no longer check them
    for name in instances():
        for kind in ("radical", "coradical"):
            conditions = filtration_conditions(filtration_of(name, kind))
            assert tuple(conditions) == FILTRATION_CONDITIONS, f"{name}/{kind}"
            assert all(conditions.values()), f"{name}/{kind}: {conditions}"


def test_criterion_07_limits_equal_graded_no_negative_exponents():
    fam = graded_family()
    for name, t in instances().items():
        for kind in ("radical", "coradical"):
            limit = fam[f"{name}/limit-{kind}"]
            graded = fam[f"{name}/gr-{kind}"]
            assert limit == graded, f"{name}/{kind}: limit differs from graded"
            report = lambda_exponent_report(t, split_of(name, kind))
            assert report["violations"] == [], f"{name}/{kind}"


def test_criterion_08_primitive_dims_along_path():
    samples = [1, Fraction(1, 2), root_of_unity(3, 1)]
    for name, t in instances().items():
        for kind in ("radical", "coradical"):
            dims = primitive_dims_along_path(t, split_of(name, kind), samples)
            path, limit = dims[:-1], dims[-1]
            assert len(set(path)) == 1, f"{name}/{kind}: dims vary along the path: {dims}"
            assert path[0] <= limit, f"{name}/{kind}: {path[0]} > limit {limit}"


def test_criterion_09_three_detectors_agree():
    for name, t in instances().items():
        pairing = pairing_report(t)
        generation = generation_check(t)
        gragrc = gragrc_check(t)
        assert pairing.verdict == "nichols", f"{name}: pairing {pairing.verdict}"
        assert generation.verdict == "nichols", f"{name}: generation {generation.verdict}"
        assert gragrc.verdict == "nichols-by-gragrc", f"{name}: gragrc {gragrc.verdict}"


def test_criterion_10_graded_dual_is_nichols_of_dual_braiding():
    fam = graded_family()
    for name, t in instances().items():
        gd = fam[f"{name}/dual"]
        assert verify_axioms(gd).passed, name

        def series(s):
            counts = {}
            for label in s.obj.sectors:
                for d in s.grading[label]:
                    counts[d] = counts.get(d, 0) + 1
            return sorted(counts.items())

        assert series(gd) == series(t), f"{name}: Hilbert series changed"
        # the dual braiding has the same matrix, so the same cached instance
        # is the Nichols algebra it generates
        assert graded_iso_search(gd, t) is not None, f"{name}: no isomorphism found"


def test_criterion_11_center_data_verified_and_mutation_sensitive():
    started = time.monotonic()
    for factors in ([2], [3], [2, 2]):
        reports = verify_all(pointed_center_data(factors))
        for rep in reports:
            assert rep.passed, f"{factors}: {rep.check} failed: {rep.failures[:3]}"

    survivors = []
    total = 0
    for factors in ([2], [3]):  # exhaustive where the group has at most 3 elements
        F = pointed_center_data(factors)
        for site in fusion_entry_sites(F):
            total += 1
            if not fusion_mutation_detected(mutate_fusion(F, site)):
                survivors.append((factors, site))
    assert not survivors, f"{len(survivors)}/{total} undetected: {survivors[:5]}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_12_reports_identical_across_thread_counts(tmp_path):
    qp_path = tmp_path / "qp.json"
    qp_path.write_text(json.dumps({"type": "diagonal", "q": QP_ENTRIES}))
    hopf_path = tmp_path / "qp_hopf.json"
    emit = run_cli(
        ["nichols", str(qp_path), "--max-degree", "6", "--emit-hopf", str(hopf_path), "--json"]
    )
    assert emit.exit_code == 0, emit.output
    fusion_path = tmp_path / "z2.json"
    save_document(str(fusion_path), fusion_to_json(pointed_center_data([2])))

    def outputs(threads_args, env=None):
        runs = {
            "nichols": ["nichols", str(qp_path), "--max-degree", "6",
                        "--oracle-degree", "5", "--json"] + threads_args,
            "verify": ["verify", str(hopf_path), "--json"],
            "gr": ["gr", str(hopf_path), "--filtration", "radical", "--json"],
            "degenerate": ["degenerate", str(hopf_path), "--filtration", "coradical",
                           "--lambda-samples", "1,1/2,zeta(3)", "--json"],
            "is-nichols": ["is-nichols", str(hopf_path), "--json"],
            "fusion-verify": ["fusion-verify", str(fusion_path), "--json"] + threads_args,
        }
        out = {}
        for key, args in runs.items():
            result = run_cli(args, env=env)
            assert result.exit_code == 0, f"{key}: {result.output}"
            json.loads(result.output)  # must be a JSON document
            out[key] = result.output
        return out

    first = outputs(["--threads", "1"])
    second = outputs(["--threads", "4"])
    third = outputs([], env={"NICHOLS_FORGE_THREADS": "3"})
    assert first == second
    assert first == third

    # generation is deterministic too, independent of the output location
    gen_a = run_cli(["fusion-gen", "--group", "3", "--out", str(tmp_path / "a.json"), "--json"])
    gen_b = run_cli(["fusion-gen", "--group", "3", "--out", str(tmp_path / "b.json"), "--json"])
    assert gen_a.exit_code == gen_b.exit_code == 0
    assert gen_a.output == gen_b.output
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
