"""Command-line entry points.

Every command prints either a human-readable summary or, with --json, a
canonical report object: sorted keys, compact separators, no timing and no
absolute paths, so identical inputs produce identical bytes regardless of
run, machine, or worker count.  Exit status is 0 when every check passed,
1 when some mathematical check failed, and 2 for unusable input.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import List, Optional

import click

from ._threads import pmap, resolve_threads
from .braided import braiding_from_json
from .dualize import nichols_criteria
from .filtration import (
    associated_graded,
    coradical_filtration,
    degenerate_limit,
    primitive_dims_along_path,
    radical_filtration,
    split_basis,
)
from .formats import (
    canonical_dumps,
    fusion_from_json,
    fusion_to_json,
    hopf_from_json,
    hopf_to_json,
    save_document,
)
from .fusion import (
    pointed_center_data,
    verify_braiding,
    verify_duality,
    verify_pentagon,
    verify_units,
    well_formed,
)
from .nichols import (
    FINITE,
    ORACLE_MAX_DEGREE,
    dims_symmetry_warning,
    hilbert_series,
    nichols_compute,
    symmetrizer_rank,
)
from .scalars import parse_scalar, scalar_to_json
from .structconst import (
    AXIOM_KEYS,
    check_coconnected,
    check_connected,
    from_nichols,
    verify_axioms,
    well_formed_problem,
)


class InputError(click.ClickException):
    exit_code = 2


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}")
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object at the top level")
    return obj, _digest(raw)


def _thread_count(explicit: Optional[int]) -> int:
    try:
        return resolve_threads(explicit)
    except ValueError as err:
        raise InputError(str(err))


def _finish(command: str, digest: str, results: dict, warnings: List[str],
            as_json: bool, lines: List[str], started: float, ok: bool):
    report = {
        "command": command,
        "input": digest,
        "results": results,
        "warnings": sorted(warnings),
    }
    if as_json:
        click.echo(canonical_dumps(report), nl=False)
    else:
        for line in lines:
            click.echo(line)
        for w in sorted(warnings):
            click.echo(f"warning: {w}")
        status = "all checks passed" if ok else "FAILED"
        click.echo(f"{status} ({time.monotonic() - started:.2f}s)")
    if not ok:
        raise SystemExit(1)


def _json_option(fn):
    return click.option("--json", "as_json", is_flag=True,
                        help="Emit the canonical JSON report.")(fn)


def _threads_option(fn):
    return click.option("--threads", type=click.IntRange(min=1), default=None,
                        help="Worker threads (default: NICHOLS_FORGE_THREADS or 1).")(fn)


@click.group()
def main():
    """Exact tools for Nichols algebras and braided fusion data."""


# -- nichols -------------------------------------------------------------------


@main.command()
@click.argument("braiding_file", type=click.Path())
@click.option("--max-degree", type=int, required=True, help="Engine cutoff degree.")
@click.option("--oracle-degree", type=int, default=None,
              help="Cross-check graded dimensions up to this degree.")
@click.option("--emit-hopf", type=click.Path(), default=None,
              help="Write the finite result as a structure-constant file.")
@_threads_option
@_json_option
def nichols(braiding_file, max_degree, oracle_degree, emit_hopf, threads, as_json):
    """Run the primitive-quotient engine on a braiding file."""
    started = time.monotonic()
    threads = _thread_count(threads)
    obj, digest = _read_json(braiding_file)
    try:
        braiding = braiding_from_json(obj)
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad braiding document: {err}")
    if oracle_degree is not None:
        if oracle_degree < 0:
            raise InputError("--oracle-degree cannot be negative")
        if oracle_degree > max_degree:
            raise InputError("--oracle-degree cannot exceed --max-degree")
        if oracle_degree > ORACLE_MAX_DEGREE:
            raise InputError(f"--oracle-degree cannot exceed {ORACLE_MAX_DEGREE}")
    try:
        report = nichols_compute(braiding, max_degree)
    except ValueError as err:
        raise InputError(str(err))

    warnings = []
    symmetry = dims_symmetry_warning(report)
    if symmetry:
        warnings.append(symmetry)

    oracle_rows = []
    agree = True
    if oracle_degree is not None:
        degrees = list(range(oracle_degree + 1))
        ranks = pmap(lambda d: symmetrizer_rank(braiding, d), degrees, threads)
        for d, r in zip(degrees, ranks):
            engine = report.dims[d]
            match = engine == r
            agree = agree and match
            oracle_rows.append({"degree": d, "engine": engine, "oracle": r, "agree": match})

    results = {
        "rank": braiding.dim,
        "max_degree": max_degree,
        "termination": report.termination,
        "dims": list(report.dims),
        "hilbert_series": hilbert_series(report),
        "total_dim": report.total_dim,
        "relations": [[d, r] for d, r in report.relations],
        "oracle": oracle_rows,
    }

    if emit_hopf is not None:
        if report.termination != FINITE:
            raise InputError("--emit-hopf needs a certified finite result; raise --max-degree")
        save_document(emit_hopf, hopf_to_json(from_nichols(report)))

    lines = [f"termination: {report.termination}",
             f"graded dims: {list(report.dims)}"]
    if report.total_dim is not None:
        lines.append(f"total dim:   {report.total_dim}")
    for d, r in report.relations:
        lines.append(f"relations in degree {d}: {r}")
    if oracle_rows:
        lines.append("degree  engine  oracle  agree")
        for row in oracle_rows:
            lines.append(f"{row['degree']:>6}  {row['engine']:>6}  {row['oracle']:>6}  "
                         f"{'yes' if row['agree'] else 'NO'}")
    if emit_hopf is not None:
        lines.append(f"wrote {emit_hopf}")

    _finish("nichols", digest, results, warnings, as_json, lines, started, agree)


# -- verify --------------------------------------------------------------------


def _load_hopf(path: str):
    obj, digest = _read_json(path)
    try:
        return hopf_from_json(obj), digest
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad structure document: {err}")


def _load_well_formed_hopf(path: str):
    """A structure whose blocks fit its sectors; verify reports this as an axiom."""
    t, digest = _load_hopf(path)
    problem = well_formed_problem(t)
    if problem is not None:
        raise InputError(f"bad structure document: {problem}")
    return t, digest


@main.command()
@click.argument("hopf_file", type=click.Path())
@_json_option
def verify(hopf_file, as_json):
    """Check all Hopf axioms plus connectedness on both sides."""
    started = time.monotonic()
    t, digest = _load_hopf(hopf_file)
    report = verify_axioms(t)
    connected = coconnected = None
    if report.passed:
        connected = check_connected(t)
        coconnected = check_coconnected(t)
    ok = report.passed and bool(connected) and bool(coconnected)
    results = {
        "axioms": {key: report.results[key] for key in AXIOM_KEYS},
        "connected": connected,
        "coconnected": coconnected,
        "total_dim": t.obj.total_dim(),
        "graded": t.grading is not None,
    }
    lines = []
    for key in AXIOM_KEYS:
        verdict = report.results[key]
        text = "pass" if verdict else ("FAIL" if verdict is False else "skipped")
        lines.append(f"{key:<16} {text}")
        if key in report.failures:
            lines.append(f"  {report.failures[key]}")
    lines.append(f"{'connected':<16} {_tristate(connected)}")
    lines.append(f"{'coconnected':<16} {_tristate(coconnected)}")
    _finish("verify", digest, results, [], as_json, lines, started, ok)


def _tristate(value) -> str:
    if value is None:
        return "skipped"
    return "pass" if value else "FAIL"


# -- gr ------------------------------------------------------------------------


_FILTRATIONS = {"radical": radical_filtration, "coradical": coradical_filtration}


def _build_filtration(t, kind: str):
    try:
        return _FILTRATIONS[kind](t)
    except ValueError as err:
        raise click.ClickException(f"filtration unavailable: {err}")


def _layer_table(f) -> list:
    table = []
    for i, dims in sorted(f.layer_dims().items()):
        table.append({
            "index": i,
            "dims": [[list(label), dims[label]] for label in sorted(dims)],
        })
    return table


@main.command()
@click.argument("hopf_file", type=click.Path())
@click.option("--filtration", "kind", type=click.Choice(sorted(_FILTRATIONS)), required=True)
@click.option("--out", type=click.Path(), default=None,
              help="Write the associated graded structure here.")
@_json_option
def gr(hopf_file, kind, out, as_json):
    """Associated graded structure of the radical or coradical filtration."""
    started = time.monotonic()
    t, digest = _load_well_formed_hopf(hopf_file)
    f = _build_filtration(t, kind)
    conditions = f.conditions
    graded = associated_graded(t, f)
    axioms = verify_axioms(graded)
    ok = all(conditions.values()) and axioms.passed
    results = {
        "filtration": kind,
        "window": list(f.window),
        "layers": _layer_table(f),
        "conditions": conditions,
        "output_axioms": {key: axioms.results[key] for key in AXIOM_KEYS},
    }
    if out is not None:
        save_document(out, hopf_to_json(graded))
    lines = [f"{kind} filtration, window {f.window}"]
    for row in results["layers"]:
        dims = ", ".join(f"{tuple(label)}:{d}" for label, d in row["dims"])
        lines.append(f"  layer {row['index']:>3}: {dims}")
    for name, verdict in conditions.items():
        lines.append(f"{name:<18} {'pass' if verdict else 'FAIL'}")
    lines.append(f"output axioms      {'pass' if axioms.passed else 'FAIL'}")
    if out is not None:
        lines.append(f"wrote {out}")
    _finish("gr", digest, results, [], as_json, lines, started, ok)


# -- degenerate ------------------------------------------------------------


@main.command()
@click.argument("hopf_file", type=click.Path())
@click.option("--filtration", "kind", type=click.Choice(sorted(_FILTRATIONS)), required=True)
@click.option("--lambda-samples", "samples", default="1",
              help="Comma-separated parameters, e.g. '1,1/2,zeta(3)'.")
@click.option("--out", type=click.Path(), default=None,
              help="Write the exact limit structure here.")
@_json_option
def degenerate(hopf_file, kind, samples, out, as_json):
    """Walk the one-parameter family of a filtration split to its limit."""
    started = time.monotonic()
    t, digest = _load_well_formed_hopf(hopf_file)
    f = _build_filtration(t, kind)
    parts = [part.strip() for part in samples.split(",") if part.strip()]
    try:
        lams = [parse_scalar(part) for part in parts]
    except (ValueError, KeyError) as err:
        raise InputError(f"bad --lambda-samples: {err}")
    if not lams:
        raise InputError("--lambda-samples needs at least one value")
    split = split_basis(f)
    try:
        dims = primitive_dims_along_path(t, split, lams)
    except (ValueError, ZeroDivisionError) as err:
        raise click.ClickException(f"degeneration failed: {err}")
    limit = degenerate_limit(t, split)
    axioms = verify_axioms(limit)
    matches = limit == associated_graded(t, f)
    ok = axioms.passed and matches
    results = {
        "filtration": kind,
        "samples": [scalar_to_json(lam) for lam in lams],
        "primitive_dims": dims[:-1],
        "limit_primitive_dim": dims[-1],
        "limit_axioms": {key: axioms.results[key] for key in AXIOM_KEYS},
        "limit_equals_associated_graded": matches,
    }
    if out is not None:
        save_document(out, hopf_to_json(limit))
    lines = ["parameter        primitives"]
    for part, d in zip(parts, dims):
        lines.append(f"{part:<16} {d}")
    lines.append(f"{'limit':<16} {dims[-1]}")
    lines.append(f"limit axioms       {'pass' if axioms.passed else 'FAIL'}")
    lines.append(f"matches gr         {'pass' if matches else 'FAIL'}")
    if out is not None:
        lines.append(f"wrote {out}")
    _finish("degenerate", digest, results, [], as_json, lines, started, ok)


# -- is-nichols ------------------------------------------------------------


@main.command(name="is-nichols")
@click.argument("hopf_file", type=click.Path())
@_json_option
def is_nichols(hopf_file, as_json):
    """Run the three recognition criteria on a structure file."""
    started = time.monotonic()
    t, digest = _load_well_formed_hopf(hopf_file)
    try:
        pairing, generation, gragrc = nichols_criteria(t)
    except ValueError as err:
        raise click.ClickException(f"criteria not applicable: {err}")
    verdicts = (pairing.verdict, generation.verdict, gragrc.verdict)
    ok = verdicts == ("nichols", "nichols", "nichols-by-gragrc")
    results = {
        "pairing": {
            "dim_primitives": pairing.dim_primitives,
            "dim_dual_primitives": pairing.dim_dual_primitives,
            "rank": pairing.rank,
            "verdict": pairing.verdict,
        },
        "generation": {
            "primitives_generate": generation.generated_by_primitives,
            "dual_primitives_generate": generation.dual_generated_by_primitives,
            "verdict": generation.verdict,
        },
        "gragrc": {"verdict": gragrc.verdict, "detail": gragrc.detail},
        "verdict": "nichols" if ok else "not-determined",
    }
    lines = [
        f"pairing:    {pairing.verdict} "
        f"({pairing.dim_dual_primitives} x {pairing.dim_primitives}, rank {pairing.rank})",
        f"generation: {generation.verdict}",
        f"gr agreement: {gragrc.verdict}" + (f" ({gragrc.detail})" if gragrc.detail else ""),
        f"verdict:    {results['verdict']}",
    ]
    _finish("is-nichols", digest, results, [], as_json, lines, started, ok)


# -- fusion ----------------------------------------------------------------


@main.command(name="fusion-verify")
@click.argument("fusion_file", type=click.Path())
@_threads_option
@_json_option
def fusion_verify(fusion_file, threads, as_json):
    """Check pentagon, units, duality, and both hexagons on fusion data."""
    started = time.monotonic()
    threads = _thread_count(threads)
    obj, digest = _read_json(fusion_file)
    try:
        data = fusion_from_json(obj)
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad fusion document: {err}")
    reports = [well_formed(data)]
    if reports[0].passed:
        reports += pmap(
            lambda check: check(data),
            [verify_pentagon, verify_units, verify_duality, verify_braiding],
            threads,
        )
    ok = all(r.passed for r in reports)
    results = {
        "checks": [
            {
                "check": r.check,
                "passed": r.passed,
                "checked": r.checked,
                "failures": [list(f) for f in r.failures[:8]],
            }
            for r in reports
        ]
    }
    lines = []
    for r in reports:
        lines.append(f"{r.check:<12} {'pass' if r.passed else 'FAIL'} ({r.checked} instances)")
        for f in r.failures[:4]:
            lines.append(f"  at {f}")
    _finish("fusion-verify", digest, results, [], as_json, lines, started, ok)


@main.command(name="fusion-gen")
@click.option("--group", required=True,
              help="Cyclic factor orders of an abelian group, e.g. '2,2'.")
@click.option("--out", type=click.Path(), required=True,
              help="Write the generated fusion data here.")
@_json_option
def fusion_gen(group, out, as_json):
    """Emit Drinfeld-center fusion data of a finite abelian group."""
    started = time.monotonic()
    try:
        factors = [int(part) for part in group.split(",") if part.strip()]
        data = pointed_center_data(factors)
    except ValueError as err:
        raise InputError(f"bad --group: {err}")
    save_document(out, fusion_to_json(data))
    results = {"factors": factors, "simples": data.size}
    lines = [f"{data.size} simples from factors {factors}", f"wrote {out}"]
    _finish("fusion-gen", _digest(group.encode()), results, [], as_json, lines, started, True)


if __name__ == "__main__":
    main()
