"""The bodies of `verify`, `gr`, `degenerate` and `is-nichols`, loaded only
when one of them runs.

Each reads a structure document and imports the layers it runs
(structconst, filtration, dualize) when it runs; none runs the engine.
"""

from __future__ import annotations

import time

from ._command import CommandError, InputError, finish, read_json, write
from .formats import hopf_from_json, hopf_to_json
from .scalars import FieldTooLarge, parse_scalar, scalar_to_json


def _load_hopf(path: str):
    obj, digest = read_json(path)
    try:
        return hopf_from_json(obj), digest
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad structure document: {err}")


def _load_well_formed_hopf(path: str):
    """A structure whose blocks fit its sectors; verify reports this as an axiom."""
    from .structconst import well_formed_problem

    t, digest = _load_hopf(path)
    problem = well_formed_problem(t)
    if problem is not None:
        raise InputError(f"bad structure document: {problem}")
    return t, digest


# -- verify --------------------------------------------------------------------


def verify(hopf_file, as_json):
    from .structconst import AXIOM_KEYS, check_coconnected, check_connected, verify_axioms

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
        lines.append(f"{key:<16} {_tristate(report.results[key])}")
        if key in report.failures:
            lines.append(f"  {report.failures[key]}")
    lines.append(f"{'connected':<16} {_tristate(connected)}")
    lines.append(f"{'coconnected':<16} {_tristate(coconnected)}")
    finish("verify", digest, results, [], as_json, lines, started, ok)


def _tristate(value) -> str:
    if value is None:
        return "skipped"
    return "pass" if value else "FAIL"


# -- gr ------------------------------------------------------------------------


def _build_filtration(t, kind: str):
    # through the module, where a tracer may have wrapped the constructors
    from . import filtration

    build = filtration.radical_filtration if kind == "radical" else filtration.coradical_filtration
    try:
        return build(t)
    except FieldTooLarge:
        raise
    except ValueError as err:
        raise CommandError(f"filtration unavailable: {err}")


def _layer_table(f) -> list:
    return [{"index": i, "dims": [[list(label), dims[label]] for label in sorted(dims)]}
            for i, dims in sorted(f.layer_dims().items())]


def gr(hopf_file, kind, out, as_json):
    from .filtration import associated_graded, filtration_conditions
    from .structconst import AXIOM_KEYS, verify_axioms

    started = time.monotonic()
    t, digest = _load_well_formed_hopf(hopf_file)
    f = _build_filtration(t, kind)
    conditions = filtration_conditions(f)
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
    lines = [f"{kind} filtration, window {f.window}"]
    for row in results["layers"]:
        dims = ", ".join(f"{tuple(label)}:{d}" for label, d in row["dims"])
        lines.append(f"  layer {row['index']:>3}: {dims}")
    for name, verdict in conditions.items():
        lines.append(f"{name:<18} {'pass' if verdict else 'FAIL'}")
    lines.append(f"output axioms      {'pass' if axioms.passed else 'FAIL'}")
    if out is not None:
        write(out, hopf_to_json(graded))
        lines.append(f"wrote {out}")
    finish("gr", digest, results, [], as_json, lines, started, ok)


# -- degenerate ------------------------------------------------------------


def degenerate(hopf_file, kind, samples, out, as_json):
    from .filtration import (
        associated_graded,
        degenerate_limit,
        filtration_conditions,
        primitive_dims_along_path,
    )
    from .structconst import AXIOM_KEYS, verify_axioms

    started = time.monotonic()
    parts = [part.strip() for part in samples.split(",") if part.strip()]
    try:
        lams = [parse_scalar(part) for part in parts]
        if not lams or any(lam.is_zero() for lam in lams):
            raise ValueError("give one or more values, none of them zero "
                             "(the limit at 0 is always reported)")
    except (ValueError, KeyError) as err:
        raise InputError(f"bad --lambda-samples: {err}")
    t, digest = _load_well_formed_hopf(hopf_file)
    f = _build_filtration(t, kind)
    failed = ", ".join(name for name, good in filtration_conditions(f).items() if not good)
    if failed:
        raise CommandError(f"filtration unavailable: {kind} filtration violates {failed}")
    limit = degenerate_limit(t, f.split)
    dims = primitive_dims_along_path(t, f.split, lams, limit)
    axioms = verify_axioms(limit)
    # associated_graded filters the filtration's one conjugate with its own
    # exponents, so that the comparison means something
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
    lines = ["parameter        primitives"]
    for part, d in zip(parts, dims):
        lines.append(f"{part:<16} {d}")
    lines.append(f"{'limit':<16} {dims[-1]}")
    lines.append(f"limit axioms       {'pass' if axioms.passed else 'FAIL'}")
    lines.append(f"matches gr         {'pass' if matches else 'FAIL'}")
    if out is not None:
        write(out, hopf_to_json(limit))
        lines.append(f"wrote {out}")
    finish("degenerate", digest, results, [], as_json, lines, started, ok)


# -- is-nichols ------------------------------------------------------------


def is_nichols(hopf_file, as_json):
    from .dualize import generation_check, gragrc_check, pairing_report
    from .structconst import verify_axioms

    started = time.monotonic()
    t, digest = _load_well_formed_hopf(hopf_file)
    try:
        failure = verify_axioms(t).first_failure()
        if failure is not None:
            raise ValueError(failure)
        pairing, generation, gragrc = pairing_report(t), generation_check(t), gragrc_check(t)
    except FieldTooLarge:
        raise
    except ValueError as err:
        raise CommandError(f"criteria not applicable: {err}")
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
    finish("is-nichols", digest, results, [], as_json, lines, started, ok)
