"""The body of `nicholsforge nichols`, loaded only when that command runs.

The engine and the oracle are imported when the command runs; `formats`
and `structconst` only for --emit-hopf.
"""

from __future__ import annotations

import time

from ._command import InputError, finish, read_json, thread_count, write
from ._threads import pmap
from .braided import braiding_from_json


def nichols(braiding_file, max_degree, oracle_degree, emit_hopf, threads, as_json):
    from .nichols import (
        FINITE,
        check_oracle_work,
        dims_symmetry_warning,
        hilbert_series,
        nichols_compute,
        symmetrizer_rank,
    )

    started = time.monotonic()
    threads = thread_count(threads)
    obj, digest = read_json(braiding_file)
    try:
        braiding = braiding_from_json(obj)
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad braiding document: {err}")
    if oracle_degree is not None:
        if oracle_degree < 0:
            raise InputError("--oracle-degree cannot be negative")
        if oracle_degree > max_degree:
            raise InputError("--oracle-degree cannot exceed --max-degree")
        try:
            check_oracle_work(braiding.dim, oracle_degree)
        except ValueError as err:
            raise InputError(f"--oracle-degree: {err}")
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
        from .formats import hopf_to_json
        from .structconst import from_nichols

        if report.termination != FINITE:
            raise InputError("--emit-hopf needs a certified finite result; raise --max-degree")
        write(emit_hopf, hopf_to_json(from_nichols(report)))
        lines.append(f"wrote {emit_hopf}")

    finish("nichols", digest, results, warnings, as_json, lines, started, agree)
