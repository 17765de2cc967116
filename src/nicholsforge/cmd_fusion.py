"""The bodies of `fusion-verify` and `fusion-gen`, loaded only when one of
them runs.

The checkers and the generator are imported when the command runs; neither
command loads the Hopf structure layers or the braidings.
"""

from __future__ import annotations

import time

from ._command import InputError, digest, finish, read_json, thread_count, write
from ._rat import integer
from ._threads import pmap
from .formats import fusion_from_json, fusion_to_json


def fusion_verify(fusion_file, threads, as_json):
    from .fusion import verify_braiding, verify_duality, verify_pentagon, verify_units, well_formed

    started = time.monotonic()
    threads = thread_count(threads)
    obj, input_digest = read_json(fusion_file)
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
    finish("fusion-verify", input_digest, results, [], as_json, lines, started, ok)


def fusion_gen(group, out, as_json):
    from .fusion import pointed_center_data

    started = time.monotonic()
    try:
        factors = [integer(part) for part in group.split(",") if part.strip()]
        data = pointed_center_data(factors)
    except ValueError as err:
        raise InputError(f"bad --group: {err}")
    write(out, fusion_to_json(data))
    results = {"factors": factors, "simples": data.size}
    lines = [f"{data.size} simples from factors {factors}", f"wrote {out}"]
    finish("fusion-gen", digest(group.encode()), results, [], as_json, lines, started, True)
