#!/usr/bin/env python3
"""Time the fusion checkers in process on pointed Drinfeld-center data.

Each repetition reads the center's document afresh (`json.loads` and
`formats.fusion_from_json`, so every column table starts empty, as in a
`fusion-verify` process) and times the load, `well_formed` and each
verifier in the order `verify_all` runs them.  A stage scores the fastest
of --repeat repetitions in a round and the median of that over --rounds
rounds.  --quick times the Z2 and Z3 centers only, leaving out Z2 x Z2.

    python3 benchmarks/fusion_bench.py [--quick] [--repeat 5] [--rounds 8] [--json]
"""

import argparse
import json
import statistics
import sys
import time

from nicholsforge.formats import canonical_dumps, fusion_from_json, fusion_to_json
from nicholsforge.fusion import (
    pointed_center_data,
    verify_braiding,
    verify_duality,
    verify_pentagon,
    verify_units,
    well_formed,
)

CENTERS = {"z2": (2,), "z3": (3,), "z2xz2": (2, 2)}
QUICK = ("z2", "z3")
CHECKS = (("well_formed", well_formed), ("verify_pentagon", verify_pentagon),
          ("verify_units", verify_units), ("verify_duality", verify_duality),
          ("verify_braiding", verify_braiding))
STAGES = ("load",) + tuple(name for name, _ in CHECKS)


def one_pass(text: str) -> dict:
    """Seconds per stage on data read afresh from the document text."""
    times = {}
    start = time.perf_counter()
    F = fusion_from_json(json.loads(text))
    times["load"] = time.perf_counter() - start
    for name, check in CHECKS:
        start = time.perf_counter()
        report = check(F)
        times[name] = time.perf_counter() - start
        assert report.passed, (name, report.failures)
    return times


def bench(text: str, repeat: int, rounds: int) -> dict:
    """Per stage: the median over rounds of the fastest of repeat passes, in ms."""
    best = {stage: [] for stage in STAGES}
    for _ in range(rounds):
        passes = [one_pass(text) for _ in range(repeat)]
        for stage in STAGES:
            best[stage].append(min(p[stage] for p in passes))
    return {stage: round(statistics.median(values) * 1000, 2) for stage, values in best.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="the Z2 and Z3 centers only")
    parser.add_argument("--repeat", type=int, default=5, help="passes per round")
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    args = parser.parse_args(argv)

    results = {}
    for name in QUICK if args.quick else CENTERS:
        text = canonical_dumps(fusion_to_json(pointed_center_data(CENTERS[name])))
        results[name] = bench(text, args.repeat, args.rounds)
    if args.json:
        print(json.dumps({"repeat": args.repeat, "rounds": args.rounds, "ms": results},
                         sort_keys=True))
        return 0
    print(f"ms per stage: median of {args.rounds} rounds, fastest of {args.repeat} passes each")
    print(f"{'center':8}" + "".join(f"{stage:>17}" for stage in STAGES))
    for name, ms in results.items():
        print(f"{name:8}" + "".join(f"{ms[stage]:17.2f}" for stage in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
