"""A fixed piece of work that tells how fast the machine runs right now.

On a shared host the speed of a core drifts by a third or more within
seconds, as other tenants come and go, and a whole run can land in a slow
or a fast stretch.  The benchmark times this reference just before and just
after every job and divides the job's times by the mean of the two, so a
job is measured in multiples of the reference (unit ``ref``) and most of
the host's drift cancels.

The reference is the geometric mean of three timings, each like one part
of a job: an interpreter loop of calls and dict traffic, a Gaussian
elimination over ``Fraction``, and the start of a bare interpreter
process.  Together they track the jobs' speed about twice as closely as
any one alone.  None of them imports ``nicholsforge``, so a change to the
program never moves the reference, and a job that does more or less work
moves its ratio by the same factor.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, List, Mapping, Tuple

LOOP_ROUNDS = 60_000   # about 0.03 s on a 2-vCPU cloud host
MATRIX_SIZE = 16       # about 0.02 s
MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1) for j in range(MATRIX_SIZE)]
          for i in range(MATRIX_SIZE)]


def _step(x: int, i: int) -> Tuple[int, int]:
    return (x * 31 + i) % 1_000_003, x & 1023


def _loop() -> int:
    table: dict = {}
    x = 1
    for i in range(LOOP_ROUNDS):
        x, slot = _step(x, i)
        table[slot] = table.get(slot, 0) + 1
    return x + len(table)


def _elimination() -> int:
    rows: List[List[Fraction]] = [row[:] for row in MATRIX]
    rank = 0
    for col in range(MATRIX_SIZE):
        pivot = next((i for i in range(rank, MATRIX_SIZE) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [x * inverse for x in rows[rank]]
        for i in range(MATRIX_SIZE):
            factor = rows[i][col]
            if i != rank and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _timed(work: Callable[[], object]) -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def measure(cwd, env: Mapping[str, str]) -> float:
    """Seconds the reference takes now: the geometric mean of its three parts."""
    start = [sys.executable, "-c", "import fractions, json"]
    times = [_timed(_loop), _timed(_elimination),
             _timed(lambda: subprocess.run(start, cwd=cwd, env=dict(env), check=True,
                                           stdin=subprocess.DEVNULL, timeout=60))]
    return math.exp(sum(map(math.log, times)) / len(times))
