"""Thread-pool helper with an environment fallback for the worker count.

Results come back in input order no matter how the pool schedules the
calls, so callers can rely on identical output for any worker count.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

from ._rat import integer

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "NICHOLS_FORGE_THREADS"


def resolve_threads(explicit: Optional[int] = None) -> int:
    """The worker count: `explicit`, else the environment variable, else 1.

    The one check that a count is at least 1, for the flag and the
    environment alike; ValueError when it is not.
    """
    if explicit is not None:
        value = explicit
    else:
        raw = os.environ.get(ENV_VAR, "").strip()
        try:
            value = integer(raw) if raw else 1
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"thread count must be >= 1, got {value}")
    return value


def pmap(fn: Callable[[T], R], items: Sequence[T], threads: Optional[int] = None) -> List[R]:
    """Ordered map, parallel when more than one worker is requested."""
    n = resolve_threads(threads)
    items = list(items)
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: the pool module costs about 10 ms at start-up, and
    # single-threaded runs never need it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
