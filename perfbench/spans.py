"""Turn recorded spans into per-layer statistics.

A span's self time is its duration minus the part of that interval its
child spans cover.  Children made by pool workers can overlap each other,
so covered time is the length of the union of the children's intervals.
A span's inclusive time counts toward its name only when no ancestor
carries the same name, so recursion never counts an interval twice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

Span = Tuple[int, int, str, int, int, object]  # id, parent, name, start ns, end ns, attr


@dataclass
class Stat:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    attr_sum: int = 0
    attr_max: int = 0

    def value(self, statistic: str):
        if statistic == "s":
            return self.incl_ns / 1e9
        if statistic == "self_s":
            return self.self_ns / 1e9
        return getattr(self, statistic)


@dataclass
class JobTrace:
    job: str
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)


def load(path: Path) -> JobTrace:
    with open(path) as fh:
        raw = json.load(fh)
    spans = [tuple(s) for s in raw.get("spans", [])]
    return JobTrace(raw["job"], spans, raw.get("counts", {}))


def _covered(parent: Span, children: Iterable[Span]) -> int:
    lo, hi = parent[3], parent[4]
    covered, end = 0, lo
    for c in sorted(children, key=lambda s: s[3]):
        start, stop = max(c[3], end), min(c[4], hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def self_times(spans: List[Span]) -> Dict[int, int]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    return {s[0]: (s[4] - s[3]) - _covered(s, children.get(s[0], ())) for s in spans}


def nesting_problems(spans: List[Span]) -> List[str]:
    """Children must lie inside their parent, and self time within inclusive."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for s in spans:
        parent = by_id.get(s[1])
        if s[1] and parent is None:
            problems.append(f"span {s[0]} ({s[2]}) has unknown parent {s[1]}")
        elif parent is not None and not (parent[3] <= s[3] <= s[4] <= parent[4]):
            problems.append(f"span {s[0]} ({s[2]}) lies outside parent {parent[0]} ({parent[2]})")
    for sid, self_ns in self_times(spans).items():
        s = by_id[sid]
        if not 0 <= self_ns <= s[4] - s[3]:
            problems.append(f"span {sid} ({s[2]}) self time {self_ns} outside 0..{s[4] - s[3]}")
    return problems


def aggregate(traces: Iterable[JobTrace]) -> Dict[str, Stat]:
    stats: Dict[str, Stat] = defaultdict(Stat)
    for trace in traces:
        by_id = {s[0]: s for s in trace.spans}
        selfs = self_times(trace.spans)
        for s in trace.spans:
            st = stats[s[2]]
            st.calls += 1
            st.self_ns += selfs[s[0]]
            if isinstance(s[5], int):
                st.attr_sum += s[5]
                st.attr_max = max(st.attr_max, s[5])
            parent = by_id.get(s[1])
            while parent is not None and parent[2] != s[2]:
                parent = by_id.get(parent[1])
            if parent is None:
                st.incl_ns += s[4] - s[3]
    return stats


def group_self_times(stats: Dict[str, Stat], target: Tuple[str, ...]) -> Dict[str, int]:
    """Self time of the target group and of every layer outside it.

    A target entry ending in "." names a whole layer, any other entry one
    span name.  Each span name not in the target counts toward its layer,
    the part of the name before the first dot.
    """
    groups: Dict[str, int] = defaultdict(int)
    for name, st in stats.items():
        in_target = any(name.startswith(t) if t.endswith(".") else name == t for t in target)
        groups["target" if in_target else name.split(".")[0]] += st.self_ns
    return dict(groups)
