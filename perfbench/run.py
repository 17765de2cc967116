#!/usr/bin/env python3
"""End-to-end benchmark of the `nicholsforge` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every job is a fresh
``python -m nicholsforge.cli ... --json`` process, run one after another
(a closed loop with one client), on inputs generated from the seed.  Each
report is checked against a known answer (see ``answers``) and must be
byte-identical every time the same job runs.

``--trace 0`` prepares the workload's inputs a few times (``setup_s`` is
the median), then repeats passes over its jobs for ``--seconds`` seconds
and scores each job by the median ratio of its time to a reference loop
timed beside it (see ``measure`` and ``reference``).  ``--trace 1``
runs one pass of each of the four parts the timed workloads are made of
(``workloads.PARTS``; only ``smoke`` for ``--workload smoke``) four ways: plain, with spans, with call counters, and the
oracle jobs again with ``--threads 2``; it reports the per-layer
metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
import reference
import spans
import workloads
from jobs import JobResult, run_process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
JOB_TIMEOUT_S = 60.0    # one job; the slowest benchmark job takes a few seconds
RUN_BUDGET_S = 165.0    # no job starts after this; a run must end within 180 s
WARMUP = workloads.Job("warm-up", ("--help",), check=None)

END_TO_END_UNITS = {"wall_ref": "ref", "slowest_job_ref": "ref", "cpu_ref": "ref",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class OutOfTime(Exception):
    pass


@dataclass
class Outcome:
    result: JobResult
    report: Optional[dict]
    trace: Optional[spans.JobTrace]


@dataclass
class Runner:
    """Runs jobs, checks every report, and keeps the failure tally."""

    workdir: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    first_bytes: Dict[Tuple[str, str], bytes] = field(default_factory=dict)
    _traces: int = 0

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "0"
        return env

    def run(self, wl: workloads.Workload, job: workloads.Job, mode: str = "",
            threads: Optional[str] = None) -> Outcome:
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise OutOfTime(f"{wl.name}: no time left for {job.key}")
        args = list(job.args)
        if threads is not None:
            args[args.index("--threads") + 1] = threads
        trace_file = None
        if mode:
            self._traces += 1
            trace_file = self.workdir / f"trace-{self._traces}.json"
            argv = [sys.executable, str(HERE / "launch.py"), mode, str(trace_file),
                    f"{wl.name}/{job.key}/{mode}", "--", *args]
        else:
            argv = [sys.executable, "-m", "nicholsforge.cli", *args]
        result = run_process(argv, self.workdir / wl.name, self.env(), timeout)
        self.attempted += 1
        report, problems = self._judge(wl, job, result)
        trace = None
        if trace_file is not None:
            if trace_file.exists():
                trace = spans.load(trace_file)
                trace_file.unlink()
            else:
                problems.append("no trace written")
        if problems:
            self.failed += 1
            self.problems.append(f"{wl.name} {job.key} {mode or 'plain'}: {'; '.join(problems)}")
        return Outcome(result, report, trace)

    def _judge(self, wl, job, result: JobResult) -> Tuple[Optional[dict], List[str]]:
        if result.timed_out:
            return None, [f"killed after the {JOB_TIMEOUT_S:.0f} s limit"]
        if result.exit_code != 0:
            tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return None, [f"exit code {result.exit_code} {tail}"]
        if job.check is None:
            return None, []
        first = self.first_bytes.setdefault((wl.name, job.key), result.stdout)
        problems = [] if first == result.stdout else ["report bytes differ from its first run"]
        try:
            report = json.loads(result.stdout)
        except ValueError as err:
            return None, problems + [f"report is not JSON: {err}"]
        try:
            problems += job.check(report)
        except (KeyError, TypeError, IndexError, AttributeError) as err:
            problems.append(f"report has the wrong shape: {err!r}")
        return report, problems


def setup(runner: Runner, wl: workloads.Workload, mode: str = "") -> List[Outcome]:
    """Start the CLI once, write the braiding files, run the setup jobs."""
    (runner.workdir / wl.name).mkdir(exist_ok=True)
    runner.run(wl, WARMUP)
    workloads.write_inputs(wl, runner.workdir / wl.name)
    return [runner.run(wl, job, mode) for job in wl.setup]


def run_pass(runner: Runner, wl: workloads.Workload, mode: str = "",
             threads: Optional[str] = None, only=None) -> Tuple[float, List[Outcome]]:
    jobs = [job for job in wl.jobs if only is None or only(job)]
    started = time.perf_counter()
    outcomes = [runner.run(wl, job, mode, threads) for job in jobs]
    return time.perf_counter() - started, outcomes


def tail_percentile(samples: List[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure(runner: Runner, wl: workloads.Workload, seconds: float) -> Dict[str, float]:
    """End-to-end metrics of one workload.

    Every job runs once per pass.  The reference is timed between every
    two jobs, and each job's wall and CPU time is divided by the mean of
    the timings just before and just after it, so most of the host's
    drifting speed cancels (see ``reference``).  A job scores the median
    of its ratios over the passes; ``wall_ref`` and ``cpu_ref`` add up the
    jobs.  Raw seconds are printed too.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        setup(runner, wl)
        setups.append(time.perf_counter() - started)

    passes: List[float] = []
    runs: List[List[JobResult]] = [[] for _ in wl.jobs]
    wall_ratios: List[List[float]] = [[] for _ in wl.jobs]
    cpu_ratios: List[List[float]] = [[] for _ in wl.jobs]

    def ref() -> float:
        return reference.measure(runner.workdir / wl.name, runner.env())

    refs = [ref() for _ in range(3)][-1:]  # the first two warm up
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        pass_wall = 0.0
        try:
            for i, job in enumerate(wl.jobs):
                result = runner.run(wl, job).result
                refs.append(ref())
                scale = (refs[-2] + refs[-1]) / 2
                wall_ratios[i].append(result.wall_s / scale)
                cpu_ratios[i].append(result.cpu_s / scale)
                runs[i].append(result)
                pass_wall += result.wall_s
        except OutOfTime as err:
            print(f"note: passes stopped early, {err}", file=sys.stderr)
            break
        passes.append(pass_wall)
    if not passes:
        raise OutOfTime(f"{wl.name}: no complete pass")

    n = len(passes)
    job_wall = [statistics.median(r[:n]) for r in wall_ratios]
    metrics = {
        "wall_ref": sum(job_wall),
        "slowest_job_ref": max(job_wall),
        "cpu_ref": sum(statistics.median(r[:n]) for r in cpu_ratios),
        "peak_rss_mb": max(r.maxrss_kb for results in runs for r in results) / 1024.0,
        "setup_s": statistics.median(setups),
    }
    tail = tail_percentile(passes)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no tail percentile below 11 passes"
    print(f"passes: {n}, job time per pass: median {statistics.median(passes):.4f} s, "
          f"range {min(passes):.4f}-{max(passes):.4f} s, {tail_text}")
    print(f"reference: median {statistics.median(refs):.4f} s over {len(refs)} timings, "
          f"range {min(refs):.4f}-{max(refs):.4f} s")
    print(f"wall_ref: {metrics['wall_ref']:.4f} ref (one pass of {len(wl.jobs)} jobs, "
          f"each the median of {n} ratios to the reference)")
    print(f"slowest_job_ref: {metrics['slowest_job_ref']:.4f} ref "
          f"({wl.jobs[job_wall.index(max(job_wall))].key})")
    print(f"cpu_ref: {metrics['cpu_ref']:.4f} ref (user+sys of the jobs over the reference's wall time)")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.4f} MB (largest maxrss of any job)")
    print(f"setup_s: {metrics['setup_s']:.4f} s (median of {len(setups)} setups, "
          f"range {min(setups):.4f}-{max(setups):.4f} s)")
    return metrics


def _pooled(job: workloads.Job) -> bool:
    """The oracle jobs, whose thread pool the traced run also times on two workers."""
    return job.args[0] == "nichols" and "--threads" in job.args


def trace_suite(runner: Runner, names: List[str], seed: int) -> Dict[str, float]:
    """One pass of each part: plain, with spans, with counters, oracle jobs on two threads."""
    suite = [workloads.build(name, seed) for name in names]
    setup_outcomes = [o for wl in suite for o in setup(runner, wl, "spans")]
    # Passes that are compared run back to back, so that the machine's
    # speed, which drifts over minutes on shared hosts, cancels in the ratios.
    plain: Dict[str, float] = {}
    traced: Dict[str, Tuple[float, List[Outcome]]] = {}
    two_threads: List[Outcome] = []
    for wl in suite:
        plain[wl.name] = run_pass(runner, wl)[0]
        traced[wl.name] = run_pass(runner, wl, "spans")
        two_threads += run_pass(runner, wl, "spans", "2", _pooled)[1]
    counted = [o for wl in suite
               for o in [runner.run(wl, job, "counts") for job in wl.setup]
               + run_pass(runner, wl, "counts")[1]]

    spanned = setup_outcomes + [o for _, outcomes in traced.values() for o in outcomes]
    traces = [o.trace for o in spanned if o.trace]
    for trace in traces:
        runner.problems += [f"{trace.job}: {p}" for p in spans.nesting_problems(trace.spans)]
    stats = spans.aggregate(traces)

    metrics: Dict[str, float] = {}
    for metric, span_name, statistic in layers.SPAN_METRICS:
        metrics[metric] = stats[span_name].value(statistic) if span_name in stats else 0
    for _, _, name in layers.COUNTS:
        metrics[name] = sum(o.trace.counts.get(name, 0) for o in counted if o.trace)
    metrics["nichols.quotient_steps"] = sum(
        len(o.report["results"]["relations"]) for o in spanned
        if o.report and o.report["command"] == "nichols")
    pentagon = stats.get("fusion.verify_pentagon")
    metrics["fusion.pentagon.us_per_instance"] = (
        pentagon.incl_ns / 1e3 / pentagon.attr_sum if pentagon and pentagon.attr_sum else 0)
    one = spans.aggregate(o.trace for wl in suite for job, o in zip(wl.jobs, traced[wl.name][1])
                          if o.trace and _pooled(job))
    two = spans.aggregate(o.trace for o in two_threads if o.trace)
    pmap2, pmap1 = two.get("_threads.pmap"), one.get("_threads.pmap")
    metrics["threads.pmap.t2_over_t1"] = (
        pmap2.incl_ns / pmap1.incl_ns if pmap2 and pmap1 and pmap1.incl_ns else 0)

    print(f"{'workload':<16}{'plain s':>9}{'traced s':>10}{'ratio':>7}  self time by group")
    for wl in suite:
        wall, outcomes = traced[wl.name]
        metrics[f"trace.overhead_ratio.{wl.name}"] = wall / plain[wl.name]
        target = layers.TARGETS.get(wl.name, ())
        groups = spans.group_self_times(spans.aggregate(o.trace for o in outcomes if o.trace),
                                        target)
        total = sum(groups.values()) or 1
        ranked = sorted(groups.items(), key=lambda kv: -kv[1])
        shown = ", ".join(f"{g} {v / total:.0%}" for g, v in ranked[:4])
        if target:
            metrics[f"trace.target_share.{wl.name}"] = groups.get("target", 0) / total
            verdict = "largest" if ranked[0][0] == "target" else "NOT LARGEST"
            shown += f"; target {'+'.join(target)} {verdict}"
        print(f"{wl.name:<16}{plain[wl.name]:>9.3f}{wall:>10.3f}{wall / plain[wl.name]:>7.2f}  {shown}")
    return metrics


def header(runner: Runner, seed: int) -> str:
    probe = subprocess.run(
        [sys.executable, "-c", "import nicholsforge._rat as r, nicholsforge._kernel as k; "
                               "print(r.RAT_BACKEND, k.KERNEL_NAME)"],
        env=runner.env(), cwd=runner.workdir, capture_output=True, text=True, timeout=60)
    rat, kernel = (probe.stdout.split() + ["?", "?"])[:2]
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=60)
        commit = git.stdout.strip() or commit
    return (f"# python {platform.python_version()} | rationals {rat} | kernel {kernel} | "
            f"nproc {os.cpu_count()} | commit {commit} | seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted({*workloads.BUILDERS, *workloads.BENCH_WORKLOADS}))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nicholsforge" / "cli.py").is_file():
        print(f"error: no nicholsforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), started + RUN_BUDGET_S)
        print(f"# perfbench workload {args.workload} trace {args.trace}")
        print(header(runner, args.seed))
        try:
            if args.trace:
                names = ["smoke"] if args.workload == "smoke" else list(workloads.PARTS)
                metrics = trace_suite(runner, names, args.seed)
                units = dict(layers.layer_metric_units(names))
            else:
                metrics = measure(runner, workloads.build(args.workload, args.seed), args.seconds)
                units = END_TO_END_UNITS
        except OutOfTime as err:
            print(f"error: {err}", file=sys.stderr)
            return 1

    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = runner.attempted, runner.failed
    print(f"error_rate: {failed}/{attempted} = {failed / max(attempted, 1):.4f} (failed/attempted jobs)")
    if args.trace:
        for name, unit in units.items():
            print(f"{name}: {metrics[name]} {unit}")
    result = {
        "correct": failed == 0 and not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
