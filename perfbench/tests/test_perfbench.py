"""Tests of the benchmark itself: known answers, metric names, spans.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import answers
import layers
import run
import spans
import workloads
from jobs import run_process

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- known answers ------------------------------------------------------------


def test_closed_form_series():
    assert answers.hilbert_series(workloads.A2_Z3.roots) == [1, 2, 4, 4, 5, 4, 4, 2, 1]
    assert answers.hilbert_series(workloads.A3_M1.roots)[:7] == [1, 3, 5, 8, 10, 10, 10]
    assert answers.hilbert_series(workloads.QP.roots) == [1, 2, 1]
    assert answers.hilbert_series(workloads.Z3_Z3.roots) == [1, 2, 3, 2, 1]
    for n in range(2, 8):
        assert answers.hilbert_series(workloads._line("l", n).roots) == [1] * n


def nichols_report(dims, termination, total, oracle_rows):
    series = dims if total is None else [d for d in dims if d]
    return {"command": "nichols", "results": {
        "rank": 1, "dims": dims, "termination": termination, "hilbert_series": series,
        "total_dim": total, "oracle": oracle_rows, "relations": [[3, 1]]}}


def test_nichols_check_accepts_the_known_answer_and_rejects_others():
    roots = workloads._line("line3", 3).roots
    rows = [{"agree": True, "degree": d, "engine": e, "oracle": e}
            for d, e in enumerate([1, 1, 1, 0])]
    good = nichols_report([1, 1, 1, 0], "finite", 3, rows)
    assert answers.check_nichols(good, roots, 3, 3) == []

    wrong_dims = nichols_report([1, 1, 2, 0], "finite", 4, rows)
    assert answers.check_nichols(wrong_dims, roots, 3, 3)
    disagree = json.loads(json.dumps(good))
    disagree["results"]["oracle"][2].update(agree=False, oracle=2)
    assert answers.check_nichols(disagree, roots, 3, 3)
    undetermined = nichols_report([1, 1, 1], "undetermined-at-cutoff", None, rows[:3])
    assert answers.check_nichols(undetermined, roots, 2, 2) == []


def test_fusion_check_counts_instances():
    n = 4
    checks = [{"check": c, "passed": True, "failures": [], "checked": k}
              for c, k in [("well-formed", 1), ("pentagon", n ** 4), ("units", n ** 2),
                           ("duality", 2 * n), ("braiding", 2 * n ** 3)]]
    report = {"results": {"checks": checks}}
    assert answers.check_fusion_verify(report, n) == []
    checks[1]["checked"] -= 1
    assert answers.check_fusion_verify(report, n)
    checks[1]["checked"] += 1
    checks[4]["passed"] = False
    assert answers.check_fusion_verify(report, n)


def test_filtration_layers_follow_the_degree_grading():
    layers_ = answers._layer_dims(workloads.QP.roots, "coradical")
    assert layers_[1] == {"index": 1, "dims": [[[0, 0], 1], [[0, 1], 1], [[1, 0], 1]]}
    radical = answers._layer_dims(workloads.QP.roots, "radical")
    assert radical[0] == {"index": -2, "dims": [[[1, 1], 1]]}


# -- seeded inputs ------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    for name in [*workloads.BUILDERS, *workloads.BENCH_WORKLOADS]:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a.files == b.files
        assert [j.args for j in a.jobs] == [j.args for j in b.jobs]
    seeds = {json.dumps(workloads.build("oracle-lines", s).files, sort_keys=True)
             for s in range(8)}
    assert len(seeds) > 1
    assert workloads.build("fusion-center", 1).files == workloads.build("fusion-center", 2).files


def test_timed_workloads_join_their_parts():
    for name, parts in workloads.BENCH_WORKLOADS.items():
        joined = workloads.build(name, 5)
        built = [workloads.build(part, 5) for part in parts]
        assert [j.args for j in joined.jobs] == [j.args for b in built for j in b.jobs]
        assert [j.args for j in joined.setup] == [j.args for b in built for j in b.setup]
        assert len({j.key for j in joined.jobs}) == len(joined.jobs)
        assert len(joined.files) == sum(len(b.files) for b in built)
        assert joined.files == {k: v for b in built for k, v in b.files.items()}


def test_conjugate_pair_negates_every_exponent():
    import random

    first, conj = workloads.braiding_documents(workloads.A2_Z3, random.Random(5), True)

    def exponent(text):
        return 0 if text == "1" else int(text.split("^")[1]) if "^" in text else 1

    for row_a, row_b in zip(first["q"], conj["q"]):
        for a, b in zip(row_a, row_b):
            assert (exponent(a) + exponent(b)) % 3 == 0


# -- process runner -----------------------------------------------------------


def test_timeout_kills_the_job(tmp_path):
    result = run_process([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path,
                         os.environ, 0.5)
    assert result.timed_out and result.exit_code != 0
    assert result.wall_s < 10


def test_wrong_answers_and_failed_commands_count_as_failures(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    wl = workloads.Workload("w", {}, [], [])
    (tmp_path / "w").mkdir()
    wrong = workloads.Job("gen", ("fusion-gen", "--group", "2", "--out", "z.json", "--json"),
                          lambda report: ["wrong answer"])
    missing = workloads.Job("bad", ("nichols", "missing.json", "--max-degree", "3", "--json"),
                            lambda report: [])
    right = workloads.Job("gen", wrong.args, partial(answers.check_fusion_gen, factors=(2,)))
    for job in (wrong, missing, right):
        runner.run(wl, job)
    assert (runner.attempted, runner.failed) == (3, 2)


# -- the command --------------------------------------------------------------


def test_smoke_run_reports_every_end_to_end_metric():
    proc = run_bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in want.items():
        assert f"{name}: " in proc.stdout and f" {unit} " in proc.stdout


def test_traced_smoke_run_reports_the_layer_metrics():
    proc = run_bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"], proc.stderr
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == dict(layers.layer_metric_units(["smoke"]))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fusion.verify_pentagon.checked"] == 4 ** 4
    assert metrics["nichols.symmetrizer_rank.calls"] > 0


def test_benchmark_json_lists_the_layer_metrics():
    want = layers.layer_metric_units(workloads.PARTS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == want
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BENCH_WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- spans ---------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ("nichols", "line2.json", "--max-degree", "3", "--oracle-degree", "3", "--threads", "2",
     "--json"),
    ("is-nichols", "qp_hopf.json", "--json"),
])
def test_spans_nest(tmp_path, args):
    wl = workloads.build("smoke", 1)
    workloads.write_inputs(wl, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    emit = next(j for j in wl.setup if "--emit-hopf" in j.args)
    plain = subprocess.run([sys.executable, "-m", "nicholsforge.cli", *emit.args], cwd=tmp_path,
                           env=env, capture_output=True, timeout=60)
    assert plain.returncode == 0
    out = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(HERE / "launch.py"), "spans", str(out), "job-1",
                             "--", *args], cwd=tmp_path, env=env, capture_output=True, timeout=60)
    untraced = subprocess.run([sys.executable, "-m", "nicholsforge.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, timeout=60)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == untraced.stdout
    trace = spans.load(out)
    assert trace.job == "job-1" and trace.spans
    assert spans.nesting_problems(trace.spans) == []
    roots = [s for s in trace.spans if s[1] == 0]
    assert [s[2] for s in roots] == [f"cli.{args[0]}"]
    selfs = spans.self_times(trace.spans)
    assert all(0 <= selfs[s[0]] <= s[4] - s[3] for s in trace.spans)
    assert all(st.self_ns <= st.incl_ns for st in spans.aggregate([trace]).values())


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = (1, 0, "p", 0, 100, None)
    a = (2, 1, "a", 10, 50, None)
    b = (3, 1, "b", 30, 70, None)  # overlaps a, as pool workers do
    assert spans.self_times([parent, a, b])[1] == 100 - 60
    assert spans.nesting_problems([parent, a, b]) == []
    assert spans.nesting_problems([parent, (4, 1, "c", 90, 120, None)])
