"""Command-line surface: exit codes, JSON reports, file round trips."""

import json
import time

import pytest
from click.testing import CliRunner

from nicholsforge.cli import main

QP_DOC = {"type": "diagonal", "q": [["-1", "1"], ["1", "-1"]]}


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def qp_file(tmp_path):
    path = tmp_path / "qp.json"
    path.write_text(json.dumps(QP_DOC))
    return str(path)


@pytest.fixture()
def qp_hopf(tmp_path, runner, qp_file):
    out = tmp_path / "qp_hopf.json"
    result = runner.invoke(
        main, ["nichols", qp_file, "--max-degree", "6", "--emit-hopf", str(out)]
    )
    assert result.exit_code == 0, result.output
    return str(out)


def test_nichols_human_output(runner, qp_file):
    result = runner.invoke(main, ["nichols", qp_file, "--max-degree", "6"])
    assert result.exit_code == 0, result.output
    assert "finite" in result.output
    assert "1, 2, 1" in result.output or "[1, 2, 1]" in result.output


def test_nichols_json_report_shape(runner, qp_file):
    result = runner.invoke(
        main, ["nichols", qp_file, "--max-degree", "6", "--oracle-degree", "4", "--json"]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["command"] == "nichols"
    assert doc["input"].startswith("sha256:")
    assert doc["results"]["hilbert_series"] == [1, 2, 1]
    assert doc["results"]["total_dim"] == 4
    assert all(row["agree"] for row in doc["results"]["oracle"])
    assert "elapsed" not in json.dumps(doc)


def test_nichols_rejects_oracle_beyond_cutoff(runner, qp_file):
    result = runner.invoke(
        main, ["nichols", qp_file, "--max-degree", "4", "--oracle-degree", "6"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("max_degree, oracle_degree", [(4, -1), (4, 6), (10, 9)])
def test_bad_oracle_degree_is_refused_before_the_engine(runner, qp_file, monkeypatch,
                                                        max_degree, oracle_degree):
    calls = []
    monkeypatch.setattr("nicholsforge.cli.nichols_compute", lambda *args: calls.append(args))
    result = runner.invoke(main, ["nichols", qp_file, "--max-degree", str(max_degree),
                                  "--oracle-degree", str(oracle_degree)])
    assert result.exit_code == 2, result.output
    assert "--oracle-degree" in result.output
    assert calls == []


def test_runaway_cutoff_is_refused(runner, tmp_path):
    # four letters with unrelated rational q span the free algebra, whose
    # content (1, 1, 1, 2) has all 5!/2 = 60 orderings as candidates
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    q = [[str(p) for p in primes[4 * a : 4 * a + 4]] for a in range(4)]
    path = tmp_path / "free4.json"
    path.write_text(json.dumps({"type": "diagonal", "q": q}))
    started = time.monotonic()
    result = runner.invoke(main, ["nichols", str(path), "--max-degree", "30"])
    assert time.monotonic() - started < 1
    assert result.exit_code == 2, result.output
    assert "degree 5" in result.output and "60 candidate words" in result.output


def test_missing_input_file_is_usage_error(runner):
    result = runner.invoke(main, ["nichols", "no-such-file.json", "--max-degree", "4"])
    assert result.exit_code == 2


FILE_COMMANDS = [
    ["nichols", "--max-degree", "4"],
    ["verify"],
    ["gr", "--filtration", "radical"],
    ["degenerate", "--filtration", "coradical"],
    ["is-nichols"],
    ["fusion-verify"],
]


@pytest.mark.parametrize("top", ["[]", '"s"', "null"])
@pytest.mark.parametrize("command", FILE_COMMANDS, ids=lambda c: c[0])
def test_non_object_document_is_usage_error(runner, tmp_path, command, top):
    path = tmp_path / "doc.json"
    path.write_text(top)
    result = runner.invoke(main, [command[0], str(path), *command[1:]])
    assert result.exit_code == 2, result.output
    assert "JSON object" in result.output


@pytest.fixture()
def z2_file(tmp_path, runner):
    out = tmp_path / "z2.json"
    result = runner.invoke(main, ["fusion-gen", "--group", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return str(out)


@pytest.mark.parametrize("flag, env", [
    pytest.param(["--threads", "0"], {}, id="flag-0"),
    pytest.param([], {"NICHOLS_FORGE_THREADS": "0"}, id="env-0"),
    pytest.param([], {"NICHOLS_FORGE_THREADS": "abc"}, id="env-abc"),
])
@pytest.mark.parametrize("command", ["nichols", "fusion-verify"])
def test_bad_thread_count_is_usage_error(runner, qp_file, z2_file, command, flag, env):
    # nichols runs without --oracle-degree, so no thread pool is ever asked for
    args = {"nichols": ["nichols", qp_file, "--max-degree", "4"],
            "fusion-verify": ["fusion-verify", z2_file]}[command]
    result = runner.invoke(main, args + flag, env=env)
    assert result.exit_code == 2, result.output
    assert "Error" in result.output


def test_emit_hopf_refused_when_undetermined(runner, tmp_path):
    doc = tmp_path / "free.json"
    doc.write_text(json.dumps({"type": "diagonal", "q": [["1"]]}))
    result = runner.invoke(
        main,
        ["nichols", str(doc), "--max-degree", "4", "--emit-hopf", str(tmp_path / "x.json")],
    )
    assert result.exit_code == 2


def test_verify_emitted_structure(runner, qp_hopf):
    result = runner.invoke(main, ["verify", qp_hopf, "--json"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    axioms = doc["results"]["axioms"]
    assert all(axioms.values())
    assert doc["results"]["connected"] is True
    assert doc["results"]["coconnected"] is True


def test_gr_both_filtrations(runner, qp_hopf, tmp_path):
    for kind in ("radical", "coradical"):
        out = tmp_path / f"gr_{kind}.json"
        result = runner.invoke(
            main, ["gr", qp_hopf, "--filtration", kind, "--out", str(out), "--json"]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert all(doc["results"]["conditions"].values())
        assert all(doc["results"]["output_axioms"].values())
        # the emitted file is a valid structure in its own right
        check = CliRunner().invoke(main, ["verify", str(out)])
        assert check.exit_code == 0, check.output


def test_degenerate_matches_graded(runner, qp_hopf):
    result = runner.invoke(
        main,
        [
            "degenerate", qp_hopf,
            "--filtration", "radical",
            "--lambda-samples", "1,1/2,zeta(3)",
            "--json",
        ],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    res = doc["results"]
    assert res["limit_equals_associated_graded"] is True
    dims = res["primitive_dims"]
    assert len(set(dims[:-1])) == 1
    assert dims[-1] >= dims[0]


def test_degenerate_rows_skip_empty_samples(runner, qp_hopf):
    args = ["degenerate", qp_hopf, "--filtration", "coradical", "--lambda-samples", "1,,1/2"]
    human = runner.invoke(main, args)
    report = runner.invoke(main, args + ["--json"])
    assert human.exit_code == report.exit_code == 0, human.output
    res = json.loads(report.output)["results"]
    dims = res["primitive_dims"] + [res["limit_primitive_dim"]]
    rows = human.output.splitlines()[1:4]
    assert rows == [f"{label:<16} {d}" for label, d in zip(["1", "1/2", "limit"], dims)]


def _first_block(doc, kind, shape):
    return next(b for b in doc[kind] if (b["rows"], b["cols"]) == shape)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda doc: doc["unit"].update(rows=-1), id="negative-rows"),
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"].append([0, 9, "1"]),
                 id="column-outside"),
    pytest.param(lambda doc: _first_block(doc, "mul", (1, 1))["entries"].append([7, 0, "1"]),
                 id="row-outside"),
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"][0].__setitem__(2, "1/0"),
                 id="zero-denominator"),
])
def test_malformed_matrix_is_usage_error(runner, qp_hopf, edit):
    with open(qp_hopf) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(qp_hopf, "w") as fh:
        json.dump(doc, fh)
    result = runner.invoke(main, ["verify", qp_hopf])
    assert result.exit_code == 2, result.output
    assert "bad structure document" in result.output


def _sector(doc, label):
    return next(e for e in doc["sectors"] if e["label"] == label)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda doc: _sector(doc, [1, 0]).update(dim=2), id="dim-above-basis"),
    pytest.param(lambda doc: _sector(doc, [1, 0]).update(dim=-1, basis=[]), id="negative-dim"),
    pytest.param(lambda doc: _sector(doc, [1, 1]).update(dim=2, basis=["x1*x2", "x1*x2"]),
                 id="repeated-basis-label"),
    pytest.param(lambda doc: doc["sectors"].append(dict(_sector(doc, [0, 1]))),
                 id="repeated-sector"),
])
def test_malformed_sector_is_usage_error(runner, qp_hopf, edit):
    with open(qp_hopf) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(qp_hopf, "w") as fh:
        json.dump(doc, fh)
    result = runner.invoke(main, ["verify", qp_hopf])
    assert result.exit_code == 2, result.output
    assert "bad structure document" in result.output


def _mul_block(doc, key):
    return next(b for b in doc["mul"] if b["key"] == key)


ILL_FORMED_EDITS = [
    pytest.param(lambda doc: _mul_block(doc, [[0, 0], [0, 1]]).update(cols=2),
                 "has shape (1, 2), want (1, 1)", id="block-shape"),
    pytest.param(lambda doc: _mul_block(doc, [[0, 0], [0, 1]]).update(key=[[0, 0, 0], [0, 0]]),
                 "missing sector pair", id="key-rank"),
    pytest.param(lambda doc: _sector(doc, [1, 0])["degrees"].append(1),
                 "grading missing or wrong length at sector (1, 0)", id="degrees-too-long"),
]


def _edit_document(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("edit, problem", ILL_FORMED_EDITS)
@pytest.mark.parametrize("command", [
    ["gr", "--filtration", "radical"],
    ["degenerate", "--filtration", "coradical"],
    ["is-nichols"],
], ids=lambda c: c[0])
def test_ill_formed_structure_is_usage_error(runner, qp_hopf, command, edit, problem):
    _edit_document(qp_hopf, edit)
    result = runner.invoke(main, [command[0], qp_hopf, *command[1:]])
    assert result.exit_code == 2, result.output
    assert "bad structure document" in result.output and problem in result.output


@pytest.mark.parametrize("edit, problem", ILL_FORMED_EDITS)
def test_verify_reports_ill_formed_structure(runner, qp_hopf, edit, problem):
    _edit_document(qp_hopf, edit)
    result = runner.invoke(main, ["verify", qp_hopf])
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert lines[0].split() == ["well-formed", "FAIL"] and problem in lines[1]


def test_is_nichols_on_nichols_point(runner, qp_hopf):
    result = runner.invoke(main, ["is-nichols", qp_hopf, "--json"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["results"]["verdict"] == "nichols"


def test_fusion_gen_and_verify(runner, tmp_path):
    out = tmp_path / "z22.json"
    gen = runner.invoke(main, ["fusion-gen", "--group", "2,2", "--out", str(out)])
    assert gen.exit_code == 0, gen.output
    check = runner.invoke(main, ["fusion-verify", str(out), "--json"])
    assert check.exit_code == 0, check.output
    doc = json.loads(check.output)
    assert all(entry["passed"] for entry in doc["results"]["checks"])


@pytest.mark.parametrize("edit", [
    pytest.param(lambda doc: doc["fusion"].append([1, 1, 0, -1]), id="negative-multiplicity"),
    pytest.param(lambda doc: doc["fusion"].append([0, 4, 4, 1]), id="index-too-large"),
    pytest.param(lambda doc: doc["fusion"].append([0, -1, 1, 1]), id="index-negative"),
    pytest.param(lambda doc: doc.update(dual=[0, 1, 2, 7]), id="dual-index"),
    pytest.param(lambda doc: doc["assoc"].append({**doc["assoc"][0], "key": [9, 0, 0, 9, 9, 0]}),
                 id="assoc-key"),
    pytest.param(lambda doc: doc["braiding"].append({**doc["braiding"][0], "key": [0, 9, 9]}),
                 id="braiding-key"),
    pytest.param(lambda doc: doc["left_units"].append([9, "1"]), id="left-units-key"),
    pytest.param(lambda doc: doc["right_units"].append([-1, "1"]), id="right-units-key"),
    pytest.param(lambda doc: doc["ev"].append({**doc["ev"][0], "key": [9]}), id="ev-key"),
    pytest.param(lambda doc: doc["coev"].append({**doc["coev"][0], "key": [4]}), id="coev-key"),
    pytest.param(lambda doc: doc["ev"].append({**doc["ev"][0], "key": []}), id="ev-key-empty"),
    pytest.param(lambda doc: doc["assoc"].append({**doc["assoc"][0], "key": [0, 0, 0, 0, 0]}),
                 id="assoc-key-short"),
])
def test_bad_fusion_document_is_usage_error(runner, z2_file, edit):
    with open(z2_file) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(z2_file, "w") as fh:
        json.dump(doc, fh)
    result = runner.invoke(main, ["fusion-verify", z2_file])
    assert result.exit_code == 2, result.output
    assert "bad fusion document" in result.output


def test_json_reports_identical_across_thread_counts(runner, qp_file):
    args = ["nichols", qp_file, "--max-degree", "6", "--oracle-degree", "4", "--json"]
    one = runner.invoke(main, args + ["--threads", "1"])
    four = runner.invoke(main, args + ["--threads", "4"])
    assert one.exit_code == four.exit_code == 0
    assert one.output == four.output


def test_failed_check_exits_one(runner, tmp_path):
    # verify on a structure file with one corrupted block: exit 1, not 2
    import nicholsforge.formats as formats
    from nicholsforge.braided import DiagonalBraiding
    from nicholsforge.nichols import nichols_compute
    from nicholsforge.scalars import root_of_unity
    from nicholsforge.structconst import HopfStructure, from_nichols

    t = from_nichols(nichols_compute(DiagonalBraiding.from_entries([["-1"]]), 4))
    key, block = next(iter(t.mul.items()))
    bad_mul = dict(t.mul)
    bad_mul[key] = block.scale(root_of_unity(3, 1))
    broken = HopfStructure(t.obj, bad_mul, t.unit, t.cop, t.counit, t.antipode, t.grading)
    path = tmp_path / "broken.json"
    formats.save_document(str(path), formats.hopf_to_json(broken))

    result = runner.invoke(main, ["verify", str(path), "--json"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert not all(doc["results"]["axioms"].values())


def test_is_nichols_decides_preconditions_once(runner, qp_hopf, monkeypatch):
    from nicholsforge import dualize, filtration, structconst

    calls = {
        "check_connected": 0,
        "check_coconnected": 0,
        "dual_structure": 0,
        "primitive_sectors": 0,
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        for module in (structconst, dualize, filtration):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    result = runner.invoke(main, ["is-nichols", qp_hopf, "--json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["verdict"] == "nichols"
    # connectedness of the structure and of its dual, inside the one
    # coconnectedness check, which reuses the one dual; primitives once per side
    assert calls == {
        "check_connected": 2,
        "check_coconnected": 1,
        "dual_structure": 1,
        "primitive_sectors": 2,
    }


def test_is_nichols_refuses_disconnected_structure(runner, tmp_path):
    from tests_support import group_algebra_z2

    from nicholsforge.formats import hopf_to_json, save_document

    path = tmp_path / "kz2.json"
    save_document(str(path), hopf_to_json(group_algebra_z2()))
    result = runner.invoke(main, ["is-nichols", str(path)])
    assert result.exit_code == 1
    assert "criteria not applicable: structure is not connected and coconnected" in result.output


@pytest.mark.parametrize("kind", ["radical", "coradical"])
def test_filtration_refuses_disconnected_structure(runner, tmp_path, kind):
    from tests_support import group_algebra_z2

    from nicholsforge.formats import hopf_to_json, save_document

    path = tmp_path / "kz2.json"
    save_document(str(path), hopf_to_json(group_algebra_z2()))
    for command in (["gr"], ["degenerate", "--lambda-samples", "1"]):
        result = runner.invoke(main, command + [str(path), "--filtration", kind])
        assert result.exit_code == 1
        assert ("filtration unavailable: filtration needs a connected and coconnected structure"
                in result.output)


def test_zero_denominator_in_braiding_is_usage_error(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "diagonal", "q": [["1/0"]]}))
    result = runner.invoke(main, ["nichols", str(path), "--max-degree", "3"])
    assert result.exit_code == 2, result.output
    assert "zero denominator" in result.output
