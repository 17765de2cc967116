"""Command-line surface: exit codes, JSON reports, file round trips."""

import json

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
