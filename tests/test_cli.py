"""Command-line surface: exit codes, JSON reports, file round trips."""

import hashlib
import json
import time
from pathlib import Path

import pytest
from tests_support import CliRunner

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
def count_calls(monkeypatch):
    """Wrap functions by name wherever the given modules hold them.

    Returns, per name, the list of first arguments the calls were made with.
    """

    def count(names, modules):
        calls = {name: [] for name in names}

        def counted(seen, fn):
            def wrapper(*args, **kwargs):
                seen.append(args[0] if args else None)
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(calls[name], getattr(module, name)))
        return calls

    return count


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
    assert doc["input"] == "sha256:" + hashlib.sha256(Path(qp_file).read_bytes()).hexdigest()
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
    monkeypatch.setattr("nicholsforge.nichols.nichols_compute", lambda *args: calls.append(args))
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
    pytest.param(["--threads", "1_0"], {}, id="flag-underscore"),
    pytest.param([], {"NICHOLS_FORGE_THREADS": "\u0662"}, id="env-arabic-indic-digit"),
])
@pytest.mark.parametrize("command", ["nichols", "fusion-verify"])
def test_bad_thread_count_is_usage_error(runner, qp_file, z2_file, command, flag, env):
    # nichols runs without --oracle-degree, so no thread pool is ever asked for
    args = {"nichols": ["nichols", qp_file, "--max-degree", "4"],
            "fusion-verify": ["fusion-verify", z2_file]}[command]
    result = runner.invoke(main, args + flag, env=env)
    assert result.exit_code == 2, result.output
    assert "Error" in result.output


@pytest.mark.parametrize("text, code", [("\u0662", 2), ("2_0", 2), (" 2 ", 0), ("+2", 0)],
                         ids=["arabic-indic-digit", "underscore", "spaces", "plus"])
@pytest.mark.parametrize("option", ["--max-degree", "--oracle-degree", "--group"])
def test_command_line_integers_are_ascii_digits(runner, qp_file, tmp_path, option, text, code):
    # the grammar of integers in documents: int() alone would read these as 2 and 20
    out = tmp_path / "z2.json"
    args = {
        "--max-degree": ["nichols", qp_file, "--max-degree", text],
        "--oracle-degree": ["nichols", qp_file, "--max-degree", "6", "--oracle-degree", text],
        "--group": ["fusion-gen", "--group", text, "--out", str(out)],
    }[option]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output


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
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"][0].__setitem__(2, True),
                 id="boolean-entry"),
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"][0].__setitem__(
        2, "1_000"), id="underscore-in-digits"),
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"][0].__setitem__(
        2, "\u0663"), id="non-ascii-digit"),
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"][0].__setitem__(
        2, "zeta(\u0663)"), id="non-ascii-conductor"),
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"][0].__setitem__(
        2, {"conductor": True, "coeffs": ["1"]}), id="boolean-conductor"),
    pytest.param(lambda doc: _first_block(doc, "antipode", (1, 1))["entries"][0].__setitem__(
        2, {"conductor": 2, "coeffs": [False, True]}), id="boolean-coefficient"),
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


def _set_first(values, old, new):
    values[values.index(old)] = new


# Every place a structure document holds an integer, set to `value` where it
# held 1 or 0; int() would read True as 1, False as 0 and 0.5 as 0.
STRUCTURE_INTEGER_SITES = [
    pytest.param(lambda doc, value: doc["unit"].update(rows=value), id="matrix-rows"),
    pytest.param(lambda doc, value: doc["counit"].update(cols=value), id="matrix-cols"),
    pytest.param(lambda doc, value: doc["unit"]["entries"][0].__setitem__(0, value),
                 id="entry-row"),
    pytest.param(lambda doc, value: doc["unit"]["entries"][0].__setitem__(1, value),
                 id="entry-column"),
    pytest.param(lambda doc, value: _sector(doc, [0, 0]).update(label=[value, value]),
                 id="sector-label"),
    pytest.param(lambda doc, value: _sector(doc, [0, 0]).update(dim=value), id="sector-dim"),
    pytest.param(lambda doc, value: _sector(doc, [1, 0]).update(degrees=[value]), id="degree"),
    pytest.param(lambda doc, value: _set_first(_mul_block(doc, [[0, 0], [0, 1]])["key"][0], 0,
                                               value), id="mul-key"),
    pytest.param(lambda doc, value: _set_first(doc["cop"][0]["key"][1], 0, value), id="cop-key"),
    pytest.param(lambda doc, value: _set_first(doc["antipode"][0]["key"], 0, value),
                 id="antipode-key"),
]


@pytest.mark.parametrize("value", [True, False, 0.5], ids=["true", "false", "half"])
@pytest.mark.parametrize("edit", STRUCTURE_INTEGER_SITES)
def test_non_integer_in_structure_document_is_usage_error(runner, qp_hopf, edit, value):
    _edit_document(qp_hopf, lambda doc: edit(doc, value))
    result = runner.invoke(main, ["verify", qp_hopf])
    assert result.exit_code == 2, result.output
    assert "bad structure document" in result.output and "must be an integer" in result.output


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


FUSION_INTEGER_SITES = [
    pytest.param(lambda doc, value: doc.update(size=value), id="size"),
    pytest.param(lambda doc, value: doc["fusion"][0].__setitem__(0, value), id="fusion-index"),
    pytest.param(lambda doc, value: doc["fusion"][0].__setitem__(3, value),
                 id="fusion-multiplicity"),
    pytest.param(lambda doc, value: doc["dual"].__setitem__(0, value), id="dual"),
    pytest.param(lambda doc, value: doc["assoc"][0]["key"].__setitem__(0, value), id="assoc-key"),
    pytest.param(lambda doc, value: doc["braiding"][0]["key"].__setitem__(0, value),
                 id="braiding-key"),
    pytest.param(lambda doc, value: doc["left_units"][0].__setitem__(0, value),
                 id="left-units-key"),
    pytest.param(lambda doc, value: doc["ev"][0]["key"].__setitem__(0, value), id="ev-key"),
    pytest.param(lambda doc, value: doc["ev"][0]["entries"][0].__setitem__(0, value),
                 id="ev-entry-row"),
]


@pytest.mark.parametrize("value", [True, False, 0.5], ids=["true", "false", "half"])
@pytest.mark.parametrize("edit", FUSION_INTEGER_SITES)
def test_non_integer_in_fusion_document_is_usage_error(runner, z2_file, edit, value):
    _edit_document(z2_file, lambda doc: edit(doc, value))
    result = runner.invoke(main, ["fusion-verify", z2_file])
    assert result.exit_code == 2, result.output
    assert "bad fusion document" in result.output and "must be an integer" in result.output


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


def test_is_nichols_decides_preconditions_once(runner, qp_hopf, count_calls):
    from nicholsforge import cli, dualize, filtration, structconst

    names = ("verify_axioms", "check_connected", "check_coconnected", "dual_structure",
             "primitive_sectors", "filtration_conditions")
    seen = count_calls(names, (cli, structconst, dualize, filtration))
    result = runner.invoke(main, ["is-nichols", qp_hopf, "--json"])
    calls = {name: len(args) for name, args in seen.items()}
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["verdict"] == "nichols"
    # the axioms once; connectedness of the structure and of its dual, inside
    # the one coconnectedness check, which reuses the one dual; primitives once
    # per side; the filtration conditions never, since the axioms imply them
    assert calls == {
        "verify_axioms": 1,
        "check_connected": 2,
        "check_coconnected": 1,
        "dual_structure": 1,
        "primitive_sectors": 2,
        "filtration_conditions": 0,
    }


def test_degenerate_builds_the_split_and_the_limit_once(runner, qp_hopf, count_calls):
    from nicholsforge import filtration

    seen = count_calls(("split_basis", "degenerate_limit", "associated_graded"), (filtration,))
    result = runner.invoke(main, ["degenerate", qp_hopf, "--filtration", "coradical",
                                  "--lambda-samples", "1,1/2", "--json"])
    calls = {name: len(args) for name, args in seen.items()}
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["limit_equals_associated_graded"]
    # associated_graded still builds the graded structure itself, only the
    # split is shared with the limit it is compared against
    assert calls == {"split_basis": 1, "degenerate_limit": 1, "associated_graded": 1}


@pytest.mark.parametrize("command, built", [
    (["verify"], 1),
    (["gr", "--filtration", "radical"], 2),
    (["gr", "--filtration", "coradical"], 2),
    (["degenerate", "--filtration", "coradical", "--lambda-samples", "1,1/2"], 2),
    (["is-nichols"], 1),
])
def test_structure_commands_build_each_dual_once(runner, qp_hopf, count_calls, command, built):
    from nicholsforge import dualize, filtration, structconst

    seen = count_calls(("dual_structure", "augmentation_powers"), (structconst, dualize, filtration))
    result = runner.invoke(main, [command[0], qp_hopf, *command[1:], "--json"])
    assert result.exit_code == 0, result.output
    # the input's dual, kept by the input for every check that needs it; gr
    # and degenerate also verify the structure they build, on its own dual
    dualized = seen["dual_structure"]
    assert len(dualized) == len({id(t) for t in dualized}) == built
    # the powers of the input and of its dual, once each, however many
    # connectedness checks and filtrations read them
    powers = seen["augmentation_powers"]
    assert len(powers) == len({id(t) for t in powers}) == 2


def test_verify_reads_sectors_of_unequal_dimension_at_opposite_labels(runner, tmp_path):
    # graded by charge, the exterior algebra on three letters has sector 1
    # of dimension 1 and sector -1 of dimension 3
    from tests_support import exterior_by_charge

    from nicholsforge.formats import hopf_to_json, save_document

    path = tmp_path / "exterior.json"
    save_document(str(path), hopf_to_json(exterior_by_charge(3)))
    result = runner.invoke(main, ["verify", str(path), "--json"])
    assert result.exit_code == 0, result.output
    assert all(json.loads(result.output)["results"]["axioms"].values())


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


@pytest.mark.parametrize("doc, problem", [
    pytest.param({"type": "diagonal", "q": [[True]]}, "cannot parse scalar", id="boolean-entry"),
    pytest.param({"type": "diagonal", "q": [[{"conductor": True, "coeffs": ["1"]}]]},
                 "booleans are not numbers", id="boolean-conductor"),
    pytest.param({"type": "diagonal", "q": []}, "braiding matrix q is empty", id="empty-q"),
    pytest.param({"type": "yetter-drinfeld-abelian", "group": [2], "points": []},
                 "braiding matrix q is empty", id="no-points"),
    pytest.param({"type": "diagonal", "q": [["zeta(100000000)"]]},
                 "beyond the largest supported conductor, 512", id="huge-conductor"),
    pytest.param({"type": "diagonal", "q": [["zeta(997)", "zeta(991)"], ["1", "-1"]]},
                 "beyond the largest supported conductor, 512", id="conductor-past-the-bound"),
])
def test_boolean_or_empty_braiding_is_usage_error(runner, tmp_path, doc, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["nichols", str(path), "--max-degree", "3"])
    assert result.exit_code == 2, result.output
    assert "bad braiding document" in result.output and problem in result.output


@pytest.mark.parametrize("value", [True, False, 0.5], ids=["true", "false", "half"])
@pytest.mark.parametrize("site", ["group-order", "group-exponent"])
def test_non_integer_in_yetter_drinfeld_braiding_is_usage_error(runner, tmp_path, site, value):
    doc = {"type": "yetter-drinfeld-abelian", "group": [3],
           "points": [{"g": [1], "chi": ["zeta(3)"]}]}
    if site == "group-order":
        doc["group"] = [value]
    else:
        doc["points"][0]["g"] = [value]
    path = tmp_path / "yd.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["nichols", str(path), "--max-degree", "3"])
    assert result.exit_code == 2, result.output
    assert "bad braiding document" in result.output and "must be an integer" in result.output


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["nichols", "gr", "degenerate", "fusion-gen"])
def test_unwritable_output_is_usage_error(runner, qp_file, qp_hopf, tmp_path, command, target):
    out = str(tmp_path / target)
    args = {
        "nichols": ["nichols", qp_file, "--max-degree", "6", "--emit-hopf", out],
        "gr": ["gr", qp_hopf, "--filtration", "radical", "--out", out],
        "degenerate": ["degenerate", qp_hopf, "--filtration", "coradical", "--out", out],
        "fusion-gen": ["fusion-gen", "--group", "2", "--out", out],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"cannot write {out}: " in result.output


def _mix_conductors(doc):
    # x1 x2 and x2 x1 span one sector, where the square of the counit kernel adds them
    blocks = {tuple(map(tuple, block["key"])): block for block in doc["mul"]}
    blocks[(0, 1), (1, 0)]["entries"][0][2] = "zeta(509)"
    blocks[(1, 0), (0, 1)]["entries"][0][2] = "zeta(503)"


# (input, arguments after it): the input names a field past the bound, or two
# admitted fields meet in Q(zeta_(509 * 503)) during the computation
CONDUCTOR_CASES = {
    "lambda": ("qp", ["degenerate", "--filtration", "coradical",
                      "--lambda-samples", "zeta(100000000)"]),
    "lambda-power": ("qp", ["degenerate", "--filtration", "coradical",
                            "--lambda-samples", "1,zeta(100000000)^99999999"]),
    "nichols-lcm": ("braiding", ["nichols", "--max-degree", "4"]),
    "verify-lcm": ("mixed", ["verify"]),
    "gr-lcm": ("mixed", ["gr", "--filtration", "radical"]),
    "is-nichols-lcm": ("mixed", ["is-nichols"]),
}


@pytest.mark.parametrize("case", sorted(CONDUCTOR_CASES))
def test_field_beyond_the_conductor_bound_is_usage_error(runner, qp_hopf, tmp_path, case):
    source, args = CONDUCTOR_CASES[case]
    path = qp_hopf
    if source == "mixed":
        _edit_document(path, _mix_conductors)
    if source == "braiding":
        path = tmp_path / "lcm.json"
        path.write_text(json.dumps({"type": "diagonal",
                                    "q": [["zeta(509)", "1"], ["1", "zeta(503)"]]}))
    started = time.monotonic()
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert time.monotonic() - started < 5
    assert result.exit_code == 2, result.output
    assert "beyond the largest supported conductor, 512" in result.output


@pytest.mark.parametrize("group, order", [("1000000", 1000000), ("12", 12), ("2,2,2,2", 16)])
def test_oversized_center_is_usage_error(runner, tmp_path, group, order):
    started = time.monotonic()
    result = runner.invoke(main, ["fusion-gen", "--group", group, "--out", str(tmp_path / "c.json")])
    assert time.monotonic() - started < 1
    assert result.exit_code == 2, result.output
    assert f"group of order {order} has {order * order} simples, above the bound of 64" in result.output
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("samples", ["0", "1,0/5", " , "], ids=["zero", "zero-fraction", "blank"])
def test_empty_or_zero_lambda_samples_are_refused_before_the_filtration(runner, qp_hopf,
                                                                        monkeypatch, samples):
    calls = []
    monkeypatch.setattr("nicholsforge.cli._build_filtration", lambda *args: calls.append(args))
    result = runner.invoke(main, ["degenerate", qp_hopf, "--filtration", "radical",
                                  "--lambda-samples", samples])
    assert result.exit_code == 2, result.output
    assert "bad --lambda-samples: give one or more values, none of them zero" in result.output
    assert calls == []


A2_MINUS_ONE = [["-1", "-1"], ["1", "-1"]]


@pytest.fixture()
def a2_hopf(tmp_path, runner):
    braiding = tmp_path / "a2.json"
    braiding.write_text(json.dumps({"type": "diagonal", "q": A2_MINUS_ONE}))
    out = tmp_path / "a2_hopf.json"
    result = runner.invoke(
        main, ["nichols", str(braiding), "--max-degree", "5", "--emit-hopf", str(out)]
    )
    assert result.exit_code == 0, result.output
    return str(out)


def test_structure_commands_refuse_non_hopf_input_without_traceback(runner, a2_hopf):
    # without the product of sectors (0, 1) and (1, 0) the structure stays
    # connected and coconnected, but its radical filtration is not multiplicative
    _edit_document(a2_hopf, lambda doc: _mul_block(doc, [[0, 1], [1, 0]]).update(entries=[]))
    runs = {
        "is-nichols": runner.invoke(main, ["is-nichols", a2_hopf]),
        "gr": runner.invoke(main, ["gr", a2_hopf, "--filtration", "radical"]),
        "degenerate": runner.invoke(main, ["degenerate", a2_hopf, "--filtration", "radical"]),
    }
    for command, result in runs.items():
        assert result.exit_code == 1, (command, result.output)
        assert isinstance(result.exception, SystemExit), (command, result.exception)
    assert runs["is-nichols"].output.startswith("Error: criteria not applicable: assoc at ")
    assert "multiplicative     FAIL" in runs["gr"].output
    assert runs["degenerate"].output.startswith(
        "Error: filtration unavailable: radical filtration violates multiplicative, "
    )


def test_is_nichols_refuses_every_structure_that_fails_the_axioms(runner, a2_hopf, tmp_path):
    from tests_support import deleted, doubled, hopf_entry_sites, mutate_hopf

    from nicholsforge.braided import DiagonalBraiding
    from nicholsforge.formats import hopf_to_json, save_document
    from nicholsforge.nichols import nichols_compute
    from nicholsforge.structconst import from_nichols

    # the emitted A2-at-(-1) file with every antipode block but the first deleted
    _edit_document(a2_hopf, lambda doc: doc.update(antipode=doc["antipode"][:1]))
    inputs = {"antipode-truncated": a2_hopf}
    # every nonzero entry of the quantum plane and of A2 at -1, doubled or deleted
    for name, entries in (("qp", QP_DOC["q"]), ("a2", A2_MINUS_ONE)):
        t = from_nichols(nichols_compute(DiagonalBraiding.from_entries(entries), 6))
        for edit in (doubled, deleted):
            for k, site in enumerate(hopf_entry_sites(t)):
                path = str(tmp_path / f"{name}_{edit.__name__}_{k}.json")
                save_document(path, hopf_to_json(mutate_hopf(t, site, edit)))
                inputs[(name, edit.__name__, site)] = path
    assert len(inputs) == 1 + 188
    accepted = []
    for key, path in inputs.items():
        result = runner.invoke(main, ["is-nichols", path])
        lines = result.output.splitlines()
        if not (result.exit_code == 1 and len(lines) == 1
                and lines[0].startswith("Error: criteria not applicable: ")):
            accepted.append((key, result.exit_code, result.output))
    assert not accepted, accepted[:3]


# command lines that argparse refuses; QP and HOPF stand for the input files
ARGUMENT_ERRORS = {
    "no-command": ["--json"],
    "unknown-command": ["frobnicate", "HOPF"],
    "missing-positional": ["verify", "--json"],
    "missing-required-option": ["gr", "HOPF"],
    "unknown-option": ["verify", "HOPF", "--frobnicate"],
    "extra-argument": ["verify", "HOPF", "extra"],
    "non-integer": ["nichols", "QP", "--max-degree", "six"],
    "bad-choice": ["gr", "HOPF", "--filtration", "sideways"],
    "option-without-value": ["nichols", "QP", "--max-degree"],
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_argument_errors_exit_two_with_one_error_line(runner, qp_file, qp_hopf, case):
    # the contract only, not the wording: exit 2, no traceback, one Error line
    files = {"QP": qp_file, "HOPF": qp_hopf}
    result = runner.invoke(main, [files.get(arg, arg) for arg in ARGUMENT_ERRORS[case]])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1, result.output


def test_option_values_may_start_with_a_minus(runner, qp_file, qp_hopf):
    result = runner.invoke(main, ["degenerate", qp_hopf, "--filtration", "coradical",
                                  "--lambda-samples", "-1/2", "--json"])
    assert result.exit_code == 0, result.output
    samples = json.loads(result.output)["results"]["samples"]
    assert samples == [{"coeffs": ["-1/2"], "conductor": 1}]
    result = runner.invoke(main, ["nichols", qp_file, "--max-degree", "4",
                                  "--oracle-degree", "-1"])
    assert result.exit_code == 2, result.output
    assert "cannot be negative" in result.output


def test_every_command_has_help(runner):
    for name in sorted(main.commands):
        result = runner.invoke(main, [name, "--help"])
        assert result.exit_code == 0, (name, result.output)
    assert runner.invoke(main, ["--help"]).exit_code == 0
