"""The benchmark scripts still run against, and still name, the current package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "kernel_bench.py"
FUSION_BENCH = ROOT / "benchmarks" / "fusion_bench.py"
LAYERS = ROOT / "perfbench" / "layers.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_bench_smoke(capsys):
    module = _load("kernel_bench", BENCH)
    assert module.main(["--size", "4", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "matrix 4 x 6" in out
    assert "rref" in out and "mul x4000" in out


def test_fusion_bench_smoke(capsys):
    module = _load("fusion_bench", FUSION_BENCH)
    assert module.main(["--quick", "--repeat", "1", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ms per stage: median of 1 rounds, fastest of 1 passes each"
    assert lines[1].split() == ["center", "load", "well_formed", "verify_pentagon",
                                "verify_units", "verify_duality", "verify_braiding"]
    assert [line.split()[0] for line in lines[2:]] == ["z2", "z3"]


def _perfbench_targets():
    layers = _load("perfbench_layers", LAYERS)
    targets = [(module, path) for module, path, _, _ in layers.SPANS]
    targets += [(module, path) for module, path, _ in layers.COUNTS]
    targets.append(layers.PMAP[:2])
    return targets


@pytest.mark.parametrize("module_name, path", _perfbench_targets())
def test_perfbench_targets_resolve(module_name, path):
    # the traced benchmark wraps these names; a rename must not go unnoticed
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(obj, part), f"{module_name}.{path}: no attribute {part}"
        obj = getattr(obj, part)
    assert callable(obj)


def test_perfbench_drives_the_command_line_it_expects(tmp_path, monkeypatch, capsys):
    # launch.py runs main.main(args=..., prog_name=...), and the tracer
    # rebinds each main.commands[name].callback to a wrapper around it
    from nicholsforge import cli

    layers = _load("perfbench_layers", LAYERS)
    assert set(cli.main.commands) == set(layers.CLI_COMMANDS)

    command = cli.main.commands["fusion-gen"]
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    original = command.callback
    monkeypatch.setattr(command, "callback", wrapper)
    out = tmp_path / "z2.json"
    with pytest.raises(SystemExit) as stop:
        cli.main.main(args=["fusion-gen", "--group", "2", "--out", str(out), "--json"],
                      prog_name="nicholsforge")
    assert stop.value.code == 0
    assert [call["group"] for call in calls] == ["2"] and out.is_file()
    assert '"command":"fusion-gen"' in capsys.readouterr().out

    # the benchmark's warm-up job
    with pytest.raises(SystemExit) as stop:
        cli.main.main(args=["--help"], prog_name="nicholsforge")
    assert stop.value.code == 0
