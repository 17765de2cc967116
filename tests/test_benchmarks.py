"""The benchmark scripts still run against, and still name, the current package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "kernel_bench.py"
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
