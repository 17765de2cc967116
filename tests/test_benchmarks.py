"""The scripts under benchmarks/ still run against the current kernel."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "kernel_bench.py"


def test_kernel_bench_smoke(capsys):
    spec = importlib.util.spec_from_file_location("kernel_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--size", "4", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "matrix 4 x 6" in out
    assert "rref" in out and "mul x4000" in out
