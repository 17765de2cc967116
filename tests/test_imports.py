"""What the code imports: every name is used, and start-up stays lean."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

import nicholsforge

PACKAGE = Path(nicholsforge.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _listed_names(tree: ast.Module) -> Optional[list]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _unused_imports(path: Path, base: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    used = set(_listed_names(tree) or ())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    where = path.relative_to(base)
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_modules_have_no_unused_imports():
    # the package, and the tests and benchmarks beside it
    modules = [(path, PACKAGE.parent) for path in sorted(PACKAGE.rglob("*.py"))]
    for folder in ("tests", "benchmarks"):
        modules += [(path, ROOT) for path in sorted((ROOT / folder).glob("*.py"))]
    unused = [entry for path, base in modules for entry in _unused_imports(path, base)]
    assert unused == []


def test_private_module_level_helpers_are_used():
    # a `_name` function or class defined at module level in the package is
    # referenced somewhere in the package, so a refactor leaves none behind
    defined, referenced = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append(f"{path.relative_to(PACKAGE.parent)}:{node.lineno} {node.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    assert [entry for entry in defined if entry.split()[-1] not in referenced] == []


# Library API that no command calls and the acceptance tests do.
_ACCEPTANCE_API = {
    "verify_all",              # fusion: every fusion check in one call
    "lambda_exponent_report",  # filtration: the exponents of a split, entry by entry
    "graded_dual",             # dualize: the dual regraded in positive degrees
}


def test_public_functions_and_methods_are_reached_from_the_package():
    # code no command runs leaves the package: every public module-level
    # function and every method (dunders aside) is referenced in the package,
    # or is a command body, a name the traced benchmark wraps, or listed above
    from nicholsforge import cli

    layers = _load_perfbench_layers()
    targets = {path.split(".")[-1] for _, path, *_ in (*layers.SPANS, *layers.COUNTS)}
    targets.add(layers.PMAP[1])
    bodies = {name.replace("-", "_") for name in cli.main.commands}
    allowed = bodies | targets | _ACCEPTANCE_API
    defined, referenced = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        where = path.relative_to(PACKAGE.parent)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append(f"{where}:{node.lineno} {node.name}")
            elif isinstance(node, ast.ClassDef):
                defined += [f"{where}:{item.lineno} {node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    names = {entry.split()[-1].split(".")[-1] for entry in defined}
    assert _ACCEPTANCE_API <= names
    assert [entry for entry in defined
            if entry.split()[-1].split(".")[-1] not in referenced | allowed] == []


def _load_perfbench_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_modules_import_no_private_names_of_each_other():
    # `from .x import _name` reaches into another module's internals; the
    # private modules themselves (`._kernel`, `._rat`) may be imported
    reached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith(
                    "nicholsforge")):
                reached += [f"{path.relative_to(PACKAGE.parent)}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert reached == []


def test_all_lists_every_public_name_and_only_names_that_exist():
    # a module that declares __all__ lists each public function and class it
    # defines at module level, so other modules never reach past it, and
    # every name it lists resolves on the imported module
    problems = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        listed = _listed_names(tree)
        if listed is None:
            continue
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        problems += [f"{name}.{node.name} is not listed" for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and not node.name.startswith("_") and node.name not in listed]
        problems += [f"{name}.{entry} does not resolve" for entry in listed
                     if not hasattr(module, entry)]
    assert problems == []


def test_cli_start_up_leaves_the_thread_pool_unimported():
    # the pool module costs about 10 ms per process and only --threads > 1 uses it
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, nicholsforge.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.stdout.strip() == "False", result.stderr


def test_cli_start_up_leaves_the_computing_layers_unimported():
    # each command imports the layers it runs, so a fusion job never
    # compiles the Hopf structure layers and a structure job never the
    # fusion checkers
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    layers = ["fusion", "structconst", "filtration", "dualize", "nichols", "freehopf"]
    probe = ("import sys, nicholsforge.cli; "
             f"print([m for m in {layers!r} if 'nicholsforge.' + m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.stdout.strip() == "[]", result.stderr


# Runs one command line and writes the names in sys.modules at exit to the
# file named by the first argument.
_MODULES_AT_EXIT = """
import sys
from nicholsforge.cli import main
try:
    main.main(args=sys.argv[2:], prog_name="nicholsforge")
finally:
    with open(sys.argv[1], "w") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
"""

# Each costs start-up time that no command needs: click with inspect,
# dataclasses (which imports inspect), fractions with decimal, and hashlib,
# which loads OpenSSL's _hashlib for the input digest.
_NEVER_IMPORTED = {"click", "dataclasses", "inspect", "fractions", "decimal",
                   "hashlib", "_hashlib"}


def _modules_at_exit(tmp_path: Path, args: list) -> set:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = tmp_path / "modules.txt"
    result = subprocess.run([sys.executable, "-c", _MODULES_AT_EXIT, str(out), *args],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, (args, result.stderr)
    return set(out.read_text().split())


# The computing layers and the kernel, which --help needs none of.
_LAYERS = {f"nicholsforge.{name}" for name in (
    "scalars", "linalg", "braided", "freehopf", "nichols", "structconst", "filtration",
    "dualize", "fusion", "formats", "_kernel", "_kernel.py_impl")}

# The module holding each command's body; a command loads no other body.
_BODIES = {"nichols": "cmd_nichols", "verify": "cmd_structures", "gr": "cmd_structures",
           "degenerate": "cmd_structures", "is-nichols": "cmd_structures",
           "fusion-verify": "cmd_fusion", "fusion-gen": "cmd_fusion"}


def test_every_command_starts_without_unneeded_modules(tmp_path):
    (tmp_path / "qp.json").write_text('{"type": "diagonal", "q": [["-1", "1"], ["1", "-1"]]}')
    runs = {
        "help": ["--help"],
        "nichols": ["nichols", "qp.json", "--max-degree", "6", "--emit-hopf", "qp_hopf.json"],
        "nichols-oracle": ["nichols", "qp.json", "--max-degree", "6", "--oracle-degree", "4",
                           "--threads", "1"],
        "fusion-gen": ["fusion-gen", "--group", "2", "--out", "z2.json"],
        "verify": ["verify", "qp_hopf.json"],
        "gr": ["gr", "qp_hopf.json", "--filtration", "radical"],
        "degenerate": ["degenerate", "qp_hopf.json", "--filtration", "coradical"],
        "is-nichols": ["is-nichols", "qp_hopf.json"],
        "fusion-verify": ["fusion-verify", "z2.json"],
    }
    bodies = {f"nicholsforge.{body}" for body in _BODIES.values()}
    held = {}
    for name, args in runs.items():  # in order: the first two write the later inputs
        modules = _modules_at_exit(tmp_path, args if name == "help" else [*args, "--json"])
        unneeded = set(_NEVER_IMPORTED)
        if name == "help":
            # the command list is all --help prints: no body, no layer, no parser
            unneeded |= _LAYERS | bodies | {"nicholsforge._command", "argparse"}
        else:
            unneeded |= bodies - {f"nicholsforge.{_BODIES[args[0]]}"}
        if name in ("verify", "gr", "degenerate", "is-nichols"):
            # the structure commands read a document and never run the engine
            unneeded |= {"nicholsforge.nichols", "nicholsforge.freehopf"}
        if name == "nichols-oracle":
            # the oracle walk on one thread runs without the pool, and a
            # command that writes no structure never loads formats
            unneeded |= {"concurrent.futures", "nicholsforge.formats",
                         "nicholsforge.structconst"}
        if name in ("fusion-gen", "fusion-verify"):
            # fusion data is neither a Hopf structure nor a braiding
            unneeded |= {"nicholsforge.braided", "nicholsforge.structconst"}
        held[name] = sorted(modules & unneeded)
    assert held == {name: [] for name in runs}


@pytest.mark.parametrize("args", [
    ["nichols", "missing.json", "--max-degree", "2"],
    ["nichols", "bad.json", "--max-degree", "2"],
    ["verify", "missing.json"],
    ["degenerate", "bad.json", "--filtration", "radical"],
    ["fusion-verify", "bad.json"],
    ["fusion-gen", "--group", "1000000", "--out", "z.json"],
], ids=lambda args: "-".join(args[:2]))
def test_body_input_errors_exit_2_under_python_m(tmp_path, args):
    # under `python -m nicholsforge.cli` the dispatcher runs as __main__; a
    # body's InputError must still be the class the dispatcher catches
    (tmp_path / "bad.json").write_text('{"type": "diagonal", "q": [["zeta(100000)"]]}')
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-m", "nicholsforge.cli", *args, "--json"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("Error: ")
