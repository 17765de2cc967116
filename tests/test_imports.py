"""What the code imports: every name is used, and start-up stays lean."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nicholsforge

PACKAGE = Path(nicholsforge.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path, base: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
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


def test_every_command_starts_without_unneeded_modules(tmp_path):
    (tmp_path / "qp.json").write_text('{"type": "diagonal", "q": [["-1", "1"], ["1", "-1"]]}')
    runs = {
        "nichols": ["nichols", "qp.json", "--max-degree", "6", "--emit-hopf", "qp_hopf.json"],
        "fusion-gen": ["fusion-gen", "--group", "2", "--out", "z2.json"],
        "verify": ["verify", "qp_hopf.json"],
        "gr": ["gr", "qp_hopf.json", "--filtration", "radical"],
        "degenerate": ["degenerate", "qp_hopf.json", "--filtration", "coradical"],
        "is-nichols": ["is-nichols", "qp_hopf.json"],
        "fusion-verify": ["fusion-verify", "z2.json"],
    }
    held = {}
    for name, args in runs.items():  # in order: the first two write the later inputs
        modules = _modules_at_exit(tmp_path, [*args, "--json"])
        unneeded = set(_NEVER_IMPORTED)
        if name in ("verify", "gr", "degenerate", "is-nichols"):
            # the structure commands read a document and never run the engine
            unneeded |= {"nicholsforge.nichols", "nicholsforge.freehopf"}
        held[name] = sorted(modules & unneeded)
    assert held == {name: [] for name in runs}
