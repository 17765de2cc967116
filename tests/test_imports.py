"""Every name a package module imports is used there or exported in __all__."""

import ast
from pathlib import Path

import nicholsforge

PACKAGE = Path(nicholsforge.__file__).parent


def _unused_imports(path: Path) -> list:
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
    where = path.relative_to(PACKAGE.parent)
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_modules_have_no_unused_imports():
    unused = [entry for path in sorted(PACKAGE.rglob("*.py")) for entry in _unused_imports(path)]
    assert unused == []
