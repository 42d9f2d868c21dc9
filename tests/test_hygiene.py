"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import klspoly

PACKAGE = Path(klspoly.__file__).parent


def _imported_names(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree)
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm")]


def test_no_module_imports_an_unused_name():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == [], "unused imports:\n" + "\n".join(found)
