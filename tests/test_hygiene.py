"""Source hygiene: no module imports a name it never uses.

The scan reads the package (its __init__.py re-exports what it imports),
the demos and the tests with the standard library's ast module alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _sources():
    for sub in ("src/wcsf", "demos", "tests"):
        for path in sorted((ROOT / sub).glob("*.py")):
            if path.name != "__init__.py":
                yield path


def unused_imports(source: str) -> list:
    """Names an import binds that nothing else in the module reads; a
    name listed in __all__ counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [
        (1, "os")]
    assert unused_imports("from a import b as c\nx = 1\n") == [(1, "c")]
    assert unused_imports("import a.b\na.b.f()\n") == []
    assert unused_imports("from m import f\n__all__ = ['f']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _sources()
             for line, name in unused_imports(path.read_text())]
    assert found == []
