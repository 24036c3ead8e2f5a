"""Source hygiene: no module imports a name it never uses, and no
function takes a parameter it never reads (a test's included: an unread
fixture is set up for nothing).

The scans read the package (its __init__.py re-exports what it imports),
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_parameters(source: str) -> list:
    """(line, "function(parameter)") for each parameter of a module-level
    function or method that its body never reads. Nested functions, self
    and names starting with an underscore are exempt."""
    tree = ast.parse(source)
    functions = [(node.name, node) for node in tree.body
                 if isinstance(node, _FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions += [(f"{cls.name}.{node.name}", node)
                          for node in cls.body if isinstance(node, _FUNCTIONS)]
    found = []
    for name, fn in functions:
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [(p.lineno, f"{name}({p.arg})") for p in params
                  if p.arg != "self" and not p.arg.startswith("_")
                  and p.arg not in read]
    return sorted(found)


def test_the_scan_sees_an_unused_parameter():
    assert unused_parameters("def f(a, b):\n    return a\n") == [
        (1, "f(b)")]
    assert unused_parameters(
        "class C:\n    def m(self, x, _y, *args, k=1, **kw):\n"
        "        return args, kw\n") == [(2, "C.m(k)"), (2, "C.m(x)")]
    # a nested function may ignore its argument; reading one counts
    assert unused_parameters(
        "def f(t):\n    def g(s):\n        return t\n    return g\n") == []


def test_no_function_takes_a_parameter_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _sources()
             for line, name in unused_parameters(path.read_text())]
    assert found == []
