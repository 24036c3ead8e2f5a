"""Source hygiene: no module imports a name it never uses, no function
takes a parameter it never reads (a test's included: an unread fixture is
set up for nothing), and no package function or dataclass field has a
default that no production call overrides (a setting with one value in
use is a constant, whatever values tests or demos try).

The scans read the package (its __init__.py re-exports what it imports),
the demos and the tests, but for calls only the package and the
benchmark, with the standard library's ast module alone. One more scan
keeps the gauge, the choice between a graph's and a parametric curve's
node motion, inside the curves module, another keeps a function that is
handed states from taking their manifold a second time, one keeps the
package from reading an attribute that an object may or may not have,
one keeps the sampling grid inside the fourier module, and a last keeps
every module small enough to compile within the memory a run already
holds.
"""

import ast
import math
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


def _functions(tree) -> list:
    """(name, node) for each module-level function and method, a method
    named Class.method."""
    functions = [(node.name, node) for node in tree.body
                 if isinstance(node, _FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions += [(f"{cls.name}.{node.name}", node)
                          for node in cls.body if isinstance(node, _FUNCTIONS)]
    return functions


def unused_parameters(source: str) -> list:
    """(line, "function(parameter)") for each parameter of a module-level
    function or method that its body never reads. Nested functions, self
    and names starting with an underscore are exempt."""
    found = []
    for name, fn in _functions(ast.parse(source)):
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Whether cls is decorated @dataclass or @dataclass(...)."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in cls.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators)


def defaulted_fields(source: str) -> list:
    """(line, class, field, position) for each field with a default of a
    module-level dataclass; position is the field's index among the
    arguments of the class's generated __init__."""
    found = []
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            fields = [node for node in cls.body
                      if isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)]
            found += [(f.lineno, cls.name, f.target.id, i)
                      for i, f in enumerate(fields) if f.value is not None]
    return found


def defaulted_parameters(source: str) -> list:
    """(line, callee, parameter, position) for each parameter with a
    default of a module-level function or method. callee is the name a
    call uses: the function's, or the class's for __init__. position is
    the index of the parameter among a call's positional arguments, past
    a method's self or cls; None when it is keyword-only."""
    tree = ast.parse(source)
    functions = [(node.name, node, 0) for node in tree.body
                 if isinstance(node, _FUNCTIONS)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, _FUNCTIONS):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    name = cls.name if node.name == "__init__" else node.name
                    functions.append((name, node, 0 if static else 1))
    found = []
    for name, fn, shift in functions:
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        found += [(p.lineno, name, p.arg, i - shift)
                  for i, p in enumerate(positional) if i >= first]
        found += [(p.lineno, name, p.arg, None)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]
    return found


def calls(source: str) -> dict:
    """For each called name, a list of (positional count, keyword names)
    per call. A *args spread counts as every position and a **kwargs
    spread as every keyword (the name "**")."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        spread = any(isinstance(a, ast.Starred) for a in node.args)
        count = math.inf if spread else len(node.args)
        keys = {k.arg or "**" for k in node.keywords}
        out.setdefault(name, []).append((count, keys))
    return out


def strings(source: str) -> set:
    """Every string constant of a module."""
    return {node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def unpassed_defaults(source: str, call_sources) -> list:
    """(line, "callee(parameter)") for each defaulted parameter or
    dataclass field in source that no call in call_sources passes, by
    position or by keyword. A field also counts as set when a string of
    call_sources names it, as dataclasses.replace(obj, **{name: value})
    does."""
    seen, named = {}, set()
    for text in call_sources:
        for name, found in calls(text).items():
            seen.setdefault(name, []).extend(found)
        named |= strings(text)

    def passed(name, param, pos):
        return any(param in keys or "**" in keys
                   or (pos is not None and count > pos)
                   for count, keys in seen.get(name, ()))

    return sorted(
        [(line, f"{name}({param})")
         for line, name, param, pos in defaulted_parameters(source)
         if not passed(name, param, pos)]
        + [(line, f"{name}.{field}")
           for line, name, field, pos in defaulted_fields(source)
           if not passed(name, field, pos) and field not in named])


def test_the_scan_sees_a_default_no_call_passes():
    source = ("def f(a, b=1, *, c=2):\n    return a, b, c\n"
              "class C:\n    def __init__(self, x, y=0):\n        pass\n"
              "    def m(self, z=3):\n        return z\n")
    assert unpassed_defaults(source, ["f(1)\nC(1)\nC(1).m()\n"]) == [
        (1, "f(b)"), (1, "f(c)"), (4, "C(y)"), (6, "m(z)")]
    # by position past self, by keyword, or through a spread
    assert unpassed_defaults(source, [
        "f(1, 2, c=3)\nC(1, 2)\nC(1).m(4)\n"]) == []
    assert unpassed_defaults(source, [
        "f(*args, **kw)\nC(*args)\nobj.m(**kw)\n"]) == []
    # a dataclass field likewise; Q is no dataclass, so its d is a class
    # attribute, not a field
    source = ("@dataclass(frozen=True)\nclass P:\n    a: int\n"
              "    b: int = 1\n    c: float = 2.0\n"
              "class Q:\n    d: int = 3\n")
    assert unpassed_defaults(source, ["P(0)\n"]) == [
        (4, "P.b"), (5, "P.c")]
    # by position, by keyword, through a spread, or named in a string
    assert unpassed_defaults(source, ["P(0, 1)\nP(0, c=1.0)\n"]) == []
    assert unpassed_defaults(source, ["P(**kw)\n"]) == []
    assert unpassed_defaults(
        source, ["P(0)\nreplace(p, **{'b': 2})\nset_('c')\n"]) == []


def test_every_default_is_passed_by_some_call():
    # a default that only tests or demos override is a constant of every
    # run; tests patch a module constant where they need another value
    call_sources = [path.read_text()
                    for sub in ("src/wcsf", "perfbench")
                    for path in sorted((ROOT / sub).glob("*.py"))]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted((ROOT / "src/wcsf").glob("*.py"))
             for line, name in unpassed_defaults(path.read_text(),
                                                 call_sources)]
    assert found == []


_MODES = ("GRAPH", "PARAMETRIC")


def mode_sites(source: str) -> list:
    """(line, function, what) for each comparison that reads an attribute
    named mode and each import or read of GRAPH or PARAMETRIC. function is
    the enclosing module-level function or class, "" at module level."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                if any(isinstance(sub, ast.Attribute) and sub.attr == "mode"
                       for part in (node.left, *node.comparators)
                       for sub in ast.walk(part)):
                    found.append((node.lineno, scope, "mode comparison"))
            elif isinstance(node, ast.ImportFrom):
                found += [(node.lineno, scope, alias.name)
                          for alias in node.names if alias.name in _MODES]
            elif isinstance(node, ast.Name) and node.id in _MODES:
                found.append((node.lineno, scope, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in _MODES:
                found.append((node.lineno, scope, node.attr))
    return sorted(found)


def test_the_scan_sees_a_mode_decision():
    assert mode_sites(
        "from .curves import GRAPH, f\n"
        "def g(c):\n    if c.mode == GRAPH:\n        return 1\n"
        "class T:\n    def m(self, c, d):\n"
        "        return (c.mode, c.m) != (d.mode, d.m)\n"
        "x = curves.PARAMETRIC\n") == [
        (1, "", "GRAPH"), (3, "g", "GRAPH"), (3, "g", "mode comparison"),
        (7, "T", "mode comparison"), (8, "", "PARAMETRIC")]
    # passing a mode on, or comparing another attribute, decides nothing
    assert mode_sites("def f(c):\n    return D(c.mode, c.coords)\n"
                      "y = c.moving == d.moving\n") == []


def test_only_the_curves_module_decides_on_a_curve_mode():
    found = [f"{path.name}:{line}: {scope} {what}"
             for path in sorted((ROOT / "src/wcsf").glob("*.py"))
             if path.name not in ("curves.py", "__init__.py")
             for line, scope, what in mode_sites(path.read_text())]
    assert found == []


def manifold_beside_states(source: str) -> list:
    """(line, function) for each module-level function or method that
    takes a parameter named manifold beside one named state or traj: a
    second source for the manifold that the state's fields already hold."""
    found = []
    for name, fn in _functions(ast.parse(source)):
        a = fn.args
        names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if "manifold" in names and names & {"state", "traj"}:
            found.append((fn.lineno, name))
    return sorted(found)


def test_the_scan_sees_a_manifold_beside_a_state():
    assert manifold_beside_states(
        "def f(traj, manifold, k):\n    pass\n"
        "def g(state, *, manifold=None):\n    pass\n"
        "def h(manifold, curve):\n    pass\n"
        "class C:\n    def m(self, state, manifold):\n        pass\n") == [
        (1, "f"), (3, "g"), (8, "C.m")]


# run records into traj the states it flows in manifold; step_rk4 keeps
# the (state, manifold, dt) shape that the benchmark's sweep calls
_MANIFOLD_BESIDE_STATES_ALLOWED = {("flow.py", "run"), ("flow.py", "step_rk4")}


def test_checks_read_the_manifold_from_the_states():
    found = {(path.name, name)
             for path in sorted((ROOT / "src/wcsf").glob("*.py"))
             for _, name in manifold_beside_states(path.read_text())}
    assert sorted(found - _MANIFOLD_BESIDE_STATES_ALLOWED) == []


def defaulted_getattrs(source: str) -> list:
    """Lines of each getattr call with a default, a third argument: a side
    channel that reads an attribute some objects have and others lack."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) == 3)


def test_the_scan_sees_a_getattr_with_a_default():
    assert defaulted_getattrs(
        "a = getattr(t, 'drift', None)\n"
        "b = getattr(self, name)\n"
        "c = obj.getattr(t, 'x', 1)\n"
        "d = getattr(\n    t, 'y', 0)\n") == [1, 4]


def test_the_package_reads_no_attribute_it_may_lack():
    found = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src/wcsf").glob("*.py"))
             for line in defaulted_getattrs(path.read_text())]
    assert found == []


def sampling_grid_sites(source: str) -> list:
    """Lines that name _SAMPLES, the sampling grid: as an import, a name
    or an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "_SAMPLES" for alias in node.names):
                found.add(node.lineno)
        elif ((isinstance(node, ast.Name) and node.id == "_SAMPLES")
              or (isinstance(node, ast.Attribute)
                  and node.attr == "_SAMPLES")):
            found.add(node.lineno)
    return sorted(found)


def test_the_scan_sees_the_sampling_grid_named():
    assert sampling_grid_sites(
        "from .fourier import _GRID, _SAMPLES\n"
        "a = fourier._SAMPLES[:128]\n"
        "b = _GRID\n"
        "c = max(_SAMPLES)\n") == [1, 2, 4]
    assert sampling_grid_sites("from .fourier import _GRID, grid_max\n"
                               "d = '_SAMPLES'\n") == []


def test_only_the_fourier_module_names_the_sampling_grid():
    # fourier.grid_max is the one reader of the grid, and it owns the
    # block size that keeps its tables small
    found = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src/wcsf").glob("*.py"))
             if path.name != "fourier.py"
             for line in sampling_grid_sites(path.read_text())]
    assert found == []


def unnamed_definitions(sources: dict) -> list:
    """(module, line, name) for each module-level function or class of
    sources, a mapping of module names to their text, that no statement
    of any module names outside the definition itself: as a name it reads
    or as an attribute. A string, such as an entry of __all__, names
    nothing, and nor does an import."""
    statements = []     # (module, top-level statement, names it reads)
    for module, text in sources.items():
        for top in ast.parse(text).body:
            names = {node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)}
            names |= {node.attr for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)}
            statements.append((module, top, names))
    return sorted(
        (module, top.lineno, top.name) for module, top, _ in statements
        if isinstance(top, (*_FUNCTIONS, ast.ClassDef))
        and not any(top.name in names
                    for _, other, names in statements if other is not top))


def test_the_scan_sees_a_definition_nothing_names():
    assert unnamed_definitions({
        "a": "__all__ = ['f', 'g']\n"
             "def f(n):\n    return f(n - 1)\n"
             "def g():\n    return h()\n"
             "class C:\n    pass\n"
             "class D:\n    pass\n",
        "b": "from a import C, f\n"
             "def h():\n    return mod.D\n"
             "def k():\n    pass\n"}) == [
        ("a", 2, "f"), ("a", 4, "g"), ("a", 6, "C"), ("b", 4, "k")]


# the ladder's time-differencing studies, which no run calls since
# `wcsf verify` checks their identities at every recorded state; acceptance
# criteria 3, 5, 6 and 7 call them and perfbench/layers.py traces them by
# name, so they stay, and leave this list when they leave the package
_LADDER_STUDIES = ("verification.py: commutator_residual_study",
                   "verification.py: dissipation_residual_study",
                   "verification.py: evolution_residual_study")


def test_the_package_names_every_function_and_class_it_defines():
    sources = {path.stem: path.read_text()
               for path in sorted((ROOT / "src/wcsf").glob("*.py"))
               if path.name != "__init__.py"}
    found = [f"{module}.py: {name}"
             for module, _, name in unnamed_definitions(sources)]
    assert sorted(found) == sorted(_LADDER_STUDIES)


def ast_nodes(source: str) -> int:
    """The nodes of a module's syntax tree, each as often as ast.walk
    yields it."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


def test_the_scan_counts_syntax_tree_nodes():
    assert ast_nodes("") == 1                       # Module
    assert ast_nodes("x = 1\n") == 5                # Assign Name Store Const
    assert ast_nodes("import os\nimport sys\n") == 5


# CPython holds a module's whole syntax tree while it compiles it, and a
# run that finds no bytecode cache (the benchmark's children run with
# PYTHONDONTWRITEBYTECODE=1 from a fresh checkout) compiles every module it
# imports. Measured with tracemalloc on Python 3.11, flow.py and
# verification.py at 3,085 and 3,052 nodes each took 1,073 KB to compile
# and cli.py's 1,740 nodes 687 KB. A left_warped run's peak RSS absorbed
# the second but not the first: splitting those two modules lowered it by
# about 0.3 MB (BENCH_27.json). A module past the limit is split, or the
# peak measured again.
_MAX_AST_NODES = 1740


def test_no_module_takes_more_than_a_run_holds_to_compile():
    found = [f"{path.name}: {n} nodes"
             for path in sorted((ROOT / "src/wcsf").glob("*.py"))
             if (n := ast_nodes(path.read_text())) > _MAX_AST_NODES]
    assert found == []
