"""Every name a package module imports or defines is used.

No linter runs on this package, so these tests are its unused-import and
dead-definition checks.  Each module under ``src/liequad`` is parsed with
``ast``.  Every name an ``import`` binds must be read somewhere in the module;
re-exports count as uses when they are listed in ``__all__``.  Every
module-level function, class and constant must be read somewhere in
``src/``, ``tests/`` or ``benchmarks/``, as a name, an attribute or an
imported name.  Every entry point the traced benchmark wraps must resolve.
The package runs without ``scipy.integrate``, which the tests and the
benchmark keep as their independent reference.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liequad"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
READERS = [p for d in ("src", "tests", "benchmarks") for p in sorted((ROOT / d).rglob("*.py"))]


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_an_unused_import():
    src = "import os\nimport numpy as np\nfrom a.b import c, d as e\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(src) == [(1, "os"), (3, "e")]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def module_definitions(source):
    """Module-level functions, classes and constants of a source, by name, with their lines."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    out[target.id] = node.lineno
    return out


def read_names(source):
    """Names a source reads: loaded names, loaded attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def dead_definitions(source, readers):
    used = set().union(*(read_names(r) for r in readers))
    return sorted((line, name) for name, line in module_definitions(source).items() if name not in used)


def test_checker_flags_a_dead_definition():
    src = (
        "A = 1\nB: int = 2\n_C = 3\n__all__ = []\n"
        "def f():\n    return A\n"
        "class K:\n    pass\n"
        "def g():\n    pass\n"
        "def h():\n    pass\n"
    )
    other = "from m import K\nimport m\nm.B\nm.g = None\n"
    assert dead_definitions(src, [src, other]) == [(3, "_C"), (5, "f"), (9, "g"), (11, "h")]


@pytest.fixture(scope="module")
def reader_sources():
    return [p.read_text() for p in READERS]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_dead_definitions(module, reader_sources):
    assert dead_definitions((SRC / module).read_text(), reader_sources) == []


def defaulted_parameters(source):
    """Defaulted parameters of module-level functions and methods, with call positions.

    Yields ``(callee, function, parameter, position, line)``: ``callee`` is
    the name a call site uses (a class name for ``__init__``, None for
    ``__call__``, whose instances are called under any name), and
    ``position`` the index among the positional arguments a call passes, or
    None for a keyword-only parameter.
    """
    def scan(fn, callee, bound):
        args = fn.args
        first = len(args.args) - len(args.defaults)
        for i, arg in enumerate(args.args[first:], first - (1 if bound else 0)):
            yield callee, fn.name, arg.arg, i, fn.lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield callee, fn.name, arg.arg, None, fn.lineno

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            yield from scan(node, node.name, False)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    callee = {"__init__": node.name, "__call__": None}.get(fn.name, fn.name)
                    yield from scan(fn, callee, True)


def call_sites(sources):
    """Every call in the sources as ``(callee name, positional count, keywords, spread)``."""
    out = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            out.append((name, len(node.args), {k.arg for k in node.keywords}, spread))
    return out


def never_passed_options(source, readers):
    """Defaulted parameters that no call of their function's name passes."""
    calls = call_sites(readers)
    flagged = []
    for callee, fn, param, pos, line in defaulted_parameters(source):
        if not any(
            (callee is None or name == callee)
            and (spread or param in kws or (pos is not None and npos > pos))
            for name, npos, kws, spread in calls
        ):
            flagged.append((line, f"{fn}({param})"))
    return sorted(flagged)


def test_checker_flags_a_never_passed_option():
    src = (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "def g(a, b=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, u=1, v=2):\n        pass\n"
        "    def __call__(self, w=None):\n        pass\n"
    )
    # by position, by keyword, by a spread; K(...) reaches __init__, and a
    # call under any name with one argument reaches __call__
    other = "f(0, 1)\nf(0, d=4)\ng(*args)\nK(1)\nk.m(5)\nk.m(u=1)\n"
    assert never_passed_options(src, [src, other]) == [(1, "f(c)"), (6, "__init__(y)"), (8, "m(v)")]
    assert (10, "__call__(w)") in never_passed_options(src, ["f()\nk.m(u=1, v=2)\n"])


@pytest.mark.parametrize("module", MODULES)
def test_module_options_are_all_passed(module, reader_sources):
    assert never_passed_options((SRC / module).read_text(), reader_sources) == []


def unread_parameters(source):
    """Required parameters that their ``def`` never reads, as ``(line, "function(parameter)")``.

    Every ``def`` counts, nested ones too, and a read in a nested body is a
    read.  ``self``, ``cls``, ``_``-prefixed names, defaulted parameters,
    ``*args``, ``**kwargs`` and lambdas are skipped.
    """
    flagged = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        required = positional[: len(positional) - len(args.defaults)]
        required += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        flagged += [(fn.lineno, f"{fn.name}({a.arg})") for a in required
                    if a.arg not in read and a.arg not in ("self", "cls") and not a.arg.startswith("_")]
    return sorted(flagged)


def test_checker_flags_an_unread_parameter():
    src = (
        "def f(a, b, _c, d=1, *e, f, g=2, **h):\n    return a + f\n"
        "class K:\n"
        "    def m(self, x, y):\n"
        "        def inner(z):\n            return y\n"
        "        return inner\n"
        "    @classmethod\n"
        "    def n(cls, w):\n        return w\n"
        "k = lambda p, q: p\n"
    )
    # a closure's read counts for the def around it
    assert unread_parameters(src) == [(1, "f(b)"), (4, "m(x)"), (5, "inner(z)")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_required_parameter(module):
    assert unread_parameters((SRC / module).read_text()) == []


def test_benchmark_trace_targets_resolve():
    # the tracer patches each target where it is defined, so a method must
    # sit in its own class's namespace, not be inherited
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, path, _post in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_traced_group_chart_is_the_cayley_chart():
    # the traced chart-inversion span wraps GraphChart.from_coords, which must
    # be the chart the package inverts
    liegroup = importlib.import_module("liequad.liegroup")
    assert liegroup.GraphChart is liegroup.CayleyChart


def test_package_does_not_import_scipy_integrate():
    # the quotient curve is integrated on the package's own Chebyshev panels
    code = "import sys, liequad.reconstruct; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
