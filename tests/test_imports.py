"""Every name a package module imports is used in that module.

No linter runs on this package, so this test is its unused-import check:
each module under ``src/liequad`` is parsed with ``ast``, and every name an
``import`` binds must be read somewhere in the module.  Re-exports count as
uses when they are listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liequad"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


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
