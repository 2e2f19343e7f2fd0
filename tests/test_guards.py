"""Package-wide guards: every export resolves, and no check is an ``assert``.

``python -O`` strips ``assert`` statements, so validation in the package
raises explicit errors instead.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import gf2lab

MODULES = [importlib.import_module(f"gf2lab.{m.name}")
           for m in pkgutil.iter_modules(gf2lab.__path__)]


def test_main_module_imports_like_the_rest():
    # __main__ included: it runs the command line only as a script
    assert "gf2lab.__main__" in {mod.__name__ for mod in MODULES}


def test_every_export_resolves():
    exporting = [mod for mod in MODULES if hasattr(mod, "__all__")]
    assert len(exporting) >= 6
    stale = [f"{mod.__name__}.{name}" for mod in exporting
             for name in mod.__all__ if not hasattr(mod, name)]
    assert not stale, f"__all__ names that do not resolve: {stale}"


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
