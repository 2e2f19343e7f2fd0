"""Package-wide guards: every export resolves, no check is an ``assert``,
every parameter is read, one module owns the discrete-log arithmetic, one
module groups difference rows, and the per-layer benchmarks still collect.

``python -O`` strips ``assert`` statements, so validation in the package
raises explicit errors instead.  A parameter that its body never reads is a
knob that changes nothing.  The log/exp tables are read through
``field._Arith`` only, so no other module builds a second copy of its
formulas.  Only ``spectra.DifferenceRow.sets`` groups a row into its
solution sets, so no other module sorts one.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_parameter_is_read():
    unread = []
    for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({p})"
                       for p in params if p not in read]
    assert not unread, f"parameters never read: {unread}"


def test_only_field_owns_the_log_exp_arithmetic():
    names, classes = set(), set()
    for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a bare name, an attribute, an import alias or a definition
            if "_log_exp_tables" in {getattr(node, f, None) for f in ("id", "attr", "name")}:
                names.add(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "_Arith":
                classes.add(path.name)
    assert names == {"field.py"}, f"modules naming _log_exp_tables: {sorted(names)}"
    assert classes == {"field.py"}, f"modules defining _Arith: {sorted(classes)}"


def test_only_spectra_sorts_a_difference_row():
    names = set()
    for path in sorted(Path(gf2lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "argsort" in {getattr(node, f, None) for f in ("id", "attr", "name")}:
                names.add(path.name)
    assert names == {"spectra.py"}, f"modules calling argsort: {sorted(names)}"


def test_benchmarks_still_collect():
    # the per-layer benchmarks import private names of the package, which a
    # rename would otherwise break unnoticed: they run outside the test suite
    pytest.importorskip("pytest_benchmark")
    root = Path(__file__).resolve().parents[1]
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-m", "pytest", "benchmarks", "--collect-only",
                          "-q", "-p", "no:cacheprovider"],
                         cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
