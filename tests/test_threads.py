"""One thread per sweep, one OS thread per process.

No library function takes a ``threads`` parameter: every sweep runs on one
thread, so such a parameter would be a knob that changes nothing.

Importing gf2lab keeps numpy's OpenBLAS at one thread (unless the caller
set ``OPENBLAS_NUM_THREADS``), so a CLI process runs on exactly one OS
thread; the library makes no BLAS call, and an AST guard keeps it so.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gf2lab
from gf2lab import catalog, spectra, theorems

SRC = Path(gf2lab.__file__).resolve().parent


def test_no_function_takes_threads():
    takers = [f"{mod.__name__}.{name}"
              for mod in (spectra, theorems, catalog)
              for name, fn in inspect.getmembers(mod, inspect.isfunction)
              if fn.__module__ == mod.__name__
              and "threads" in inspect.signature(fn).parameters]
    assert not takers, f"functions taking threads: {takers}"


def _child(code, **env):
    # importing gf2lab here set OPENBLAS_NUM_THREADS in this process, so the
    # child must not inherit it, or a lost default would go unseen
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**base, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_cli_process_runs_one_os_thread():
    code = ("import contextlib, io, os\n"
            "from gf2lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['analyze', '--exp', '73', '--n', '12'])\n"
            "print(code, len(os.listdir('/proc/self/task')))")
    assert _child(code) == "0 1"


def test_an_explicit_blas_thread_count_is_kept():
    code = "import os, gf2lab\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _child(code, OPENBLAS_NUM_THREADS="2") == "2"


BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def test_no_blas_calls():
    # a BLAS call would make the one-thread default a real cost: measure
    # before letting one in
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any(part in BLAS_NAMES for name in names for part in name.split(".")):
                    found.append(f"{path.name}:{node.lineno} import {names}")
    assert not found, f"BLAS calls: {found}"
