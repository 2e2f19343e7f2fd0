"""A ``threads`` keyword must reach the one thread pool, in walsh_spectrum.

Other sweeps run on one thread; a ``threads`` parameter on them would be a
knob that changes nothing.
"""

import ast
import inspect
import textwrap

from gf2lab import catalog, spectra, theorems


def _functions_taking_threads():
    found = {}
    for mod in (spectra, theorems, catalog):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == mod.__name__ and "threads" in inspect.signature(fn).parameters:
                found[name] = fn
    return found


def _threads_forwarded_to(fn) -> set[str]:
    """Names of the functions that fn calls with threads=threads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            for kw in node.keywords:
                if kw.arg == "threads" and isinstance(kw.value, ast.Name) and kw.value.id == "threads":
                    callees.add(node.func.id)
    return callees


def test_threads_keyword_only_where_it_reaches_walsh_spectrum():
    takers = _functions_taking_threads()
    assert "walsh_spectrum" in takers
    reaching = {"walsh_spectrum"}
    grew = True
    while grew:
        grew = False
        for name, fn in takers.items():
            if name not in reaching and _threads_forwarded_to(fn) & reaching:
                reaching.add(name)
                grew = True
    idle = sorted(set(takers) - reaching)
    assert not idle, f"threads parameter does not reach walsh_spectrum in: {idle}"
