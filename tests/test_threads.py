"""No library function takes a ``threads`` parameter.

Every sweep runs on one thread, so a ``threads`` parameter would be a knob
that changes nothing.
"""

import inspect

from gf2lab import catalog, spectra, theorems


def test_no_function_takes_threads():
    takers = [f"{mod.__name__}.{name}"
              for mod in (spectra, theorems, catalog)
              for name, fn in inspect.getmembers(mod, inspect.isfunction)
              if fn.__module__ == mod.__name__
              and "threads" in inspect.signature(fn).parameters]
    assert not takers, f"functions taking threads: {takers}"
