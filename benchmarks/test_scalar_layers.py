"""Per-layer timings of the scalar field operations.

The scalar operations of :mod:`gf2lab.field` that the proof replay and the
split-coordinate suites call one element at a time: ``f_mul``, ``f_inv``,
``frobenius`` (a quarter turn, n/4 squarings), ``trace_abs`` and
``solve_linearized`` on the halving equation x^2 + x = rhs, each at n = 12
and 16 on seeded elements; and ``field_make`` at n = 12 and 24, with the
default modulus (cached) and with the same modulus named, which runs the
irreducibility test.  Only public functions are called, so the
file runs unchanged on any version of the package since these names were
added.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_scalar_layers.py --benchmark-json=out.json
"""

import random

import pytest

from gf2lab import (default_poly, f_inv, f_mul, field_make, frobenius, solve_linearized,
                    trace_abs)


@pytest.fixture(scope="module", params=[12, 16], ids=lambda n: f"n{n}")
def elements(request):
    s = field_make(request.param)
    rng = random.Random(request.param)
    a, b = rng.randrange(1, s.size), rng.randrange(1, s.size)
    return s, a, b


def test_f_mul(benchmark, elements):
    s, a, b = elements
    assert benchmark(f_mul, s, a, b) == f_mul(s, b, a)


def test_f_inv(benchmark, elements):
    s, a, _ = elements
    assert f_mul(s, a, benchmark(f_inv, s, a)) == 1


def test_frobenius(benchmark, elements):
    s, a, _ = elements
    quarter = s.n // 4
    assert frobenius(s, benchmark(frobenius, s, a, quarter), s.n - quarter) == a


def test_trace_abs(benchmark, elements):
    s, a, _ = elements
    assert benchmark(trace_abs, s, a) in (0, 1)


def test_solve_linearized(benchmark, elements):
    s, a, _ = elements
    # rhs = a^2 + a has trace 0, so x^2 + x = rhs has the solutions a, a + 1
    rhs = f_mul(s, a, a) ^ a
    roots = benchmark(solve_linearized, s, [(1, 1), (1, 0)], rhs)
    assert roots == {a, a ^ 1}



@pytest.mark.parametrize("named", [False, True], ids=["default", "named"])
@pytest.mark.parametrize("n", [12, 24], ids=lambda n: f"n{n}")
def test_field_make(benchmark, n, named):
    poly = default_poly(n)
    assert benchmark(field_make, n, poly if named else None).poly == poly
