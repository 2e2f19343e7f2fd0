"""Per-layer timings of the table layers under the spectra.

The log/exp tables of :mod:`gf2lab.field` built from an empty cache, and
the power-map table ``build_lut(spec, 5)`` gathered from them, each at
n = 12, 16, 20 and 24 (the largest supported degree); the one DDT row
a = 1 that :func:`gf2lab.power_delta` reads, at n = 12 and 16.
Then :func:`gf2lab.classify` of a ``lut_from_values`` copy of x^73 on
GF(2^12): the table is made afresh every round, outside the timing, so
nothing it learns about itself carries over from the round before.  Last,
:func:`gf2lab.read_lut` of the file :func:`gf2lab.write_lut` makes of x^5,
at n = 12 and 16.  Only
names that have stood since the power-map orbit engine was added are
called, so the file runs unchanged on any version of the package since.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_table_layers.py --benchmark-json=out.json
"""

import pytest

from gf2lab import (build_lut, classify, field_make, lut_from_values, power_delta,
                    read_lut, write_lut)
from gf2lab.field import _log_exp_tables

DEGREES = pytest.mark.parametrize("n", [12, 16], ids=lambda n: f"n{n}")
ALL_DEGREES = pytest.mark.parametrize("n", [12, 16, 20, 24], ids=lambda n: f"n{n}")


@ALL_DEGREES
def test_log_exp_tables(benchmark, n):
    s = field_make(n)
    log, exp = benchmark.pedantic(_log_exp_tables, (s.n, s.poly),
                                  setup=_log_exp_tables.cache_clear,
                                  rounds=10, warmup_rounds=1)
    assert exp.size == s.order and log[1] == 0


@ALL_DEGREES
def test_build_lut(benchmark, n):
    s = field_make(n)
    table = benchmark.pedantic(build_lut, (s, 5), rounds=30, warmup_rounds=1)
    assert int(table.lut[2]) == 32


@DEGREES
def test_power_delta_row(benchmark, n):
    table = build_lut(field_make(n), 5)
    delta = benchmark.pedantic(power_delta, (table,), rounds=30, warmup_rounds=1)
    assert delta == 4


def test_classify_lut_copy_of_x73(benchmark):
    s = field_make(12)
    lut = build_lut(s, 73).lut

    def fresh_copy():
        return (lut_from_values(s, lut),), {}

    summ = benchmark.pedantic(classify, setup=fresh_copy, rounds=10, warmup_rounds=1)
    assert summ.delta == 4 and summ.is_permutation


@DEGREES
def test_read_lut(benchmark, tmp_path, n):
    path = tmp_path / "x5.lut"
    write_lut(path, build_lut(field_make(n), 5))
    table, _ = benchmark.pedantic(read_lut, (path,), rounds=30, warmup_rounds=1)
    assert int(table.lut[2]) == 32
