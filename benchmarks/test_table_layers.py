"""Per-layer timings of the table layers under the spectra.

The log/exp tables of :mod:`gf2lab.field` built from an empty cache, the
quadratic-root table ``field._Arith.root`` built afresh for a field whose
tables are cached, and the power-map table ``build_lut(spec, 5)``
gathered from them, each at n = 12, 16, 20 and 24 (the largest supported
degree); the one DDT row a = 1 that :func:`gf2lab.power_delta` reads, at
the same degrees, where its row and its counts are the whole cost (no
solution set is grouped).
Then :func:`gf2lab.classify` of a ``lut_from_values`` copy of x^73 on
GF(2^12): the table is made afresh every round, outside the timing, so
nothing it learns about itself carries over from the round before.  Then
:func:`gf2lab.read_lut` of the file :func:`gf2lab.write_lut` makes of x^5,
at n = 12 and 16.  Last, the full DDT sweep
:func:`gf2lab.differential_uniformity` of a seeded random table at n = 12
and 16, and ``analyze --lut --ddt-csv`` of one at n = 11 through
:func:`gf2lab.cli.main`, which also reads the file and runs the Walsh
sweep: its ``timings_ms.ddt`` (the rows and the CSV write) is kept as
``extra_info["ddt_ms"]``, the median over the rounds.  Only names that
have stood since the power-map orbit engine was added are called, so the
file runs unchanged on any version of the package since, the root table
aside: it needs ``field._Arith``, which has stood since the discrete-log
core moved into :mod:`gf2lab.field`.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_table_layers.py --benchmark-json=out.json
"""

import json
import statistics

import numpy as np
import pytest

from gf2lab import (build_lut, classify, ddt_rows, differential_uniformity,
                    field_make, lut_from_values, power_delta, read_lut, write_lut)
from gf2lab.cli import main
from gf2lab.field import _Arith, _log_exp_tables

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
def test_root_table(benchmark, n):
    A = _Arith(field_make(n))

    def fresh():
        vars(A).pop("root", None)

    root = benchmark.pedantic(lambda: A.root, setup=fresh, rounds=10, warmup_rounds=1)
    assert int(root[0]) == 0 and (root >= 0).sum() == 1 << (n - 1)


@ALL_DEGREES
def test_build_lut(benchmark, n):
    s = field_make(n)
    table = benchmark.pedantic(build_lut, (s, 5), rounds=30, warmup_rounds=1)
    assert int(table.lut[2]) == 32


@ALL_DEGREES
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


def _random_table(n):
    s = field_make(n)
    return lut_from_values(s, np.random.default_rng(n).integers(0, s.size, s.size))


@pytest.mark.parametrize("n, rounds", [(12, 30), (16, 3)], ids=["n12", "n16"])
def test_differential_uniformity(benchmark, n, rounds):
    table = _random_table(n)
    delta = benchmark.pedantic(differential_uniformity, (table,), {"deep": True},
                               rounds=rounds, warmup_rounds=int(n < 16))
    assert delta == max(int(row.counts.max()) for row in ddt_rows(table))


def test_ddt_csv_n11(benchmark, tmp_path):
    lut, csv, report = (tmp_path / name for name in ("t.lut", "ddt.csv", "r.json"))
    write_lut(lut, _random_table(11))
    ddt_ms = []

    def run():
        code = main(["analyze", "--lut", str(lut), "--ddt-csv", str(csv), "--json", str(report)])
        ddt_ms.append(json.loads(report.read_text())["timings_ms"]["ddt"])
        return code

    assert benchmark.pedantic(run, rounds=10, warmup_rounds=1) == 0
    benchmark.extra_info["ddt_ms"] = statistics.median(ddt_ms[1:])
    assert csv.read_bytes().count(b"\r\n") == (1 << 11) - 1
