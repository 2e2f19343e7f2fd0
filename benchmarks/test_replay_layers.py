"""Per-layer timings of the degree-4k proof replay.

One replay instance, ``reduction_trace(3, 1, 1)``: a = 1 and b = 1 give
c = 0, whose equation has four solutions and runs the whole t != 1 branch
down to the terminal quadratics.  Then the sampled pair draw of
``verify --k 3 --samples 20000`` alone, and the pair sweep
:func:`gf2lab.reduction_sweep` exhaustive at k = 2 (every c), at k = 3
with 20000 and 5000 sampled pairs and at k = 4 with 1000, the sizes
``verify`` runs, and at k = 3 with 2000 pairs on the family table with
f(0) set to 1, which fails the homogeneity premise, so that every pair is
replayed from its own scanned set.  Then three split-coordinate suites at
k = 3: the cross-check :func:`gf2lab.mm_crosscheck_all`, the quartic/fiber
correspondence :func:`gf2lab.quartic_check_all` and the sign pattern
:func:`gf2lab.m4_sum_check`; the pointwise decomposition
:func:`gf2lab.mm_decomposition_check` at k = 3 and 4, whose two traces run
over the whole 2^(4k) grid; last the basis :func:`gf2lab.mm_basis` at
k = 4.  The pair draw drains the chunk generator ``theorems._pair_chunks``.
Apart from it, ``theorems.fiber_partition_check``, whose row counts the
fibers, and ``theorems._family_table``, which the f(0) = 1 case replaces,
only public functions are called, so the file runs unchanged on any version
of the package since the pair sweep streamed its chunks.
The first round builds the family table and the arithmetic tables, and is
not timed.  Every case records its instance count as
``extra_info["instances"]``, and each pair sweep and the pair draw their
tracemalloc peak, from one untimed call, as ``extra_info["peak_mib"]``.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_replay_layers.py --benchmark-json=out.json
"""

import tracemalloc

import pytest

from gf2lab import (FunctionTable, dobbertin_exponent, m4_sum_check, mm_basis,
                    mm_crosscheck_all, mm_decomposition_check, quartic_check_all,
                    reduction_sweep, reduction_trace, theorems)
from gf2lab.theorems import fiber_partition_check


def _peak_mib(benchmark, fn, *args, **kwargs):
    """Record the tracemalloc peak of one call of ``fn`` in ``extra_info``."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        benchmark.extra_info["peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    finally:
        tracemalloc.stop()


def _draw_pairs(k, samples):
    """The sweep's pairs as (pair count, least a), drawn the way the package
    draws them: in chunks."""
    chunks = [(a.size, int(a.min())) for a, _ in theorems._pair_chunks(k, samples)]
    return sum(n for n, _ in chunks), min(least for _, least in chunks)


def test_one_replay_instance(benchmark):
    benchmark.extra_info["instances"] = 1
    tr = benchmark.pedantic(reduction_trace, (3, 1, 1), rounds=200, warmup_rounds=1)
    assert tr.obstruction is None and len(tr.solutions_direct) == 4


def test_sweep_pairs_k3(benchmark):
    benchmark.extra_info["instances"] = 20000
    count, least = benchmark.pedantic(_draw_pairs, (3, 20000), rounds=30, warmup_rounds=1)
    assert count == 20000 and least >= 1
    _peak_mib(benchmark, _draw_pairs, 3, 20000)


@pytest.mark.parametrize("k, samples", [(3, 20000), (3, 5000), (4, 1000)],
                         ids=["k3-20000", "k3-5000", "k4-1000"])
def test_pair_sweep(benchmark, k, samples):
    benchmark.extra_info["instances"] = samples
    report = benchmark.pedantic(reduction_sweep, (k,), {"samples": samples},
                                rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == samples
    _peak_mib(benchmark, reduction_sweep, k, samples=samples)


def test_pair_sweep_nonhomogeneous_k3(benchmark, monkeypatch):
    clean = theorems._family_table(3)
    lut = clean.lut.copy()
    lut[0] = 1
    table = FunctionTable(clean.spec, lut)
    assert table.exponent != dobbertin_exponent(3)
    monkeypatch.setattr(theorems, "_family_table", lambda k: table)
    benchmark.extra_info["instances"] = 2000
    report = benchmark.pedantic(reduction_sweep, (3,), {"samples": 2000},
                                rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == 2000
    _peak_mib(benchmark, reduction_sweep, 3, samples=2000)


def test_pair_sweep_exhaustive_k2(benchmark):
    pairs = 255 * 256
    benchmark.extra_info["instances"] = pairs
    report = benchmark.pedantic(reduction_sweep, (2,), rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == pairs
    _peak_mib(benchmark, reduction_sweep, 2)


def test_mm_crosscheck_all_k3(benchmark):
    w = mm_basis(3)
    benchmark.extra_info["instances"] = 1 << 12
    report = benchmark.pedantic(mm_crosscheck_all, (w,), rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == 1 << 12


def test_quartic_check_all_k3(benchmark):
    w = mm_basis(3)
    fibers = fiber_partition_check(w).instances
    benchmark.extra_info["instances"] = fibers
    report = benchmark.pedantic(quartic_check_all, (w,), rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == fibers


def test_m4_sum_check_k3(benchmark):
    w = mm_basis(3)
    # the stepping stones, then two size-4 fibers against every v
    benchmark.extra_info["instances"] = 1 + 2 * 64
    report = benchmark.pedantic(m4_sum_check, (w,), rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == 1 + 2 * 64


@pytest.mark.parametrize("k", [3, 4], ids=["k3", "k4"])
def test_mm_decomposition_check(benchmark, k):
    w = mm_basis(k)
    benchmark.extra_info["instances"] = 1 << (4 * k)
    report = benchmark.pedantic(mm_decomposition_check, (w,), rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == 1 << (4 * k)


def test_mm_basis_k4(benchmark):
    benchmark.extra_info["instances"] = 1
    w = benchmark.pedantic(mm_basis, (4,), rounds=5, warmup_rounds=1)
    assert w.k == 4
