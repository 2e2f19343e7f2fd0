"""Per-layer timings of the degree-4k proof replay.

One replay instance, ``reduction_trace(3, 1, 1)``: a = 1 and b = 1 give
c = 0, whose equation has four solutions and runs the whole t != 1 branch
down to the terminal quadratics.  Then the pair sweep
:func:`gf2lab.reduction_sweep` at k = 3 with 20000 and 5000 sampled pairs
and at k = 4 with 1000, the sizes ``verify`` runs.  Only public functions
are called, so the file runs unchanged on any version of the package.  The
first round builds the family table and the scalar tables, and is not
timed.  Every case records its instance count as
``extra_info["instances"]``.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_replay_layers.py --benchmark-json=out.json
"""

import pytest

from gf2lab import reduction_sweep, reduction_trace


def test_one_replay_instance(benchmark):
    benchmark.extra_info["instances"] = 1
    tr = benchmark.pedantic(reduction_trace, (3, 1, 1), rounds=200, warmup_rounds=1)
    assert tr.obstruction is None and len(tr.solutions_direct) == 4


@pytest.mark.parametrize("k, samples", [(3, 20000), (3, 5000), (4, 1000)],
                         ids=["k3-20000", "k3-5000", "k4-1000"])
def test_pair_sweep(benchmark, k, samples):
    benchmark.extra_info["instances"] = samples
    report = benchmark.pedantic(reduction_sweep, (k,), {"samples": samples},
                                rounds=5, warmup_rounds=1)
    assert report.ok and report.instances == samples
