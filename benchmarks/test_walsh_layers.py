"""Per-layer timings of one block of the full Walsh sweep.

The three steps of :func:`gf2lab.spectra.walsh_spectrum` are timed on one
block of a seeded random table: the sign build, the fast Walsh-Hadamard
transform and the offset histogram.  A block holds
``WALSH_BLOCK_COEFFS >> n`` components at n = 12 and 13, and one component
at n = 20.  Each step is reached through the module's own functions, never
a copy of them, so the file measures whatever block layout the module uses.
The cast of the table by ``_block_lut``, which a sweep does once, not once
per block, is timed as its own case; the sign build and the histogram
start from the table already cast.
Block sizes differ between layouts, so every case records its coefficient
count as ``extra_info["coeffs"]``: compare time per coefficient.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-json=out.json
"""

import numpy as np
import pytest

from gf2lab import field_make, lut_from_values
from gf2lab import spectra

ROUNDS = 30


@pytest.fixture(scope="module", params=[12, 13, 20], ids=lambda n: f"n{n}")
def block(request):
    n = request.param
    s = field_make(n)
    f = lut_from_values(s, np.random.default_rng(n).integers(0, s.size, s.size))
    # the first block of the full sweep: the masks 1 .. R
    vs = np.arange(1, max(1, spectra.WALSH_BLOCK_COEFFS >> n) + 1)
    return f, vs, spectra._block_lut(f)


@pytest.fixture
def timed(benchmark, block):
    f, vs, _ = block
    benchmark.extra_info["coeffs"] = len(vs) * f.spec.size
    return benchmark


def _untransformed(monkeypatch, lut, vs):
    """The block as _walsh_block builds it, before the transform."""
    with monkeypatch.context() as m:
        m.setattr(spectra, "_fwht_rows", lambda mat: mat)
        return spectra._walsh_block(lut, vs)


def test_block_cast(benchmark, block):
    # once per sweep: its coefficient count is the table's
    f, _, lut = block
    benchmark.extra_info["coeffs"] = f.spec.size
    cast = benchmark.pedantic(spectra._block_lut, (f,), rounds=ROUNDS, warmup_rounds=1)
    assert cast.dtype == lut.dtype and (cast == f.lut).all()


def test_sign_build(timed, monkeypatch, block):
    f, vs, lut = block
    monkeypatch.setattr(spectra, "_fwht_rows", lambda mat: mat)
    signs = timed.pedantic(spectra._walsh_block, (lut, vs),
                           rounds=ROUNDS, warmup_rounds=1)
    assert signs.size == len(vs) * f.spec.size
    assert np.isin(signs, (-1, 1)).all()


def test_fwht_block(timed, monkeypatch, block):
    _, vs, lut = block
    signs = _untransformed(monkeypatch, lut, vs)
    coeffs = timed.pedantic(spectra._fwht_rows, setup=lambda: ((signs.copy(),), {}),
                            rounds=ROUNDS, warmup_rounds=1)
    assert (coeffs == spectra._walsh_block(lut, vs)).all()


def test_histogram_step(timed, monkeypatch, block):
    f, vs, lut = block
    coeffs = spectra._walsh_block(lut, vs)
    fresh = []
    # _walsh_counts over one block, fed a fresh copy of the transformed block
    # and the table already cast, whose cast test_block_cast times
    monkeypatch.setattr(spectra, "_walsh_block", lambda lut, vs: fresh.pop())
    monkeypatch.setattr(spectra, "_block_lut", lambda f: lut)

    def setup():
        fresh.append(coeffs.copy())
        return (f, vs), {}

    ws = timed.pedantic(spectra._walsh_counts, setup=setup,
                        rounds=ROUNDS, warmup_rounds=1)
    assert sum(ws.histogram.values()) == len(vs) * f.spec.size
