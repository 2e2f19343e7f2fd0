"""Per-layer timings of one block of the full Walsh sweep.

The three steps of :func:`gf2lab.spectra.walsh_spectrum` are timed on one
block of a seeded random table: the sign build, the fast Walsh-Hadamard
transform and the offset histogram.  A block holds
``WALSH_BLOCK_COEFFS >> n`` components at n = 12 and 13, and one component
at n = 20.  Each step is reached through the module's own functions, never
a copy of them, so the file measures whatever block layout the module uses.
The sign build starts from the table already cast by ``_block_lut``, which
a sweep does once, not once per block.
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
    bs = np.arange(1, max(1, spectra.WALSH_BLOCK_COEFFS >> n) + 1)
    return f, spectra._trace_masks(s), bs, spectra._block_lut(f)


@pytest.fixture
def timed(benchmark, block):
    f, _, bs, _ = block
    benchmark.extra_info["coeffs"] = len(bs) * f.spec.size
    return benchmark


def _untransformed(monkeypatch, lut, masks, bs):
    """The block as _walsh_block builds it, before the transform."""
    with monkeypatch.context() as m:
        m.setattr(spectra, "_fwht_rows", lambda mat: mat)
        return spectra._walsh_block(lut, masks, bs)


def test_sign_build(timed, monkeypatch, block):
    f, masks, bs, lut = block
    monkeypatch.setattr(spectra, "_fwht_rows", lambda mat: mat)
    signs = timed.pedantic(spectra._walsh_block, (lut, masks, bs),
                           rounds=ROUNDS, warmup_rounds=1)
    assert signs.size == len(bs) * f.spec.size
    assert np.isin(signs, (-1, 1)).all()


def test_fwht_block(timed, monkeypatch, block):
    _, masks, bs, lut = block
    signs = _untransformed(monkeypatch, lut, masks, bs)
    coeffs = timed.pedantic(spectra._fwht_rows, setup=lambda: ((signs.copy(),), {}),
                            rounds=ROUNDS, warmup_rounds=1)
    assert (coeffs == spectra._walsh_block(lut, masks, bs)).all()


def test_histogram_step(timed, monkeypatch, block):
    f, masks, bs, lut = block
    coeffs = spectra._walsh_block(lut, masks, bs)
    fresh = []
    # _walsh_counts over one block, fed a fresh copy of the transformed block
    monkeypatch.setattr(spectra, "_walsh_block", lambda lut, masks, bs: fresh.pop())

    def setup():
        fresh.append(coeffs.copy())
        return (f, masks, bs), {}

    ws = timed.pedantic(spectra._walsh_counts, setup=setup,
                        rounds=ROUNDS, warmup_rounds=1)
    assert sum(ws.histogram.values()) == len(bs) * f.spec.size
