"""Acceptance criteria for the package, one test per numbered criterion.

Each test is tagged with the ``acceptance`` marker; a summary section at the
end of the pytest run prints one PASS/FAIL line per criterion.  Time limits
are asserted with generous margins so a loaded machine does not flake.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from gf2lab import (
    build_lut,
    classify,
    ddt_rows,
    differential_uniformity,
    dobbertin_exponent,
    family_exponent,
    field_make,
    lut_from_values,
    permutation_check,
    reduction_sweep,
    run_all_checks,
    walsh_spectrum,
)
from gf2lab import spectra
from gf2lab.cli import main
from gf2lab.spectra import walsh_coefficient_direct
from gf2lab.theorems import _family_table


@pytest.mark.acceptance(1, "family differential uniformity is exactly 4 by full "
                           "sweep for k=1..3, and for k=4 under the deep flag")
def test_criterion_1_delta_full_sweeps():
    for k in (1, 2):
        delta = differential_uniformity(_family_table(k))
        assert delta == 4, f"k={k} delta {delta}"
    t0 = time.perf_counter()
    delta = differential_uniformity(_family_table(3))
    k3_elapsed = time.perf_counter() - t0
    assert delta == 4
    assert k3_elapsed < 60, f"k=3 sweep took {k3_elapsed:.1f}s"
    t0 = time.perf_counter()
    delta = differential_uniformity(_family_table(4), deep=True)
    k4_elapsed = time.perf_counter() - t0
    assert delta == 4
    assert k4_elapsed < 1800, f"k=4 sweep took {k4_elapsed:.1f}s"


@pytest.mark.acceptance(2, "family Walsh extremum is 2^(2k+1) and nonlinearity "
                           "2^(4k-1) - 2^(2k) for k=1..3 by full transform sweep")
def test_criterion_2_walsh_extremum():
    expected = {1: (8, 4), 2: (32, 112), 3: (128, 1984)}
    for k, (wmax, nl) in expected.items():
        t0 = time.perf_counter()
        ws = walsh_spectrum(_family_table(k))
        elapsed = time.perf_counter() - t0
        assert ws.max_abs == wmax == 1 << (2 * k + 1)
        n = 4 * k
        assert (1 << (n - 1)) - ws.max_abs // 2 == nl
        if k == 3:
            assert elapsed < 600, f"k=3 transform took {elapsed:.1f}s"


@pytest.mark.acceptance(3, "family permutation criterion: gcd(d, 2^(4k)-1) is "
                           "1,3,1,3,1,3 for k=1..6 and matches table bijectivity")
def test_criterion_3_permutation_criterion():
    gcds = [math.gcd(dobbertin_exponent(k), (1 << (4 * k)) - 1)
            for k in range(1, 7)]
    assert gcds == [1, 3, 1, 3, 1, 3]
    for k in (1, 2, 3):
        n = 4 * k
        check = permutation_check(n, dobbertin_exponent(k))
        lut = _family_table(k).lut
        bijective = bool(np.bincount(lut, minlength=1 << n).all())
        assert check.is_permutation == bijective == (k % 2 == 1)


@pytest.mark.acceptance(4, "catalog cross-checks: gold and kasami on GF(2^6) and "
                           "inversion on GF(2^8) are 4-uniform permutations")
def test_criterion_4_catalog_cross_checks():
    t0 = time.perf_counter()
    gold = family_exponent("gold", n=6, s=2)
    assert gold.d == 5
    summary = classify(build_lut(field_make(6), gold.d))
    assert summary.delta == 4 and summary.is_permutation
    kasami = family_exponent("kasami", n=6, s=2)
    assert kasami.d == 13
    summary = classify(build_lut(field_make(6), kasami.d))
    assert summary.delta == 4 and summary.is_permutation
    inv = classify(build_lut(field_make(8), (1 << 8) - 2))
    assert inv.delta == 4 and inv.is_permutation
    assert inv.nl == 112
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"catalog cross-checks took {elapsed:.1f}s"


@pytest.mark.acceptance(5, "derivation replays report zero falsifications: "
                           "exhaustive pair sweeps for k<=2, 1000 sampled pairs "
                           "at k=3, exhaustive split-coordinate suites for k<=3")
def test_criterion_5_replays():
    rep1 = reduction_sweep(1)
    assert rep1.instances == 240 and rep1.failures == 0
    rep2 = reduction_sweep(2)
    assert rep2.instances == 65280 and rep2.failures == 0
    rep3 = reduction_sweep(3, samples=1000)
    assert rep3.instances == 1000 and rep3.failures == 0
    for k in (1, 2, 3):
        reports = run_all_checks([k], samples=50)
        mm = [r for r in reports if r.name.startswith("mm-")]
        assert len(mm) == 6
        for r in reports:
            assert r.failures == 0, f"{r.name}: {r.first_failure}"


@pytest.mark.acceptance(6, "spectrum engine self-checks: per-component Parseval "
                           "through degree 10, difference-table row invariants, "
                           "transform vs direct sums, modulus independence, and "
                           "the almost-bent witness x^3 on GF(2^5)")
def test_criterion_6_engine_self_checks():
    # Parseval per component for every degree up to 10; the block kernel
    # puts component b in column b - 1 and f^(a, b) in row masks[a]
    for n in range(2, 11):
        s = field_make(n)
        coeffs = spectra._walsh_block(spectra._block_lut(build_lut(s, 3)),
                                      spectra._trace_masks(s), np.arange(1, s.size))
        sq = coeffs.astype(np.int64) ** 2
        assert (sq.sum(axis=0) == 1 << (2 * n)).all(), n
    # difference-table rows: all counts even, each row sums to 2^n
    for n, d in ((4, 7), (6, 62), (8, 21)):
        size = 1 << n
        for row in ddt_rows(build_lut(field_make(n), d)):
            assert row.counts.sum() == size
            assert not (row.counts & 1).any()
    # fast transform vs the direct triple sum on 50 random coefficients
    rng = random.Random(0x1CEB00DA)
    s = field_make(5)
    table = lut_from_values(s, [rng.randrange(s.size) for _ in range(s.size)])
    masks = spectra._trace_masks(s)
    coeffs = spectra._walsh_block(spectra._block_lut(table), masks, np.arange(1, s.size))
    for _ in range(50):
        a, b = rng.randrange(s.size), rng.randrange(1, s.size)
        assert int(coeffs[masks[a], b - 1]) == walsh_coefficient_direct(table, a, b)
    # the spectrum multiset does not depend on the modulus choice
    wa = walsh_spectrum(build_lut(field_make(8, 0x11B), 21))
    wb = walsh_spectrum(build_lut(field_make(8, 0x11D), 21))
    assert wa.histogram == wb.histogram
    da = differential_uniformity(build_lut(field_make(8, 0x11B), 21))
    db = differential_uniformity(build_lut(field_make(8, 0x11D), 21))
    assert da == db
    # almost-bent witness: the cube map on GF(2^5)
    summary = classify(build_lut(field_make(5), 3))
    assert summary.is_ab is True and summary.is_apn
    assert set(summary.lam) == {0, 8, -8}


@pytest.mark.acceptance(7, "analyze and verify outputs are byte-identical for "
                           "1, 4, and 8 worker threads (timings aside)")
def test_criterion_7_thread_determinism(tmp_path, capsys):
    stdouts, payloads = [], []
    for threads in ("1", "4", "8"):
        path = tmp_path / f"analyze-t{threads}.json"
        rc = main(["analyze", "--exp", "73", "--n", "12",
                   "--threads", threads, "--json", str(path)])
        stdouts.append(capsys.readouterr().out)
        assert rc == 0
        doc = json.loads(path.read_text())
        doc.pop("timings_ms")
        payloads.append(json.dumps(doc, sort_keys=True))
    assert stdouts[0] == stdouts[1] == stdouts[2]
    assert payloads[0] == payloads[1] == payloads[2]

    verify_outs = []
    for threads in ("1", "4", "8"):
        rc = main(["verify", "--k", "1,2", "--samples", "150",
                   "--threads", threads])
        verify_outs.append(capsys.readouterr().out)
        assert rc == 0
    assert verify_outs[0] == verify_outs[1] == verify_outs[2]
