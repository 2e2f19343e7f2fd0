"""Difference tables, Walsh sweeps, and classification flags."""

import random
from collections import Counter
from math import gcd

import numpy as np
import pytest

from gf2lab import (
    build_lut,
    classify,
    ddt_rows,
    differential_uniformity,
    f_mul,
    f_pow,
    field_make,
    lut_from_values,
    nonlinearity,
    power_delta,
    power_walsh_spectrum,
    trace_abs,
    walsh_row,
    walsh_spectrum,
)
from gf2lab import spectra
from gf2lab.catalog import _desk_rows
from gf2lab.field import _log_exp_tables
from gf2lab.spectra import (WALSH_BLOCK_COEFFS, require_desk_scale,
                            walsh_coefficient_direct)


def test_build_lut_matches_scalar_pow():
    cases = [(4, None, 7), (5, None, 3), (6, None, 13), (6, None, 62),
             (6, None, 63),                # d = 2^n - 1: nonzero x maps to 1
             (5, None, 100), (7, None, 133),  # d >= 2^n
             (6, None, (1 << 70) + 3),     # d > 2^64
             (8, 0x11D, 21)]               # alternate modulus
    for n, poly, d in cases:
        s = field_make(n, poly)
        table = build_lut(s, d)
        for x in range(s.size):
            assert int(table.lut[x]) == f_pow(s, x, d)


def test_tables_are_read_only():
    s = field_make(4)
    with pytest.raises(ValueError):
        build_lut(s, 7).lut[0] = 1
    values = np.arange(s.size, dtype=np.int64)
    table = lut_from_values(s, values)
    with pytest.raises(ValueError):
        table.lut[0] = 1
    values[0] = 5  # the caller's array is copied, never frozen
    assert int(table.lut[0]) == 0


def test_build_lut_edge_exponents():
    s = field_make(4)
    assert list(build_lut(s, 0).lut) == [1] * s.size  # 0^0 = 1 convention
    assert list(build_lut(s, 1).lut) == list(range(s.size))
    with pytest.raises(ValueError):
        build_lut(s, -1)


def test_lut_from_values_validation():
    s = field_make(3)
    good = lut_from_values(s, list(range(8)))
    assert good.spec == s
    with pytest.raises(ValueError):
        lut_from_values(s, list(range(7)))
    with pytest.raises(ValueError):
        lut_from_values(s, [0] * 7 + [8])
    with pytest.raises(ValueError):
        lut_from_values(s, [0] * 7 + [-1])


def test_differential_uniformity_known_values():
    table = build_lut(field_make(4), 7)
    delta, ddt = differential_uniformity(table, want_table=True)
    assert delta == 4
    assert ddt is not None and ddt.shape == (15, 16)
    assert differential_uniformity(table)[1] is None
    # the identity map concentrates each difference row on a single value
    ident = build_lut(field_make(4), 1)
    delta, _ = differential_uniformity(ident)
    assert delta == 16
    # the cube map is APN on odd-degree fields
    delta, _ = differential_uniformity(build_lut(field_make(5), 3))
    assert delta == 2


@pytest.mark.parametrize("n,d", [(4, 7), (6, 5), (6, 62), (8, 21)])
def test_ddt_row_properties(n, d):
    table = build_lut(field_make(n), d)
    size = 1 << n
    _, ddt = differential_uniformity(table, want_table=True)
    for a, row in enumerate(ddt_rows(table), start=1):
        assert row.a == a
        counts = row.counts
        assert counts.sum() == size
        assert not (counts & 1).any()  # solutions pair up as {x, x+a}
        assert (ddt[a - 1] == counts).all()


def test_ddt_counts_against_direct_enumeration():
    rng = random.Random(404)
    s = field_make(6)
    lut = list(range(s.size))
    rng.shuffle(lut)
    lut[3] = lut[5]  # break bijectivity so rows are not uniform
    table = lut_from_values(s, lut)
    _, ddt = differential_uniformity(table, want_table=True)
    for _ in range(100):
        a = rng.randrange(1, s.size)
        b = rng.randrange(s.size)
        direct = sum(1 for x in range(s.size) if lut[x ^ a] ^ lut[x] == b)
        assert ddt[a - 1][b] == direct


def test_walsh_against_direct_definition():
    rng = random.Random(777)
    s = field_make(5)
    lut = [rng.randrange(s.size) for _ in range(s.size)]
    table = lut_from_values(s, lut)
    ws = walsh_spectrum(table, keep_table=True)
    for _ in range(50):
        a = rng.randrange(s.size)
        b = rng.randrange(1, s.size)
        assert int(ws.table[b - 1, a]) == walsh_coefficient_direct(table, a, b)


def test_walsh_row_matches_full_table():
    table = build_lut(field_make(6), 13)
    ws = walsh_spectrum(table, keep_table=True)
    for b in (1, 7, 33, 63):
        assert (walsh_row(table, b) == ws.table[b - 1]).all()
    with pytest.raises(ValueError):
        walsh_row(table, 0)


@pytest.mark.parametrize("n", range(2, 11))
def test_parseval_per_component(n):
    s = field_make(n)
    table = build_lut(s, 3)
    ws = walsh_spectrum(table, keep_table=True)
    # for each component b, the coefficients over all a carry total mass 2^(2n)
    sq = ws.table.astype(np.int64) ** 2
    assert (sq.sum(axis=1) == 1 << (2 * n)).all()


def test_walsh_histogram_mass():
    table = build_lut(field_make(6), 62)
    ws = walsh_spectrum(table, keep_table=False)
    size = 1 << 6
    assert sum(ws.histogram.values()) == size * (size - 1)
    assert ws.max_abs == max(abs(v) for v in ws.histogram)


def test_permutation_iff_all_components_balanced():
    rng = random.Random(1234)
    s = field_make(6)
    for trial in range(100):
        lut = list(range(s.size))
        rng.shuffle(lut)
        if trial % 2:
            lut[rng.randrange(s.size)] = lut[rng.randrange(s.size)]
        table = lut_from_values(s, lut)
        is_perm = len(set(lut)) == s.size
        ws = walsh_spectrum(table, keep_table=True)
        balanced = bool((ws.table[:, 0] == 0).all())  # coefficients at a = 0
        assert balanced == is_perm
        assert classify(table).is_permutation == is_perm


def test_classify_known_maps():
    # cube map on GF(2^5): APN, and the spectrum {0, +-8} makes it almost bent
    summary = classify(build_lut(field_make(5), 3))
    assert summary.delta == 2 and summary.is_apn
    assert summary.is_ab is True
    assert set(summary.lam) == {0, 8, -8}
    assert summary.walsh_max == 8
    # x^7 on GF(2^4): differentially 4, even degree so no almost-bent flag
    summary = classify(build_lut(field_make(4), 7))
    assert summary.delta == 4 and not summary.is_apn
    assert summary.is_ab is None
    assert summary.is_permutation
    assert summary.nl == 4 and summary.walsh_max == 8


def test_nonlinearity_identity():
    for n, d in [(4, 7), (5, 3), (6, 13), (8, 254)]:
        table = build_lut(field_make(n), d)
        ws = walsh_spectrum(table, keep_table=False)
        assert nonlinearity(table) == (1 << (n - 1)) - ws.max_abs // 2


def test_spectrum_invariant_under_basis_change():
    # same power map, two different moduli: delta and the histogram agree
    a = build_lut(field_make(8, 0x11B), 21)
    b = build_lut(field_make(8, 0x11D), 21)
    da, _ = differential_uniformity(a, want_table=False)
    db, _ = differential_uniformity(b, want_table=False)
    assert da == db == 4
    wa = walsh_spectrum(a, keep_table=False)
    wb = walsh_spectrum(b, keep_table=False)
    assert wa.histogram == wb.histogram
    assert sorted(wa.histogram) == [-32, -16, 0, 16, 32]


def test_walsh_blocks_agree_with_rows_and_histogram():
    n = 10
    s = field_make(n)
    block = WALSH_BLOCK_COEFFS >> n
    assert 1 < block and 2 * block < s.size - 1  # several blocks, a short last one
    table = lut_from_values(s, np.random.default_rng(10).integers(0, s.size, s.size))
    ws = walsh_spectrum(table, keep_table=True)
    assert ws.table.dtype == np.int32
    assert ws.histogram == Counter(ws.table.ravel().tolist())
    assert ws.max_abs == int(np.abs(ws.table).max())
    for lo in range(1, s.size, block):
        for b in (lo, min(lo + block, s.size) - 1):
            assert (walsh_row(table, b) == ws.table[b - 1]).all()


@pytest.mark.parametrize("n", [2, 5, 10])
def test_constant_maps_reach_both_extreme_coefficients(n):
    # f = c: f^(a, b) is 0 for a != 0 and 2^n * (-1)^Tr(bc) for a = 0
    size = 1 << n
    s = field_make(n)
    zero = walsh_spectrum(lut_from_values(s, [0] * size), keep_table=False)
    assert zero.histogram == Counter({size: size - 1, 0: (size - 1) ** 2})
    one = walsh_spectrum(build_lut(s, 0), keep_table=False)
    assert one.histogram == Counter({size: size // 2 - 1, -size: size // 2,
                                     0: (size - 1) ** 2})
    assert zero.max_abs == one.max_abs == size


def test_desk_scale_threshold_is_degree_16():
    require_desk_scale(15, False)
    require_desk_scale(16, True)
    with pytest.raises(ValueError, match="deep=True.*--deep"):
        require_desk_scale(16, False)


def test_deep_degree_gate():
    s = field_make(18)
    table = build_lut(s, 3)  # building the table itself is cheap
    with pytest.raises(ValueError, match="deep"):
        differential_uniformity(table)
    with pytest.raises(ValueError, match="deep"):
        walsh_spectrum(table)


def test_trace_mask_consistency():
    # the mask trick behind the fast transform must reproduce Tr(a*y) exactly
    from gf2lab.spectra import _trace_masks
    for n in (4, 5, 6):
        s = field_make(n)
        masks = _trace_masks(s)
        for a in range(s.size):
            for y in range(s.size):
                parity = bin(int(masks[a]) & y).count("1") & 1
                assert parity == trace_abs(s, f_mul(s, a, y))


def _orbit_cases():
    catalog = _desk_rows(12, True)
    for n in range(2, 13):
        order = (1 << n) - 1
        coprime = next(d for d in range(3, 4 * order) if gcd(d, order) == 1)
        ds = {coprime, 3, 0, order, order - 1, (1 << 70) + 3}
        # the largest proper divisor of 2^n - 1, when 2^n - 1 is not prime
        p = next(p for p in range(2, order + 1) if order % p == 0)
        if p < order:
            ds.add(order // p)
        ds |= {fs.d for fs in catalog if fs.n == n}
        for d in sorted(ds):
            yield n, None, d
    yield 8, 0x11D, 21


@pytest.mark.parametrize("n,poly,d", list(_orbit_cases()))
def test_orbit_engine_matches_full_sweeps(n, poly, d):
    table = build_lut(field_make(n, poly), d)
    delta, _ = differential_uniformity(table, want_table=False)
    assert power_delta(table) == delta
    full = walsh_spectrum(table, keep_table=False)
    orbit = power_walsh_spectrum(table)
    assert orbit.max_abs == full.max_abs
    assert orbit.histogram == full.histogram
    assert orbit.table is None


def test_named_sweeps_stay_full_and_orbit_needs_an_exponent(monkeypatch):
    rows, bs = [], []
    ddt_row, walsh_block = spectra._ddt_row, spectra._walsh_block

    def counting_ddt_row(lut, idx, a):
        rows.append(a)
        return ddt_row(lut, idx, a)

    def counting_walsh_block(f, masks, block):
        bs.extend(block.tolist())
        return walsh_block(f, masks, block)

    monkeypatch.setattr(spectra, "_ddt_row", counting_ddt_row)
    monkeypatch.setattr(spectra, "_walsh_block", counting_walsh_block)
    n, d = 8, 21
    s = field_make(n)
    table = build_lut(s, d)
    differential_uniformity(table)
    assert rows == list(range(1, s.size))
    walsh_spectrum(table)
    assert bs == list(range(1, s.size))
    rows.clear()
    bs.clear()
    power_delta(table)
    assert rows == [1]
    power_walsh_spectrum(table)
    g = gcd(d, s.order)
    assert bs == _log_exp_tables(n, s.poly)[1][:g].tolist()
    plain = lut_from_values(s, table.lut)
    assert plain.exponent is None
    with pytest.raises(ValueError, match="build_lut"):
        power_delta(plain)
    with pytest.raises(ValueError, match="build_lut"):
        power_walsh_spectrum(plain)
    # one row is no full sweep: only the Walsh engine needs deep at n = 16
    big = build_lut(field_make(16), 273)
    assert power_delta(big) == 4
    with pytest.raises(ValueError, match="deep"):
        power_walsh_spectrum(big)
