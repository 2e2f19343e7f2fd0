"""Difference tables, Walsh sweeps, and classification flags."""

import random
from collections import Counter
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2lab import (
    build_lut,
    classify,
    ddt_rows,
    difference_row,
    differential_uniformity,
    dobbertin_exponent,
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


def _walsh_table(f):
    """(masks, coeffs): coeffs[masks[a], b - 1] = f^(a, b) for every a and b != 0.

    One call of the block kernel over every component; row u of column
    b - 1 is the coefficient at the a with masks[a] = u.
    """
    masks = spectra._trace_masks(f.spec)
    return masks, spectra._walsh_block(spectra._block_lut(f), masks, np.arange(1, f.spec.size))


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
    # every integer dtype is taken, and stored as int64
    for dtype in (np.uint8, np.int16, np.uint32, np.uint64):
        table = lut_from_values(s, np.arange(8, dtype=dtype))
        assert table.lut.dtype == np.int64 and table.lut.tolist() == list(range(8))
    with pytest.raises(ValueError, match="out of range"):
        lut_from_values(s, np.array([0] * 7 + [2**64 - 1], dtype=np.uint64))


@pytest.mark.parametrize("values", [
    [0.9, 1.2, 2.5, 3.99],                 # would truncate to the identity
    [0, 1, 2, 3.0],
    np.arange(4, dtype=np.float64),
    ["3", "1", "0", "2"],                  # would be parsed
    [True, False, True, False],
    [0, 1, None, 3],
    np.arange(4, dtype=object),
], ids=["floats", "one-float", "float-array", "strings", "bools", "none", "objects"])
def test_lut_from_values_rejects_non_integers(values):
    with pytest.raises(ValueError, match="must be integers"):
        lut_from_values(field_make(2), values)


@pytest.mark.parametrize("wide", [2**63, 2**64, 2**70, -2**70],
                         ids=["2^63", "2^64", "2^70", "-2^70"])
def test_lut_from_values_wide_ints_are_out_of_range(wide):
    # numpy keeps these as float64 or object entries, never as int64
    with pytest.raises(ValueError, match="out of range"):
        lut_from_values(field_make(2), [0, 1, 2, wide])


def test_differential_uniformity_known_values():
    table = build_lut(field_make(4), 7)
    delta = differential_uniformity(table)
    assert type(delta) is int and delta == 4
    rows = [row.counts for row in ddt_rows(table)]
    assert np.array(rows).shape == (15, 16)
    # the identity map concentrates each difference row on a single value
    ident = build_lut(field_make(4), 1)
    assert differential_uniformity(ident) == 16
    # the cube map is APN on odd-degree fields
    assert differential_uniformity(build_lut(field_make(5), 3)) == 2


@pytest.mark.parametrize("n,d", [(4, 7), (6, 5), (6, 62), (8, 21)])
def test_ddt_row_properties(n, d):
    table = build_lut(field_make(n), d)
    size = 1 << n
    delta = 0
    for a, row in enumerate(ddt_rows(table), start=1):
        assert row.a == a
        counts = row.counts
        assert counts.sum() == size
        assert not (counts & 1).any()  # solutions pair up as {x, x+a}
        delta = max(delta, int(counts.max()))
    assert differential_uniformity(table) == delta


def test_ddt_counts_against_direct_enumeration():
    rng = random.Random(404)
    s = field_make(6)
    lut = list(range(s.size))
    rng.shuffle(lut)
    lut[3] = lut[5]  # break bijectivity so rows are not uniform
    table = lut_from_values(s, lut)
    ddt = np.array([row.counts for row in ddt_rows(table)])
    for _ in range(100):
        a = rng.randrange(1, s.size)
        b = rng.randrange(s.size)
        direct = sum(1 for x in range(s.size) if lut[x ^ a] ^ lut[x] == b)
        assert ddt[a - 1][b] == direct


# power maps and seeded random tables: (kind, n, exponent or seed)
ROW_TABLES = [("power", 4, 7), ("power", 5, 3), ("power", 8, 21), ("power", 10, 73),
              ("random", 5, 1), ("random", 8, 2), ("random", 10, 3)]


def _row_table(kind, n, arg):
    s = field_make(n)
    if kind == "power":
        return build_lut(s, arg)
    return lut_from_values(s, np.random.default_rng(arg).integers(0, s.size, s.size))


def _solution_sets(lut, a):
    """{b: [x : f(x) + f(x + a) = b]} by one pass over x, in increasing x."""
    sets = {}
    for x in range(len(lut)):
        sets.setdefault(lut[x] ^ lut[x ^ a], []).append(x)
    return sets


@pytest.mark.parametrize("kind,n,arg", ROW_TABLES)
def test_difference_row_holds_the_derivative_and_the_ddt_row(kind, n, arg):
    f = _row_table(kind, n, arg)
    lut = f.lut.tolist()
    rows = list(ddt_rows(f))
    for a in {1, 2, f.spec.size - 1, *random.Random(n).sample(range(1, f.spec.size), 3)}:
        row = difference_row(f, a)
        assert row.a == a
        assert row.values.tolist() == [lut[x] ^ lut[x ^ a] for x in range(f.spec.size)]
        assert np.array_equal(row.counts, rows[a - 1].counts)
        assert np.array_equal(row.values, rows[a - 1].values)


@pytest.mark.parametrize("kind,n,arg", ROW_TABLES)
def test_difference_row_sets_match_brute_force(kind, n, arg):
    f = _row_table(kind, n, arg)
    size = f.spec.size
    rng = random.Random(n)
    for a in {1, size - 1, *rng.sample(range(1, size), 3)}:
        row = difference_row(f, a)
        direct = _solution_sets(f.lut.tolist(), a)
        width = max(4, int(row.counts.max()))
        # every b in field order, then a few in any order with repeats
        for bs in (list(range(size)), [rng.randrange(size) for _ in range(7)]):
            sols, valid = row.sets(bs)
            assert sols.shape == valid.shape == (len(bs), width)
            for i, b in enumerate(bs):
                members = direct.get(b, [])
                assert sols[i, :len(members)].tolist() == members
                assert valid[i].tolist() == [j < len(members) for j in range(width)]
                assert not sols[i, len(members):].any()


def test_difference_row_sets_of_an_unreached_b_are_empty():
    f = build_lut(field_make(6), 5)
    row = difference_row(f, 1)
    b = int(np.flatnonzero(row.counts == 0)[0])
    sols, valid = row.sets([b])
    assert sols.shape == (1, 4) and not valid.any() and not sols.any()


def test_difference_row_sets_of_no_b_are_empty():
    # np.asarray([]) is float64, which cannot index the row
    row = difference_row(build_lut(field_make(6), 5), 1)
    for bs in ([], np.array([], dtype=np.int64)):
        sols, valid = row.sets(bs)
        assert sols.shape == valid.shape == (0, 4)


def test_difference_row_sets_refuse_a_non_integer_b():
    # 1.5 is not truncated to the element 1
    row = difference_row(build_lut(field_make(5), 3), 3)
    for bs in ([1.5], [1.0], [0, 2.5], [True]):
        with pytest.raises(ValueError, match="not a field element"):
            row.sets(bs)


def test_difference_row_sets_widen_past_four_slots():
    # a random table has rows with more than four solutions for some b
    f = _row_table("random", 6, 7)
    row = max((difference_row(f, a) for a in range(1, f.spec.size)),
              key=lambda r: int(r.counts.max()))
    delta = int(row.counts.max())
    assert delta > 4
    b = int(row.counts.argmax())
    sols, valid = row.sets([b, 0])
    assert sols.shape == (2, delta) and valid[0].all()
    assert sols[0].tolist() == _solution_sets(f.lut.tolist(), row.a)[b]


def test_difference_row_refuses_elements_outside_the_field():
    f = build_lut(field_make(5), 3)
    for a in (0, -1, -31, 32, 1 << 40):
        with pytest.raises(ValueError, match="nonzero field element"):
            difference_row(f, a)
    row = difference_row(f, 3)
    for bs in ([-1], [32], [0, 5, 32], np.array([[1], [-2]])):
        with pytest.raises(ValueError, match="not a field element"):
            row.sets(bs)


def test_walsh_against_direct_definition():
    rng = random.Random(777)
    s = field_make(5)
    lut = [rng.randrange(s.size) for _ in range(s.size)]
    table = lut_from_values(s, lut)
    masks, coeffs = _walsh_table(table)
    for _ in range(50):
        a = rng.randrange(s.size)
        b = rng.randrange(1, s.size)
        assert int(coeffs[masks[a], b - 1]) == walsh_coefficient_direct(table, a, b)


def test_walsh_row_matches_full_table():
    # rows against the kernel's columns: test_walsh_blocks_agree_with_rows_and_histogram
    table = build_lut(field_make(6), 13)
    with pytest.raises(ValueError):
        walsh_row(table, 0)


@pytest.mark.parametrize("n", range(2, 11))
def test_parseval_per_component(n):
    s = field_make(n)
    _, coeffs = _walsh_table(build_lut(s, 3))
    # for each component b, the coefficients over all a carry total mass 2^(2n)
    sq = coeffs.astype(np.int64) ** 2
    assert (sq.sum(axis=0) == 1 << (2 * n)).all()


def test_walsh_histogram_mass():
    table = build_lut(field_make(6), 62)
    ws = walsh_spectrum(table)
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
        _, coeffs = _walsh_table(table)
        balanced = bool((coeffs[0] == 0).all())  # row masks[0] = 0 holds a = 0
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
        ws = walsh_spectrum(table)
        assert nonlinearity(table) == (1 << (n - 1)) - ws.max_abs // 2


def test_spectrum_invariant_under_basis_change():
    # same power map, two different moduli: delta and the histogram agree
    a = build_lut(field_make(8, 0x11B), 21)
    b = build_lut(field_make(8, 0x11D), 21)
    assert differential_uniformity(a) == differential_uniformity(b) == 4
    wa = walsh_spectrum(a)
    wb = walsh_spectrum(b)
    assert wa.histogram == wb.histogram
    assert sorted(wa.histogram) == [-32, -16, 0, 16, 32]


def test_walsh_blocks_agree_with_rows_and_histogram():
    n = 10
    s = field_make(n)
    block = WALSH_BLOCK_COEFFS >> n
    assert 1 < block and 2 * block < s.size - 1  # several blocks, a short last one
    table = lut_from_values(s, np.random.default_rng(10).integers(0, s.size, s.size))
    ws = walsh_spectrum(table)
    masks, coeffs = _walsh_table(table)
    assert ws.histogram == Counter(coeffs.ravel().tolist())
    assert ws.max_abs == int(np.abs(coeffs).max())
    # the first and last b of every block: 1, R, R + 1, ..., 2^n - 1
    for lo in range(1, s.size, block):
        for b in (lo, min(lo + block, s.size) - 1):
            assert (walsh_row(table, b) == coeffs[masks, b - 1]).all()


@pytest.mark.parametrize("n", [2, 5, 10])
def test_constant_maps_reach_both_extreme_coefficients(n):
    # f = c: f^(a, b) is 0 for a != 0 and 2^n * (-1)^Tr(bc) for a = 0
    size = 1 << n
    s = field_make(n)
    zero = walsh_spectrum(lut_from_values(s, [0] * size))
    assert zero.histogram == Counter({size: size - 1, 0: (size - 1) ** 2})
    one = walsh_spectrum(build_lut(s, 0))
    assert one.histogram == Counter({size: size // 2 - 1, -size: size // 2,
                                     0: (size - 1) ** 2})
    assert zero.max_abs == one.max_abs == size


@pytest.mark.parametrize("n", [14, 15])
def test_walsh_blocks_hold_both_extremes_at_the_dtype_switch(n):
    # n = 14 is the last degree with int16 blocks, n = 15 the first with
    # int32.  f = 0 puts +2^n at a = 0 of every component, and the constant
    # 1 puts (-1)^Tr(b) * 2^n there; both pass through blocks of several
    # columns and a short last block.
    s = field_make(n)
    size = s.size
    masks = spectra._trace_masks(s)
    block = WALSH_BLOCK_COEFFS >> n
    assert block > 1
    bs = np.linspace(1, size - 1, 2 * block + 2, dtype=np.int64)
    odd = sum(trace_abs(s, int(b)) for b in bs)
    assert 0 < odd < len(bs)
    zeros = len(bs) * (size - 1)
    zero = spectra._walsh_counts(lut_from_values(s, np.zeros(size, np.int64)), masks, bs)
    assert zero.histogram == Counter({size: len(bs), 0: zeros})
    one = spectra._walsh_counts(build_lut(s, 0), masks, bs)
    assert one.histogram == Counter({size: len(bs) - odd, -size: odd, 0: zeros})
    assert zero.max_abs == one.max_abs == size
    table = lut_from_values(s, np.random.default_rng(n).integers(0, size, size))
    for a, b in ((0, 1), (0x1234, size - 1)):
        row = walsh_row(table, b)
        assert row.dtype == np.int32
        assert int(row[a]) == walsh_coefficient_direct(table, a, b)


def test_desk_scale_threshold_is_degree_16():
    require_desk_scale(15, False)
    require_desk_scale(16, True)
    with pytest.raises(ValueError, match="deep=True.*--deep"):
        require_desk_scale(16, False)


def test_desk_scale_budget_reads_the_rows():
    # rows * 2^n against (2^15 - 1) * 2^15 entries; each g divides 2^n - 1,
    # so the orbit of exponent g has g rows
    for n, runs, refused in ((16, 13107, 21845), (20, 1023, 1025), (24, 63, 65)):
        require_desk_scale(n, False, runs)
        with pytest.raises(ValueError, match=rf"GF\(2\^{n}\).*deep=True.*--deep"):
            require_desk_scale(n, False, refused)
        require_desk_scale(n, True, refused)
    require_desk_scale(15, False, None)
    require_desk_scale(15, False, 0)
    for exponent in (None, 0):
        with pytest.raises(ValueError, match=r"full sweep over GF\(2\^16\)"):
            require_desk_scale(16, False, exponent)


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
    assert power_delta(table) == differential_uniformity(table)
    full = walsh_spectrum(table)
    orbit = power_walsh_spectrum(table)
    assert orbit.max_abs == full.max_abs
    assert orbit.histogram == full.histogram


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
    assert plain.exponent == d
    lut = table.lut.copy()
    lut[5], lut[9] = lut[9], lut[5]
    swapped = lut_from_values(s, lut)
    with pytest.raises(ValueError, match="homogeneous table"):
        power_delta(swapped)
    with pytest.raises(ValueError, match="homogeneous table"):
        power_walsh_spectrum(swapped)
    # one row is no full sweep, and the orbit Walsh pass of x^273 (3 rows)
    # is within the budget at n = 16; that of x^21845 (21845 rows) is not
    big = build_lut(field_make(16), 273)
    assert power_delta(big) == 4
    assert power_walsh_spectrum(big).max_abs == 512
    assert classify(big).walsh_max == 512 and nonlinearity(big) == 32512
    wide = build_lut(field_make(16), 21845)
    for sweep in (power_walsh_spectrum, classify, nonlinearity):
        with pytest.raises(ValueError, match="deep"):
            sweep(wide)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exponent_is_read_from_the_table(data):
    n = data.draw(st.integers(2, 10), label="n")
    s = field_make(n)
    d = data.draw(st.integers(0, 4 * s.size), label="d")
    c = data.draw(st.integers(1, s.order), label="c")
    values = [f_mul(s, c, int(y)) for y in build_lut(s, d).lut]
    e = d % s.order
    assert lut_from_values(s, values).exponent == e
    x = data.draw(st.integers(1, s.order), label="x")
    v = data.draw(st.integers(0, s.order).filter(lambda v: v != values[x]), label="v")
    assert lut_from_values(s, values[:x] + [v] + values[x + 1:]).exponent is None
    v0 = data.draw(st.integers(0, s.order).filter(lambda v: v != values[0]), label="v0")
    moved = lut_from_values(s, [v0] + values[1:]).exponent
    assert moved == (None if e else 0)
    assert lut_from_values(s, [0] * s.size).exponent is None


@pytest.mark.parametrize("n", range(2, 13))
def test_build_lut_exponent_matches_the_table(n):
    # build_lut fills in d mod 2^n - 1; the table's own pass is the oracle
    s = field_make(n)
    ds = [0, s.order, 2 * s.order + 3, s.order - 1, 3]
    if n % 4 == 0:
        ds.append(dobbertin_exponent(n // 4))
    for d in ds:
        table = build_lut(s, d)
        assert table.exponent == lut_from_values(s, table.lut).exponent, d


def test_a_stale_label_cannot_reach_the_orbit_engine():
    # x^21 on GF(2^8) with two images swapped is no power map
    s = field_make(8)
    lut = build_lut(s, 21).lut.copy()
    lut[5], lut[9] = lut[9], lut[5]
    f = lut_from_values(s, lut)
    assert f.exponent is None
    summ = classify(f)
    full = walsh_spectrum(f)
    assert summ.delta == differential_uniformity(f) == 6
    assert (summ.walsh_max, summ.lam) == (full.max_abs, full.histogram)


def test_a_lut_copy_of_a_power_map_takes_the_orbit_engine(monkeypatch):
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
    n, d = 12, 2730
    s = field_make(n)
    copy = lut_from_values(s, build_lut(s, d).lut)
    summ = classify(copy)
    assert rows == [1]
    assert bs == _log_exp_tables(n, s.poly)[1][:gcd(d, s.order)].tolist()
    assert summ.delta == power_delta(build_lut(s, d))


@pytest.mark.parametrize("change", ["zero-off-0", "f(0)-not-constant"])
def test_rejected_tables_build_no_log_exp_tables(monkeypatch, change):
    s = field_make(10)
    lut = build_lut(s, 73).lut.copy()
    if change == "zero-off-0":
        lut[7] = 0
    else:
        lut[0] = 1

    def no_tables(n, poly):
        raise AssertionError("log/exp tables built for a rejected table")

    monkeypatch.setattr(spectra, "_arith", no_tables)
    assert lut_from_values(s, lut).exponent is None
