"""Derivation replays and the split-coordinate verification suite."""

import ast
import inspect
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2lab import (
    CheckReport,
    FunctionTable,
    MMWitness,
    VerificationError,
    all_gammas,
    build_lut,
    diff_solution_count,
    difference_row,
    differential_uniformity,
    dobbertin_exponent,
    f_inv,
    f_mul,
    f_pow,
    field_make,
    frobenius,
    lut_from_values,
    m4_sum_check,
    mm_basis,
    mm_crosscheck_all,
    mm_decomposition_check,
    mm_walsh_crosscheck,
    pi_fiber,
    pi_image,
    power_delta,
    power_walsh_spectrum,
    quartic_check_all,
    quartic_roots,
    reduction_sweep,
    reduction_trace,
    run_all_checks,
    solve_linearized,
    walsh_row,
    walsh_spectrum,
)
from gf2lab import spectra, theorems
from gf2lab.field import _Arith, _arith, _log_exp_tables, _mul
from gf2lab.spectra import walsh_coefficient_direct
from gf2lab.theorems import (
    DEFAULT_SEED,
    _family_table,
    _relative_trace,
    fiber_partition_check,
)


def test_dobbertin_exponent_values():
    assert [dobbertin_exponent(k) for k in (1, 2, 3, 4)] == [7, 21, 73, 273]


def test_k_range_validation():
    # every entry point reads its k through the family table, which checks it
    for call in (lambda: diff_solution_count(0, 1, 0), lambda: reduction_trace(0, 1, 0),
                 lambda: reduction_sweep(5), lambda: all_gammas(5), lambda: mm_basis(5),
                 lambda: theorems.delta_sweep(0)):
        with pytest.raises(ValueError, match=r"^k must be an integer in \[1, 4\], got [05]$"):
            call()
    # the split-coordinate basis is no full sweep: k = 4 runs without deep
    assert mm_basis(4).gamma in all_gammas(4)


def test_verify_counts_are_read_as_integers():
    # a float k or samples used to fail deep in default_poly or range, and a
    # boolean k named its rows k=True, through run_all_checks and the rows alike
    for call in (lambda: run_all_checks([2.0]), lambda: reduction_sweep(1, samples=2.5),
                 lambda: run_all_checks([1], samples=2.5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
    assert run_all_checks([True])[0].name == "delta-sweep[k=1]"
    assert theorems.delta_sweep(True).name == "delta-sweep[k=1]"
    assert reduction_sweep(True).name == "reduction-replay[k=1]"
    assert type(mm_basis(True).k) is type(reduction_trace(True, 1, 1).k) is int
    assert all_gammas(True) == all_gammas(1) == [1]


def test_diff_solution_count_validation():
    with pytest.raises(ValueError):
        diff_solution_count(1, 0, 3)
    with pytest.raises(ValueError):
        diff_solution_count(1, 16, 3)
    with pytest.raises(ValueError):
        diff_solution_count(1, 3, 16)


# (a, b) -> solution count at k = 1, covering every branch of the replay
K1_EXAMPLES = {(1, 1): 4, (1, 6): 2, (1, 9): 2, (1, 2): 0, (1, 0): 0, (1, 8): 0}


def test_diff_solution_count_against_scalar_loop():
    s = field_make(4)
    d = dobbertin_exponent(1)
    for (a, b), expected in K1_EXAMPLES.items():
        count, sols = diff_solution_count(1, a, b)
        assert count == expected
        assert len(sols) == count
        direct = {x for x in range(s.size)
                  if f_pow(s, x ^ a, d) ^ f_pow(s, x, d) == b}
        assert sols == direct


def test_count_never_exceeds_four_exhaustive_k1():
    for a in range(1, 16):
        for b in range(16):
            count, _ = diff_solution_count(1, a, b)
            assert count <= 4


# the checks of every replay that passes; the halving steps, which decide
# whether the roots p and q exist, show in aux and obstruction instead
EVERY_BRANCH = ("count-bound", "trace-codomain", "normalized-product-identity",
                "four-term-trace-identity", "pair-sum-quadratic")


def test_reduction_trace_branch_t_equal_one():
    tr = reduction_trace(1, 1, 9)
    assert tr.branch == "t=1" and tr.t == 1
    assert tr.obstruction is None
    assert len(tr.solutions_direct) == 2
    assert tr.solutions_via_quadratics == tr.solutions_direct
    assert set(tr.aux) == {"r", "s"}
    assert tr.checks == EVERY_BRANCH + ("pair-gap-constant", "half-gap-constant",
                                        "terminal-quadratic-cover", "terminal-quadratic-match")


def test_reduction_trace_branch_t_not_one():
    tr = reduction_trace(1, 1, 1)
    assert tr.branch == "t!=1" and tr.t != 1
    assert tr.obstruction is None
    assert len(tr.solutions_direct) == 4
    assert tr.solutions_via_quadratics == tr.solutions_direct
    p, q = tr.aux["p"], tr.aux["q"]
    for x, images in tr.aux["per_solution"].items():
        assert images["y_image"] in (p, p ^ 1)
        assert images["w_image"] in (q, q ^ 1)
    assert tr.checks == EVERY_BRANCH + ("terminal-pair-cover", "terminal-pair-match",
                                        "halving-image-membership", "second-halving-membership")


def test_reduction_trace_obstruction_case():
    # here the halving step produces a candidate that violates its own
    # subfield/trace constraints, proving the equation unsolvable
    tr = reduction_trace(1, 1, 2)
    assert tr.obstruction == "halving-image-constraints"
    assert tr.checks == EVERY_BRANCH and set(tr.aux) == {"p", "cy"}
    assert tr.solutions_direct == frozenset()
    assert tr.solutions_via_quadratics == frozenset()


def test_reduction_trace_empty_without_obstruction():
    # both terminal quadratics resolve but their roots all fail the filter
    tr = reduction_trace(1, 1, 0)
    assert tr.obstruction is None
    assert tr.solutions_direct == frozenset()
    assert tr.solutions_via_quadratics == frozenset()


def test_replay_branch_tally_over_every_c():
    # with a = 1 and b = c + 1 every c of the field is one derivation instance,
    # and all of them pass; only halving-image-constraints ends a replay early
    for k in (1, 2, 3, 4):
        size = 1 << (4 * k)
        cols = theorems._derive_pass(k, *_sweep_layout(k))
        assert cols.passed.all()
        assert cols.t_one.sum() == 1 << (3 * k)
        assert cols.obstructed.sum() == (1 << (4 * k - 1)) - (1 << (3 * k - 1))
        assert not (cols.obstructed & (cols.t_one | (cols.count > 0))).any()
        # the counts are row a = 1 of the difference table: every x solves the
        # equation of exactly one c
        assert cols.count.sum() == size
        omega4 = (1 << (3 * k - 3)) * ((1 << k) - 1)
        omega2 = (1 << (4 * k - 1)) - 2 * omega4
        assert Counter(cols.count.tolist()) == {4: omega4, 2: omega2,
                                                0: size - omega4 - omega2}, k


@pytest.mark.parametrize("halving, step", [(1, "halving-quadratic-unsolvable"),
                                           (2, "second-halving-unsolvable")])
def test_unsolvable_halving_is_an_impossible_state(monkeypatch, halving, step):
    # b = 0 (c = 1, t = 0) reaches both halving quadratics and has no
    # solutions, so a halving quadratic without roots there could only pass
    # as an obstruction
    helper = ("_halving_constant", "_second_halving_constant")[halving - 1]
    _rootless_constant(helper)(monkeypatch)
    with pytest.raises(VerificationError) as exc:
        reduction_trace(1, 1, 0)
    assert exc.value.step == step


def test_reduction_trace_nontrivial_difference():
    s = field_make(4)
    d = dobbertin_exponent(1)
    a, b = 3, 5
    tr = reduction_trace(1, a, b)
    direct = {x for x in range(s.size)
              if f_pow(s, x ^ a, d) ^ f_pow(s, x, d) == b}
    assert tr.solutions_direct == direct
    # normalized solutions are the direct ones divided by a
    ainv = f_pow(s, a, s.size - 2)
    assert tr.solutions_normalized == {f_mul(s, x, ainv) for x in direct}
    assert tr.solutions_via_quadratics == tr.solutions_direct


def test_reduction_sweep_exhaustive_k1():
    report = reduction_sweep(1)
    assert report == CheckReport("reduction-replay[k=1]", 240, 0, None)
    assert report.ok


def test_a_sample_above_2_24_pairs_is_refused_before_any_draw(monkeypatch):
    def draw(*args):
        raise AssertionError("a pair was drawn")

    monkeypatch.setattr(theorems, "_pair_chunks", draw)
    theorems._check_samples(1 << 24)
    # the patch is where the sweep draws: an allowed sample reaches it
    with pytest.raises(AssertionError, match="a pair was drawn"):
        reduction_sweep(3, samples=1 << 24)
    for call in (lambda n: reduction_sweep(3, samples=n),
                 lambda n: run_all_checks([1], samples=n)):
        with pytest.raises(ValueError, match=r"^samples must be an integer in \[1, 16777216\], "
                                             r"got 16777217$"):
            call((1 << 24) + 1)


def test_reduction_sweep_sampled_determinism():
    a = reduction_sweep(3, samples=40)
    b = reduction_sweep(3, samples=40)
    assert a == b
    assert a.instances == 40 and a.failures == 0


def _sweep_cases(k, samples):
    """The sweep's (a, b) pairs in case order, drawn here independently, one
    word at a time: each pair index a*2^n + b is the low 8k bits of a
    little-endian 64-bit word of raw seeded bytes, redrawn while a = 0."""
    size = 1 << (4 * k)
    if samples is None:
        return [(a, b) for a in range(1, size) for b in range(size)]
    rng, cases = random.Random(DEFAULT_SEED), []
    while len(cases) < samples:
        a, b = divmod(int.from_bytes(rng.randbytes(8), "little") % (size * size), size)
        if a:
            cases.append((a, b))
    return cases


def _streamed(k, samples):
    """The sweep's chunks of pairs, checked for their sizes, joined into
    two arrays in case order."""
    chunks = list(theorems._pair_chunks(k, samples))
    sizes = [a.size for a, _ in chunks]
    assert sizes == [b.size for _, b in chunks]
    assert all(m == theorems._CHUNK_PAIRS for m in sizes[:-1])
    assert 0 < sizes[-1] <= theorems._CHUNK_PAIRS
    return np.concatenate([a for a, _ in chunks]), np.concatenate([b for _, b in chunks])


@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
@pytest.mark.parametrize("k, samples", [(3, 20000), (1, 200), (1, None), (2, None)])
def test_pair_chunks_join_to_the_sweep_cases(monkeypatch, chunk, k, samples):
    if chunk:
        monkeypatch.setattr(theorems, "_CHUNK_PAIRS", chunk)
    a, b = _streamed(k, samples)
    assert list(zip(a.tolist(), b.tolist())) == _sweep_cases(k, samples)


def test_pair_chunks_draw_one_sample_of_raw_bytes():
    assert theorems._CHUNK_PAIRS == 1 << 14
    a, b = _streamed(3, 20000)
    again = _streamed(3, 20000)
    assert a.size == b.size == 20000
    assert (a == again[0]).all() and (b == again[1]).all()
    assert 1 <= a.min() and a.max() < 1 << 12 and 0 <= b.min() and b.max() < 1 << 12
    assert list(zip(a.tolist(), b.tolist())) == _sweep_cases(3, 20000)


@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
def test_pair_chunks_top_up_the_rejected_zeros(monkeypatch, chunk):
    # at k = 1 one word in 16 has a = 0; the pairs past the first 200 words
    # are redraws, and at 7 pairs a chunk they straddle the chunk edges
    if chunk:
        monkeypatch.setattr(theorems, "_CHUNK_PAIRS", chunk)
    a, b = _streamed(1, 200)
    assert list(zip(a.tolist(), b.tolist())) == _sweep_cases(1, 200)
    first = np.frombuffer(random.Random(DEFAULT_SEED).randbytes(8 * 200), "<u8") % 256
    kept = first[first >= 16].tolist()
    assert len(kept) < 200 and kept == (16 * a + b).tolist()[:len(kept)]


def test_pair_chunks_reach_every_pair_with_a_nonzero():
    # the law is uniform over every a != 0 and every b: 24 000 draws at
    # k = 1 reach all 240 such pairs, and none with a = 0
    a, b = _streamed(1, 24000)
    assert a.min() == 1 and len(set(zip(a.tolist(), b.tolist()))) == 240


def test_reduction_sweep_memory_is_flat_in_the_sample_count():
    # the pairs stream in chunks: 2^20 pairs would take 40 MiB held at once
    reduction_sweep(3, samples=1)  # the family and arithmetic tables
    tracemalloc.start()
    try:
        report = reduction_sweep(3, samples=1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == CheckReport("reduction-replay[k=3]", 1 << 20, 0, None)
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MiB"


def _tally(name, cases, check):
    """One report row from ``check(*case)`` per case: each VerificationError
    is one failure, the first in case order is kept, others propagate."""
    failures, first = 0, None
    for case in cases:
        try:
            check(*case)
        except VerificationError as e:
            failures += 1
            first = first or str(e)
    return CheckReport(name, len(cases), failures, first)


def _per_pair_replay(k, samples):
    """The replay report of every pair, each replayed on its own by
    reduction_trace from its own scan of the (possibly patched) family table."""
    return _tally(f"reduction-replay[k={k}]", _sweep_cases(k, samples),
                  lambda a, b: reduction_trace(k, a, b))


@pytest.mark.parametrize("k, samples", [(1, None), (3, 200)])
def test_reduction_sweep_equals_the_per_pair_replay(k, samples):
    assert reduction_sweep(k, samples=samples) == _per_pair_replay(k, samples)


def test_reduction_sweep_exhaustive_k2():
    # 65280 pairs replayed one by one would take minutes: the count is pinned
    assert reduction_sweep(2) == CheckReport("reduction-replay[k=2]", 65280, 0, None)


@pytest.mark.parametrize("k, samples, change", [(1, None, None), (3, 200, None),
                                                (3, 200, "f(0)=1")])
def test_scanned_rows_are_each_pairs_own_normalized_set(monkeypatch, k, samples, change):
    # S(a, b)/a in increasing order, tagged by the pair, from a scalar scan of the table
    if change:
        broken = _family_variant(k, _zero_to_one)
        monkeypatch.setattr(theorems, "_family_table", lambda kk: broken)
    s, lut = field_make(4 * k), theorems._family_table(k).lut.tolist()
    cases = _sweep_cases(k, samples)
    a, b = (np.array(v) for v in zip(*cases))
    x, pair, c = theorems._scanned(k, a, b)
    assert x.shape == pair.shape and (np.diff(pair) >= 0).all()
    for i, (ai, bi) in enumerate(cases):
        ainv = f_pow(s, ai, s.size - 2)
        norm = sorted(f_mul(s, y, ainv) for y in range(s.size) if lut[y] ^ lut[y ^ ai] == bi)
        assert x[pair == i].tolist() == norm
        assert c[i] == f_mul(s, bi, f_pow(s, f_pow(s, ai, dobbertin_exponent(k)), s.size - 2)) ^ 1


def test_reduction_sweep_replays_each_c_once_on_a_clean_table(monkeypatch):
    def per_pair(k, a, b):
        raise AssertionError(f"pair ({a}, {b}) was replayed on its own")

    # the array pass decides every c, so no pair is scanned or traced alone
    monkeypatch.setattr(theorems, "reduction_trace", per_pair)
    monkeypatch.setattr(theorems, "diff_solution_count", per_pair)
    assert reduction_sweep(2).ok


def _swap_out(lut, a, b, sols):
    # swapping f(x) with a value off the pair's set removes x and x + a from it
    x = min(sols)
    y = next(y for y in range(lut.size) if y not in sols)
    lut[x], lut[y] = lut[y], lut[x]
    return True


def _bump(lut, a, b, sols):
    # f(x0) = f(x0 + a) + b adds x0 and x0 + a after the four solutions, so
    # the first four still match and only the count of six tells them apart
    x0 = next((x for x in range(lut.size) if min(x, x ^ a) > max(sols)), None)
    if x0 is None:
        return False
    lut[x0] = lut[x0 ^ a] ^ b
    return True


def _move(lut, a, b, sols):
    # x and x + a leave the set and y and y + a join it: four solutions still,
    # but not the right four
    x = min(sols)
    y = next(y for y in range(lut.size) if y not in sols and y ^ a not in sols)
    lut[x] ^= 1
    lut[y] = lut[y ^ a] ^ b
    return True


def _break_first_four(monkeypatch, k, samples, corrupt):
    """Patch the family table so the first pair with four solutions that
    ``corrupt`` can break fails; returns that pair."""
    clean = _family_table(k)
    for a, b in _sweep_cases(k, samples):
        count, sols = diff_solution_count(k, a, b)
        lut = clean.lut.copy()
        if count == 4 and corrupt(lut, a, b, sols):
            broken = FunctionTable(clean.spec, lut)
            monkeypatch.setattr(theorems, "_family_table", lambda kk: broken)
            return a, b
    raise AssertionError("no pair to break")


@pytest.mark.parametrize("corrupt", [_swap_out, _bump, _move])
@pytest.mark.parametrize("k, samples", [(1, None), (3, 200)])
def test_reduction_sweep_equals_the_per_pair_replay_on_a_broken_table(
        monkeypatch, k, samples, corrupt):
    a, b = _break_first_four(monkeypatch, k, samples, corrupt)
    report = reduction_sweep(k, samples=samples)
    assert report == _per_pair_replay(k, samples)
    assert report.failures > 0
    if corrupt is _bump:
        with pytest.raises(VerificationError, match="count-bound"):
            diff_solution_count(k, a, b)


@pytest.mark.parametrize("k, samples", [(1, None), (2, 2000)])
def test_every_difference_row_is_the_row_a1_scaled(k, samples):
    # S(a, b) = a * S(1, b / a^d), both sides from the independent scan
    s = field_make(4 * k)
    d = dobbertin_exponent(k)
    for a, b in _sweep_cases(k, samples):
        ad_inv = f_pow(s, f_pow(s, a, d), s.size - 2)
        _, row1 = diff_solution_count(k, 1, f_mul(s, b, ad_inv))
        assert {f_mul(s, a, y) for y in row1} == diff_solution_count(k, a, b)[1]


def _scaled(m):
    """f(x) times g^m: homogeneous, but b is off by the factor g^m."""
    def table(lut, log, exp):
        lut[:] = np.where(lut == 0, 0, exp[(log[lut] + m) % exp.size])
    return table


def _zero_to_one(lut, log, exp):
    lut[0] = 1


def _family_variant(k, change):
    clean = _family_table(k)
    lut = clean.lut.copy()
    change(lut, *_log_exp_tables(clean.spec.n, clean.spec.poly))
    return FunctionTable(clean.spec, lut)


@pytest.mark.parametrize("change", [_scaled(1), _scaled(5), _zero_to_one],
                         ids=["g", "g^5", "f(0)=1"])
@pytest.mark.parametrize("k, samples", [(1, None), (3, 200)])
def test_reduction_sweep_equals_the_per_pair_replay_on_a_rescaled_table(
        monkeypatch, k, samples, change):
    broken = _family_variant(k, change)
    assert (broken.exponent == dobbertin_exponent(k)) == (change is not _zero_to_one)
    monkeypatch.setattr(theorems, "_family_table", lambda kk: broken)
    report = reduction_sweep(k, samples=samples)
    assert report == _per_pair_replay(k, samples)
    if change is not _zero_to_one:
        assert report.failures > 0


@pytest.mark.parametrize("k", [1, 2])
def test_homogeneity_check_rejects_two_swapped_entries(k):
    d = dobbertin_exponent(k)
    assert _family_table(k).exponent == d
    order = _family_table(k).spec.order
    for i in (1, order // 2, order - 2):
        def swap(lut, log, exp):
            x, y = exp[i], exp[i + 1]
            lut[x], lut[y] = lut[y], lut[x]
        assert _family_variant(k, swap).exponent != d, i


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reduction_sweep_replays_every_c_once(monkeypatch, k):
    # k = 3 is sampled: its 1000 pairs reach only some of the c
    real = theorems._derive_pass
    seen = []

    def recording(k, x, row, c):
        seen.extend(c.tolist())
        return real(k, x, row, c)

    monkeypatch.setattr(theorems, "_derive_pass", recording)
    assert reduction_sweep(k).ok
    assert sorted(seen) == list(range(1 << (4 * k)))


def test_reduction_sweep_at_k4_needs_no_deep():
    assert reduction_sweep(4, samples=1000) == CheckReport(
        "reduction-replay[k=4]", 1000, 0, None)


def _row_a1(k, ws):
    """S(1, w) for each w, each from its own scan of the family table."""
    lut = _family_table(k).lut
    row = lut ^ lut[np.arange(lut.size) ^ 1]
    return [np.flatnonzero(row == w).tolist() for w in ws]


def _derive_pass(k, sets, c):
    """The array pass over the rows (sets[i], c[i]): the members of every
    set in turn, each tagged with its row, so the rows come grouped."""
    row = np.repeat(np.arange(len(sets)), [len(m) for m in sets])
    x = np.array([x for members in sets for x in members], dtype=np.int64)
    return theorems._derive_pass(k, x, row, np.asarray(c))


def _sweep_layout(k):
    """The every-c sweep's members: each x tagged with its row D_1 f(x)."""
    xs = np.arange(1 << (4 * k))
    return xs, difference_row(_family_table(k), 1).values, xs ^ 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_one_sets_are_the_replay_layout(k):
    # the sweep's members interleave across the rows; the pass over them
    # decides every row as the pass over the same sets grouped by row, each
    # S(1, w) from its own scan
    x, row, c = _sweep_layout(k)
    assert (np.diff(row) < 0).any()
    sweep = theorems._derive_pass(k, x, row, c)
    grouped = _derive_pass(k, _row_a1(k, range(x.size)), c)
    for name in ("passed", "t_one", "obstructed", "count"):
        assert np.array_equal(getattr(sweep, name), getattr(grouped, name)), name


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_replay_rows_commute_with_squaring(k):
    # every identity of the replay commutes with squaring, and c -> c^2 is
    # v -> v^2 on the row index, as (v + 1)^2 = v^2 + 1: rows v and v^2 of
    # the every-c pass agree, the premise of a pass over one c per orbit
    cols = theorems._derive_pass(k, *_sweep_layout(k))
    v = np.arange(1 << (4 * k))
    s = _family_table(k).spec
    v2 = _arith(s.n, s.poly).mul(v, v)
    for name in ("passed", "t_one", "obstructed", "count"):
        assert np.array_equal(getattr(cols, name)[v2], getattr(cols, name)), name


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derive_pass_passes_exactly_the_true_sets_on_perturbed_sets(k):
    # a row (set, c) passes exactly when its set is S(1, c + 1), each scanned
    # on its own; a perturbation that puts back what it took leaves it so
    size = 1 << (4 * k)
    rng = random.Random(DEFAULT_SEED + k)
    ws = [rng.randrange(size) for _ in range(120)]
    true_sets = _row_a1(k, ws)
    sets = []
    for members, change in zip(true_sets, ["drop", "replace", "add"] * 40):
        members = set(members)
        if change != "add" and members:
            members.discard(rng.choice(sorted(members)))
        if change != "drop":
            members.add(rng.randrange(size))
        sets.append(sorted(members))
    want = [s == true for s, true in zip(sets, true_sets)]
    assert 0 < sum(want) < len(want)
    assert _derive_pass(k, sets, np.array(ws) ^ 1).passed.tolist() == want


def _wrapped(name, change):
    """A corruption that replaces the theorems helper ``name`` by
    ``change(real, *args)``.  It keeps no state, so the array pass and the
    scalar replay read the same broken identity."""
    def corrupt(monkeypatch):
        real = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda *args: change(real, *args))
    return corrupt


def _component_plus_one(name, j):
    # the helper ``name`` returns a tuple: flip the low bit of its item j
    return _wrapped(name, lambda real, *args: tuple(
        v ^ 1 if i == j else v for i, v in enumerate(real(*args))))


def _rootless_constant(name):
    # a constant e for which w^2 + w = e has no root in the field
    return _wrapped(name, lambda real, A, k, c, *rest:
                    c * 0 + int(np.flatnonzero(A.root < 0)[0]))


_no_product_identity = _wrapped("_product_identity", lambda real, *args: real(*args) * 0)


# step -> (the corruption that makes it fail, k, the rows a searched (None
# for every a), and the text of the first error naming the step, in case
# order): one entry per step the replay can raise
REPLAY_BREAKS = {
    "count-bound": (
        lambda mp: _break_first_four(mp, 1, None, _bump), 1, None,
        "count-bound: difference equation has more than four solutions "
        "[k=1, a=0x1, b=0x1, count=6]"),
    "trace-codomain": (
        _wrapped("_relative_trace", lambda real, A, k, x: real(A, k, x) ^ 2), 1, None,
        "trace-codomain: relative trace of c left the small subfield "
        "[k=1, a=0x1, b=0x0, t=0x2]"),
    "four-term-trace-identity": (
        _wrapped("_relative_trace", lambda real, A, k, x: real(A, k, x) ^ (x & 1)), 1, None,
        "four-term-trace-identity: solution's relative trace does not equal t "
        "[k=1, a=0x1, b=0x1, x=0x1]"),
    "normalized-product-identity": (
        _wrapped("_product_identity", lambda real, A, k, x, c:
                 real(A, k, x, c) ^ ((x & 3) == 3)), 1, None,
        "normalized-product-identity: a normalized solution fails the expanded "
        "difference equation [k=1, a=0x1, b=0x1, x=0x7]"),
    "pair-sum-quadratic": (
        _wrapped("_pair_sum_quadratic", lambda real, *args: real(*args) ^ 1), 1, None,
        "pair-sum-quadratic: u = x + x^(2^2k) fails u^2 + (t+1)u + c^(2^k) + c^(2^3k) = 0 "
        "[k=1, a=0x1, b=0x1, x=0x0]"),
    "pair-gap-constant": (
        _component_plus_one("_gap_constants", 0), 1, None,
        "pair-gap-constant: x + x^(2^2k) differs from r [k=1, a=0x1, b=0x9, x=0x8, r=0x6]"),
    "half-gap-constant": (
        _component_plus_one("_gap_constants", 1), 1, None,
        "half-gap-constant: x + x^(2^k) differs from s [k=1, a=0x1, b=0x9, x=0x8, s=0x5]"),
    "terminal-quadratic-cover": (
        _component_plus_one("_gap_constants", 2), 1, None,
        "terminal-quadratic-cover: a solution is not a root of x^2 + x + (r*s + s + r + c) "
        "[k=1, a=0x1, b=0x9]"),
    "terminal-quadratic-match": (
        _no_product_identity, 1, None,
        "terminal-quadratic-match: filtered terminal roots differ from the direct "
        "solution set [k=1, a=0x1, b=0x8]"),
    "halving-quadratic-unsolvable": (
        _rootless_constant("_halving_constant"), 1, None,
        "halving-quadratic-unsolvable: y^2 + y = (c^(2^k)+c^(2^3k))/(t+1)^2 has no root "
        "though its trace is 0 [k=1, a=0x1, b=0x0, cy=0x8]"),
    "halving-image-constraints": (
        _wrapped("_halving_image_ok", lambda real, *args: np.logical_not(real(*args))), 1, None,
        "halving-image-constraints: candidate y-value violates its subfield/trace "
        "relations yet solutions exist [k=1, a=0x1, b=0x1]"),
    "halving-image-membership": (
        _wrapped("_halving_constant", lambda real, *args: real(*args) ^ 1), 2, (1, 3),
        "halving-image-membership: z + z^(2^2k) is neither p nor p+1 "
        "[k=2, a=0x1, b=0xc, x=0xae, y_img=0x1, p=0xbc]"),
    "second-halving-unsolvable": (
        _rootless_constant("_second_halving_constant"), 1, None,
        "second-halving-unsolvable: w^2 + w = ((t+1)^2 p^(2^k+1) + (t+1)p^(2^k) + c + "
        "c^(2^k))/(t+1)^2 has no root though its trace is 0 [k=1, a=0x1, b=0x0, p=0x0, "
        "cw=0x8]"),
    "terminal-pair-cover": (
        _component_plus_one("_terminal_constants", 0), 1, None,
        "terminal-pair-cover: a solution is not a root of either terminal quadratic "
        "[k=1, a=0x1, b=0x1]"),
    "terminal-pair-match": (
        _no_product_identity, 1, None,
        "terminal-pair-match: filtered terminal roots differ from the direct solution set "
        "[k=1, a=0x1, b=0x0]"),
    "second-halving-membership": (
        _wrapped("_second_halving_constant", lambda real, *args: real(*args) ^ 1), 1, None,
        "second-halving-membership: z + z^(2^k) is neither q nor q+1 "
        "[k=1, a=0x1, b=0x6, x=0x2, w_img=0x6, q=0x0]"),
}


def _guard_the_core(monkeypatch):
    """Make the ops of ``field._Arith`` raise on an input outside the field:
    a negative element (the root table's -1 reads log[-1], a real log) and,
    for ``inv``, 0."""
    def guard(name, elements, nonzero=False):
        real = getattr(_Arith, name)

        def op(self, *args):
            for v in map(np.asarray, args[:elements]):
                if (v < 0).any() or (nonzero and (v == 0).any()):
                    raise AssertionError(f"_Arith.{name} got {v.min()}")
            return real(self, *args)
        monkeypatch.setattr(_Arith, name, op)

    guard("mul", 2)
    guard("pow", 1)
    guard("frob", 1)
    guard("inv", 1, nonzero=True)


def test_every_check_feeds_the_core_field_elements_only(monkeypatch):
    clean = run_all_checks([1, 2, 3], all_gamma=True)
    _guard_the_core(monkeypatch)
    assert run_all_checks([1, 2, 3], all_gamma=True) == clean
    assert all(r.ok for r in clean)


def test_every_replay_step_has_a_breaking_corruption():
    # a step added to the replay without a corruption that fires it fails
    # here: the pass reports its steps in the order of the step table
    empty = np.zeros(0, dtype=np.int64)
    stages = theorems._derive_pass(1, empty, empty, np.zeros(1, dtype=np.int64)).stages
    assert [name for _, _, oks in stages for name in oks] == list(theorems._STEPS)
    assert set(REPLAY_BREAKS) == set(theorems._STEPS)
    # a stage loops over the solutions exactly when its errors name the member x
    assert all(loops == ("x" in theorems._STEPS[name][1])
               for _, loops, oks in stages for name in oks)


@pytest.mark.parametrize("step", ["normalized-product-identity", "halving-image-membership"])
def test_interleaved_and_grouped_members_fail_alike(monkeypatch, step):
    # under a broken identity the rows that fail do not depend on the
    # members' order, and they are the rows whose own one-row replay raises
    corrupt, k, _, _ = REPLAY_BREAKS[step]
    corrupt(monkeypatch)
    x, row, c = _sweep_layout(k)
    sweep = theorems._derive_pass(k, x, row, c)
    grouped = _derive_pass(k, _row_a1(k, range(x.size)), c)
    assert np.array_equal(sweep.passed, grouped.passed) and not sweep.passed.all()
    # row i replays the pair (1, c[i] + 1) = (1, i)
    raised = {}
    for i in range(x.size):
        try:
            reduction_trace(k, 1, i)
        except VerificationError as e:
            raised[i] = e
    assert sorted(raised) == np.flatnonzero(~sweep.passed).tolist()
    assert any(e.step == step for e in raised.values())
    # an error that names a member names one of its own row
    assert all(row[e.context["x"]] == i for i, e in raised.items() if "x" in e.context)


@pytest.mark.parametrize("step", REPLAY_BREAKS)
def test_every_replay_step_fails_under_its_broken_identity(monkeypatch, step):
    corrupt, k, rows, first = REPLAY_BREAKS[step]
    corrupt(monkeypatch)
    _guard_the_core(monkeypatch)  # no row, on the branch or off it, leaves the field
    size = 1 << (4 * k)
    raised = []
    for a in rows or range(1, size):
        for b in range(size):
            try:
                reduction_trace(k, a, b)
            except VerificationError as e:
                raised.append(e)
    assert step in {e.step for e in raised}
    assert next(str(e) for e in raised if e.step == step) == first
    # the sweep reports what the pairs replayed from their own scans report
    assert reduction_sweep(1) == _per_pair_replay(1, None)


@pytest.mark.parametrize("change", [None, _zero_to_one], ids=["homogeneous", "f(0)=1"])
@pytest.mark.parametrize("step", REPLAY_BREAKS)
def test_a_broken_sweep_reports_alike_at_every_chunk_size(monkeypatch, step, change):
    # the failures sum over the chunks, and the first error is the first
    # failing pair's, built from its own chunk, wherever the chunk edges fall
    corrupt, k, _, _ = REPLAY_BREAKS[step]
    corrupt(monkeypatch)
    _guard_the_core(monkeypatch)  # no row, on the branch or off it, leaves the field
    if change:  # on top of the table the corruption may have patched
        broken = _family_variant(k, change)
        monkeypatch.setattr(theorems, "_family_table", lambda kk: broken)
    samples = None if k == 1 or not change else 1000
    report = reduction_sweep(k, samples=samples)
    monkeypatch.setattr(theorems, "_CHUNK_PAIRS", 7)
    assert reduction_sweep(k, samples=samples) == report
    assert report.failures > 0


def test_a_loop_over_the_solutions_names_its_least_failing_member(monkeypatch):
    # the loop runs over S(a, b)/a in increasing order, which the division by
    # a != 1 does not keep: here 0xc fails, and so does a member past it
    REPLAY_BREAKS["count-bound"][0](monkeypatch)
    with pytest.raises(VerificationError) as exc:
        reduction_trace(1, 0xF, 0x3)
    assert (exc.value.step, exc.value.context["x"]) == ("normalized-product-identity", 0xC)
    monkeypatch.undo()
    # at x = 0 only the pair-sum quadratic fails, at x = 1 the four-term trace
    # before it: each member goes through the steps of the loop in turn
    REPLAY_BREAKS["four-term-trace-identity"][0](monkeypatch)
    REPLAY_BREAKS["pair-sum-quadratic"][0](monkeypatch)
    with pytest.raises(VerificationError) as exc:
        reduction_trace(1, 1, 1)
    assert (exc.value.step, exc.value.context["x"]) == ("pair-sum-quadratic", 0)


def test_an_obstructed_replay_reaches_no_terminal_root(monkeypatch):
    # with the filter broken every terminal root would pass it, but the chain
    # of an obstructed pair ends before the terminal quadratics
    _no_product_identity(monkeypatch)
    tr = reduction_trace(1, 1, 2)
    assert tr.obstruction == "halving-image-constraints"
    assert tr.solutions_via_quadratics == frozenset()


def test_all_gammas_frozen():
    assert all_gammas(1) == [0x1]
    assert all_gammas(2) == [0xBC, 0xBD]
    assert all_gammas(3) == [0x1, 0x4A3, 0x983, 0xD21]


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_subfields_are_one_stride_of_the_exp_table(n):
    # x lies in GF(2^m) iff its cycle under squaring has a length dividing m;
    # one scalar product per element walks every cycle once
    s = field_make(n)
    cycle = [0] * s.size
    for x in range(s.size):
        orbit = [x]
        while not cycle[x] and (y := _mul(s.poly, orbit[-1], orbit[-1])) != x:
            orbit.append(y)
        for y in orbit:
            cycle[y] = cycle[y] or len(orbit)
    for m in (m for m in range(1, n + 1) if n % m == 0):
        scan = tuple(x for x in range(s.size) if m % cycle[x] == 0)
        assert _arith(s.n, s.poly).subfield(m) == scan, m


def _fibers_of(w):
    """The witness's fibers as a dict u -> frozenset of its members."""
    fibers = {}
    for a, u in zip(w.members.tolist(), w.images.tolist()):
        fibers.setdefault(u, set()).add(a)
    return {u: frozenset(members) for u, members in fibers.items()}


def _with_fibers(w, fibers):
    """w holding the fibers of a dict u -> members, as members in
    increasing order, each tagged by its u."""
    pairs = sorted((a, u) for u, members in fibers.items() for a in members)
    return replace(w, members=np.array([a for a, _ in pairs], dtype=np.int64),
                   images=np.array([u for _, u in pairs], dtype=np.int64))


def test_each_witness_derives_its_arithmetic_half_field_and_fibers():
    # they are read off the fields on first read, not stored as fields, so
    # a witness that replace makes derives its own
    w = mm_basis(2)
    assert [f.name for f in fields(w)] == ["k", "spec", "gamma", "alpha", "omega",
                                           "members", "images"]
    assert w.arith is _arith(w.spec.n, w.spec.poly)
    assert w.half == w.arith.subfield(4) == tuple(w.members.tolist())
    fibers = _fibers_of(w)
    us, tag, size = w.fibers
    assert us.tolist() == sorted(fibers)
    assert us[tag].tolist() == w.images.tolist()
    assert size.tolist() == [len(fibers[u]) for u in sorted(fibers)]
    for array in w.fibers:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    u = min(fibers)
    fewer = _with_fibers(w, {v: m for v, m in fibers.items() if v != u})
    assert fewer.fibers[0].tolist() == sorted(fibers)[1:]
    assert w.fibers[0].tolist() == sorted(fibers)
    assert replace(w, alpha=w.alpha ^ 1).fibers is not w.fibers


def test_mm_basis_holds_the_half_field_tagged_by_pi_read_only():
    for k in (1, 2, 3):
        w = mm_basis(k)
        half = _arith(w.spec.n, w.spec.poly).subfield(2 * k)
        assert w.members.tolist() == list(half)
        assert w.images.tolist() == pi_image(w, w.members).tolist()
        assert _fibers_of(_with_fibers(w, _fibers_of(w))) == _fibers_of(w)
        # the frozensets these arrays replace were immutable too
        for name in ("members", "images"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(w, name)[0] = 1


def test_mm_basis_witness_k1():
    w = mm_basis(1)
    assert (w.gamma, w.alpha, w.omega) == (0x1, 0x6, 0x2)
    sizes = Counter(len(m) for m in _fibers_of(w).values())
    assert sizes == Counter({1: 2, 2: 1})


def test_mm_basis_witness_k2():
    w = mm_basis(2)
    assert (w.gamma, w.alpha, w.omega) == (0xBC, 0xC, 0xAE)
    sizes = Counter(len(m) for m in _fibers_of(w).values())
    assert sizes == Counter({1: 4, 2: 6})


def test_mm_basis_alternate_gamma():
    w = mm_basis(2, gamma=0xBD)
    assert (w.alpha, w.omega) == (0x50, 0xA2)
    assert mm_decomposition_check(w).ok
    with pytest.raises(ValueError):
        mm_basis(2, gamma=0x1)  # not a trace-one subfield element


def _root_entry(read, value):
    """A corruption that makes the root table answer ``value`` for
    w^2 + w = e at e = the ``read`` element of the k = 2 basis: alpha is
    gamma times a root at gamma, omega a root at alpha."""
    def corrupt(monkeypatch):
        w = mm_basis(2)
        root = _arith(w.spec.n, w.spec.poly).root.copy()
        root[getattr(w, read)] = value
        monkeypatch.setattr(_Arith, "root", property(lambda self: root))
    return corrupt


def _half_trace_flipped(monkeypatch):
    # the trace of GF(2^(2k)) at k = 2 only: gamma's trace over GF(2^k) holds
    real = _Arith.subtrace
    monkeypatch.setattr(_Arith, "subtrace", lambda self, a, m: real(self, a, m) ^ (m == 4))


# step -> (the corruption that makes mm_basis(2) fail, and the text of its
# error): one entry per step the basis can raise
BASIS_BREAKS = {
    "alpha-roots-subfield": (
        _root_entry("gamma", -1),
        "alpha-roots-subfield: z^2 + gamma*z + gamma^3 does not have both roots "
        "in the half field [k=2, gamma=0xbc]"),
    "alpha-frobenius-gap": (
        _root_entry("gamma", 0),
        "alpha-frobenius-gap: alpha^(2^k) + alpha != gamma [k=2, alpha=0x0, gamma=0xbc]"),
    "alpha-trace-one": (
        _half_trace_flipped,
        "alpha-trace-one: half-field trace of alpha is not 1 [k=2, alpha=0xc]"),
    "omega-exists": (
        _root_entry("alpha", -1),
        "omega-exists: z^2 + z + alpha has no root in the full field [k=2, alpha=0xc]"),
    "omega-conjugate-gap": (
        _root_entry("alpha", 0),
        "omega-conjugate-gap: omega + omega^(2^2k) != 1 [k=2, omega=0x0]"),
}


def test_every_basis_step_has_a_breaking_corruption():
    # a step added to mm_basis without a corruption that fires it fails here
    tree = ast.parse(inspect.getsource(theorems.mm_basis))
    steps = [call.args[0].value for call in ast.walk(tree) if isinstance(call, ast.Call)
             and getattr(call.func, "id", None) == "VerificationError"]
    assert sorted(BASIS_BREAKS) == sorted(steps)


@pytest.mark.parametrize("step", BASIS_BREAKS)
def test_every_basis_step_fails_under_its_corruption(monkeypatch, step):
    corrupt, first = BASIS_BREAKS[step]
    corrupt(monkeypatch)
    with pytest.raises(VerificationError) as exc:
        mm_basis(2)
    assert str(exc.value) == first


def test_mm_basis_invariants_recomputed():
    # re-derive the witness identities with the scalar field API only
    for k in (1, 2):
        w = mm_basis(k)
        s = w.spec
        g2 = f_mul(s, w.gamma, w.gamma)
        g3 = f_mul(s, g2, w.gamma)
        # gamma lies in GF(2^k); alpha in GF(2^(2k)) solves z^2 + gamma z = gamma^3
        assert frobenius(s, w.gamma, k) == w.gamma
        assert frobenius(s, w.alpha, 2 * k) == w.alpha
        assert f_mul(s, w.alpha, w.alpha) ^ f_mul(s, w.gamma, w.alpha) == g3
        assert frobenius(s, w.alpha, k) ^ w.alpha == w.gamma
        # omega solves z^2 + z = alpha and its 2k-conjugate gap is 1
        assert f_mul(s, w.omega, w.omega) ^ w.omega == w.alpha
        assert frobenius(s, w.omega, 2 * k) ^ w.omega == 1


@pytest.mark.parametrize("k", [1, 2])
def test_split_cover_is_one_frobenius_test(k):
    # y + omega*a over y, a in GF(2^(2k)) hits each element once exactly
    # when omega lies outside GF(2^(2k)): a bincount per omega, by the
    # scalar field API.  So every omega with omega + omega^(2^2k) = 1, the
    # basis's omega-conjugate-gap check, covers the field
    s = field_make(4 * k)
    half = [x for x in range(s.size) if frobenius(s, x, 2 * k) == x]
    covers = [np.bincount([y ^ f_mul(s, omega, a) for y in half for a in half],
                          minlength=s.size).tolist() == [1] * s.size
              for omega in range(s.size)]
    assert covers == [frobenius(s, omega, 2 * k) != omega for omega in range(s.size)]
    assert covers.count(False) == len(half)
    gap_one = [omega for omega in range(s.size) if frobenius(s, omega, 2 * k) ^ omega == 1]
    assert gap_one and all(covers[omega] for omega in gap_one)
    assert mm_basis(k).omega in gap_one


def test_pi_image_matches_scalar_formula():
    for k in (1, 2):
        w = mm_basis(k)
        s = w.spec
        g2 = f_mul(s, w.gamma, w.gamma)
        members = [a for fib in _fibers_of(w).values() for a in fib]
        assert len(members) == 1 << (2 * k)  # fibers partition the subfield
        for a in members:
            expect = (f_mul(s, w.gamma, frobenius(s, a, k - 1))
                      ^ f_mul(s, g2, f_mul(s, frobenius(s, a, k), a)))
            assert pi_image(w, a) == expect
            assert a in pi_fiber(w, pi_image(w, a))


@pytest.mark.parametrize("element", [-1, 256, 1 << 20], ids=["-1", "2^n", "2^20"])
@pytest.mark.parametrize("call", [pi_image, pi_fiber, quartic_roots,
                                  lambda w, e: mm_walsh_crosscheck(w, e, 0),
                                  lambda w, e: mm_walsh_crosscheck(w, 0, e)],
                         ids=["pi_image", "pi_fiber", "quartic_roots", "crosscheck-u",
                              "crosscheck-v"])
def test_elements_outside_the_field_are_refused(call, element):
    # numpy indexing wraps a negative element, so each is checked up front
    w = mm_basis(2)
    with pytest.raises(ValueError, match="not an element of GF"):
        call(w, element)
    if call is pi_image:
        with pytest.raises(ValueError, match="not an element of GF"):
            pi_image(w, np.array([0, element]))


@pytest.mark.parametrize("call, shown", [
    (lambda: diff_solution_count(1, 1, 1.5), "b 1.5"),  # b = 1 has four solutions
    (lambda: diff_solution_count(1, 1.0, 1), "difference a 1.0"),
    (lambda: reduction_trace(1, 1, 2.5), "b 2.5"),
    (lambda: reduction_trace(1, 2.0, 1), "difference a 2.0"),
    (lambda: pi_fiber(mm_basis(1), 0.5), "u 0.5"),
    (lambda: pi_image(mm_basis(1), np.array([0.0, 1.0])), "a 0.0"),
    (lambda: pi_image(mm_basis(1), "3"), "a '3'"),
], ids=["count-b", "count-a", "trace-b", "trace-a", "pi_fiber", "pi_image-array",
        "pi_image-string"])
def test_a_non_integer_is_refused_not_read_as_an_empty_answer(call, shown):
    # a float in [0, 2^n) used to pass the element check: the count read it as
    # no solution, pi_fiber as an empty fiber, and the replay raised IndexError
    with pytest.raises(ValueError, match=rf"^{re.escape(shown)} is not an integer$"):
        call()


@pytest.mark.parametrize("u, v", [(0x2, 0x0), (0x0, 0x2)], ids=["u", "v"])
def test_crosscheck_refuses_a_point_off_the_split_grid(u, v):
    # 0x2 lies in GF(2^8) but not in GF(2^4): no split coordinate names it,
    # so its fiber sum says nothing about the transform and no error may
    # report a falsified formula there
    with pytest.raises(ValueError, match="0x2 is not in the half-degree subfield"):
        mm_walsh_crosscheck(mm_basis(2), u, v)


def _leaves(value):
    """Every dict key and value and every member, through nested containers."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield key
            yield from _leaves(v)
    elif isinstance(value, (set, frozenset, tuple, list)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


@pytest.mark.parametrize("k", [1, 2, 3])
def test_public_results_hold_python_ints(k):
    # one pair with a != 1 per kind: t = 1, t != 1 with solutions, obstructed
    kinds = {}
    for b in range(1 << (4 * k)):
        tr = reduction_trace(k, 3, b)
        kind = (tr.branch, tr.obstruction, len(tr.solutions_direct) > 0)
        if kind in {("t=1", None, True), ("t!=1", None, True),
                    ("t!=1", "halving-image-constraints", False)}:
            kinds.setdefault(kind, tr)
        if len(kinds) == 3:
            break
    assert len(kinds) == 3
    values = [(tr.k, tr.a, tr.b, tr.c, tr.t, tr.solutions_direct, tr.solutions_normalized,
               tr.solutions_via_quadratics, tr.aux) for tr in kinds.values()]
    assert any("per_solution" in tr.aux for tr in kinds.values())
    w = mm_basis(k)
    us = sorted(set(w.images.tolist()))
    a0 = min(pi_fiber(w, us[0]))
    qr = quartic_roots(w, a0)
    values += [pi_image(w, a0), qr.a0, qr.u, qr.roots_subfield, qr.fiber,
               mm_walsh_crosscheck(w, qr.u, a0), w.k, w.gamma, w.alpha, w.omega,
               [pi_fiber(w, u) for u in us], all_gammas(k)]
    # strings are the names of the aux entries
    leaked = [v for v in _leaves(values) if type(v) not in (int, str)]
    assert not leaked


def test_fiber_partition_check():
    for k in (1, 2):
        rep = fiber_partition_check(mm_basis(k))
        assert rep.ok
        assert rep.name == f"mm-fibers[k={k}]"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fiber_partition_check_passes_every_gamma(k):
    # the members of each clean fiber are distinct and pi maps them to its u
    for g in all_gammas(k):
        assert fiber_partition_check(mm_basis(k, gamma=g)).ok


def test_fiber_partition_check_refuses_a_member_of_another_fiber():
    # m + 1 already lies in another fiber: sizes and total still add up
    clean = fiber_partition_check(mm_basis(3))
    rep = fiber_partition_check(_fiber_member_plus_one(None, mm_basis(3)))
    assert (rep.name, rep.instances, rep.failures) == (clean.name, clean.instances, 1)
    assert rep.first_failure == ("fibers are not those of pi: 1 repeated member(s), "
                                 "1 outside GF(2^6) or mapped off their fiber's u")


def test_fiber_partition_check_refuses_a_missing_fiber():
    w = mm_basis(1)
    fibers = _fibers_of(w)
    u = min(fibers)
    rep = fiber_partition_check(_with_fibers(w, {v: m for v, m in fibers.items() if v != u}))
    assert rep.failures == 1
    assert rep.first_failure.startswith("partition broken: ")
    # with every fiber gone the rows still report, and mm-fibers fails
    empty = _with_fibers(w, {})
    assert fiber_partition_check(empty) == CheckReport(
        "mm-fibers[k=1]", 0, 1, "partition broken: sizes {}, total 0")
    assert quartic_check_all(empty) == CheckReport("mm-quartic[k=1]", 0, 0, None)
    assert m4_sum_check(empty) == CheckReport("mm-extremal-sum[k=1]", 1, 0, None)


def _member_outside_the_half_field(w):
    """x lies outside GF(2^(2k)) yet pi(x) is an attained u: put it in u's
    fiber in place of its least member, so sizes, total, distinctness and pi
    all hold (at k = 1, x = 0x9 becomes that fiber's least member)."""
    half = set(_arith(w.spec.n, w.spec.poly).subfield(2 * w.k))
    fibers = _fibers_of(w)
    x, u = next((x, u) for x, u in enumerate(pi_image(w, np.arange(w.spec.size)).tolist())
                if x not in half and u in fibers)
    fiber = fibers[u]
    return _with_fibers(w, {**fibers, u: fiber - {min(fiber)} | {x}})


def test_split_rows_refuse_a_member_outside_the_field():
    # a member past GF(2^n) would index the log/exp tables out of range, and
    # a negative one would wrap to a real log and falsify the fiber sum; the
    # witness refuses it when made, so no split row is reached with one
    w = mm_basis(1)
    fibers = _fibers_of(w)
    u = max(fibers)
    for member in (w.spec.size, -1):
        with pytest.raises(ValueError, match="not an element of GF"):
            _with_fibers(w, {**fibers, u: fibers[u] | {member}})


@pytest.mark.parametrize("member", [-1, 256, 1 << 20], ids=["-1", "2^n", "2^20"])
@pytest.mark.parametrize("made", ["directly", "replace"])
def test_witness_refuses_a_member_outside_the_field(member, made):
    # the check runs in __post_init__, which dataclasses.replace runs too;
    # the error names the first member outside the field
    w = mm_basis(2)
    members = w.members.copy()
    members[3], members[5] = member, 1 << 30
    with pytest.raises(ValueError, match=re.escape(
            f"a member {member:#x} is not an element of GF(2^8)")):
        if made == "directly":
            MMWitness(w.k, w.spec, w.gamma, w.alpha, w.omega, members, w.images)
        else:
            replace(w, members=members)


def test_fiber_partition_check_refuses_a_member_outside_the_half_field():
    rep = fiber_partition_check(_member_outside_the_half_field(mm_basis(1)))
    assert rep.failures == 1
    assert rep.first_failure == ("fibers are not those of pi: 0 repeated member(s), "
                                 "1 outside GF(2^2) or mapped off their fiber's u")


def test_mm_decomposition_exhaustive():
    for k, instances in ((1, 16), (2, 256)):
        rep = mm_decomposition_check(mm_basis(k))
        assert rep == CheckReport(f"mm-decomposition[k={k}]", instances, 0, None)


def test_quartic_roots_structure():
    w = mm_basis(2)
    for u, members in sorted(_fibers_of(w).items()):
        a0 = min(members)
        qr = quartic_roots(w, a0)
        assert qr.fiber == pi_fiber(w, u)
        # each subfield root c recovers a fiber member as a0 + c^2
        s = w.spec
        mapped = {a0 ^ f_mul(s, c, c) for c in qr.roots_subfield}
        assert mapped == qr.fiber
        assert len(qr.roots_subfield) == len(qr.fiber)
        assert 0 in qr.roots_subfield  # the quartic has no constant term
    with pytest.raises(ValueError):
        quartic_roots(w, 0x2)  # not a half-field element


def _fiber_short_of_a_member(w):
    """w with the least size-2 fiber missing its larger member, and that u:
    the quartic at the remaining member still has two roots."""
    fibers = _fibers_of(w)
    u = min(u for u, members in fibers.items() if len(members) == 2)
    return _with_fibers(w, {**fibers, u: fibers[u] - {max(fibers[u])}}), u


def test_quartic_roots_refuses_a_fiber_it_does_not_rebuild():
    w, u = _fiber_short_of_a_member(mm_basis(2))
    with pytest.raises(VerificationError) as exc:
        quartic_roots(w, min(pi_fiber(w, u)))
    assert str(exc.value) == ("fiber-root-correspondence: a0 + c^2 over the subfield roots "
                              "does not reproduce the fiber [k=2, a0=0x5c, u=0xc]")
    assert quartic_check_all(w).first_failure == str(exc.value)


def test_quartic_check_all():
    for k in (1, 2, 3):
        rep = quartic_check_all(mm_basis(k))
        assert rep.ok
        assert rep.instances == len(_fibers_of(mm_basis(k)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_quartic_check_all_passes_every_gamma(k):
    for g in all_gammas(k):
        w = mm_basis(k, gamma=g)
        assert quartic_check_all(w) == CheckReport(f"mm-quartic[k={k}]",
                                                   len(_fibers_of(w)), 0, None)


def test_quartic_check_all_refuses_a_member_of_another_fiber():
    # the least member of the broken fiber lies in an intact one, so the
    # fiber rebuilt at it is intact: only the fiber drawn at u = 0x48 differs
    rep = quartic_check_all(_fiber_member_plus_one(None, mm_basis(3)))
    assert (rep.name, rep.instances, rep.failures) == ("mm-quartic[k=3]", 42, 1)
    assert rep.first_failure.startswith("fiber-root-correspondence: ")
    assert "u=0x48" in rep.first_failure


def test_quartic_check_all_counts_a_least_member_outside_the_half_field():
    # quartic_roots refuses such an a0 with ValueError; the row counts it
    assert quartic_check_all(_member_outside_the_half_field(mm_basis(1))) == CheckReport(
        "mm-quartic[k=1]", 3, 1, "fiber-root-correspondence: the fiber drawn at u is not "
        "the one rebuilt at its least member a0 [k=1, u=0x6, a0=0x9]")


def _moved_pi_member(monkeypatch, k):
    """Patch pi so that the larger member of the least size-2 fiber maps
    into the least size-1 fiber; sizes still sum to 2^(2k)."""
    fibers = sorted(_fibers_of(mm_basis(k)).items())
    moved = max(next(m for _, m in fibers if len(m) == 2))
    target = next(u for u, m in fibers if len(m) == 1)
    real = theorems.pi_image

    def pi_image(w, a):
        u = real(w, a)
        if isinstance(a, np.ndarray):
            return np.where(a == moved, target, u)
        return target if a == moved else u

    monkeypatch.setattr(theorems, "pi_image", pi_image)


@pytest.mark.parametrize("k", [2, 3])
def test_fibers_of_a_broken_pi_fail_the_quartic_row(monkeypatch, k):
    # mm_basis builds the fibers without checking them: mm-fibers finds them
    # to be those of the broken pi, and mm-quartic refuses both changed ones
    _moved_pi_member(monkeypatch, k)
    w = mm_basis(k)
    assert fiber_partition_check(w).ok
    rep = quartic_check_all(w)
    assert rep.failures == 2
    assert rep.first_failure.startswith("fiber-root-correspondence: ")
    assert not mm_decomposition_check(w).ok


def _scalar_quartic_row(w):
    """The mm-quartic row as one scalar check per fiber, the oracle of the
    array pass: at the least member a0, the roots of the quartic that the
    linearized solver finds in GF(2^k) rebuild the fiber drawn at pi(a0) as
    a0 + c^2, and pi(a0) is the fiber's own u."""
    s, k = w.spec, w.k

    def check(u, members):
        a0 = min(members)
        if frobenius(s, a0, 2 * k) == a0:
            u0 = theorems.pi_image(w, a0)  # a patched pi included
            quartic = [(1, 2), (frobenius(s, a0, k) ^ a0, 1), (f_inv(s, w.gamma), 0)]
            roots = {c for c in solve_linearized(s, quartic, 0) if frobenius(s, c, k) == c}
            if {a0 ^ f_mul(s, c, c) for c in roots} != pi_fiber(w, u0):
                raise VerificationError(
                    "fiber-root-correspondence",
                    "a0 + c^2 over the subfield roots does not reproduce the fiber",
                    k=k, a0=a0, u=u0)
            if u0 == u:
                return
        raise VerificationError(
            "fiber-root-correspondence", "the fiber drawn at u is not the one "
            "rebuilt at its least member a0", k=k, u=u, a0=a0)

    return _tally(f"mm-quartic[k={k}]", sorted(_fibers_of(w).items()), check)


def _swapped_fibers(w):
    """The fibers of the two least u drawn at each other's u: each is a true
    fiber of pi, rebuilt at its least member, but not the one drawn there."""
    fibers = _fibers_of(w)
    u1, u2 = sorted(fibers)[:2]
    return _with_fibers(w, {**fibers, u1: fibers[u2], u2: fibers[u1]})


def _fiber_drawn_twice(w):
    """The fiber of the least u drawn again at the next u in place of its own:
    the same set at two u, so pi(a0) is not the second u."""
    fibers = _fibers_of(w)
    u1, u2 = sorted(fibers)[:2]
    return _with_fibers(w, {**fibers, u2: fibers[u1]})


def _relabeled_fiber(w):
    """A fiber drawn at u + 1, a value pi does not take, in place of its u:
    pi(a0) = u draws no fiber, and the next one drawn is a0's own."""
    fibers = _fibers_of(w)
    u = next(u for u in sorted(fibers) if u + 1 not in fibers)
    fibers[u + 1] = fibers.pop(u)
    return _with_fibers(w, fibers)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quartic_row_equals_the_scalar_check_for_every_gamma(k):
    for g in all_gammas(k):
        w = mm_basis(k, gamma=g)
        for witness in (w, replace(w, alpha=w.alpha ^ 1), _member_outside_the_half_field(w)):
            assert quartic_check_all(witness) == _scalar_quartic_row(witness)


@pytest.mark.parametrize("make, k", [
    (lambda monkeypatch, k: _fiber_member_plus_one(None, mm_basis(k)), 3),
    (lambda monkeypatch, k: _member_outside_the_half_field(mm_basis(k)), 1),
    (lambda monkeypatch, k: _member_outside_the_half_field(mm_basis(k)), 3),
    (lambda monkeypatch, k: _moved_pi_member(monkeypatch, k) or mm_basis(k), 2),
    (lambda monkeypatch, k: _moved_pi_member(monkeypatch, k) or mm_basis(k), 3),
    (lambda monkeypatch, k: _swapped_fibers(mm_basis(k)), 2),
    (lambda monkeypatch, k: _relabeled_fiber(mm_basis(k)), 2),
    (lambda monkeypatch, k: _fiber_drawn_twice(mm_basis(k)), 2),
], ids=["fiber-member+1-k3", "outside-half-k1", "outside-half-k3", "moved-pi-k2",
        "moved-pi-k3", "swapped-fibers-k2", "relabeled-fiber-k2", "fiber-drawn-twice-k2"])
def test_quartic_row_equals_the_scalar_check_on_a_broken_witness(monkeypatch, make, k):
    w = make(monkeypatch, k)
    report = quartic_check_all(w)
    assert not report.ok
    assert report == _scalar_quartic_row(w)


def test_mm_walsh_crosscheck_against_naive_sum():
    # the fiber-sum value must match the cubic-cost direct definition
    w = mm_basis(1)
    s = w.spec
    table = _family_table(1)
    g2 = f_mul(s, w.gamma, w.gamma)
    sub = [a for fib in _fibers_of(w).values() for a in fib]
    for u in sub:
        for v in sub:
            coef = mm_walsh_crosscheck(w, u, v)
            lam = f_mul(s, u, w.omega) ^ u ^ v
            assert coef == walsh_coefficient_direct(table, lam, g2)


def test_mm_walsh_crosscheck_refuses_a_fiber_sum_off_the_transform():
    w, u = _fiber_short_of_a_member(mm_basis(2))
    with pytest.raises(VerificationError) as exc:
        mm_walsh_crosscheck(w, u, 0)
    assert str(exc.value) == ("fiber-sum-equals-transform: fiber-sum coefficient disagrees "
                              "with the transform [k=2, u=0xc, v=0x0, fiber_sum=16, "
                              "transform=0]")
    assert mm_crosscheck_all(w).first_failure == str(exc.value)


def test_mm_crosscheck_all_counts():
    for k, instances in ((1, 16), (2, 256)):
        rep = mm_crosscheck_all(mm_basis(k))
        assert rep == CheckReport(f"mm-walsh-crosscheck[k={k}]", instances, 0, None)


def test_m4_sum_check_counts():
    # no size-4 fibers exist below k = 3, so only the stepping stones run
    assert m4_sum_check(mm_basis(1)) == CheckReport("mm-extremal-sum[k=1]", 1, 0, None)
    assert m4_sum_check(mm_basis(2)) == CheckReport("mm-extremal-sum[k=2]", 1, 0, None)
    w3 = mm_basis(3)
    four = [m for m in _fibers_of(w3).values() if len(m) == 4]
    assert len(four) == 2
    rep = m4_sum_check(w3)
    assert rep == CheckReport("mm-extremal-sum[k=3]", 1 + 2 * 64, 0, None)


def test_m4_extremal_coefficients_appear_in_spectrum():
    # at k = 3 the size-4 fibers must realize the extremal magnitude 2^(2k+1)
    w = mm_basis(3)
    fibers = _fibers_of(w)
    four = sorted(u for u, members in fibers.items() if len(members) == 4)
    sub = sorted(a for fib in fibers.values() for a in fib)
    coef, ok, _ = theorems._crosscheck(w, four, sub[:8])
    assert coef.shape == (2, 8) and ok.all()
    assert set(np.abs(coef).ravel().tolist()) == {1 << 7}


def test_paper_claims_beyond_desk_scale():
    # delta 4 and Walsh extremum 2^(2k+1) at k = 4, 5 from the orbit engine
    for k in (4, 5):
        table = build_lut(field_make(4 * k), dobbertin_exponent(k))
        assert power_delta(table) == 4
        assert power_walsh_spectrum(table).max_abs == 1 << (2 * k + 1)
    w = mm_basis(4)
    for suite in (quartic_check_all, m4_sum_check, mm_crosscheck_all):
        assert suite(w).ok


def _walsh_law(table, k):
    """The signed Walsh counts of the family over every a and b != 0, from
    the first four power moments, given the support {0, +-w1, +-2*w1}
    (w1 = 2^(2k)), omega_4 and delta(1, 1), both read off the row a = 1.

    M_j counts the coefficients of magnitude j*w1, and D_j = M_j+ - M_j-:
    Parseval and the fourth moment give M_2 = N(2^n + 8 omega_4)/12 and
    M_1 = 2^n N - 4 M_2 (N = 2^n - 1); the first and third moments give
    D_2 = w1 N (delta(1, 1) - 1)/6 and D_1 = w1 N - 2 D_2.  Counts of 0
    are left out.
    """
    counts = difference_row(table, 1).counts
    omega4, d11 = int((counts == 4).sum()), int(counts[1])
    size, w1 = 1 << (4 * k), 1 << (2 * k)
    order = size - 1
    m2, r2 = divmod(order * (size + 8 * omega4), 12)
    d2, r = divmod(w1 * order * (d11 - 1), 6)
    assert r2 == r == 0
    m1 = size * order - 4 * m2
    d1 = w1 * order - 2 * d2
    law = {0: size * order - m1 - m2,
           2 * w1: (m2 + d2) // 2, -2 * w1: (m2 - d2) // 2,
           w1: (m1 + d1) // 2, -w1: (m1 - d1) // 2}
    return {w: c for w, c in law.items() if c}


@pytest.mark.parametrize("k", range(1, 6))
def test_walsh_histogram_follows_from_row_1(k):
    # k = 1 has no -2^(2k+1) coefficient: there M_2+ - M_2- = M_2
    table = build_lut(field_make(4 * k), dobbertin_exponent(k))
    law = _walsh_law(table, k)
    assert dict(power_walsh_spectrum(table).histogram) == law
    if k <= 3:
        assert dict(walsh_spectrum(table).histogram) == law


@pytest.mark.parametrize("k", range(1, 5))
def test_replay_counts_follow_the_per_t_law(k):
    # one pass over every c = v + 1, as reduction_sweep makes it, grouped by
    # the stratum t = Tr_{4k/k}(c); its tally reaches every branch of the replay
    table = _family_table(k)
    A = _arith(table.spec.n, table.spec.poly)
    xs = np.arange(table.spec.size)
    c = xs ^ 1
    cols = theorems._derive_pass(k, xs, difference_row(table, 1).values, c)
    assert cols.passed.all()
    assert all(rows.any() for rows, _, _ in cols.stages)
    t = _relative_trace(A, k, c)
    per = 1 << (3 * k)
    for tv in A.subfield(k):
        here = t == tv
        count = cols.count[here]
        free = count[~cols.obstructed[here]]
        assert here.sum() == per
        if tv == 1:
            assert free.size == per
            assert Counter(count.tolist()) == {0: per // 2, 2: per // 2}
        else:
            assert free.size == per // 2
            assert Counter(free.tolist()) == {0: per // 8, 2: per // 4, 4: per // 8}


@pytest.mark.parametrize("k", range(1, 5))
def test_walsh_row_follows_the_fiber_sizes(k):
    # |f^(a, gamma^2)| is 0, H or 2H, in the proportions that the fiber sizes
    # of pi give; each N_s * s counts 2^k per beta of GF(2^k) at which
    # c^3 + beta*c + 1/gamma has s - 1 roots there, and none has 2
    table = _family_table(k)
    h = 1 << (2 * k)
    classes = set()
    for gamma in all_gammas(k):
        w = mm_basis(k, gamma=gamma)
        A = w.arith
        n = Counter(w.fibers[2].tolist())
        classes.add((n[1], n[2], n[4]))
        n0 = h - n[1] - n[2] - n[4]
        row = np.abs(walsh_row(table, int(A.mul(gamma, gamma))))
        assert Counter(row.tolist()) == {v: m for v, m in {
            0: n0 * h + n[2] * h // 2, h: n[1] * h, 2 * h: n[2] * h // 2 + n[4] * h}.items()
            if m}
        sub = np.array(A.subfield(k))
        cv, beta = sub[None, :], sub[:, None]
        cubic = A.mul(A.mul(cv, cv), cv) ^ A.mul(beta, cv) ^ A.inv(gamma)
        roots = Counter((cubic == 0).sum(axis=1).tolist())
        assert roots[2] == 0
        assert all(n[s] * s == (1 << k) * roots[s - 1] for s in (1, 2, 4))
    if k == 4:
        assert classes == {(112, 48, 12), (48, 96, 4)}


@pytest.mark.parametrize("k", range(1, 5))
def test_a_size_2_fiber_sums_to_0_at_exactly_half_the_v(k):
    # the product of the two terms of {a1, a2} is (-1)^Tr(v*(a1 + a2) + e),
    # a nonconstant affine sign in v: the sum is 0 or +-2H, each at half the v
    for gamma in all_gammas(k):
        w = mm_basis(k, gamma=gamma)
        us, _, size = w.fibers
        grid = np.abs(theorems._fiber_sum_grid(w, us[size == 2], w.half))
        assert grid.size and set(np.unique(grid).tolist()) <= {0, 1 << (2 * k + 1)}
        assert ((grid == 0).sum(axis=1) * 2 == len(w.half)).all()


# the row-1 counts {count: number of b} of the family and of the inverse
ROW_1 = {1: [{0: 9, 2: 6, 4: 1}] * 2,
         2: [{0: 152, 2: 80, 4: 24}, {0: 129, 2: 126, 4: 1}],
         3: [{0: 2496, 2: 1152, 4: 448}, {0: 2049, 2: 2046, 4: 1}]}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_family_against_the_inverse(k):
    # equal delta 4 and Walsh extremum 2^(2k+1), through the orbit engine; one
    # Frobenius class at k = 1 (7*2 = 14 mod 15), apart in both spectra after
    s = field_make(4 * k)
    h = 1 << (2 * k)
    rows, walsh = [], []
    for f in (build_lut(s, dobbertin_exponent(k)), build_lut(s, s.size - 2)):
        assert power_delta(f) == 4
        spectrum = power_walsh_spectrum(f)
        assert spectrum.max_abs == 2 * h
        rows.append(Counter(difference_row(f, 1).counts.tolist()))
        walsh.append({abs(v) for v in spectrum.histogram})
    assert rows == ROW_1[k]
    assert rows[0][4] == ((1 << k) - 1) << (3 * k - 3)
    if k == 1:
        assert 2 * dobbertin_exponent(k) % s.order == s.size - 2
    else:
        assert walsh == [{0, h, 2 * h}, set(range(0, 2 * h + 1, 4))]


def test_no_split_witness_reaches_the_class_of_1_at_k_2():
    # the witnesses' components gamma^2 lie in the classes 1 and 2 of log
    # mod 3; b = 1 lies in class 0, and its row has 16 coefficients of 2H
    table = _family_table(2)
    A = _arith(table.spec.n, table.spec.poly)
    assert A.log[1] % 3 == 0
    assert sorted(A.log[A.mul(g, g)] % 3 for g in all_gammas(2)) == [1, 2]
    row = np.abs(walsh_row(table, 1))
    assert Counter(row.tolist()) == {0: 48, 16: 192, 32: 16}


def test_run_all_checks_order_and_success():
    reports = run_all_checks([1])
    names = [r.name for r in reports]
    assert names == [
        "delta-sweep[k=1]",
        "reduction-replay[k=1]",
        "mm-basis[k=1]",
        "mm-decomposition[k=1]",
        "mm-fibers[k=1]",
        "mm-quartic[k=1]",
        "mm-walsh-crosscheck[k=1]",
        "mm-extremal-sum[k=1]",
    ]
    assert all(r.ok for r in reports)


def test_run_all_checks_refuses_before_any_suite(monkeypatch):
    ran = []
    monkeypatch.setattr(theorems, "delta_sweep", lambda k: ran.append(k))
    with pytest.raises(ValueError, match=r"got 5$"):
        run_all_checks([1, 5])
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            run_all_checks([1], samples=samples)
        with pytest.raises(ValueError, match="samples"):
            reduction_sweep(1, samples=samples)
    for ks in ([1, 1], [2, 1, 2]):
        with pytest.raises(ValueError, match=r"each k may be listed once"):
            run_all_checks(ks)
    assert ran == []


def test_run_all_checks_all_gamma_tags():
    reports = run_all_checks([2], samples=10, all_gamma=True)
    names = [r.name for r in reports]
    assert "mm-basis[k=2,gamma=0xbc]" in names
    assert "mm-basis[k=2,gamma=0xbd]" in names
    assert all(r.ok for r in reports)


def test_run_all_checks_deterministic():
    a = run_all_checks([3], samples=30)
    b = run_all_checks([3], samples=30)
    assert a == b


def test_delta_sweep_reports_a_delta_other_than_4(monkeypatch):
    # a table with an exponent is decided by its row a = 1, one without by
    # the full sweep; either way the row counts 2^n - 1 rows and one failure
    full = []
    monkeypatch.setattr(spectra, "differential_uniformity",
                        lambda f, deep: full.append(f) or differential_uniformity(f))
    s = field_make(8)
    monkeypatch.setattr(theorems, "_family_table", lambda k: build_lut(s, 3))
    assert theorems.delta_sweep(2) == CheckReport(
        "delta-sweep[k=2]", 255, 1, "measured delta 2 != 4")
    assert full == []
    rng = random.Random(2009)
    perm = lut_from_values(s, rng.sample(range(s.size), s.size))
    assert perm.exponent is None
    delta = differential_uniformity(perm)
    assert delta != 4
    monkeypatch.setattr(theorems, "_family_table", lambda k: perm)
    assert theorems.delta_sweep(2) == CheckReport(
        "delta-sweep[k=2]", 255, 1, f"measured delta {delta} != 4")
    assert len(full) == 1 and full[0] is perm


def test_verify_reads_the_family_premise_from_the_table(monkeypatch):
    # f(6) and f(7) swapped under the x^d stamp: D_1 f is unchanged, so only
    # an exponent read off the values sends both rows off the lemma
    clean = build_lut(field_make(8), dobbertin_exponent(2))
    lut = clean.lut.copy()
    lut[[6, 7]] = lut[[7, 6]]
    stamped = FunctionTable(clean.spec, lut)
    stamped.__dict__["exponent"] = clean.exponent
    monkeypatch.setattr(theorems, "build_lut", lambda s, d: stamped)
    _family_table.cache_clear()
    try:
        failed = {r.name for r in run_all_checks([2]) if not r.ok}
    finally:
        _family_table.cache_clear()
    assert {"delta-sweep[k=2]", "reduction-replay[k=2]"} <= failed


def _patched(target, wrapper):
    """A breaker that wraps the theorems global ``target``; the witness stays."""
    def breaker(monkeypatch, w):
        monkeypatch.setattr(theorems, target, wrapper(getattr(theorems, target)))
        return w
    return breaker


def _broken_family_table(monkeypatch, w):
    _break_first_four(monkeypatch, w.k, 1000, _move)
    return w


def _other_alpha(monkeypatch, w):
    # alpha + 1 is no root of z^2 + gamma*z + gamma^3 (omega + 1 would be)
    return replace(w, alpha=w.alpha ^ 1)


def _fiber_member_plus_one(monkeypatch, w):
    # the least size-4 fiber (u = 0x48 at k = 3) with its least member m
    # replaced by m + 1, another element of the half field
    fibers = _fibers_of(w)
    u = min(u for u, members in fibers.items() if len(members) == 4)
    m = min(fibers[u])
    return _with_fibers(w, {**fibers, u: fibers[u] - {m} | {m ^ 1}})


# suite -> (its report from the witness, the breaker returning the witness
# to run on, the step its first failure names)
BREAKS = {
    "reduction-replay": (lambda w: reduction_sweep(w.k), _broken_family_table,
                         "normalized-product-identity"),
    "mm-decomposition": (mm_decomposition_check, _other_alpha, "split-coordinate-form"),
    "mm-quartic": (quartic_check_all, _fiber_member_plus_one, "fiber-root-correspondence"),
    "mm-walsh-crosscheck": (mm_crosscheck_all, _other_alpha, "fiber-sum-equals-transform"),
    "mm-extremal-sum": (m4_sum_check, _fiber_member_plus_one, "four-term-trace-sum"),
}


@pytest.mark.parametrize("suite", BREAKS)
def test_tallied_suite_counts_a_broken_input(monkeypatch, suite):
    run, breaker, step = BREAKS[suite]
    w = mm_basis(3)
    clean = run(w)
    broken = run(breaker(monkeypatch, w))
    assert clean.ok and clean.name == broken.name == f"{suite}[k=3]"
    assert broken.instances == clean.instances
    assert broken.failures > 0
    assert broken.first_failure.startswith(f"{step}: ")


WITNESS_CHANGES = {
    "clean": lambda w: w,
    "alpha+1": lambda w: replace(w, alpha=w.alpha ^ 1),
    "omega+g": lambda w: replace(w, omega=w.omega ^ 2),
    "alpha+gamma": lambda w: replace(w, alpha=w.alpha ^ w.gamma),
    "fiber-member+1": lambda w: _fiber_member_plus_one(None, w),
}
SPLIT_ROWS = [
    ("mm-decomposition", mm_decomposition_check,
     "split-coordinate-form: g(y + omega*a) differs from its split-coordinate form"),
    ("mm-walsh-crosscheck", mm_crosscheck_all,
     "fiber-sum-equals-transform: fiber-sum coefficient disagrees with the transform"),
    ("mm-extremal-sum", m4_sum_check,
     "four-term-trace-sum: the four half-field trace bits do not sum to 1 mod 2"),
]
# (k, witness change) -> per split row: instances, failures and the context
# of the first failure (cells in row-major order)
PINNED_SPLIT_REPORTS = {
    (1, "clean"): [(16, 0, None), (16, 0, None), (1, 0, None)],
    (1, "alpha+1"): [(16, 8, "k=1, y=0x0, a=0x6"),
                     (16, 8, "k=1, u=0x6, v=0x0, fiber_sum=-4, transform=4"), (1, 0, None)],
    (1, "omega+g"): [(16, 8, "k=1, y=0x0, a=0x1"),
                     (16, 10, "k=1, u=0x1, v=0x6, fiber_sum=0, transform=8"), (1, 0, None)],
    (1, "alpha+gamma"): [(16, 8, "k=1, y=0x0, a=0x6"),
                         (16, 8, "k=1, u=0x6, v=0x0, fiber_sum=-4, transform=4"), (1, 0, None)],
    (2, "clean"): [(256, 0, None), (256, 0, None), (1, 0, None)],
    (2, "alpha+1"): [(256, 96, "k=2, y=0x0, a=0xd"),
                     (256, 96, "k=2, u=0xc, v=0x0, fiber_sum=32, transform=0"), (1, 0, None)],
    (2, "omega+g"): [(256, 120, "k=2, y=0x0, a=0x1"),
                     (256, 144, "k=2, u=0x1, v=0x0, fiber_sum=16, transform=0"), (1, 0, None)],
    (2, "alpha+gamma"): [(256, 192, "k=2, y=0x0, a=0xc"),
                         (256, 48, "k=2, u=0xc, v=0x50, fiber_sum=-32, transform=32"),
                         (1, 0, None)],
    (3, "clean"): [(4096, 0, None), (4096, 0, None), (129, 0, None)],
    (3, "alpha+1"): [(4096, 2048, "k=3, y=0x0, a=0x48"),
                     (4096, 1664, "k=3, u=0x20, v=0x0, fiber_sum=-64, transform=64"),
                     (129, 0, None)],
    (3, "omega+g"): [(4096, 2048, "k=3, y=0x0, a=0x1"),
                     (4096, 2808, "k=3, u=0x1, v=0x0, fiber_sum=0, transform=64"),
                     (129, 0, None)],
    (3, "alpha+gamma"): [(4096, 2048, "k=3, y=0x0, a=0x48"),
                         (4096, 1664, "k=3, u=0x20, v=0x0, fiber_sum=-64, transform=64"),
                         (129, 0, None)],
    (3, "fiber-member+1"): [(4096, 0, None),
                            (4096, 32, "k=3, u=0x48, v=0x0, fiber_sum=-256, transform=-128"),
                            (129, 32, "k=3, u=0x48, v=0x0, coefficient=-256")],
}


@pytest.mark.parametrize("k, change", PINNED_SPLIT_REPORTS)
def test_split_rows_report_every_failure_and_the_first(k, change):
    w = WITNESS_CHANGES[change](mm_basis(k))
    for (name, run, text), (instances, failures, context) in zip(
            SPLIT_ROWS, PINNED_SPLIT_REPORTS[k, change]):
        first = None if context is None else f"{text} [{context}]"
        assert run(w) == CheckReport(f"{name}[k={k}]", instances, failures, first)


def test_extremal_sum_reports_broken_stepping_stones():
    # gamma = 1 has subfield trace 0 at even k, so Tr_k(gamma^2) is 0
    assert m4_sum_check(replace(mm_basis(2), gamma=1)) == CheckReport(
        "mm-extremal-sum[k=2]", 1, 1,
        "trace-stepping-stones: expected all three traces to be 1 [k=2, traces=(1, 1, 0)]")


def test_failed_basis_skips_its_suites_for_that_gamma_only(monkeypatch):
    real = theorems.mm_basis

    def mm_basis_failing_at_0xbc(k, *, gamma=None):
        if gamma == 0xBC:
            raise VerificationError("alpha-roots-subfield", "forced", k=k, gamma=gamma)
        return real(k, gamma=gamma)

    monkeypatch.setattr(theorems, "mm_basis", mm_basis_failing_at_0xbc)
    reports = run_all_checks([2], samples=10, all_gamma=True)
    assert [r.name for r in reports] == [
        "delta-sweep[k=2]",
        "reduction-replay[k=2]",
        "mm-basis[k=2,gamma=0xbc]",
        "mm-basis[k=2,gamma=0xbd]",
        "mm-decomposition[k=2,gamma=0xbd]",
        "mm-fibers[k=2,gamma=0xbd]",
        "mm-quartic[k=2,gamma=0xbd]",
        "mm-walsh-crosscheck[k=2,gamma=0xbd]",
        "mm-extremal-sum[k=2,gamma=0xbd]",
    ]
    assert reports[2] == CheckReport("mm-basis[k=2,gamma=0xbc]", 1, 1,
                                     "alpha-roots-subfield: forced [k=2, gamma=0xbc]")
    assert all(r.ok for r in reports[:2] + reports[3:])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quad_roots_match_brute_force(data):
    # root[c] is the even root of x^2 + x = c, or -1 when there is none
    s = field_make(data.draw(st.integers(2, 10), label="n"))
    c = data.draw(st.integers(0, s.order), label="c")
    roots = {x for x in range(s.size) if f_mul(s, x, x) ^ x == c}
    r = int(_arith(s.n, s.poly).root[c])
    assert (r, roots) == ((r, {r, r ^ 1}) if r % 2 == 0 else (-1, set()))


def test_verification_error_carries_context():
    err = VerificationError("some-step", "identity failed", k=1, a=0x3, note="x")
    assert err.step == "some-step"
    assert err.context == {"k": 1, "a": 0x3, "note": "x"}
    msg = str(err)
    assert "some-step" in msg and "identity failed" in msg and "a=0x3" in msg


def test_verification_error_prints_numpy_elements_in_hex():
    err = VerificationError("some-step", "identity failed", k=np.int64(3), x=np.int64(10),
                            count=np.int64(6))
    assert str(err) == "some-step: identity failed [k=3, x=0xa, count=6]"


def test_verification_error_prints_counts_in_decimal(monkeypatch):
    # field elements stay hex; counts and signed values read as numbers
    assert _break_first_four(monkeypatch, 1, None, _bump) == (1, 1)
    with pytest.raises(VerificationError) as exc:
        diff_solution_count(1, 1, 1)
    assert str(exc.value) == ("count-bound: difference equation has more than four "
                              "solutions [k=1, a=0x1, b=0x1, count=6]")
    monkeypatch.undo()

    w = _fiber_member_plus_one(monkeypatch, mm_basis(3))
    assert m4_sum_check(w).first_failure == (
        "four-term-trace-sum: the four half-field trace bits do not sum to 1 mod 2 "
        "[k=3, u=0x48, v=0x0, coefficient=-256]")
