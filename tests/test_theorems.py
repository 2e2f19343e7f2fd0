"""Derivation replays and the split-coordinate verification suite."""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2lab import (
    CheckReport,
    FunctionTable,
    VerificationError,
    all_gammas,
    build_lut,
    diff_solution_count,
    difference_row,
    dobbertin_exponent,
    f_mul,
    f_pow,
    field_make,
    frobenius,
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
)
from gf2lab import theorems
from gf2lab.field import _Arith, _arith, _log_exp_tables
from gf2lab.spectra import walsh_coefficient_direct
from gf2lab.theorems import (
    DEFAULT_SEED,
    _family_table,
    fiber_partition_check,
)


def test_dobbertin_exponent_values():
    assert [dobbertin_exponent(k) for k in (1, 2, 3, 4)] == [7, 21, 73, 273]


def test_k_range_validation():
    with pytest.raises(ValueError):
        diff_solution_count(0, 1, 0)
    with pytest.raises(ValueError):
        reduction_sweep(5)
    with pytest.raises(ValueError):
        all_gammas(5)
    # the split-coordinate basis is no full sweep: k = 4 runs without deep
    assert mm_basis(4).gamma in all_gammas(4)


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


def test_reduction_trace_branch_t_equal_one():
    tr = reduction_trace(1, 1, 9)
    assert tr.branch == "t=1" and tr.t == 1
    assert tr.obstruction is None
    assert len(tr.solutions_direct) == 2
    assert tr.solutions_via_quadratics == tr.solutions_direct
    assert {"r", "s"} <= set(tr.aux)
    for name in ("pair-gap-constant", "half-gap-constant",
                 "terminal-quadratic-cover", "terminal-quadratic-match"):
        assert name in tr.checks


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
    for name in ("terminal-pair-bound", "terminal-pair-cover",
                 "terminal-pair-match", "halving-image-membership"):
        assert name in tr.checks


def test_reduction_trace_obstruction_case():
    # here the halving step produces a candidate that violates its own
    # subfield/trace constraints, proving the equation unsolvable
    tr = reduction_trace(1, 1, 2)
    assert tr.obstruction == "halving-image-constraints"
    assert tr.solutions_direct == frozenset()
    assert tr.solutions_via_quadratics == frozenset()


def test_reduction_trace_empty_without_obstruction():
    # both terminal quadratics resolve but their roots all fail the filter
    tr = reduction_trace(1, 1, 0)
    assert tr.obstruction is None
    assert tr.solutions_direct == frozenset()
    assert tr.solutions_via_quadratics == frozenset()


def test_replay_branch_tally_over_every_c():
    # with a = 1 and b = c + 1 every c of the field is one derivation instance;
    # only halving-image-constraints ever ends a replay early
    expected = {
        1: {("t!=1", "halving-image-constraints", 0): 4, ("t!=1", None, 0): 1,
            ("t!=1", None, 2): 2, ("t!=1", None, 4): 1,
            ("t=1", None, 0): 4, ("t=1", None, 2): 4},
        2: {("t!=1", "halving-image-constraints", 0): 96, ("t!=1", None, 0): 24,
            ("t!=1", None, 2): 48, ("t!=1", None, 4): 24,
            ("t=1", None, 0): 32, ("t=1", None, 2): 32},
        3: {("t!=1", "halving-image-constraints", 0): 1792, ("t!=1", None, 0): 448,
            ("t!=1", None, 2): 896, ("t!=1", None, 4): 448,
            ("t=1", None, 0): 256, ("t=1", None, 2): 256},
    }
    for k, want in expected.items():
        tally = Counter()
        for c in range(1 << (4 * k)):
            tr = reduction_trace(k, 1, c ^ 1)
            tally[(tr.branch, tr.obstruction, len(tr.solutions_direct))] += 1
        assert tally == want, k


@pytest.mark.parametrize("call, step", [(1, "halving-quadratic-unsolvable"),
                                        (2, "second-halving-unsolvable")])
def test_unsolvable_halving_is_an_impossible_state(monkeypatch, call, step):
    # b = 0 (c = 1, t = 0) reaches both halving quadratics and has no
    # solutions, so an empty root set there could only pass as an obstruction
    real = _Arith.quad_roots
    calls = []

    def quad_roots(self, const):
        calls.append(const)
        return frozenset() if len(calls) == call else real(self, const)

    monkeypatch.setattr(_Arith, "quad_roots", quad_roots)
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


def test_reduction_sweep_sampled_determinism():
    a = reduction_sweep(3, samples=40)
    b = reduction_sweep(3, samples=40)
    assert a == b
    assert a.instances == 40 and a.failures == 0


def _sweep_cases(k, samples):
    """The sweep's (a, b) pairs in case order, drawn here independently."""
    size = 1 << (4 * k)
    if samples is None:
        return [(a, b) for a in range(1, size) for b in range(size)]
    rng = random.Random(DEFAULT_SEED)
    return [(rng.randrange(1, size), rng.randrange(size)) for _ in range(samples)]


def _per_pair_replay(k, samples):
    return theorems._tally(f"reduction-replay[k={k}]", _sweep_cases(k, samples),
                           lambda a, b: reduction_trace(k, a, b))


@pytest.mark.parametrize("k, samples", [(1, None), (2, None), (3, 200)])
def test_reduction_sweep_equals_the_per_pair_replay(k, samples):
    assert reduction_sweep(k, samples=samples) == _per_pair_replay(k, samples)


def test_reduction_sweep_replays_each_c_once_on_a_clean_table(monkeypatch):
    real = theorems._derive
    calls = Counter()

    def counting(k, a, b, direct):
        calls[(a, b)] += 1
        return real(k, a, b, direct)

    def no_scan(k, a, b):
        raise AssertionError(f"pair ({a}, {b}) was scanned")

    monkeypatch.setattr(theorems, "_derive", counting)
    monkeypatch.setattr(theorems, "diff_solution_count", no_scan)
    assert reduction_sweep(2).ok
    # the array pass settles every c, so the scalar derivation never runs
    assert calls == Counter()


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

    def recording(k, sols, valid, c):
        seen.extend(c.tolist())
        return real(k, sols, valid, c)

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


def _derive_pass(k, ws, sets):
    """The array pass over the pairs (1, w), the sets padded into slots."""
    width = max(4, max(map(len, sets)))
    sols = np.zeros((len(sets), width), dtype=np.int64)
    for i, members in enumerate(sets):
        sols[i, :len(members)] = members
    valid = np.arange(width) < np.array([len(m) for m in sets])[:, None]
    return theorems._derive_pass(k, sols, valid, np.array(ws) ^ 1)


def _scalar_replay(k, w, sols):
    """The scalar replay of (1, w) under the four-solution bound, or None."""
    try:
        return theorems._derive(k, 1, w, theorems._count_bound(k, 1, w, frozenset(sols)))
    except VerificationError:
        return None


@pytest.mark.parametrize("k, samples", [(1, None), (2, None), (3, None), (4, 300)])
def test_derive_pass_equals_the_scalar_replay_at_every_c(k, samples):
    size = 1 << (4 * k)
    ws = range(size) if samples is None else random.Random(k).sample(range(size), samples)
    sets = _row_a1(k, ws)
    cols = _derive_pass(k, ws, sets)
    for i, (w, sols) in enumerate(zip(ws, sets)):
        tr = _scalar_replay(k, w, sols)
        assert cols.passed[i] and tr is not None, w
        # the columns behind the branch tally of every c
        assert (cols.t_one[i], cols.obstructed[i], cols.count[i]) == (
            tr.branch == "t=1", tr.obstruction is not None, len(tr.solutions_direct)), w


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_one_sets_are_the_replay_layout(k):
    # every S(1, w) from its own scan, padded with 0 to max(4, delta) slots
    size = 1 << (4 * k)
    sets = _row_a1(k, range(size))
    width = max(4, max(map(len, sets)))
    sols, valid = difference_row(_family_table(k), 1).sets(np.arange(size))
    assert sols.shape == valid.shape == (size, width)
    assert sols.tolist() == [m + [0] * (width - len(m)) for m in sets]
    assert valid.tolist() == [[j < len(m) for j in range(width)] for m in sets]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derive_pass_equals_the_scalar_replay_on_perturbed_sets(k):
    size = 1 << (4 * k)
    rng = random.Random(DEFAULT_SEED + k)
    ws = [rng.randrange(size) for _ in range(120)]
    sets = []
    for members, change in zip(_row_a1(k, ws), ["drop", "replace", "add"] * 40):
        members = set(members)
        if change != "add" and members:
            members.discard(rng.choice(sorted(members)))
        if change != "drop":
            members.add(rng.randrange(size))
        sets.append(sorted(members))
    want = [_scalar_replay(k, w, sols) is not None for w, sols in zip(ws, sets)]
    assert 0 < sum(want) < len(want)
    assert _derive_pass(k, ws, sets).passed.tolist() == want


def test_all_gammas_frozen():
    assert all_gammas(1) == [0x1]
    assert all_gammas(2) == [0xBC, 0xBD]
    assert all_gammas(3) == [0x1, 0x4A3, 0x983, 0xD21]


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_subfields_are_one_stride_of_the_exp_table(n):
    s = field_make(n)
    for m in (m for m in range(1, n + 1) if n % m == 0):
        scan = tuple(x for x in range(s.size) if frobenius(s, x, m) == x)
        assert _arith(s.n, s.poly).subfield(m) == scan, m


def test_mm_basis_witness_k1():
    w = mm_basis(1)
    assert (w.gamma, w.alpha, w.omega) == (0x1, 0x6, 0x2)
    sizes = Counter(len(m) for m in w.pi_fibers.values())
    assert sizes == Counter({1: 2, 2: 1})


def test_mm_basis_witness_k2():
    w = mm_basis(2)
    assert (w.gamma, w.alpha, w.omega) == (0xBC, 0xC, 0xAE)
    sizes = Counter(len(m) for m in w.pi_fibers.values())
    assert sizes == Counter({1: 4, 2: 6})


def test_mm_basis_alternate_gamma():
    w = mm_basis(2, gamma=0xBD)
    assert (w.alpha, w.omega) == (0x50, 0xA2)
    assert mm_decomposition_check(w).ok
    with pytest.raises(ValueError):
        mm_basis(2, gamma=0x1)  # not a trace-one subfield element


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


def test_pi_image_matches_scalar_formula():
    for k in (1, 2):
        w = mm_basis(k)
        s = w.spec
        g2 = f_mul(s, w.gamma, w.gamma)
        members = [a for fib in w.pi_fibers.values() for a in fib]
        assert len(members) == 1 << (2 * k)  # fibers partition the subfield
        for a in members:
            expect = (f_mul(s, w.gamma, frobenius(s, a, k - 1))
                      ^ f_mul(s, g2, f_mul(s, frobenius(s, a, k), a)))
            assert pi_image(w, a) == expect
            assert a in pi_fiber(w, pi_image(w, a))


@pytest.mark.parametrize("element", [-1, 256, 1 << 20], ids=["-1", "2^n", "2^20"])
@pytest.mark.parametrize("call", [pi_image, quartic_roots,
                                  lambda w, e: mm_walsh_crosscheck(w, e, 0),
                                  lambda w, e: mm_walsh_crosscheck(w, 0, e)],
                         ids=["pi_image", "quartic_roots", "crosscheck-u", "crosscheck-v"])
def test_elements_outside_the_field_are_refused(call, element):
    # numpy indexing wraps a negative element, so each is checked up front
    w = mm_basis(2)
    with pytest.raises(ValueError, match="not an element of GF"):
        call(w, element)
    if call is pi_image:
        with pytest.raises(ValueError, match="not an element of GF"):
            pi_image(w, np.array([0, element]))


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
    a0 = min(w.pi_fibers[min(w.pi_fibers)])
    qr = quartic_roots(w, a0)
    values += [pi_image(w, a0), qr.a0, qr.u, qr.roots_full, qr.roots_subfield, qr.fiber,
               mm_walsh_crosscheck(w, qr.u, a0), w.k, w.gamma, w.alpha, w.omega,
               w.pi_fibers, all_gammas(k)]
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
    u = min(w.pi_fibers)
    rep = fiber_partition_check(replace(w, pi_fibers={
        v: m for v, m in w.pi_fibers.items() if v != u}))
    assert rep.failures == 1
    assert rep.first_failure.startswith("partition broken: ")


def test_fiber_partition_check_refuses_a_member_outside_the_half_field():
    # x lies outside GF(2^2) yet pi(x) is an attained u: put it in u's fiber
    # in place of a member, so sizes, total, distinctness and pi all hold
    w = mm_basis(1)
    A = _arith(w.spec.n, w.spec.poly)
    half = set(A.subfield(2))
    x, u = next((x, u) for x, u in enumerate(pi_image(w, np.arange(w.spec.size)).tolist())
                if x not in half and u in w.pi_fibers)
    fiber = w.pi_fibers[u]
    rep = fiber_partition_check(replace(w, pi_fibers={**w.pi_fibers,
                                                      u: fiber - {min(fiber)} | {x}}))
    assert rep.failures == 1
    assert rep.first_failure == ("fibers are not those of pi: 0 repeated member(s), "
                                 "1 outside GF(2^2) or mapped off their fiber's u")


def test_mm_decomposition_exhaustive():
    for k, instances in ((1, 16), (2, 256)):
        rep = mm_decomposition_check(mm_basis(k))
        assert rep == CheckReport(f"mm-decomposition[k={k}]", instances, 0, None)


def test_quartic_roots_structure():
    w = mm_basis(2)
    for u in sorted(w.pi_fibers):
        a0 = min(w.pi_fibers[u])
        qr = quartic_roots(w, a0)
        assert qr.fiber == pi_fiber(w, u)
        # each subfield root c recovers a fiber member as a0 + c^2
        s = w.spec
        mapped = {a0 ^ f_mul(s, c, c) for c in qr.roots_subfield}
        assert mapped == qr.fiber
        assert len(qr.roots_subfield) == len(qr.fiber)
        assert 0 in qr.roots_full  # the quartic has no constant term
    with pytest.raises(ValueError):
        quartic_roots(w, 0x2)  # not a half-field element


def test_quartic_check_all():
    for k in (1, 2, 3):
        rep = quartic_check_all(mm_basis(k))
        assert rep.ok
        assert rep.instances == len(mm_basis(k).pi_fibers)


def test_mm_walsh_crosscheck_against_naive_sum():
    # the fiber-sum value must match the cubic-cost direct definition
    w = mm_basis(1)
    s = w.spec
    table = _family_table(1)
    g2 = f_mul(s, w.gamma, w.gamma)
    sub = [a for fib in w.pi_fibers.values() for a in fib]
    for u in sub:
        for v in sub:
            coef = mm_walsh_crosscheck(w, u, v)
            lam = f_mul(s, u, w.omega) ^ u ^ v
            assert coef == walsh_coefficient_direct(table, lam, g2)


def test_mm_crosscheck_all_counts():
    for k, instances in ((1, 16), (2, 256)):
        rep = mm_crosscheck_all(mm_basis(k))
        assert rep == CheckReport(f"mm-walsh-crosscheck[k={k}]", instances, 0, None)


def test_m4_sum_check_counts():
    # no size-4 fibers exist below k = 3, so only the stepping stones run
    assert m4_sum_check(mm_basis(1)) == CheckReport("mm-extremal-sum[k=1]", 1, 0, None)
    assert m4_sum_check(mm_basis(2)) == CheckReport("mm-extremal-sum[k=2]", 1, 0, None)
    w3 = mm_basis(3)
    four = [m for m in w3.pi_fibers.values() if len(m) == 4]
    assert len(four) == 2
    rep = m4_sum_check(w3)
    assert rep == CheckReport("mm-extremal-sum[k=3]", 1 + 2 * 64, 0, None)


def test_m4_extremal_coefficients_appear_in_spectrum():
    # at k = 3 the size-4 fibers must realize the extremal magnitude 2^(2k+1)
    w = mm_basis(3)
    extreme = 1 << 7
    seen = set()
    sub = sorted(a for fib in w.pi_fibers.values() for a in fib)
    for u, members in w.pi_fibers.items():
        if len(members) == 4:
            for v in sub[:8]:
                seen.add(abs(mm_walsh_crosscheck(w, u, v)))
    assert seen == {extreme}


def test_paper_claims_beyond_desk_scale():
    # delta 4 and Walsh extremum 2^(2k+1) at k = 4, 5 from the orbit engine
    for k in (4, 5):
        table = build_lut(field_make(4 * k), dobbertin_exponent(k))
        assert power_delta(table) == 4
        assert power_walsh_spectrum(table).max_abs == 1 << (2 * k + 1)
    w = mm_basis(4)
    for suite in (quartic_check_all, m4_sum_check, mm_crosscheck_all):
        assert suite(w).ok


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
    monkeypatch.setattr(theorems, "delta_sweep", lambda k, deep: ran.append(k))
    with pytest.raises(ValueError, match="deep"):
        run_all_checks([1, 4])
    with pytest.raises(ValueError):
        run_all_checks([1, 5], deep=True)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            run_all_checks([1], samples=samples)
        with pytest.raises(ValueError, match="samples"):
            reduction_sweep(1, samples=samples)
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


def test_tally_counts_each_verification_error_and_keeps_the_first():
    def check(i):
        if i % 2:
            raise VerificationError(f"step-{i}", "odd case", i=i)

    assert theorems._tally("t", [(i,) for i in range(6)], check) == CheckReport(
        "t", 6, 3, "step-1: odd case [i=0x1]")

    def broken(i):
        raise KeyError(i)

    with pytest.raises(KeyError):
        theorems._tally("t", [(0,)], broken)


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
    u = min(u for u, members in w.pi_fibers.items() if len(members) == 4)
    m = min(w.pi_fibers[u])
    return replace(w, pi_fibers={**w.pi_fibers, u: w.pi_fibers[u] - {m} | {m ^ 1}})


# suite -> (its report from the witness, the breaker returning the witness
# to run on, the step its first failure names)
BREAKS = {
    "reduction-replay": (lambda w: reduction_sweep(w.k), _broken_family_table,
                         "normalized-product-identity"),
    "mm-decomposition": (mm_decomposition_check, _other_alpha, "split-coordinate-form"),
    "mm-quartic": (quartic_check_all,
                   _patched("solve_linearized", lambda real: lambda *args: set()),
                   "fiber-root-correspondence"),
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
    "fiber-member+1": lambda w: _fiber_member_plus_one(None, w),
}
SETTLED_SUITES = {
    "reduction_sweep": lambda w: reduction_sweep(w.k),
    "mm_decomposition_check": mm_decomposition_check,
    "mm_crosscheck_all": mm_crosscheck_all,
    "m4_sum_check": m4_sum_check,
}


# size-4 fibers, which the fiber-member+1 witness changes, first occur at k = 3
@pytest.mark.parametrize("k, suite, change", [
    pytest.param(k, suite, change, id=f"{k}-{suite}-{change}")
    for k in (1, 2, 3)
    for suite, changes in [
        ("mm_decomposition_check", ["clean", "alpha+1", "omega+g"]),
        ("mm_crosscheck_all", ["clean", "alpha+1", "omega+g"]),
        ("reduction_sweep", ["clean"]),
        ("m4_sum_check", ["clean", "fiber-member+1"] if k == 3 else ["clean"])]
    for change in changes])
def test_split_suites_equal_the_scalar_tally(monkeypatch, k, suite, change):
    clean = mm_basis(k)
    w = WITNESS_CHANGES[change](clean)
    run = SETTLED_SUITES[suite]
    settled = run(w)
    # an array pass that settles nothing sends every case to the scalar check
    real = theorems._settle
    monkeypatch.setattr(theorems, "_settle", lambda name, ok, *rest:
                        real(name, np.zeros_like(ok), *rest))
    assert settled == run(w)
    assert settled.ok == (w is clean)


@pytest.mark.parametrize("suite, scalar_cases", [(mm_decomposition_check, 0),
                                                 (mm_crosscheck_all, 0), (m4_sum_check, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_array_passes_settle_every_clean_case(monkeypatch, k, suite, scalar_cases):
    # a pass that settles too little changes no report, so count the scalar
    # cases: none on a clean witness but the extremal sum's stepping stones
    real = theorems._tally
    ran = []

    def counting(name, cases, check):
        cases = list(cases)
        ran.extend(cases)
        return real(name, cases, check)

    monkeypatch.setattr(theorems, "_tally", counting)
    assert suite(mm_basis(k)).ok
    assert len(ran) == scalar_cases


@pytest.mark.parametrize("change", [lambda w: w, lambda w: _fiber_member_plus_one(None, w)],
                         ids=["clean", "fiber-member+1"])
def test_extremal_sum_equals_the_scalar_tally(monkeypatch, change):
    clean = mm_basis(3)
    w = change(clean)
    settled = m4_sum_check(w)
    # sums off by one never have magnitude 2^(2k+1), so the pass settles
    # nothing and every cell goes to the scalar check
    real = theorems._fiber_sum_grid
    monkeypatch.setattr(theorems, "_fiber_sum_grid", lambda *args: real(*args) + 1)
    assert settled == m4_sum_check(w)
    assert (settled.instances, settled.failures) == (129, 0 if w is clean else 32)


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
    s = field_make(data.draw(st.integers(2, 10), label="n"))
    c = data.draw(st.integers(0, s.order), label="c")
    roots = {x for x in range(s.size) if f_mul(s, x, x) ^ x == c}
    assert _arith(s.n, s.poly).quad_roots(c) == roots


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
