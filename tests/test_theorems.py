"""Derivation replays and the split-coordinate verification suite."""

from collections import Counter

import pytest

from gf2lab import (
    CheckReport,
    VerificationError,
    all_gammas,
    build_lut,
    diff_solution_count,
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
    quartic_check_all,
    quartic_roots,
    reduction_sweep,
    reduction_trace,
    run_all_checks,
)
from gf2lab import theorems
from gf2lab.spectra import walsh_coefficient_direct
from gf2lab.theorems import (
    DEFAULT_SEED,
    _Arith,
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
    with pytest.raises(ValueError, match="deep"):
        mm_basis(4)
    with pytest.raises(ValueError, match="deep"):
        all_gammas(4)


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
    a = reduction_sweep(3, samples=40, seed=DEFAULT_SEED)
    b = reduction_sweep(3, samples=40, seed=DEFAULT_SEED)
    assert a == b
    assert a.instances == 40 and a.failures == 0
    c = reduction_sweep(3, samples=40, seed=12345)
    assert c.failures == 0


def test_all_gammas_frozen():
    assert all_gammas(1) == [0x1]
    assert all_gammas(2) == [0xBC, 0xBD]
    assert all_gammas(3) == [0x1, 0x4A3, 0x983, 0xD21]


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


def test_fiber_partition_check():
    for k in (1, 2):
        rep = fiber_partition_check(mm_basis(k))
        assert rep.ok
        assert rep.name == f"mm-fibers[k={k}]"


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


def test_verification_error_carries_context():
    err = VerificationError("some-step", "identity failed", k=1, a=0x3, note="x")
    assert err.step == "some-step"
    assert err.context == {"k": 1, "a": 0x3, "note": "x"}
    msg = str(err)
    assert "some-step" in msg and "identity failed" in msg and "a=0x3" in msg
