"""Field arithmetic: construction, axioms, traces, linearized solver."""

import random
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2lab import (
    FieldConstructionError,
    FieldSpec,
    build_lut,
    classify,
    default_poly,
    difference_row,
    f_add,
    f_inv,
    f_mul,
    f_pow,
    field_make,
    frobenius,
    lut_from_values,
    mm_basis,
    permutation_check,
    pi_fiber,
    pi_image,
    quartic_roots,
    reduction_sweep,
    reduction_trace,
    run_all_checks,
    solve_linearized,
    trace_abs,
    trace_rel,
    walsh_row,
)
from gf2lab.field import _Arith, _arith, _linear_map, _log_exp_tables, _span

# Lexicographically least irreducible polynomial per degree, frozen from an
# independent sieve over all odd encodings.
LEAST_IRREDUCIBLE = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B,
}


def test_default_poly_table():
    for n, poly in LEAST_IRREDUCIBLE.items():
        assert default_poly(n) == poly
        spec = field_make(n)
        assert spec.poly == poly
        assert spec.n == n
        assert spec.size == 1 << n
        assert spec.order == (1 << n) - 1


def test_field_make_rejects_degree_out_of_range():
    with pytest.raises(ValueError):
        field_make(1)
    with pytest.raises(ValueError):
        field_make(25)


def test_field_make_rejects_wrong_poly_degree():
    with pytest.raises(FieldConstructionError):
        field_make(4, 0xB)  # degree 3
    with pytest.raises(FieldConstructionError):
        field_make(4, 0x25)  # degree 5


def test_field_make_rejects_even_constant_term():
    with pytest.raises(FieldConstructionError, match="constant term"):
        field_make(4, 0x12)  # x^4 + x


def test_field_make_rejects_reducible_naming_factor_degree():
    # x^4 + 1 = (x + 1)^4: smallest factor has degree 1
    with pytest.raises(FieldConstructionError, match="degree 1"):
        field_make(4, 0x11)
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2: smallest factor has degree 2
    with pytest.raises(FieldConstructionError, match="degree 2"):
        field_make(4, 0x15)


def test_field_make_accepts_alternate_modulus():
    # x^8 + x^4 + x^3 + x^2 + 1 is irreducible but not the default
    spec = field_make(8, 0x11D)
    assert spec.poly == 0x11D


def test_field_make_refuses_a_negative_modulus():
    # -0x11b has the bit length and the odd low bit of a degree-8 modulus;
    # the irreducibility test never ended on it
    with pytest.raises(FieldConstructionError, match="negative"):
        field_make(8, -0x11B)


def test_field_make_reads_the_modulus_as_an_index():
    spec = field_make(8, np.int64(0x11B))
    assert spec == FieldSpec(8, 0x11B) and type(spec.poly) is int
    with pytest.raises(TypeError):
        field_make(8, 283.0)
    # the degree too: 8.0 used to fail inside default_poly
    assert type(field_make(np.int64(8)).n) is int
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        field_make(8.0)


def test_element_range_checks():
    s = field_make(4)
    with pytest.raises(ValueError):
        f_add(s, 16, 0)
    with pytest.raises(ValueError):
        f_mul(s, 0, -1)
    with pytest.raises(ValueError):
        trace_abs(s, 100)


@pytest.mark.parametrize("value, shown", [
    (1.5, "1.5"), (2.0, "2.0"), ("3", "'3'"), (np.float64(1.0), "1.0"),
    (np.array([1.0, 2.0]), "1.0"), ([1, 2.5], "2.5"),
], ids=["float", "integral-float", "string", "numpy-float", "float-array", "mixed-list"])
@pytest.mark.parametrize("call", [
    lambda s, v: f_add(s, v, 1), lambda s, v: f_mul(s, 1, v), lambda s, v: f_pow(s, v, 3),
    lambda s, v: f_inv(s, v), lambda s, v: frobenius(s, v, 1), trace_abs,
    lambda s, v: trace_rel(s, 2, v), lambda s, v: solve_linearized(s, [(1, 0)], v),
], ids=["f_add", "f_mul", "f_pow", "f_inv", "frobenius", "trace_abs", "trace_rel",
        "solve_linearized"])
def test_scalar_api_refuses_a_non_integer(call, value, shown):
    # any value in [0, 2^n) used to pass the element check, a float included
    with pytest.raises(ValueError, match=rf"^\w+ {re.escape(shown)} is not an integer$"):
        call(field_make(4), value)


@pytest.mark.parametrize("value", [True, np.True_, np.ones(16, dtype=bool)],
                         ids=["bool", "numpy-bool", "bool-array"])
@pytest.mark.parametrize("call", [
    lambda v: f_mul(field_make(4), 1, v),
    lambda v: difference_row(build_lut(field_make(4), 7), v),
    lambda v: walsh_row(build_lut(field_make(4), 7), v),
    lambda v: pi_image(mm_basis(1), v), lambda v: pi_fiber(mm_basis(1), v),
    lambda v: quartic_roots(mm_basis(1), v), lambda v: reduction_trace(1, 1, v),
    lambda v: lut_from_values(field_make(2), np.resize(v, 4)),
    lambda v: mm_basis(1, gamma=v), lambda v: replace(mm_basis(1), alpha=v),
], ids=["f_mul", "difference_row", "walsh_row", "pi_image", "pi_fiber", "quartic_roots",
        "reduction_trace", "lut_from_values", "mm_basis-gamma", "witness-alpha"])
def test_every_element_entry_refuses_a_boolean(call, value):
    # numpy reads a boolean array as a mask: pi_image of 16 Trues used to
    # return 16 values, and f_mul took True for 1; mm_basis(1, gamma=True)
    # died in int() and a witness with alpha=True in a broadcast
    with pytest.raises(ValueError, match="True is not an integer$"):
        call(value)


@pytest.mark.parametrize("value", [-1, 1.5, 0], ids=["negative", "float", "zero"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_witness_basis_is_checked_when_made(k, value):
    # numpy read alpha = -1 as the log of element 2^n - 1: at k = 1 that
    # element also satisfies the decomposition, so mm-decomposition reported
    # 0 failures, and alpha = 1.5 or mm_basis(1, gamma=1.0) raised IndexError;
    # a witness with gamma = 0 passed mm-decomposition, counted failures in
    # the fiber, quartic and extremal-sum rows and died in walsh_row in the
    # crosscheck, so gamma must be nonzero; alpha and omega may be 0, since
    # omega = 0 is the pinned omega+g corruption at k = 1
    w = mm_basis(k)

    def refusal(name, kind, n=4 * k):
        text = "1.5 is not an integer" if value == 1.5 else \
            f"{value:#x} is not {kind} element of GF(2^{n})"
        return f"^{name} {re.escape(text)}$"

    with pytest.raises(ValueError, match=refusal("gamma", "a nonzero")):
        replace(w, gamma=value)
    for name in ("alpha", "omega"):
        if value == 0:
            assert getattr(replace(w, **{name: 0}), name) == 0
        else:
            with pytest.raises(ValueError, match=refusal(name, "an")):
                replace(w, **{name: value})
    # mm_basis reads gamma as an element, then refuses 0 as not trace-one
    expected = refusal("gamma", "a trace-one", k) if value == 0 else refusal("gamma", "an")
    with pytest.raises(ValueError, match=expected):
        mm_basis(k, gamma=value)


def test_one_exponent_rule():
    # the refusals of a negative, float or missing exponent are rows of
    # test_one_integer_parameter_rule; d = 0 is accepted everywhere: x^0 is
    # the constant 1 (0^0 = 1), which no check calls a permutation
    s = field_make(4)
    table = build_lut(s, 0)
    assert table.lut.tolist() == [f_pow(s, a, 0) for a in range(s.size)] == [1] * s.size
    assert permutation_check(4, 0).is_permutation is classify(table).is_permutation is False
    assert frobenius(s, 3, 0) == 3


# entry point -> (call, parameter name, bound, refused values); every bounded
# integer parameter is read by field._check_int, in the module that owns it,
# and None is refused but where it is the default, as for samples
INT_PARAMETERS = {
    "field_make-n": (field_make, "degree n", "in [2, 24]", [1, 25, None]),
    "f_pow-d": (lambda v: f_pow(field_make(4), 3, v), "exponent", ">= 0", [-1, None]),
    "frobenius-e": (lambda v: frobenius(field_make(4), 3, v), "Frobenius power", ">= 0",
                    [-1, None]),
    "build_lut-d": (lambda v: build_lut(field_make(4), v).lut.tolist(), "exponent", ">= 0",
                    [-1, None]),
    "permutation_check-n": (lambda v: permutation_check(v, 5), "degree n", ">= 2", [1, None]),
    "permutation_check-d": (lambda v: permutation_check(4, v), "exponent", ">= 0", [-1, None]),
    "reduction_sweep-k": (lambda v: reduction_sweep(v, samples=3), "k", "in [1, 4]",
                          [0, 5, None]),
    "reduction_sweep-samples": (lambda v: reduction_sweep(1, samples=v), "samples",
                                "in [1, 16777216]", [0, (1 << 24) + 1]),
    "run_all_checks-k": (lambda v: run_all_checks([v], samples=3), "k", "in [1, 4]", [9, None]),
    "trace_rel-k": (lambda v: trace_rel(field_make(4), v, 3), "subfield degree k", ">= 1",
                    [0, None]),
}


@pytest.mark.parametrize("entry", INT_PARAMETERS)
def test_one_integer_parameter_rule(entry):
    call, name, bound, refused = INT_PARAMETERS[entry]

    def refusal(value):
        return f"^{re.escape(name)} must be an integer {re.escape(bound)}, got {value}$"

    for value in refused:
        with pytest.raises(ValueError, match=refusal(value)):
            call(value)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(2.0)
    # a boolean is read as its int: True is 1, which only field_make and
    # permutation_check refuse, and a numpy integer as the int itself
    if 1 in refused:
        with pytest.raises(ValueError, match=refusal(1)):
            call(True)
    else:
        assert call(True) == call(1) == call(np.int64(1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_axioms_exhaustive(n):
    s = field_make(n)
    size = s.size
    for a in range(size):
        assert f_add(s, a, 0) == a
        assert f_mul(s, a, 1) == a
        assert f_mul(s, a, 0) == 0
        assert f_add(s, a, a) == 0  # characteristic 2
        for b in range(size):
            assert f_add(s, a, b) == f_add(s, b, a)
            assert f_mul(s, a, b) == f_mul(s, b, a)
            for c in range(size):
                assert f_mul(s, a, f_mul(s, b, c)) == f_mul(s, f_mul(s, a, b), c)
                assert (f_mul(s, a, f_add(s, b, c))
                        == f_add(s, f_mul(s, a, b), f_mul(s, a, c)))


def test_field_axioms_random_large():
    rng = random.Random(2024)
    for n in range(5, 17):
        s = field_make(n)
        for _ in range(900):
            a, b, c = (rng.randrange(s.size) for _ in range(3))
            assert f_mul(s, a, f_mul(s, b, c)) == f_mul(s, f_mul(s, a, b), c)
            assert f_mul(s, a, b) == f_mul(s, b, a)
            assert (f_mul(s, a, f_add(s, b, c))
                    == f_add(s, f_mul(s, a, b), f_mul(s, a, c)))


def test_pow_conventions():
    s = field_make(6)
    assert f_pow(s, 0, 0) == 1
    assert f_pow(s, 0, 5) == 0
    assert f_pow(s, 13, 0) == 1
    for a in range(1, s.size):
        assert f_pow(s, a, s.order) == 1  # Lagrange
        assert f_pow(s, a, s.size) == a   # x^(2^n) = x
    with pytest.raises(ValueError):
        f_pow(s, 3, -1)


def test_pow_matches_repeated_multiplication():
    s = field_make(5)
    for a in range(s.size):
        acc = 1
        for d in range(10):
            assert f_pow(s, a, d) == acc
            acc = f_mul(s, acc, a)


def test_inverse():
    s = field_make(6)
    for a in range(1, s.size):
        inv = f_inv(s, a)
        assert f_mul(s, a, inv) == 1
    for a in (0, -1, 64):
        with pytest.raises(ValueError, match=rf"^value {a:#x} is not a nonzero element of GF\(2\^6\)$"):
            f_inv(s, a)


def test_frobenius_is_field_automorphism():
    s = field_make(7)
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randrange(s.size), rng.randrange(s.size)
        # additive and multiplicative over a random power
        e = rng.randrange(0, 15)
        assert frobenius(s, a ^ b, e) == frobenius(s, a, e) ^ frobenius(s, b, e)
        assert (frobenius(s, f_mul(s, a, b), e)
                == f_mul(s, frobenius(s, a, e), frobenius(s, b, e)))
        assert frobenius(s, a, e) == f_pow(s, a, 1 << e)
    # period n, and exponents reduce mod n
    for a in range(s.size):
        assert frobenius(s, a, s.n) == a
        assert frobenius(s, a, s.n + 3) == frobenius(s, a, 3)
    with pytest.raises(ValueError):
        frobenius(s, 1, -2)


@pytest.mark.parametrize("n", range(2, 11))
def test_trace_properties(n):
    s = field_make(n)
    ones = 0
    for a in range(s.size):
        t = trace_abs(s, a)
        assert t in (0, 1)
        ones += t
        assert trace_abs(s, f_mul(s, a, a)) == t  # Frobenius invariance
    assert ones == s.size // 2  # the trace is balanced
    rng = random.Random(n)
    for _ in range(100):
        a, b = rng.randrange(s.size), rng.randrange(s.size)
        assert trace_abs(s, a ^ b) == trace_abs(s, a) ^ trace_abs(s, b)


def _subfield_trace(s, y, k):
    """Absolute trace of the GF(2^k) subfield, for y already lying in it."""
    acc = 0
    for i in range(k):
        acc ^= frobenius(s, y, i)
    return acc


@pytest.mark.parametrize("n", range(2, 17))
def test_subtrace_against_frobenius_sum(n):
    # the mask parity of _Arith.subtrace against the trace's definition, on
    # every subfield: all of it up to 2^10 elements, a seeded sample above
    s = field_make(n)
    A = _arith(n, s.poly)
    rng = random.Random(n)
    for m in [m for m in range(1, n + 1) if n % m == 0]:
        sub = list(A.subfield(m))
        ys = sub if len(sub) <= 1 << 10 else rng.sample(sub, 512)
        got = A.subtrace(np.array(ys), m)
        assert got.dtype == np.int64
        assert got.tolist() == [_subfield_trace(s, y, m) for y in ys]
        assert all(type(A.subtrace(y, m)) is np.int64 for y in ys[:4])


@pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (6, 3), (12, 2), (12, 3),
                                 (12, 4), (12, 6), (8, 2), (8, 4)])
def test_trace_rel_transitivity(n, k):
    s = field_make(n)
    rng = random.Random(n * 100 + k)
    for a in [rng.randrange(s.size) for _ in range(80)] + [0, 1, s.size - 1]:
        y = trace_rel(s, k, a)
        # lands in the subfield: fixed by the k-fold Frobenius
        assert frobenius(s, y, k) == y
        # composing with the subfield's own trace gives the absolute trace
        assert _subfield_trace(s, y, k) == trace_abs(s, a)


def test_trace_rel_tower_mismatch():
    s = field_make(6)
    with pytest.raises(ValueError):
        trace_rel(s, 4, 1)
    with pytest.raises(ValueError):
        trace_rel(s, 0, 1)


def test_trace_rel_full_tower_is_identity():
    s = field_make(6)
    for a in range(s.size):
        assert trace_rel(s, 6, a) == a
        assert trace_rel(s, 1, a) == trace_abs(s, a)


def test_solve_linearized_artin_schreier():
    # x^2 + x = c is solvable exactly when Tr(c) = 0, with two roots
    for n in (3, 4, 5, 6):
        s = field_make(n)
        for c in range(s.size):
            sols = solve_linearized(s, [(1, 1), (1, 0)], c)
            if trace_abs(s, c) == 0:
                assert len(sols) == 2
                x = min(sols)
                assert sols == {x, x ^ 1}
            else:
                assert sols == set()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_solve_linearized_against_brute_force(n):
    s = field_make(n)
    rng = random.Random(31 * n)
    for _ in range(25):
        nterms = rng.randrange(1, 4)
        coeffs = [(rng.randrange(s.size), rng.randrange(s.n)) for _ in range(nterms)]
        rhs = rng.randrange(s.size)

        def image(x):
            acc = 0
            for c, e in coeffs:
                acc ^= f_mul(s, c, frobenius(s, x, e))
            return acc

        expected = {x for x in range(s.size) if image(x) == rhs}
        got = solve_linearized(s, coeffs, rhs)
        assert got == expected
        # solution sets of affine linear systems are empty or cosets
        assert len(got) == 0 or (len(got) & (len(got) - 1)) == 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_solve_linearized_matches_brute_force_property(data):
    s = field_make(data.draw(st.integers(2, 10), label="n"))
    element = st.integers(0, s.order)
    coeffs = data.draw(st.lists(st.tuples(element, st.integers(0, s.n - 1)),
                                min_size=1, max_size=3), label="coeffs")

    def image(x):
        acc = 0
        for c, e in coeffs:
            acc ^= f_mul(s, c, frobenius(s, x, e))
        return acc

    # plant a root half the time, so both solvable and unsolvable cases occur
    rhs = data.draw(element, label="rhs")
    if data.draw(st.booleans(), label="planted"):
        rhs = image(rhs)
    assert solve_linearized(s, coeffs, rhs) == {x for x in range(s.size)
                                                if image(x) == rhs}


def test_solve_linearized_substitution_large():
    s = field_make(10)
    rng = random.Random(99)
    nonempty = 0
    for _ in range(40):
        coeffs = [(rng.randrange(1, s.size), rng.randrange(s.n)) for _ in range(3)]
        rhs = rng.randrange(s.size)
        sols = solve_linearized(s, coeffs, rhs)
        nonempty += bool(sols)
        for x in sols:
            acc = 0
            for c, e in coeffs:
                acc ^= f_mul(s, c, frobenius(s, x, e))
            assert acc == rhs
    assert nonempty > 0  # the sweep actually exercised the substitution


def test_solve_linearized_validates_inputs():
    s = field_make(4)
    with pytest.raises(ValueError):
        solve_linearized(s, [(1, 1)], 16)
    with pytest.raises(ValueError):
        solve_linearized(s, [(99, 0)], 1)


def test_spec_is_hashable_value_type():
    assert field_make(4) == FieldSpec(4, 0x13)
    assert len({field_make(4), FieldSpec(4, 0x13), field_make(5)}) == 2


@pytest.mark.parametrize("n", range(2, 17))
def test_log_exp_tables_against_scalar_mul(n):
    s = field_make(n)
    log, exp = _log_exp_tables(n, s.poly)
    g = int(exp[1])
    exp_l = exp.tolist()
    assert exp_l[0] == 1 and int(log[0]) == -1
    for i in range(s.order - 1):
        assert exp_l[i + 1] == f_mul(s, exp_l[i], g)
    assert f_mul(s, exp_l[-1], g) == 1
    # log inverts exp on all of GF(2^n)*, so g generates the group
    assert (log[exp] == np.arange(s.order)).all()
    assert not log.flags.writeable and not exp.flags.writeable


@pytest.mark.parametrize("n", [20, 24])
def test_log_exp_tables_above_degree_16(n):
    # built past the cache, so 2^n-entry tables do not outlive the test
    s = field_make(n)
    log, exp = _log_exp_tables.__wrapped__(n, s.poly)
    assert int(log[0]) == -1 and (log[exp] == np.arange(s.order)).all()
    g = int(exp[1])
    rng = random.Random(n)
    for i in (rng.randrange(s.order) for _ in range(1000)):
        assert int(exp[(i + 1) % s.order]) == f_mul(s, int(exp[i]), g), i
    assert not log.flags.writeable and not exp.flags.writeable


def _per_bit(a, cols):
    """The linear map x^i -> cols[i] by its definition: the xor of the
    cols[i] over the set bits i of each element of a."""
    acc = np.zeros_like(a)
    for i, col in enumerate(cols):
        acc ^= ((a >> i) & 1) * col
    return acc


@pytest.mark.parametrize("width", range(1, 25))
def test_span_and_linear_map_match_the_per_bit_definition(width):
    rng = np.random.default_rng(width)
    cols = rng.integers(0, 1 << 24, width).tolist()
    span = _span(cols)
    assert span.dtype == np.int64 and span.size == 1 << width
    vs = np.arange(1 << width) if width <= 12 else rng.integers(0, 1 << width, 4096)
    assert (span[vs] == _per_bit(vs, cols)).all()
    a = rng.integers(0, 1 << width, 1000)
    assert (_linear_map(a, cols) == _per_bit(a, cols)).all()
    # the 0-d input of field._subtrace_mask
    v = np.array(int(a[0]))
    assert int(_linear_map(v, tuple(cols))) == int(_per_bit(v, cols))


def _check_root_table(s, root, es):
    """root[e] is the even x with x^2 + x = e, and -1 exactly when Tr(e) = 1."""
    for e in es:
        x = int(root[e])
        if x < 0:
            assert trace_abs(s, e) == 1, e
        else:
            assert x % 2 == 0 and f_mul(s, x, x) ^ x == e and trace_abs(s, e) == 0, e


@pytest.mark.parametrize("n", range(2, 13))
def test_root_table_against_every_quadratic(n):
    s = field_make(n)
    root = _Arith(s).root
    expected = np.full(s.size, -1)
    for x in range(0, s.size, 2):
        expected[f_mul(s, x, x) ^ x] = x
    assert (root == expected).all() and not root.flags.writeable
    _check_root_table(s, root, range(s.size))


@pytest.mark.parametrize("n", [16, 20, 24])
def test_root_table_on_a_sample_of_large_fields(n):
    # the table reads only n and poly, so no log/exp table is built for it
    s = field_make(n)
    root = _Arith.root.func(SimpleNamespace(n=n, poly=s.poly))
    es = random.Random(n).sample(range(s.size), 400)
    _check_root_table(s, root, es)
    assert {int(root[e]) < 0 for e in es} == {True, False}
    assert (root >= 0).sum() == s.size // 2


def test_power_map_spectra_build_no_quadratic_root_table():
    s = field_make(12)
    _arith.cache_clear()
    classify(build_lut(s, 73))
    A = _arith(s.n, s.poly)
    assert "root" not in vars(A)
    # the table is built on first use
    assert A.root[0] == 0 and "root" in vars(A)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_log_exp_product_matches_scalar_mul(data):
    n = data.draw(st.integers(2, 20), label="n")
    s = field_make(n)
    a = data.draw(st.integers(1, s.order), label="a")
    b = data.draw(st.integers(1, s.order), label="b")
    log, exp = _log_exp_tables(n, s.poly)
    assert int(exp[(int(log[a]) + int(log[b])) % s.order]) == f_mul(s, a, b)
