"""Mechanical verification of the degree-4k power-map analysis.

Two verification suites live here, both exact and exhaustive at desk scale.

The *reduction replay* takes the difference equation f(x+a) + f(x) = b of
the map f(x) = x^(2^(2k)+2^k+1) on GF(2^(4k)), normalizes it by the
substitution x -> x*a, and re-derives the solution set through the chain of
identities that bounds it by four: a product identity satisfied by every
normalized solution, a four-term relative-trace constraint, a quadratic in
the Frobenius pair-sum, and finally one or two ordinary quadratics whose
roots are filtered back against the product identity.  Every identity is
checked on every solution; any violation raises :class:`VerificationError`
naming the failing step.  One array pass decides every step for many
equations at once, each solution set held as its members tagged by equation;
the pair sweep reads only which pass (see :func:`reduction_sweep`), and an
equation's error, like its trace, is read off the one-row pass over its own
solution set.

The *split-coordinate suite* checks the Maiorana-McFarland structure of the
component g(x) = Tr(gamma^2 * x^d): a basis (gamma, alpha, omega) is
constructed so that {y + omega*a} with y, a ranging over the half-degree
subfield covers the field (omega + omega^(2^2k) = 1 puts omega outside that
subfield, which is all the cover needs); g then becomes linear in y with
inner map pi(a) = gamma*a^(2^(k-1)) + gamma^2*a^(2^k+1), and the Walsh
coefficients collapse to sums over the fibers of pi, whose sizes a
linearized quartic confines to {0, 1, 2, 4}.  The suite verifies the
decomposition pointwise, the fiber/quartic correspondence, the fiber-sum
formula against an independent fast-transform sweep, and the sign pattern
that pins the extremal coefficient magnitude 2^(2k+1).  Each of the four
decides every case (a point of the 2^(4k) grid, a fiber, a size-4 fiber
against every v) in one array pass, and builds its first failure from that
pass's arrays.

Each identity (the steps of the replay, the inner map pi, the split
offset, the decomposition, the fiber sum) is written once here in the
arithmetic of :class:`gf2lab.field._Arith`, whose ops take a Python int or
a numpy array and copy none of the log/exp tables.

Every sweep reports one :class:`CheckReport` row.  Each case (a pair, a
point, a fiber) whose check raises :class:`VerificationError` counts as one
failure, the first in case order is kept as ``first_failure``, and any other
exception propagates; but ``delta-sweep`` counts 2^n - 1 rows, and
``mm-fibers`` the fibers, with at most one failure each (the measured delta;
a text that is no VerificationError).  A basis that fails to construct is a
failed ``mm-basis`` row; :func:`run_all_checks` skips its gamma's suites.

No row is a full sweep: ``delta-sweep`` decides the 2^n - 1 rows of the
difference table through its row a = 1 (see :func:`delta_sweep`), so no k
in [1, MAX_K] needs ``deep``.  A k outside [1, MAX_K] is refused by the
entry point that reads it, before any table is built.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .field import FieldSpec, _Arith, _arith, _check_elements, _check_int, field_make
from .spectra import FunctionTable, _delta, build_lut, difference_row, walsh_row

__all__ = [
    "VerificationError",
    "ReductionTrace",
    "MMWitness",
    "CheckReport",
    "QuarticRoots",
    "diff_solution_count",
    "reduction_trace",
    "reduction_sweep",
    "dobbertin_exponent",
    "mm_basis",
    "all_gammas",
    "mm_decomposition_check",
    "fiber_partition_check",
    "pi_fiber",
    "pi_image",
    "quartic_roots",
    "quartic_check_all",
    "mm_walsh_crosscheck",
    "mm_crosscheck_all",
    "m4_sum_check",
    "delta_sweep",
    "run_all_checks",
]

DEFAULT_SEED = 0x1CEB00DA
MAX_K = 4
# pairs a sweep may sample: just above the 16 773 120 pairs of the exhaustive
# k = 3 sweep; more decide nothing the pass over every c has not.  The cap
# bounds work, not memory: the pairs stream in chunks of _CHUNK_PAIRS
MAX_SAMPLES = 1 << 24
_CHUNK_PAIRS = 1 << 14
# VerificationError context keys that are counts or signed values, not elements
_DECIMAL = frozenset({"k", "count", "coefficient", "fiber_sum", "transform"})


class VerificationError(RuntimeError):
    """A replayed derivation step failed on concrete data.

    Attributes
    ----------
    step : str
        Self-describing name of the violated identity.
    context : dict
        The concrete inputs and values that witnessed the violation.
    """

    def __init__(self, step: str, detail: str, **context):
        self.step = step
        self.context = context
        # field elements print in hex; counts and signed values in decimal
        ctx = ", ".join(f"{key}={v:#x}" if isinstance(v, (int, np.integer))
                        and key not in _DECIMAL else f"{key}={v}"
                        for key, v in context.items())
        super().__init__(f"{step}: {detail} [{ctx}]")


def dobbertin_exponent(k: int) -> int:
    """The exponent 2^(2k) + 2^k + 1 of the degree-4k family."""
    return (1 << (2 * k)) + (1 << k) + 1


def _check_k(k: int) -> int:
    return _check_int(k, "k", 1, MAX_K)


@lru_cache(maxsize=8)
def _family_table(k: int) -> FunctionTable:
    """The family's table on GF(2^(4k)), the one place a k becomes a table;
    every entry point reads its k through :func:`_check_k` before it gets
    here, so a k outside [1, MAX_K] is refused before any table is built."""
    return build_lut(field_make(4 * k), dobbertin_exponent(k))


def _check_samples(samples: int | None) -> int | None:
    return None if samples is None else _check_int(samples, "samples", 1, MAX_SAMPLES)


# ---------------------------------------------------------------------------
# reduction replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReductionTrace:
    """Record of one replayed difference-equation derivation.

    Solutions are reported twice: in the original coordinate and in the
    normalized coordinate (x divided by the difference a) in which the
    derivation is carried out.  ``solutions_via_quadratics`` is the solution
    set reconstructed from the terminal quadratics, mapped back to the
    original coordinate; the replay guarantees it equals
    ``solutions_direct``.  When the derivation shows the equation unsolvable
    before reaching the terminal quadratics, ``obstruction`` names the step
    that rules solutions out.
    """

    k: int
    a: int
    b: int
    c: int
    t: int
    branch: str
    solutions_direct: frozenset[int]
    solutions_normalized: frozenset[int]
    solutions_via_quadratics: frozenset[int]
    aux: dict
    obstruction: str | None
    checks: tuple[str, ...]


# The steps of the derivation in chain order: what the error of each says,
# and the context it names after k, a and b (x is the solution, in the
# normalized coordinate, at which a loop over the solutions fails).
_STEPS = {
    "count-bound": ("difference equation has more than four solutions", ("count",)),
    "trace-codomain": ("relative trace of c left the small subfield", ("t",)),
    "normalized-product-identity": (
        "a normalized solution fails the expanded difference equation", ("x",)),
    "four-term-trace-identity": ("solution's relative trace does not equal t", ("x",)),
    "pair-sum-quadratic": (
        "u = x + x^(2^2k) fails u^2 + (t+1)u + c^(2^k) + c^(2^3k) = 0", ("x",)),
    "pair-gap-constant": ("x + x^(2^2k) differs from r", ("x", "r")),
    "half-gap-constant": ("x + x^(2^k) differs from s", ("x", "s")),
    "terminal-quadratic-cover": ("a solution is not a root of x^2 + x + (r*s + s + r + c)", ()),
    "terminal-quadratic-match": (
        "filtered terminal roots differ from the direct solution set", ()),
    "halving-quadratic-unsolvable": (
        "y^2 + y = (c^(2^k)+c^(2^3k))/(t+1)^2 has no root though its trace is 0", ("cy",)),
    "halving-image-constraints": (
        "candidate y-value violates its subfield/trace relations yet solutions exist", ()),
    "second-halving-unsolvable": (
        "w^2 + w = ((t+1)^2 p^(2^k+1) + (t+1)p^(2^k) + c + c^(2^k))/(t+1)^2 "
        "has no root though its trace is 0", ("p", "cw")),
    "terminal-pair-cover": ("a solution is not a root of either terminal quadratic", ()),
    "terminal-pair-match": ("filtered terminal roots differ from the direct solution set", ()),
    "halving-image-membership": ("z + z^(2^2k) is neither p nor p+1", ("x", "y_img", "p")),
    "second-halving-membership": ("z + z^(2^k) is neither q nor q+1", ("x", "w_img", "q")),
}
# the steps that decide whether a halving quadratic yields its root: a trace
# records them in its aux and obstruction, not among its checks
_HALVING = frozenset({"halving-quadratic-unsolvable", "halving-image-constraints",
                      "second-halving-unsolvable"})


def diff_solution_count(k: int, a: int, b: int) -> tuple[int, frozenset[int]]:
    """Exact |{x : f(x+a) + f(x) = b}| with the solution set, a != 0.

    A count above four raises :class:`VerificationError`.
    """
    table = _family_table(k := _check_k(k))
    _check_elements(table.spec, b, "b")
    sols = frozenset(np.flatnonzero(difference_row(table, a).values == b).tolist())
    if len(sols) > 4:
        raise VerificationError("count-bound", _STEPS["count-bound"][0],
                                k=k, a=a, b=b, count=len(sols))
    return len(sols), sols


def reduction_trace(k: int, a: int, b: int) -> ReductionTrace:
    """Replay the full derivation for one difference pair (a, b).

    The pair's own scanned solution set, divided by a, is one row of
    :func:`_derive_pass`; a failing step raises :class:`VerificationError`.
    """
    table = _family_table(k := _check_k(k))
    _check_elements(table.spec, b, "b")
    x, row, c = _scanned(k, np.array([a]), np.array([b]))
    cols = _derive_pass(k, x, row, c)
    if not cols.passed[0]:
        raise _replay_error(k, a, b, cols)
    A = _arith(table.spec.n, table.spec.poly)
    v = {key: value[0].tolist() for key, value in cols.values.items()}
    m = {key: value.tolist() for key, value in cols.members.items()}
    t_one, obstructed = bool(cols.t_one[0]), bool(cols.obstructed[0])
    names = ("r", "s") if t_one else ("p", "cy") if obstructed else ("p", "q", "cy", "cw")
    aux = {name: v[name] for name in names}
    if not (t_one or obstructed):
        aux["per_solution"] = {x: {"z": z, "y_image": y, "w_image": w}
                               for x, z, y, w in zip(m["x"], m["z"], m["y_img"], m["w_img"])}
    via = cols.values["roots"][0][cols.values["filtered"][0]]
    return ReductionTrace(
        k=k, a=a, b=b, c=int(c[0]), t=v["t"], branch="t=1" if t_one else "t!=1",
        solutions_direct=frozenset(A.mul(x, a).tolist()),
        solutions_normalized=frozenset(m["x"]),
        solutions_via_quadratics=frozenset(A.mul(via, a).tolist()), aux=aux,
        obstruction="halving-image-constraints" if obstructed else None,
        checks=tuple(name for rows, _, oks in cols.stages if rows[0]
                     for name in oks if name not in _HALVING))


# The identities of the derivation, each written once for the array pass
# below; x, c and t are elements or arrays.

def _normalized(A: _Arith, d: int, a, b):
    """b/a^d for a != 0: c = b/a^d + 1 and the normalized set S(a, b)/a
    are all the derivation reads of (a, b)."""
    return A.mul(b, A.inv(A.pow(a, d)))


def _scanned(k: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """The members of :func:`_derive_pass` replaying the pairs (a[i], b[i])
    from their own scans: every x/a of S(a[i], b[i]) tagged by its pair i,
    in increasing order, and c = b/a^d + 1; one :func:`difference_row` per a."""
    table = _family_table(k)
    A = _arith(table.spec.n, table.spec.poly)
    keys = []  # pair index * 2^n + x/a, for every solution x of every pair
    for ai in dict.fromkeys(a.tolist()):
        i = np.flatnonzero(a == ai)
        r, xs = np.nonzero(difference_row(table, ai).values == b[i][:, None])
        keys.append(i[r] * table.spec.size + A.mul(xs, A.inv(ai)))
    pair, x = np.divmod(np.sort(np.concatenate(keys)), table.spec.size)
    return x, pair, _normalized(A, dobbertin_exponent(k), a, b) ^ 1


def _relative_trace(A: _Arith, k: int, x):
    """x + x^(2^k) + x^(2^2k) + x^(2^3k), the trace of GF(2^(4k)) over GF(2^k)."""
    return x ^ A.frob(x, k) ^ A.frob(x, 2 * k) ^ A.frob(x, 3 * k)


def _gaps(A: _Arith, k: int, x) -> tuple:
    """x + x^(2^2k) and x + x^(2^k)."""
    return x ^ A.frob(x, 2 * k), x ^ A.frob(x, k)


def _product_identity(A: _Arith, k: int, x, c):
    """x^(2^2k+2^k) + x^(2^2k+1) + x^(2^k+1) + x^(2^2k) + x^(2^k) + x + c,
    zero at every normalized solution x."""
    x2k, xk = A.frob(x, 2 * k), A.frob(x, k)
    return A.mul(x2k, xk) ^ A.mul(x2k, x) ^ A.mul(xk, x) ^ x2k ^ xk ^ x ^ c


def _pair_sum_quadratic(A: _Arith, k: int, x, c, t):
    """u^2 + (t+1)u + c^(2^k) + c^(2^3k) at u = x + x^(2^2k)."""
    u = _gaps(A, k, x)[0]
    return A.mul(u, u) ^ A.mul(t ^ 1, u) ^ A.frob(c, k) ^ A.frob(c, 3 * k)


def _gap_constants(A: _Arith, k: int, c) -> tuple:
    """Branch t = 1: the pair-sum quadratic degenerates, x + x^(2^2k) is
    forced to the square root r of its constant term and x + x^(2^k) to s;
    returns r, s and the constant r*s + s + r + c of the terminal quadratic."""
    r = A.frob(c, k - 1) ^ A.frob(c, 3 * k - 1)
    rk = A.frob(r, k)
    s = A.sqrt(A.mul(rk, r) ^ c ^ A.frob(c, k) ^ rk)
    return r, s, A.mul(r, s) ^ s ^ r ^ c


def _halving_constant(A: _Arith, k: int, c, t):
    """Branch t != 1, x = (t+1) z: y = z + z^(2^2k) solves y^2 + y = cy."""
    t1i = A.inv(t ^ 1)
    return A.mul(A.frob(c, k) ^ A.frob(c, 3 * k), A.mul(t1i, t1i))


def _halving_image_ok(A: _Arith, k: int, p, t):
    """p lies in GF(2^(2k)) and p + p^(2^k) = t/(t+1), as at every solution:
    where this fails, the equation has none."""
    pair_gap, half_gap = _gaps(A, k, p)
    return (pair_gap == 0) & (half_gap == A.mul(t, A.inv(t ^ 1)))


def _second_halving_constant(A: _Arith, k: int, c, t, p):
    """w = z + z^(2^k) solves w^2 + w = cw once y = p."""
    t1 = t ^ 1
    t1i, pk = A.inv(t1), A.frob(p, k)
    return A.mul(A.mul(A.mul(t1, t1), A.mul(pk, p)) ^ A.mul(t1, pk) ^ c ^ A.frob(c, k),
                 A.mul(t1i, t1i))


def _terminal_constants(A: _Arith, k: int, c, t, q) -> tuple:
    """The constants of the terminal quadratics in x for w = q and w = q + 1."""
    t1 = t ^ 1
    t1sq, qk, q2 = A.mul(t1, t1), A.frob(q, k), A.mul(q, q)
    return (A.mul(t1sq, A.mul(qk, q) ^ q2) ^ A.mul(t1, qk) ^ c,
            A.mul(t1sq, A.mul(qk, q) ^ qk ^ q2 ^ q) ^ A.mul(t1, A.frob(q ^ 1, k)) ^ c)


class _ReplayColumns(NamedTuple):
    """Per-row outcome of :func:`_derive_pass`.

    ``passed`` says whether the replay passes; on a passing row ``t_one`` is
    its branch (t = 1), ``obstructed`` whether halving-image-constraints
    ended it, and ``count`` the size of its solution set.  ``stages`` are the
    chain's stages in order: the rows each reaches, whether it loops over the
    solutions (its ok masks are per member then, and a row fails where one of
    its members does) and an ok mask per step.  What the errors and traces
    read is held by name, per row in ``values``, per member in ``members``.
    """

    passed: np.ndarray
    t_one: np.ndarray
    obstructed: np.ndarray
    count: np.ndarray
    stages: tuple
    values: dict
    members: dict


def _derive_pass(k: int, x: np.ndarray, row: np.ndarray,
                 c: np.ndarray) -> _ReplayColumns:
    """The derivation of the reduction replay at a = 1: every step of
    :data:`_STEPS`, in chain order, as masks over many c at once.

    Row i replays the pair (1, c[i] + 1), whose solution set is the members
    x[j] with row[j] == i: distinct, and increasing within a row, so an
    error names the least failing member, though the rows may interleave.
    A row passes when no step fails in the stages that reach it;
    halving-image-constraints ends the chain of a row without solutions.
    Two steps take a shorter form: the filtered roots equal the solution set
    when no member strays from the roots and as many roots as it has members
    satisfy the product identity, since each member already did; and each
    terminal quadratic has two roots or none, so the roots need no bound,
    and two equal terminal constants give one root pair, not two.
    """
    table = _family_table(k)
    A = _arith(table.spec.n, table.spec.poly)
    count = np.bincount(row, minlength=c.size)
    t = _relative_trace(A, k, c)

    # branch t = 1: one terminal quadratic, x + x^(2^2k) = r, x + x^(2^k) = s
    t_one = t == 1
    r, s, e = _gap_constants(A, k, c)
    pair_gap, half_gap = _gaps(A, k, x)

    # branch t != 1: the halving roots p and q, then two terminal quadratics.
    # Both halving quadratics w^2 + w = e have roots, as Tr(e) = 0: s =
    # (t+1)^(-2) lies in GF(2^k), so Tr(cy) = Tr(sc) + Tr(sc) = 0, and cw is
    # s*(c + c^(2^k)), of trace 0 the same way, plus a trace-0 term of GF(2^(2k)).
    # Rows off the branch read harmless elements, since no op may see one
    # outside the field: t = 0 on the t = 1 rows, 0 for a missing root (-1).
    tb = np.where(t_one, 0, t)
    cy = _halving_constant(A, k, c, tb)
    p = A.root[cy]
    p_ok = (p >= 0) & _halving_image_ok(A, k, np.maximum(p, 0), tb)
    cw = _second_halving_constant(A, k, c, tb, np.maximum(p, 0))
    q = A.root[cw]
    k1, k2 = _terminal_constants(A, k, c, tb, np.maximum(q, 0))
    z = A.mul(x, A.inv(tb ^ 1)[row])
    y_img, w_img = _gaps(A, k, z)

    # the terminal roots of the row's branch in pairs {r, r + 1}, if it reaches them
    first = np.where(t_one, A.root[e], np.where(p_ok, A.root[k1], -1))
    second = np.where(t_one | ~p_ok | (k2 == k1), -1, A.root[k2])
    roots = np.stack([first, first ^ 1, second, second ^ 1], axis=1)
    has = np.repeat(np.stack([first >= 0, second >= 0], axis=1), 2, axis=1)
    filtered = has & (_product_identity(A, k, np.where(has, roots, 0), c[:, None]) == 0)
    stray = ~((x[:, None] == roots[row]) & has[row]).any(axis=1)
    covered = np.bincount(row[stray], minlength=c.size) == 0
    matched = filtered.sum(axis=1) == count

    every, terminal = np.ones_like(t_one), ~t_one & p_ok
    cm, tm = c[row], t[row]
    stages = (  # the rows each stage reaches, whether it loops, and each step's ok mask
        (every, False, {"count-bound": count <= 4, "trace-codomain": A.frob(t, k) == t}),
        (every, True, {"normalized-product-identity": _product_identity(A, k, x, cm) == 0,
                       "four-term-trace-identity": _relative_trace(A, k, x) == tm,
                       "pair-sum-quadratic": _pair_sum_quadratic(A, k, x, cm, tm) == 0}),
        (t_one, True, {"pair-gap-constant": pair_gap == r[row],
                       "half-gap-constant": half_gap == s[row]}),
        (t_one, False, {"terminal-quadratic-cover": covered,
                        "terminal-quadratic-match": matched}),
        (~t_one, False, {"halving-quadratic-unsolvable": p >= 0,
                         "halving-image-constraints": p_ok | (count == 0)}),
        (terminal, False, {"second-halving-unsolvable": q >= 0, "terminal-pair-cover": covered,
                           "terminal-pair-match": matched}),
        (terminal, True, {"halving-image-membership": (y_img ^ p[row]) < 2,
                          "second-halving-membership": (w_img ^ q[row]) < 2}),
    )
    passed = np.ones_like(t_one)
    for rows, loops, oks in stages:
        ok = np.logical_and.reduce(list(oks.values()))
        passed &= ~rows | (np.bincount(row[~ok], minlength=c.size) == 0 if loops else ok)
    values = dict(count=count, t=t, r=r, s=s, cy=cy, p=p, cw=cw, q=q, roots=roots,
                  filtered=filtered)
    members = dict(row=row, x=x, z=z, y_img=y_img, w_img=w_img)
    return _ReplayColumns(passed, t_one, ~t_one & ~p_ok, count, stages, values, members)


def _replay_error(k: int, a: int, b: int, cols: _ReplayColumns) -> VerificationError:
    """The error of a failing one-row :func:`_derive_pass`: its first failing step
    in chain order, at the least failing member in a loop over the solutions."""
    for rows, _, oks in cols.stages:
        bad = ~np.array(list(oks.values())) & rows[0]
        if bad.any():
            j = bad.any(axis=0).argmax()
            name = list(oks)[bad[:, j].argmax()]
            return VerificationError(name, _STEPS[name][0], k=k, a=a, b=b, **{
                key: cols.members[key][j] if key in cols.members else cols.values[key][0]
                for key in _STEPS[name][1]})


@dataclass(frozen=True)
class CheckReport:
    """One verification row: check name, instances tried, failures seen."""

    name: str
    instances: int
    failures: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _report(name: str, ok: np.ndarray, error) -> CheckReport:
    """The row of an array pass that decides every cell: each False cell of
    ``ok`` is one failure, and ``error(*index)`` builds the
    :class:`VerificationError` of the first one, in row-major order."""
    bad = np.argwhere(~ok)
    first = str(error(*bad[0].tolist())) if bad.size else None
    return CheckReport(name, ok.size, len(bad), first)


def _pair_chunks(k: int, samples: int | None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (a, b) pairs of a sweep as index arrays of _CHUNK_PAIRS pairs
    (the last may be shorter), which concatenate to the pairs in case order.

    Exhaustive by default for k <= 2: every a != 0 and every b, a-major.  A
    sample reads 4k-bit words, the low bits of little-endian 32-bit words
    of raw bytes from ``random.Random(DEFAULT_SEED)``: first every b, then
    every a, whose zero words are dropped and replaced by further draws.
    The a-words come from a second generator advanced past the b-bytes,
    since ``randbytes`` over whole words concatenates: no chunk holds more
    than its own pairs.
    """
    size = 1 << (4 * k)
    if samples is None and k <= 2:
        for start in range(size, size * size, _CHUNK_PAIRS):
            yield np.divmod(np.arange(start, min(start + _CHUNK_PAIRS, size * size)), size)
        return
    count = samples if samples is not None else 1000
    b_rng, a_rng = random.Random(DEFAULT_SEED), random.Random(DEFAULT_SEED)

    def words(rng: random.Random, m: int) -> np.ndarray:
        return np.frombuffer(rng.randbytes(4 * m), dtype="<u4").astype(np.int64) & (size - 1)

    for start in range(0, count, _CHUNK_PAIRS):
        a_rng.randbytes(4 * min(_CHUNK_PAIRS, count - start))
    for start in range(0, count, _CHUNK_PAIRS):
        b = words(b_rng, min(_CHUNK_PAIRS, count - start))
        a = np.empty(0, dtype=np.int64)
        while a.size < b.size:
            drawn = words(a_rng, b.size - a.size)
            a = np.concatenate([a, drawn[drawn != 0]])
        yield a, b


def reduction_sweep(k: int, *, samples: int | None = None) -> CheckReport:
    """Replay the reduction over many (a, b) pairs.

    Exhaustive by default for k <= 2, sampled (default 1000 pairs drawn
    from DEFAULT_SEED) otherwise.  A samples count below 1 or above
    MAX_SAMPLES raises ValueError, before a k outside [1, MAX_K] does, as in
    :func:`run_all_checks`.

    Lemma: if the table's exponent is d (f(a*x) = a^d * f(x) for every
    a != 0 and every x, see :attr:`gf2lab.spectra.FunctionTable.exponent`),
    the substitution x = a*y gives S(a, b) = a * S(1, b/a^d), where S(a, b)
    is the solution set of f(x+a) + f(x) = b.  Every check of
    :func:`reduction_trace` is a function of c = b/a^d + 1 and the
    normalized set S(a, b)/a alone, so on such a table the pair (a, b)
    passes exactly when the replay of (1, c + 1) does.  The sweep reads
    that premise off the family table's exponent once and makes one
    :func:`_derive_pass` over every c = v + 1, each x a member of the row
    v = D_1 f(x), before it reads the pairs; on a table that fails the
    premise it makes one pass per chunk of pairs over their own scanned
    sets.  The pairs stream in chunks of :func:`_pair_chunks`; the sweep
    reads only which rows pass and keeps the counts, and the first failing
    pair's error is the one :func:`reduction_trace` raises for it, from a
    one-row pass over its own scanned set: the report is the per-pair one.
    """
    samples = _check_samples(samples)
    table = _family_table(k := _check_k(k))
    d = dobbertin_exponent(k)
    homogeneous = table.exponent == d
    if homogeneous:
        A = _arith(table.spec.n, table.spec.poly)
        xs = np.arange(table.spec.size)
        passed = _derive_pass(k, xs, difference_row(table, 1).values, xs ^ 1).passed
    instances, failures, first = 0, 0, None
    for a, b in _pair_chunks(k, samples):
        if homogeneous:
            # the pair (a, b) replays as (1, v), i.e. c = v + 1
            row = _normalized(A, d, a, b)
        else:
            row = np.arange(a.size)
            passed = _derive_pass(k, *_scanned(k, a, b)).passed
        bad = np.flatnonzero(~passed[row])
        if first is None and bad.size:
            try:
                reduction_trace(k, int(a[bad[0]]), int(b[bad[0]]))
            except VerificationError as e:
                first = str(e)
        instances, failures = instances + a.size, failures + bad.size
    return CheckReport(f"reduction-replay[k={k}]", instances, failures, first)


# ---------------------------------------------------------------------------
# split-coordinate (Maiorana-McFarland) suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MMWitness:
    """Constructed basis and fiber data for the split-coordinate form.

    gamma generates the needed trace-one constant in GF(2^k); alpha and
    omega extend it so that x = y + omega*a splits the field over the
    half-degree subfield.  The fibers {a : pi(a) = u} of the inner map are
    two read-only arrays: ``members[j]`` lies in the fiber of ``images[j]``.
    A basis element or member outside the field, or a gamma of 0, raises
    ValueError when the witness is made, so no row indexes the log/exp
    tables with one or inverts a zero gamma.  ``arith``, ``half`` and
    ``fibers`` are derived on first read, so a replaced witness derives its own.
    """

    k: int
    spec: FieldSpec
    gamma: int
    alpha: int
    omega: int
    members: np.ndarray
    images: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "alpha", "omega"):
            _check_elements(self.spec, getattr(self, name), name, nonzero=name == "gamma")
        _check_elements(self.spec, self.members, "a member")

    @cached_property
    def arith(self) -> _Arith:
        return _arith(self.spec.n, self.spec.poly)

    @cached_property
    def half(self) -> tuple[int, ...]:
        """GF(2^(2k)) in increasing order, where the split coordinates lie."""
        return self.arith.subfield(2 * self.k)

    @cached_property
    def fibers(self) -> tuple:
        """The attained u (increasing), each member's index among them and the fiber sizes."""
        s = np.sort(self.images)
        us = s[np.diff(s, prepend=s[:1] - 1) != 0]
        tag = np.searchsorted(us, self.images)
        size = np.bincount(tag)
        us.flags.writeable = tag.flags.writeable = size.flags.writeable = False
        return us, tag, size


def all_gammas(k: int) -> list[int]:
    """All nonzero gamma in GF(2^k) whose subfield absolute trace is 1."""
    table = _family_table(k := _check_k(k))
    A = _arith(table.spec.n, table.spec.poly)
    return [g for g in A.subfield(k) if g and A.subtrace(g, k) == 1]


def pi_image(w: MMWitness, a):
    """The inner map pi(a) = gamma*a^(2^(k-1)) + gamma^2*a^(2^k+1).

    ``a`` is a field element, or an array of them mapped elementwise; an
    element outside the field raises ValueError.
    """
    _check_elements(w.spec, a, "a")
    A = w.arith
    u = (A.mul(w.gamma, A.frob(a, w.k - 1))
         ^ A.mul(A.mul(w.gamma, w.gamma), A.mul(A.frob(a, w.k), a)))
    return u if isinstance(a, np.ndarray) else int(u)


def mm_basis(k: int, *, gamma: int | None = None) -> MMWitness:
    """Construct and validate the split-coordinate basis (gamma, alpha, omega).

    gamma defaults to the least qualifying element (any choice passes; a
    sweep over :func:`all_gammas` confirms independence).  alpha and omega
    come from the root table of w^2 + w = e.  The basis invariants are
    verified on the spot and raise :class:`VerificationError` if violated.
    The omega-conjugate-gap check, omega + omega^(2^2k) = 1, also settles
    that y + omega*a, over y and a in GF(2^(2k)), enumerates the field:
    that GF(2^(2k))-linear map is onto exactly when omega lies outside
    GF(2^(2k)), and omega^(2^2k) = omega + 1 is not omega.  The members
    are the half field in increasing order, tagged by pi unchecked, for
    the mm-fibers and mm-quartic rows to certify.
    """
    spec = _family_table(k := _check_k(k)).spec
    A = _arith(spec.n, spec.poly)
    candidates = all_gammas(k)
    gamma = candidates[0] if gamma is None else gamma
    _check_elements(spec, gamma, "gamma")
    if gamma not in candidates:
        raise ValueError(f"gamma {gamma:#x} is not a trace-one element of GF(2^{k})")
    # alpha: z = gamma*w solves z^2 + gamma*z = gamma^3 where w^2 + w = gamma
    root = int(A.root[gamma])
    alpha_roots = [] if root < 0 else [int(A.mul(gamma, root)), int(A.mul(gamma, root ^ 1))]
    in_sub = sorted(r for r in alpha_roots if A.frob(r, 2 * k) == r)
    if len(in_sub) != 2:
        raise VerificationError(
            "alpha-roots-subfield",
            "z^2 + gamma*z + gamma^3 does not have both roots in the half field",
            k=k, gamma=gamma)
    alpha = in_sub[0]
    if A.frob(alpha, k) ^ alpha != gamma:
        raise VerificationError(
            "alpha-frobenius-gap", "alpha^(2^k) + alpha != gamma",
            k=k, alpha=alpha, gamma=gamma)
    if A.subtrace(alpha, 2 * k) != 1:
        raise VerificationError(
            "alpha-trace-one", "half-field trace of alpha is not 1",
            k=k, alpha=alpha)
    # omega: the even, so the lesser, root of z^2 + z = alpha in the full field
    omega = int(A.root[alpha])
    if omega < 0:
        raise VerificationError(
            "omega-exists", "z^2 + z + alpha has no root in the full field",
            k=k, alpha=alpha)
    if omega ^ A.frob(omega, 2 * k) != 1:
        raise VerificationError(
            "omega-conjugate-gap", "omega + omega^(2^2k) != 1", k=k, omega=omega)
    sub = np.array(A.subfield(2 * k))
    images = pi_image(MMWitness(k, spec, gamma, alpha, omega, sub, sub), sub)
    sub.flags.writeable = images.flags.writeable = False
    return MMWitness(k, spec, gamma, alpha, omega, sub, images)


def pi_fiber(w: MMWitness, u: int) -> frozenset[int]:
    """The fiber {a in GF(2^(2k)) : pi(a) = u}; empty when u is not attained.
    A u outside the field raises ValueError."""
    _check_elements(w.spec, u, "u")
    return frozenset(w.members[w.images == u].tolist())


def _check_half(w: MMWitness, a, name: str) -> None:
    """Refuse an element outside GF(2^(2k)), where no split coordinate lies."""
    _check_elements(w.spec, a, name)
    if w.arith.frob(a, 2 * w.k) != a:
        raise ValueError(f"{name} {a:#x} is not in the half-degree subfield")


def _split_offset(w: MMWitness, a):
    """The y-free term alpha*gamma^2*a^(2^k+2) of the split-coordinate form."""
    A = w.arith
    return A.mul(A.mul(w.alpha, A.mul(w.gamma, w.gamma)), A.pow(a, (1 << w.k) + 2))


def mm_decomposition_check(w: MMWitness) -> CheckReport:
    """Pointwise equality of g(y + omega*a) with its split-coordinate form.

    The split form is the half-field trace of y*pi(a) + alpha*gamma^2*
    a^(2^k+2); it is linear in y, which is what the fiber analysis uses.
    """
    A, k, a = w.arith, w.k, np.array(w.half)
    # the whole grid at once, y along rows and a along columns
    y = a[:, None]
    g = A.subtrace(A.mul(A.mul(w.gamma, w.gamma),
                         A.pow(y ^ A.mul(w.omega, a), dobbertin_exponent(k))), A.n)
    ok = g == A.subtrace(A.mul(y, pi_image(w, a)) ^ _split_offset(w, a), 2 * k)
    return _report(f"mm-decomposition[k={k}]", ok, lambda i, j: VerificationError(
        "split-coordinate-form", "g(y + omega*a) differs from its split-coordinate form",
        k=k, y=a[i], a=a[j]))


def fiber_partition_check(w: MMWitness) -> CheckReport:
    """The fibers are those of pi on GF(2^(2k)): sizes sum to 2^(2k), all in
    {1,2,4}, and the members are distinct elements of GF(2^(2k)) that pi
    maps to their tag u."""
    k, members, size = w.k, w.members, w.fibers[2]
    sizes = Counter(size.tolist())  # in increasing u
    strays = int(((pi_image(w, members) != w.images)
                  | (w.arith.frob(members, 2 * k) != members)).sum())
    # np.unique would load numpy.ma
    repeats = members.size - np.count_nonzero(np.bincount(members))
    first = None
    if members.size != 1 << (2 * k) or not set(sizes) <= {1, 2, 4}:
        first = f"partition broken: sizes {dict(sizes)}, total {members.size}"
    elif repeats or strays:
        first = (f"fibers are not those of pi: {repeats} repeated member(s), {strays} "
                 f"outside GF(2^{2 * k}) or mapped off their fiber's u")
    return CheckReport(f"mm-fibers[k={k}]", size.size, int(first is not None), first)


@dataclass(frozen=True, eq=False)
class QuarticRoots:
    """Roots of the fiber quartic c^4 + (a0^(2^k)+a0)c^2 + gamma^(-1)c = 0.

    ``roots_subfield`` is its solution set in GF(2^k), whose nonzero members
    biject with the other fiber members via a0 + c^2.
    """

    a0: int
    u: int
    roots_subfield: frozenset[int]
    fiber: frozenset[int]


def _rebuilds(w: MMWitness, a0: np.ndarray, x: np.ndarray, row: np.ndarray) -> tuple:
    """Where a0[i] + c^2, over the roots c in GF(2^k) of the fiber quartic at
    a0[i], are the members x[j] with row[j] == i; also the c of GF(2^k) and
    the roots as a mask over them, a0 along rows.  A row passes when it has
    as many roots as members and every member is a0 + c^2 at one of them."""
    A = w.arith
    c = np.array(A.subfield(w.k))
    c2 = A.mul(c, c)
    root = (A.mul(c2, c2) ^ A.mul((A.frob(a0, w.k) ^ a0)[:, None], c2)
            ^ A.mul(A.inv(w.gamma), c)) == 0
    # the one c with c^2 = x + a0, if it lies in GF(2^k)
    cx = A.sqrt(x ^ a0[row])
    at = np.minimum(np.searchsorted(c, cx), c.size - 1)
    stray = ~((c[at] == cx) & root[row, at])
    return ((root.sum(axis=1) == np.bincount(row, minlength=a0.size))
            & (np.bincount(row[stray], minlength=a0.size) == 0)), c, root


def _unrebuilt(k: int, a0, u) -> VerificationError:
    return VerificationError(
        "fiber-root-correspondence",
        "a0 + c^2 over the subfield roots does not reproduce the fiber", k=k, a0=a0, u=u)


def quartic_roots(w: MMWitness, a0: int) -> QuarticRoots:
    """The roots in GF(2^k) of the fiber quartic at a0, a one-row read of the
    mm-quartic pass, which must rebuild the fiber drawn at u = pi(a0)."""
    _check_half(w, a0, "a0")
    u = pi_image(w, a0)
    fiber = w.members[w.images == u]
    ok, c, root = _rebuilds(w, np.array([a0]), fiber, np.zeros_like(fiber))
    if not ok[0]:
        raise _unrebuilt(w.k, a0, u)
    return QuarticRoots(a0, u, frozenset(c[root[0]].tolist()), frozenset(fiber.tolist()))


def quartic_check_all(w: MMWitness) -> CheckReport:
    """The quartic/fiber correspondence on every fiber of the witness, which
    must be the fiber that :func:`quartic_roots` rebuilds at its least member.

    One array pass over the members tagged by u decides every fiber from its
    least member a0: a0 lies in GF(2^(2k)), pi(a0) is the fiber's u, and the
    quartic at a0 rebuilds the fiber (the roots c in GF(2^k) are as many as
    its members, which the a0 + c^2 are).  The first failure's error names
    u = pi(a0) where the quartic at a0 does not rebuild the members tagged u.
    """
    k = w.k
    us, tag, _ = w.fibers
    a0 = np.full(us.size, np.iinfo(np.int64).max)
    np.minimum.at(a0, tag, w.members)
    u0 = pi_image(w, a0)
    in_half = w.arith.frob(a0, 2 * k) == a0
    rebuilt = _rebuilds(w, a0, w.members, tag)[0]

    def error(i: int) -> VerificationError:
        drawn = w.members[w.images == u0[i]]
        if in_half[i] and not _rebuilds(w, a0[i:i + 1], drawn, np.zeros_like(drawn))[0][0]:
            return _unrebuilt(k, a0[i], u0[i])
        return VerificationError(
            "fiber-root-correspondence", "the fiber drawn at u is not the one "
            "rebuilt at its least member a0", k=k, u=us[i], a0=a0[i])

    return _report(f"mm-quartic[k={k}]", in_half & (u0 == us) & rebuilt, error)


def _transform_value(w: MMWitness, u, v):
    """The fast-transform coefficient at (lam, gamma^2), lam = u*omega + u + v:
    the plain-coordinate twin of the split-coordinate point (u, v)."""
    row = walsh_row(_family_table(w.k), int(w.arith.mul(w.gamma, w.gamma)))
    return row[w.arith.mul(u, w.omega) ^ u ^ v]


def _fiber_terms(w: MMWitness, a, v):
    """(-1)^Tr(alpha*gamma^2*a^(2^k+2) + v*a), the half-field trace: the
    term of a fiber member a in the fiber sum at v."""
    return 1 - 2 * w.arith.subtrace(_split_offset(w, a) ^ w.arith.mul(v, a), 2 * w.k)


def _fiber_sum_grid(w: MMWitness, us, vs) -> np.ndarray:
    """2^(2k) times the sum of the terms over the fiber of u at v, for every
    u of ``us`` (rows, increasing) and v of ``vs`` (columns): each member
    tagged by one of ``us`` adds its terms to that row; others add nothing."""
    at = np.searchsorted(us, w.images)
    hit = np.append(us, -1)[at] == w.images
    grid = np.zeros((len(us), len(vs)), dtype=np.int64)
    np.add.at(grid, at[hit], _fiber_terms(w, w.members[hit, None], np.array(vs)))
    return (1 << (2 * w.k)) * grid


def _crosscheck(w: MMWitness, us, vs):
    """The fiber sums at every (u, v) of ``us`` x ``vs``, where they equal
    the transform, and the error of a cell (i, j) where they do not."""
    coef = _fiber_sum_grid(w, us, vs)
    direct = _transform_value(w, np.array(us)[:, None], np.array(vs))
    return coef, coef == direct, lambda i, j: VerificationError(
        "fiber-sum-equals-transform", "fiber-sum coefficient disagrees with the transform",
        k=w.k, u=us[i], v=vs[j], fiber_sum=int(coef[i, j]), transform=int(direct[i, j]))


def mm_walsh_crosscheck(w: MMWitness, u: int, v: int) -> int:
    """Fiber-sum value of the coefficient at (u, v), checked two ways.

    The split-coordinate point (u, v) corresponds to the plain transform
    argument lam = u*omega + u + v; the value from the fiber sum must agree
    with the fast-transform coefficient at (lam, gamma^2).  A u or v
    outside GF(2^(2k)), where the split coordinates lie, raises ValueError.
    """
    _check_half(w, u, "u")
    _check_half(w, v, "v")
    coef, ok, error = _crosscheck(w, [u], [v])
    if not ok[0, 0]:
        raise error(0, 0)
    return int(coef[0, 0])


def mm_crosscheck_all(w: MMWitness) -> CheckReport:
    """Cross-check every (u, v) over the half-degree subfield grid at once."""
    _, ok, error = _crosscheck(w, w.half, w.half)
    return _report(f"mm-walsh-crosscheck[k={w.k}]", ok, error)


def m4_sum_check(w: MMWitness) -> CheckReport:
    """Sign pattern of size-4 fibers and the trace stepping stones.

    The stepping stones Tr(alpha*gamma) = Tr_k(gamma*(alpha + alpha^(2^k)))
    = Tr_k(gamma^2) = 1 are verified unconditionally (size-4 fibers first
    occur at k = 3); they are cell 0.  Then, for every u whose fiber has
    four members and every v, the four half-field trace bits must sum to
    1 mod 2, forcing a 3-against-1 sign split.  Four signs +-1 sum to +-2
    exactly when an odd number of them are -1, so the check is that the
    fiber sum has magnitude exactly 2^(2k+1), read from one pass over the
    fiber sums of those (u, v).
    """
    A, k, sub_2k = w.arith, w.k, w.half
    traces = tuple(int(A.subtrace(x, m)) for x, m in (
        (A.mul(w.alpha, w.gamma), 2 * k),
        (A.mul(w.gamma, w.alpha ^ A.frob(w.alpha, k)), k),
        (A.mul(w.gamma, w.gamma), k)))
    four = w.fibers[0][w.fibers[2] == 4]  # the u of the size-4 fibers
    coef = _fiber_sum_grid(w, four, sub_2k).ravel()
    ok = np.append(traces == (1, 1, 1), np.abs(coef) == 1 << (2 * k + 1))

    def error(i: int) -> VerificationError:
        if i == 0:
            return VerificationError("trace-stepping-stones",
                                     "expected all three traces to be 1", k=k, traces=traces)
        u, v = divmod(i - 1, len(sub_2k))
        return VerificationError(
            "four-term-trace-sum", "the four half-field trace bits do not sum to 1 mod 2",
            k=k, u=four[u], v=sub_2k[v], coefficient=int(coef[i - 1]))

    return _report(f"mm-extremal-sum[k={k}]", ok, error)


# ---------------------------------------------------------------------------
# combined driver
# ---------------------------------------------------------------------------

def delta_sweep(k: int) -> CheckReport:
    """Check that the family's delta is exactly 4 on all 2^n - 1 rows of its
    difference table.  The table is x^d, so x = a*y gives delta(a, b) =
    delta(1, b / a^d), and ``spectra._delta`` decides every row by the row
    a = 1 (:func:`gf2lab.spectra.power_delta`); a table without an
    exponent takes the full sweep under the ordinary size gate."""
    table = _family_table(k := _check_k(k))
    delta = _delta(table, deep=False)
    ok = delta == 4
    return CheckReport(f"delta-sweep[k={k}]", table.spec.size - 1, 0 if ok else 1,
                       None if ok else f"measured delta {delta} != 4")


def run_all_checks(ks: Iterable[int], *, samples: int | None = None,
                   all_gamma: bool = False) -> list[CheckReport]:
    """Run every verification suite for the requested k values.

    Returns the reports in a fixed order (delta sweep, reduction replay,
    then the split-coordinate suite per gamma), suitable for tabular
    display; failures are counted in the reports.  A basis that fails to
    construct is an ``mm-basis`` row with one failure, and the suites that
    need it are skipped for that gamma.  Every k is checked for range and
    repeats, and samples for range, before any suite runs.
    """
    samples = _check_samples(samples)
    ks = [_check_k(k) for k in ks]
    if len(set(ks)) < len(ks):
        raise ValueError(f"each k may be listed once, got {ks}")
    reports: list[CheckReport] = []
    for k in ks:
        reports.append(delta_sweep(k))
        reports.append(reduction_sweep(k, samples=samples))
        for g in (all_gammas(k) if all_gamma else [None]):
            try:
                w = mm_basis(k, gamma=g)
            except VerificationError as e:
                rows = [CheckReport(f"mm-basis[k={k}]", 1, 1, str(e))]
            else:
                rows = [CheckReport(f"mm-basis[k={k}]", 1, 0),
                        mm_decomposition_check(w), fiber_partition_check(w),
                        quartic_check_all(w), mm_crosscheck_all(w), m4_sum_check(w)]
            tag = f",gamma={g:#x}" if all_gamma else ""
            reports += [replace(r, name=r.name.replace("]", f"{tag}]")) for r in rows]
    return reports

