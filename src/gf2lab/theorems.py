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
naming the failing step.  The pair sweep scans no pair: the substitution
x = a*y reduces every solution set to the row a = 1 (see
:func:`reduction_sweep`), whose sets feed one array pass, and the scalar
derivation replays only the pairs that pass does not settle.

The *split-coordinate suite* checks the Maiorana-McFarland structure of the
component g(x) = Tr(gamma^2 * x^d): a basis (gamma, alpha, omega) is
constructed so that {y + omega*a} with y, a ranging over the half-degree
subfield covers the field; g then becomes linear in y with inner map
pi(a) = gamma*a^(2^(k-1)) + gamma^2*a^(2^k+1), and the Walsh coefficients
collapse to sums over the fibers of pi, whose sizes a linearized quartic
confines to {0, 1, 2, 4}.  The suite verifies the decomposition pointwise,
the fiber/quartic correspondence, the fiber-sum formula against an
independent fast-transform sweep, and the sign pattern that pins the
extremal coefficient magnitude 2^(2k+1).  The pointwise decomposition and
the fiber-sum cross-check each make one array pass over their whole grid
of 2^(4k) cases, and the sign pattern one over its size-4 fibers; the
scalar check replays only the unsettled cases.

An array pass settles a case only where the scalar check passes, and one
rule hands every other case to the scalar check, so every report equals the
all-scalar one, first failure included, and the scalar checks stay the only
source of :class:`VerificationError` text.  Both evaluate the same code:
each identity (the product identity and the other steps of the replay, the
inner map pi, the split offset, the decomposition, the fiber sum) is written
once here in the arithmetic of :class:`gf2lab.field._Arith`, whose ops take
a Python int or a numpy array and copy none of the log/exp tables.

Every sweep reports one :class:`CheckReport` row under one rule: each case
(a pair, a point, a fiber) whose check raises :class:`VerificationError`
counts as one failure, the first in case order is kept as
``first_failure``, and any other exception propagates.  A basis that fails
to construct is a failed ``mm-basis`` row, and :func:`run_all_checks` skips
the suites that need it for that gamma.

The full difference-table sweep at k = 4 (degree 16) needs ``deep=True``,
as decided by :func:`gf2lab.spectra.require_desk_scale`; the replay and the
split-coordinate suite are not full sweeps and need none.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .field import FieldSpec, _Arith, _arith, field_make, solve_linearized
from .spectra import (FunctionTable, build_lut, difference_row,
                      differential_uniformity, require_desk_scale, walsh_row)

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
    "pi_fiber",
    "pi_image",
    "quartic_roots",
    "quartic_check_all",
    "mm_walsh_crosscheck",
    "mm_crosscheck_all",
    "m4_sum_check",
    "run_all_checks",
]

DEFAULT_SEED = 0x1CEB00DA
MAX_K = 4
# VerificationError context keys that are counts or signed values, not elements
_DECIMAL = frozenset({"k", "count", "size", "coefficient", "fiber_sum", "transform"})


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


def _check_elements(spec: FieldSpec, a, name: str) -> None:
    """Refuse an element, or an array holding one, outside [0, 2^n): numpy
    indexing would wrap a negative one silently."""
    if np.any((a < 0) | (a >= spec.size)):
        raise ValueError(f"{name} is not an element of GF(2^{spec.n})")


@lru_cache(maxsize=8)
def _family_table(k: int) -> FunctionTable:
    spec = field_make(4 * k)
    return build_lut(spec, dobbertin_exponent(k))


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be between 1 and {MAX_K}")


def _check_samples(samples: int | None) -> None:
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


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


def _count_bound(k: int, a: int, b: int, sols: frozenset[int]) -> frozenset[int]:
    """The solution set of f(x+a) + f(x) = b, refused above four members."""
    if len(sols) > 4:
        raise VerificationError(
            "count-bound", "difference equation has more than four solutions",
            k=k, a=a, b=b, count=len(sols))
    return sols


def diff_solution_count(k: int, a: int, b: int) -> tuple[int, frozenset[int]]:
    """Exact |{x : f(x+a) + f(x) = b}| with the solution set, a != 0.

    A count above four raises :class:`VerificationError`.
    """
    _check_k(k)
    table = _family_table(k)
    _check_elements(table.spec, b, "b")
    xs = np.flatnonzero(difference_row(table, a).values == b)
    sols = _count_bound(k, a, b, frozenset(xs.tolist()))
    return len(sols), sols


def reduction_trace(k: int, a: int, b: int) -> ReductionTrace:
    """Replay the full derivation for one difference pair (a, b).

    Every identity in the chain is checked against the exhaustively
    computed solution set; a mismatch raises :class:`VerificationError`.
    """
    _count, direct = diff_solution_count(k, a, b)
    return _derive(k, a, b, direct)


def _derive(k: int, a: int, b: int, direct: frozenset[int]) -> ReductionTrace:
    """The derivation of :func:`reduction_trace` from the solution set
    ``direct`` of f(x+a) + f(x) = b, which has at most four members."""
    table = _family_table(k)
    A = _arith(table.spec.n, table.spec.poly)
    d = dobbertin_exponent(k)
    ainv = A.inv(a)
    norm = frozenset(int(A.mul(x, ainv)) for x in direct)
    back = lambda roots: frozenset(int(A.mul(x, a)) for x in roots)

    c = int(_normalized(A, d, a, b) ^ 1)
    t = int(_relative_trace(A, k, c))
    checks = ["count-bound"]
    if A.frob(t, k) != t:
        raise VerificationError(
            "trace-codomain", "relative trace of c left the small subfield",
            k=k, a=a, b=b, t=t)
    checks.append("trace-codomain")

    for x in norm:
        if _product_identity(A, k, x, c) != 0:
            raise VerificationError(
                "normalized-product-identity",
                "a normalized solution fails the expanded difference equation",
                k=k, a=a, b=b, x=x)
        if _relative_trace(A, k, x) != t:
            raise VerificationError(
                "four-term-trace-identity",
                "solution's relative trace does not equal t", k=k, a=a, b=b, x=x)
        if _pair_sum_quadratic(A, k, x, c, t) != 0:
            raise VerificationError(
                "pair-sum-quadratic",
                "u = x + x^(2^2k) fails u^2 + (t+1)u + c^(2^k) + c^(2^3k) = 0",
                k=k, a=a, b=b, x=x)
    checks += ["normalized-product-identity", "four-term-trace-identity",
               "pair-sum-quadratic"]

    def filtered(roots: Iterable[int]) -> frozenset[int]:
        return frozenset(x for x in roots if _product_identity(A, k, x, c) == 0)

    if t == 1:
        r, s, e = (int(v) for v in _gap_constants(A, k, c))
        for x in norm:
            pair_gap, half_gap = _gaps(A, k, x)
            if pair_gap != r:
                raise VerificationError(
                    "pair-gap-constant", "x + x^(2^2k) differs from r",
                    k=k, a=a, b=b, x=x, r=r)
            if half_gap != s:
                raise VerificationError(
                    "half-gap-constant", "x + x^(2^k) differs from s",
                    k=k, a=a, b=b, x=x, s=s)
        roots = A.quad_roots(e)
        if not norm <= roots:
            raise VerificationError(
                "terminal-quadratic-cover",
                "a solution is not a root of x^2 + x + (r*s + s + r + c)",
                k=k, a=a, b=b)
        via = filtered(roots)
        if via != norm:
            raise VerificationError(
                "terminal-quadratic-match",
                "filtered terminal roots differ from the direct solution set",
                k=k, a=a, b=b)
        checks += ["pair-gap-constant", "half-gap-constant",
                   "terminal-quadratic-cover", "terminal-quadratic-match"]
        return ReductionTrace(
            k=k, a=a, b=b, c=c, t=t, branch="t=1",
            solutions_direct=direct, solutions_normalized=norm,
            solutions_via_quadratics=back(via),
            aux={"r": r, "s": s}, obstruction=None, checks=tuple(checks))

    # branch t != 1: substitute x = (t+1) z and halve twice
    # Neither halving quadratic can lack roots.  s = (t+1)^(-2) lies in
    # GF(2^k), so s*c^(2^(jk)) = (s*c)^(2^(jk)) and Tr(cy) = Tr(sc) + Tr(sc) = 0.
    # cw is s*(c + c^(2^k)), of trace 0 the same way, plus a term of
    # GF(2^(2k)), whose absolute trace over GF(2^(4k)) is 0.  And w^2 + w = e
    # has two roots whenever Tr(e) = 0, so an empty root set is impossible.
    cy = int(_halving_constant(A, k, c, t))
    Y = A.quad_roots(cy)
    if not Y:
        raise VerificationError(
            "halving-quadratic-unsolvable",
            "y^2 + y = (c^(2^k)+c^(2^3k))/(t+1)^2 has no root though its trace is 0",
            k=k, a=a, b=b, cy=cy)
    p = min(Y)
    # the candidate y-value must itself sit in the half-degree subfield and
    # satisfy the trace relation p + p^(2^k) = t/(t+1); both are consequences
    # of an actual solution existing, so a violation rules solutions out
    if not _halving_image_ok(A, k, p, t):
        if norm:
            raise VerificationError(
                "halving-image-constraints",
                "candidate y-value violates its subfield/trace relations yet "
                "solutions exist", k=k, a=a, b=b)
        return ReductionTrace(
            k=k, a=a, b=b, c=c, t=t, branch="t!=1",
            solutions_direct=direct, solutions_normalized=norm,
            solutions_via_quadratics=frozenset(), aux={"p": p, "cy": cy},
            obstruction="halving-image-constraints", checks=tuple(checks))
    cw = int(_second_halving_constant(A, k, c, t, p))
    W = A.quad_roots(cw)
    if not W:
        raise VerificationError(
            "second-halving-unsolvable",
            "w^2 + w = ((t+1)^2 p^(2^k+1) + (t+1)p^(2^k) + c + c^(2^k))/(t+1)^2 "
            "has no root though its trace is 0", k=k, a=a, b=b, p=p, cw=cw)
    q = min(W)
    k1, k2 = _terminal_constants(A, k, c, t, q)
    roots = A.quad_roots(k1) | A.quad_roots(k2)
    if len(roots) > 4:
        raise VerificationError(
            "terminal-pair-bound", "two quadratics produced more than four roots",
            k=k, a=a, b=b)
    if not norm <= roots:
        raise VerificationError(
            "terminal-pair-cover",
            "a solution is not a root of either terminal quadratic",
            k=k, a=a, b=b)
    via = filtered(roots)
    if via != norm:
        raise VerificationError(
            "terminal-pair-match",
            "filtered terminal roots differ from the direct solution set",
            k=k, a=a, b=b)
    per_solution = {}
    t1i = A.inv(t ^ 1)
    for x in norm:
        z = int(A.mul(x, t1i))
        y_img, w_img = (int(v) for v in _gaps(A, k, z))
        if y_img not in (p, p ^ 1):
            raise VerificationError(
                "halving-image-membership", "z + z^(2^2k) is neither p nor p+1",
                k=k, a=a, b=b, x=x, y_img=y_img, p=p)
        if w_img not in (q, q ^ 1):
            raise VerificationError(
                "second-halving-membership", "z + z^(2^k) is neither q nor q+1",
                k=k, a=a, b=b, x=x, w_img=w_img, q=q)
        per_solution[x] = {"z": z, "y_image": y_img, "w_image": w_img}
    checks += ["terminal-pair-bound", "terminal-pair-cover", "terminal-pair-match",
               "halving-image-membership", "second-halving-membership"]
    return ReductionTrace(
        k=k, a=a, b=b, c=c, t=t, branch="t!=1",
        solutions_direct=direct, solutions_normalized=norm,
        solutions_via_quadratics=back(via),
        aux={"p": p, "q": q, "cy": cy, "cw": cw, "per_solution": per_solution},
        obstruction=None, checks=tuple(checks))


# The identities of the derivation, each written once for the scalar replay
# above and the array pass below; x, c and t are elements or arrays.

def _normalized(A: _Arith, d: int, a, b):
    """b/a^d for a != 0: c = b/a^d + 1 and the normalized set S(a, b)/a
    are all the derivation reads of (a, b)."""
    return A.mul(b, A.inv(A.pow(a, d)))


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
    """p lies in GF(2^(2k)) and p + p^(2^k) = t/(t+1)."""
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
    ended it, and ``count`` the size of its solution set.
    """

    passed: np.ndarray
    t_one: np.ndarray
    obstructed: np.ndarray
    count: np.ndarray


def _derive_pass(k: int, sols: np.ndarray, valid: np.ndarray,
                 c: np.ndarray) -> _ReplayColumns:
    """Every check of :func:`_derive` at a = 1, as masks over many c at once.

    Row i replays the pair (1, c[i] + 1), whose solution set is held by the
    slots of ``sols[i]`` where ``valid[i]`` is set (distinct elements; the
    width is at least four).  A row passes exactly when the four-solution
    bound and the scalar replay pass, so a failing row is left to
    :func:`_derive` for its error.  Two steps take a shorter form: the
    filtered roots equal the solution set when the set is covered by the
    roots and as many roots as it has members satisfy the product identity,
    since each member already did; and two equal terminal constants give
    one root pair, not two.
    """
    table = _family_table(k)
    A = _arith(table.spec.n, table.spec.poly)
    x = sols
    count = valid.sum(axis=1)
    col = lambda v: v[:, None]
    t = _relative_trace(A, k, c)
    slot_ok = ((_product_identity(A, k, x, col(c)) == 0)
               & (_relative_trace(A, k, x) == col(t))
               & (_pair_sum_quadratic(A, k, x, col(c), col(t)) == 0))
    ok = (count <= 4) & (A.frob(t, k) == t)

    # branch t = 1: one terminal quadratic, x + x^(2^2k) = r, x + x^(2^k) = s
    t_one = t == 1
    r, s, e = _gap_constants(A, k, c)
    pair_gap, half_gap = _gaps(A, k, x)
    gaps_ok = (pair_gap == col(r)) & (half_gap == col(s))
    r0 = A.root[e]

    # branch t != 1: the halving roots p and q, then two terminal quadratics
    p = A.root[_halving_constant(A, k, c, t)]
    p_ok = (p >= 0) & _halving_image_ok(A, k, p, t)
    q = A.root[_second_halving_constant(A, k, c, t, p)]
    k1, k2 = _terminal_constants(A, k, c, t, q)
    r1, r2 = A.root[k1], A.root[k2]
    y_img, w_img = _gaps(A, k, A.mul(x, col(A.inv(t ^ 1))))
    images_ok = ((y_img ^ col(p)) < 2) & ((w_img ^ col(q)) < 2)

    # the terminal roots of the row's branch, in pairs {r, r + 1}
    first = np.where(t_one, r0, r1)
    second = np.where(t_one | (k2 == k1), -1, r2)
    roots = np.stack([first, first ^ 1, second, second ^ 1], axis=1)
    has = np.repeat(np.stack([first >= 0, second >= 0], axis=1), 2, axis=1)
    covered = ((x[:, :, None] == roots[:, None, :]) & has[:, None, :]).any(axis=2)
    matched = ((_product_identity(A, k, np.where(has, roots, 0), col(c)) == 0)
               & has).sum(axis=1) == count
    branch_ok = np.where(col(t_one), gaps_ok, images_ok)
    terminal_ok = matched & ((covered & branch_ok) | ~valid).all(axis=1)
    ok &= (slot_ok | ~valid).all(axis=1)
    ok &= np.where(t_one, terminal_ok,
                   (p >= 0) & np.where(p_ok, (q >= 0) & terminal_ok, count == 0))
    return _ReplayColumns(ok, t_one, ~t_one & ~p_ok, count)


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


def _tally(name: str, cases: Iterable[tuple], check) -> CheckReport:
    """Run ``check(*case)`` on every case and report one row.

    Each :class:`VerificationError` counts as one failure and the first one,
    in case order, becomes ``first_failure``; other exceptions propagate.
    """
    instances = failures = 0
    first = None
    for case in cases:
        instances += 1
        try:
            check(*case)
        except VerificationError as e:
            failures += 1
            if first is None:
                first = str(e)
    return CheckReport(name, instances, failures, first)


def _settle(name: str, ok: np.ndarray, case, check) -> CheckReport:
    """The report of ``check(*case(i))`` over every cell i of ``ok`` (in
    flat order), from an array pass ``ok`` that holds only where that check
    passes: the cells it does not settle run the check, in case order."""
    cases = (case(i) for i in np.flatnonzero(~ok).tolist())
    return replace(_tally(name, cases, check), instances=ok.size)


def _sweep_pairs(k: int, samples: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) pairs of a sweep as two index arrays, in case order."""
    size = 1 << (4 * k)
    if samples is None and k <= 2:
        return np.divmod(np.arange(size, size * size), size)
    count = samples if samples is not None else 1000
    rng = random.Random(DEFAULT_SEED)
    draws = [(rng.randrange(1, size), rng.randrange(size)) for _ in range(count)]
    return tuple(np.array(draws).T)


def reduction_sweep(k: int, *, samples: int | None = None) -> CheckReport:
    """Replay the reduction over many (a, b) pairs.

    Exhaustive by default for k <= 2, sampled (default 1000 pairs drawn
    from DEFAULT_SEED) otherwise.  A samples count below 1 raises ValueError.

    Lemma: if the table's exponent is d (f(a*x) = a^d * f(x) for every
    a != 0 and every x, see :attr:`gf2lab.spectra.FunctionTable.exponent`),
    the substitution x = a*y gives S(a, b) = a * S(1, b/a^d), where S(a, b)
    is the solution set of f(x+a) + f(x) = b.  Every check of
    :func:`reduction_trace` is a function of c = b/a^d + 1 and the
    normalized set S(a, b)/a alone, so on such a table the pair (a, b)
    passes exactly when the replay of (1, c + 1) does.  The sweep reads
    that premise off the family table's exponent once, lays out every set
    S(1, v) with one :meth:`gf2lab.spectra.DifferenceRow.sets` call, and
    makes one array pass over every c = v + 1 under the same four-solution
    bound.  The scalar derivation replays only the pairs that pass does not
    settle, and every pair of a table that fails the premise.  The pass
    settles no c whose scalar replay fails, so the report equals the
    per-pair one, first failure included.
    """
    _check_k(k)
    _check_samples(samples)
    a, b = _sweep_pairs(k, samples)
    table = _family_table(k)
    d = dobbertin_exponent(k)
    settled = np.zeros(a.size, dtype=bool)
    if table.exponent == d:
        # the pair (a, b) replays as (1, v), i.e. c = v + 1
        v = _normalized(_arith(table.spec.n, table.spec.poly), d, a, b)
        ws = np.arange(table.spec.size)
        settled = _derive_pass(k, *difference_row(table, 1).sets(ws), ws ^ 1).passed[v]
    return _settle(f"reduction-replay[k={k}]", settled, lambda i: (int(a[i]), int(b[i])),
                   lambda a, b: reduction_trace(k, a, b))


# ---------------------------------------------------------------------------
# split-coordinate (Maiorana-McFarland) suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MMWitness:
    """Constructed basis and fiber data for the split-coordinate form.

    gamma generates the needed trace-one constant in GF(2^k); alpha and
    omega extend it so that x = y + omega*a splits the field over the
    half-degree subfield.  ``pi_fibers`` maps each attained value u of the
    inner map to its fiber {a : pi(a) = u}.
    """

    k: int
    spec: FieldSpec
    gamma: int
    alpha: int
    omega: int
    pi_fibers: dict


def all_gammas(k: int) -> list[int]:
    """All nonzero gamma in GF(2^k) whose subfield absolute trace is 1."""
    _check_k(k)
    table = _family_table(k)
    A = _arith(table.spec.n, table.spec.poly)
    return [g for g in A.subfield(k) if g and A.subtrace(g, k) == 1]


def pi_image(w: MMWitness, a):
    """The inner map pi(a) = gamma*a^(2^(k-1)) + gamma^2*a^(2^k+1).

    ``a`` is a field element, or an array of them mapped elementwise; an
    element outside the field raises ValueError.
    """
    _check_elements(w.spec, a, "a")
    A = _arith(w.spec.n, w.spec.poly)
    u = (A.mul(w.gamma, A.frob(a, w.k - 1))
         ^ A.mul(A.mul(w.gamma, w.gamma), A.mul(A.frob(a, w.k), a)))
    return u if isinstance(a, np.ndarray) else int(u)


def mm_basis(k: int, *, gamma: int | None = None) -> MMWitness:
    """Construct and validate the split-coordinate basis (gamma, alpha, omega).

    gamma defaults to the least qualifying element (any choice passes; a
    sweep over :func:`all_gammas` confirms independence).  All construction
    invariants are verified on the spot and raise :class:`VerificationError`
    if violated.
    """
    _check_k(k)
    table = _family_table(k)
    spec = table.spec
    A = _arith(spec.n, spec.poly)
    sub_2k = A.subfield(2 * k)
    candidates = all_gammas(k)
    if gamma is None:
        gamma = candidates[0]
    elif gamma not in candidates:
        raise ValueError(f"gamma {gamma:#x} is not a trace-one element of GF(2^{k})")
    g3 = int(A.mul(A.mul(gamma, gamma), gamma))
    # alpha: root of z^2 + gamma*z = gamma^3 inside GF(2^(2k))
    alpha_roots = solve_linearized(spec, [(1, 1), (gamma, 0)], g3)
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
    # omega: root of z^2 + z = alpha in the full field
    omega_roots = solve_linearized(spec, [(1, 1), (1, 0)], alpha)
    if len(omega_roots) != 2:
        raise VerificationError(
            "omega-exists", "z^2 + z + alpha has no root in the full field",
            k=k, alpha=alpha)
    omega = min(omega_roots)
    if omega ^ A.frob(omega, 2 * k) != 1:
        raise VerificationError(
            "omega-conjugate-gap", "omega + omega^(2^2k) != 1", k=k, omega=omega)
    # the split coordinates must hit every element of the field once
    sub = np.array(sub_2k)
    cover = np.bincount((sub[:, None] ^ A.mul(omega, sub)).ravel(), minlength=spec.size)
    if not (cover == 1).all():
        raise VerificationError(
            "split-coordinates-cover",
            "y + omega*a does not enumerate the field", k=k)
    # fibers of the inner map
    fibers: dict[int, set[int]] = {}
    images = pi_image(MMWitness(k, spec, gamma, alpha, omega, {}), sub).tolist()
    for a, u in zip(sub_2k, images):
        fibers.setdefault(u, set()).add(a)
    frozen = {}
    for u, members in fibers.items():
        if len(members) not in (1, 2, 4):
            raise VerificationError(
                "fiber-size-bound", "fiber size outside {0, 1, 2, 4}",
                k=k, u=u, size=len(members))
        for a1 in members:
            for a2 in members:
                if A.frob(a1 ^ a2, k) != a1 ^ a2:
                    raise VerificationError(
                        "fiber-difference-subfield",
                        "two fiber members differ by a non-GF(2^k) element",
                        k=k, u=u, a1=a1, a2=a2)
        frozen[u] = frozenset(members)
    return MMWitness(k, spec, gamma, alpha, omega, frozen)


def pi_fiber(w: MMWitness, u: int) -> frozenset[int]:
    """The fiber {a in GF(2^(2k)) : pi(a) = u}; empty when u is not attained."""
    return w.pi_fibers.get(u, frozenset())


def _split_offset(w: MMWitness, A: _Arith, a):
    """The y-free term alpha*gamma^2*a^(2^k+2) of the split-coordinate form."""
    ag2 = A.mul(w.alpha, A.mul(w.gamma, w.gamma))
    return A.mul(ag2, A.pow(a, (1 << w.k) + 2))


def mm_decomposition_check(w: MMWitness) -> CheckReport:
    """Pointwise equality of g(y + omega*a) with its split-coordinate form.

    The split form is the half-field trace of y*pi(a) + alpha*gamma^2*
    a^(2^k+2); it is linear in y, which is what the fiber analysis uses.
    """
    A = _arith(w.spec.n, w.spec.poly)
    k = w.k
    d = dobbertin_exponent(k)
    g2 = A.mul(w.gamma, w.gamma)
    sub_2k = A.subfield(2 * k)

    def holds(y, a):
        lhs = A.subtrace(A.mul(g2, A.pow(y ^ A.mul(w.omega, a), d)), A.n)
        return lhs == A.subtrace(A.mul(y, pi_image(w, a)) ^ _split_offset(w, A, a), 2 * k)

    def check(y: int, a: int) -> None:
        if not holds(y, a):
            raise VerificationError(
                "split-coordinate-form",
                "g(y + omega*a) differs from its split-coordinate form",
                k=k, y=y, a=a)

    # the whole grid at once, y along rows and a along columns
    sub = np.array(sub_2k)
    return _settle(f"mm-decomposition[k={k}]", holds(sub[:, None], sub),
                   lambda i: (sub_2k[i // sub.size], sub_2k[i % sub.size]), check)


@dataclass(frozen=True, eq=False)
class QuarticRoots:
    """Roots of the fiber quartic c^4 + (a0^(2^k)+a0)c^2 + gamma^(-1)c = 0.

    ``roots_full`` is the solution set over the whole field;
    ``roots_subfield`` its restriction to GF(2^k), whose nonzero members
    biject with the other fiber members via a0 + c^2.
    """

    a0: int
    u: int
    roots_full: frozenset[int]
    roots_subfield: frozenset[int]
    fiber: frozenset[int]


def quartic_roots(w: MMWitness, a0: int) -> QuarticRoots:
    """Solve the fiber quartic at a0 and verify the root/fiber correspondence."""
    _check_elements(w.spec, a0, "a0")
    A = _arith(w.spec.n, w.spec.poly)
    k = w.k
    if A.frob(a0, 2 * k) != a0:
        raise ValueError(f"a0 {a0:#x} is not in the half-degree subfield")
    u = pi_image(w, a0)
    fiber = pi_fiber(w, u)
    gi = int(A.inv(w.gamma))
    full = solve_linearized(w.spec, [(1, 2), (int(A.frob(a0, k) ^ a0), 1), (gi, 0)], 0)
    sub = frozenset(c for c in full if A.frob(c, k) == c)
    mapped = frozenset(a0 ^ A.mul(c, c) for c in sub)
    if mapped != fiber:
        raise VerificationError(
            "fiber-root-correspondence",
            "a0 + c^2 over the subfield roots does not reproduce the fiber",
            k=k, a0=a0, u=u)
    if len(fiber) == 4:
        nz = sorted(c for c in sub if c)
        prod = A.mul(nz[0], A.mul(nz[1], nz[2]))
        if prod != gi:
            raise VerificationError(
                "root-product-identity",
                "product of the three nonzero subfield roots is not 1/gamma",
                k=k, a0=a0)
    return QuarticRoots(a0, u, frozenset(full), sub, fiber)


def quartic_check_all(w: MMWitness) -> CheckReport:
    """Run the quartic/fiber correspondence at one representative per fiber."""
    return _tally(f"mm-quartic[k={w.k}]",
                  ((w, min(w.pi_fibers[u])) for u in sorted(w.pi_fibers)),
                  quartic_roots)


@lru_cache(maxsize=8)
def _transform_row(k: int, g2: int) -> np.ndarray:
    """Walsh row of the family map at component b = gamma^2 (independent path)."""
    return walsh_row(_family_table(k), g2)


def _transform_value(w: MMWitness, A: _Arith, u, v):
    """The transform coefficient at (lam, gamma^2), lam = u*omega + u + v:
    the plain-coordinate twin of the split-coordinate point (u, v)."""
    return _transform_row(w.k, int(A.mul(w.gamma, w.gamma)))[A.mul(u, w.omega) ^ u ^ v]


def _fiber_terms(w: MMWitness, A: _Arith, a, v):
    """(-1)^Tr(alpha*gamma^2*a^(2^k+2) + v*a), the half-field trace: the
    term of a fiber member a in the fiber sum at v."""
    return 1 - 2 * A.subtrace(_split_offset(w, A, a) ^ A.mul(v, a), 2 * w.k)


def _fiber_sum(w: MMWitness, A: _Arith, u: int, v: int) -> int:
    """2^(2k) times the sum of the terms over the fiber of u at v."""
    return (1 << (2 * w.k)) * sum(int(_fiber_terms(w, A, a, v)) for a in pi_fiber(w, u))


def _fiber_sum_grid(w: MMWitness, us) -> np.ndarray:
    """:func:`_fiber_sum` at every u of ``us`` (rows) and every v of
    GF(2^(2k)) (columns), from one array of the fibers padded into slots."""
    A = _arith(w.spec.n, w.spec.poly)
    fibers = [sorted(pi_fiber(w, u)) for u in us]
    size = np.array([len(m) for m in fibers], dtype=np.int64)
    fib = np.zeros((len(fibers), max(size, default=0)), dtype=np.int64)
    for i, members in enumerate(fibers):
        fib[i, :len(members)] = members
    in_fiber = np.arange(fib.shape[1]) < size[:, None, None]
    v = np.array(A.subfield(2 * w.k))[:, None]
    terms = np.where(in_fiber, _fiber_terms(w, A, fib[:, None, :], v), 0)
    return (1 << (2 * w.k)) * terms.sum(axis=2)


def mm_walsh_crosscheck(w: MMWitness, u: int, v: int) -> int:
    """Fiber-sum value of the coefficient at (u, v), checked two ways.

    The split-coordinate point (u, v) corresponds to the plain transform
    argument lam = u*omega + u + v; the value from the fiber sum must agree
    with the fast-transform coefficient at (lam, gamma^2).  An element
    outside the field raises ValueError.
    """
    _check_elements(w.spec, u, "u")
    _check_elements(w.spec, v, "v")
    A = _arith(w.spec.n, w.spec.poly)
    coef = _fiber_sum(w, A, u, v)
    direct = int(_transform_value(w, A, u, v))
    if coef != direct:
        raise VerificationError(
            "fiber-sum-equals-transform",
            "fiber-sum coefficient disagrees with the transform",
            k=w.k, u=u, v=v, fiber_sum=coef, transform=direct)
    return coef


def mm_crosscheck_all(w: MMWitness) -> CheckReport:
    """Cross-check every (u, v) over the half-degree subfield grid."""
    A = _arith(w.spec.n, w.spec.poly)
    k = w.k
    sub_2k = A.subfield(2 * k)
    # the same check over the whole grid, u along rows and v along columns
    u = np.array(sub_2k)[:, None]
    ok = _fiber_sum_grid(w, sub_2k) == _transform_value(w, A, u, u.T)
    return _settle(f"mm-walsh-crosscheck[k={k}]", ok,
                   lambda i: (w, sub_2k[i // u.size], sub_2k[i % u.size]), mm_walsh_crosscheck)


def m4_sum_check(w: MMWitness) -> CheckReport:
    """Sign pattern of size-4 fibers and the trace stepping stones.

    The stepping stones Tr(alpha*gamma) = Tr_k(gamma*(alpha + alpha^(2^k)))
    = Tr_k(gamma^2) = 1 are verified unconditionally (size-4 fibers first
    occur at k = 3).  Then, for every u whose fiber has four members and
    every v, the four half-field trace bits must sum to 1 mod 2, forcing a
    3-against-1 sign split.  Four signs +-1 sum to +-2 exactly when an odd
    number of them are -1, so the check is that the fiber sum has magnitude
    exactly 2^(2k+1).  One pass over the fiber sums of those (u, v) settles
    the cells that pass; the scalar check runs on the rest, in case order.
    """
    A = _arith(w.spec.n, w.spec.poly)
    k = w.k

    def stepping_stones() -> None:
        traces = tuple(int(A.subtrace(x, m)) for x, m in (
            (A.mul(w.alpha, w.gamma), 2 * k),
            (A.mul(w.gamma, w.alpha ^ A.frob(w.alpha, k)), k),
            (A.mul(w.gamma, w.gamma), k)))
        if traces != (1, 1, 1):
            raise VerificationError(
                "trace-stepping-stones", "expected all three traces to be 1",
                k=k, traces=traces)

    def four_term_sum(u: int, v: int) -> None:
        coef = _fiber_sum(w, A, u, v)
        if abs(coef) != 1 << (2 * k + 1):
            raise VerificationError(
                "four-term-trace-sum",
                "the four half-field trace bits do not sum to 1 mod 2",
                k=k, u=u, v=v, coefficient=coef)

    sub_2k = A.subfield(2 * k)
    four = [u for u, members in sorted(w.pi_fibers.items()) if len(members) == 4]
    cases = [(stepping_stones,)] + [(four_term_sum, u, v) for u in four for v in sub_2k]
    # case 0, the stepping stones, is never settled
    ok = np.append(False, np.abs(_fiber_sum_grid(w, four)).ravel() == 1 << (2 * k + 1))
    return _settle(f"mm-extremal-sum[k={k}]", ok, cases.__getitem__,
                   lambda step, *args: step(*args))


# ---------------------------------------------------------------------------
# combined driver
# ---------------------------------------------------------------------------

def delta_sweep(k: int, *, deep: bool = False) -> CheckReport:
    """Full-DDT check that the family's differential uniformity is exactly 4."""
    _check_k(k)
    table = _family_table(k)
    delta = differential_uniformity(table, deep=deep)
    rows = table.spec.size - 1
    ok = delta == 4
    return CheckReport(f"delta-sweep[k={k}]", rows, 0 if ok else 1,
                       None if ok else f"measured delta {delta} != 4")


def run_all_checks(ks: Iterable[int], *, samples: int | None = None,
                   all_gamma: bool = False, deep: bool = False) -> list[CheckReport]:
    """Run every verification suite for the requested k values.

    Returns the reports in a fixed order (delta sweep, reduction replay,
    then the split-coordinate suite per gamma), suitable for tabular
    display; failures are counted in the reports.  A basis that fails to
    construct is an ``mm-basis`` row with one failure, and the suites that
    need it are skipped for that gamma.  Every k is checked for range and
    size, and samples for sign, before any suite runs.
    """
    ks = list(ks)
    _check_samples(samples)
    for k in ks:
        _check_k(k)
        require_desk_scale(4 * k, deep)
    reports: list[CheckReport] = []
    for k in ks:
        reports.append(delta_sweep(k, deep=deep))
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


def fiber_partition_check(w: MMWitness) -> CheckReport:
    """The fibers are those of pi on GF(2^(2k)): sizes sum to 2^(2k), all in
    {1,2,4}, and the members are distinct elements of GF(2^(2k)) that pi
    maps to their fiber's u."""
    k, fibers = w.k, w.pi_fibers.items()
    sizes = Counter(len(m) for _, m in fibers)
    members = np.array([a for _, m in fibers for a in m], dtype=np.int64)
    us = np.array([u for u, m in fibers for _ in m], dtype=np.int64)
    strays = int(((pi_image(w, members) != us)
                  | (_arith(w.spec.n, w.spec.poly).frob(members, 2 * k) != members)).sum())
    # np.unique would load numpy.ma
    repeats = members.size - np.count_nonzero(np.bincount(members))
    first = None
    if members.size != 1 << (2 * k) or not set(sizes) <= {1, 2, 4}:
        first = f"partition broken: sizes {dict(sizes)}, total {members.size}"
    elif repeats or strays:
        first = (f"fibers are not those of pi: {repeats} repeated member(s), {strays} "
                 f"outside GF(2^{2 * k}) or mapped off their fiber's u")
    return CheckReport(f"mm-fibers[k={k}]", len(w.pi_fibers), int(first is not None), first)
