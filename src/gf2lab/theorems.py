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
naming the failing step.  The pair sweep scans no pair: once the family
table's exponent reads d (the premise stated at
:attr:`gf2lab.spectra.FunctionTable.exponent`), the substitution x = a*y
reduces every solution set to the row a = 1, S(a, b) = a * S(1, b/a^d),
so one grouping of that row feeds one replay per distinct c = b/a^d + 1,
and a and b enter the checks only through c and the normalized set.  A
pair whose replay failed, and every pair of a table whose exponent is not
d, is replayed on its own.

The *split-coordinate suite* checks the Maiorana-McFarland structure of the
component g(x) = Tr(gamma^2 * x^d): a basis (gamma, alpha, omega) is
constructed so that {y + omega*a} with y, a ranging over the half-degree
subfield covers the field; g then becomes linear in y with inner map
pi(a) = gamma*a^(2^(k-1)) + gamma^2*a^(2^k+1), and the Walsh coefficients
collapse to sums over the fibers of pi, whose sizes a linearized quartic
confines to {0, 1, 2, 4}.  The suite verifies the decomposition pointwise,
the fiber/quartic correspondence, the fiber-sum formula against an
independent fast-transform sweep, and the sign pattern that pins the
extremal coefficient magnitude 2^(2k+1).

Every sweep reports one :class:`CheckReport` row under one rule: each case
(a pair, a point, a fiber) whose check raises :class:`VerificationError`
counts as one failure, the first in case order is kept as
``first_failure``, and any other exception propagates.  A basis that fails
to construct is a failed ``mm-basis`` row, and :func:`run_all_checks` skips
the suites that need it for that gamma.

Both suites do their scalar arithmetic through the log/exp tables of
:mod:`gf2lab.field`.  The full difference-table sweep at k = 4 (degree 16)
needs ``deep=True``, as decided by :func:`gf2lab.spectra.require_desk_scale`;
the replay and the split-coordinate suite are not full sweeps and need none.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd
from typing import Iterable

import numpy as np

from .field import FieldSpec, field_make, solve_linearized, _log_exp_tables
from .spectra import (FunctionTable, build_lut, differential_uniformity,
                      require_desk_scale, walsh_row)

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
        ctx = ", ".join(f"{key}={v:#x}" if isinstance(v, int) and key not in _DECIMAL
                        else f"{key}={v}" for key, v in context.items())
        super().__init__(f"{step}: {detail} [{ctx}]")


def dobbertin_exponent(k: int) -> int:
    """The exponent 2^(2k) + 2^k + 1 of the degree-4k family."""
    return (1 << (2 * k)) + (1 << k) + 1


# ---------------------------------------------------------------------------
# table-backed scalar arithmetic (internal)
# ---------------------------------------------------------------------------

class _Arith:
    """Discrete-log based scalar ops for the hot verification loops.

    A view over the shared log/exp tables of :mod:`gf2lab.field`, copied to
    Python lists: the replay indexes them one scalar at a time, where list
    indexing is several times faster than indexing numpy arrays.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.n = spec.n
        self.order = spec.order
        log, exp = _log_exp_tables(spec.n, spec.poly)
        self.log = log.tolist()
        self.exp = exp.tolist()
        # roots of x^2 + x = const: const -> smaller root; x and x + 1 share
        # the image, so the even x are exactly the smaller roots
        self._as_root = {self.mul(x, x) ^ x: x for x in range(0, spec.size, 2)}

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.order]

    def inv(self, a: int) -> int:
        return self.exp[-self.log[a] % self.order]

    def pow(self, a: int, d: int) -> int:
        if a == 0:
            return 1 if d == 0 else 0
        return self.exp[(self.log[a] * d) % self.order]

    def frob(self, a: int, e: int) -> int:
        return self.pow(a, 1 << e)

    def sqrt(self, a: int) -> int:
        return self.pow(a, 1 << (self.n - 1))

    def quad_roots(self, const: int) -> frozenset[int]:
        """Roots of x^2 + x + const = 0 (either two or none)."""
        r = self._as_root.get(const)
        return frozenset() if r is None else frozenset((r, r ^ 1))

    def subfield(self, m: int) -> tuple[int, ...]:
        """All elements fixed by the m-fold Frobenius, in increasing order.

        They form GF(2^j), j = gcd(m, n): 0 and the 2^j - 1 powers of
        g^((2^n - 1) / (2^j - 1)), one stride of the exp table.
        """
        step = self.order // ((1 << gcd(m, self.n)) - 1)
        return tuple(sorted([0] + self.exp[::step]))

    def subtrace(self, a: int, m: int) -> int:
        """Absolute trace of the GF(2^m) subfield, for elements lying in it."""
        acc = 0
        x = a
        for _ in range(m):
            acc ^= x
            x = self.mul(x, x)
        return acc


@lru_cache(maxsize=8)
def _arith(n: int, poly: int) -> _Arith:
    return _Arith(FieldSpec(n, poly))


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
    lut = _family_table(k).lut
    if not 0 < a < lut.size:
        raise ValueError("difference a must be a nonzero field element")
    if not 0 <= b < lut.size:
        raise ValueError("b out of range")
    xs = np.flatnonzero(lut ^ lut[np.arange(lut.size) ^ a] == b)
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
    norm = frozenset(A.mul(x, ainv) for x in direct)
    back = lambda roots: frozenset(A.mul(x, a) for x in roots)

    c = A.mul(A.inv(A.pow(a, d)), b) ^ 1
    t = c ^ A.frob(c, k) ^ A.frob(c, 2 * k) ^ A.frob(c, 3 * k)
    checks = ["count-bound"]
    if A.frob(t, k) != t:
        raise VerificationError(
            "trace-codomain", "relative trace of c left the small subfield",
            k=k, a=a, b=b, t=t)
    checks.append("trace-codomain")

    def product_identity(x: int) -> int:
        # x^(2^2k+2^k) + x^(2^2k+1) + x^(2^k+1) + x^(2^2k) + x^(2^k) + x + c
        x2k = A.frob(x, 2 * k)
        xk = A.frob(x, k)
        return (A.mul(x2k, xk) ^ A.mul(x2k, x) ^ A.mul(xk, x)
                ^ x2k ^ xk ^ x ^ c)

    for x in norm:
        if product_identity(x) != 0:
            raise VerificationError(
                "normalized-product-identity",
                "a normalized solution fails the expanded difference equation",
                k=k, a=a, b=b, x=x)
        if x ^ A.frob(x, k) ^ A.frob(x, 2 * k) ^ A.frob(x, 3 * k) != t:
            raise VerificationError(
                "four-term-trace-identity",
                "solution's relative trace does not equal t", k=k, a=a, b=b, x=x)
        u = x ^ A.frob(x, 2 * k)
        if A.mul(u, u) ^ A.mul(t ^ 1, u) ^ A.frob(c, k) ^ A.frob(c, 3 * k) != 0:
            raise VerificationError(
                "pair-sum-quadratic",
                "u = x + x^(2^2k) fails u^2 + (t+1)u + c^(2^k) + c^(2^3k) = 0",
                k=k, a=a, b=b, x=x)
    checks += ["normalized-product-identity", "four-term-trace-identity",
               "pair-sum-quadratic"]

    def filtered(roots: Iterable[int]) -> frozenset[int]:
        return frozenset(x for x in roots if product_identity(x) == 0)

    if t == 1:
        # pair-sum quadratic degenerates: x + x^(2^2k) is forced to the
        # square root r of its constant term, and x + x^(2^k) to s below
        r = A.frob(c, k - 1) ^ A.frob(c, 3 * k - 1)
        rk = A.frob(r, k)
        s = A.sqrt(A.mul(rk, r) ^ c ^ A.frob(c, k) ^ rk)
        for x in norm:
            if x ^ A.frob(x, 2 * k) != r:
                raise VerificationError(
                    "pair-gap-constant", "x + x^(2^2k) differs from r",
                    k=k, a=a, b=b, x=x, r=r)
            if x ^ A.frob(x, k) != s:
                raise VerificationError(
                    "half-gap-constant", "x + x^(2^k) differs from s",
                    k=k, a=a, b=b, x=x, s=s)
        roots = A.quad_roots(A.mul(r, s) ^ s ^ r ^ c)
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
    t1 = t ^ 1
    t1i = A.inv(t1)
    t1i2 = A.mul(t1i, t1i)

    # Neither halving quadratic can lack roots.  s = (t+1)^(-2) lies in
    # GF(2^k), so s*c^(2^(jk)) = (s*c)^(2^(jk)) and Tr(cy) = Tr(sc) + Tr(sc) = 0.
    # cw is s*(c + c^(2^k)), of trace 0 the same way, plus a term of
    # GF(2^(2k)), whose absolute trace over GF(2^(4k)) is 0.  And w^2 + w = e
    # has two roots whenever Tr(e) = 0, so an empty root set is impossible.
    cy = A.mul(A.frob(c, k) ^ A.frob(c, 3 * k), t1i2)
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
    p_ok = (A.frob(p, 2 * k) == p) and (p ^ A.frob(p, k) == A.mul(t, t1i))
    if not p_ok:
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
    pk = A.frob(p, k)
    cw = A.mul(A.mul(A.mul(t1, t1), A.mul(pk, p)) ^ A.mul(t1, pk)
               ^ c ^ A.frob(c, k), t1i2)
    W = A.quad_roots(cw)
    if not W:
        raise VerificationError(
            "second-halving-unsolvable",
            "w^2 + w = ((t+1)^2 p^(2^k+1) + (t+1)p^(2^k) + c + c^(2^k))/(t+1)^2 "
            "has no root though its trace is 0", k=k, a=a, b=b, p=p, cw=cw)
    q = min(W)
    qk = A.frob(q, k)
    q2 = A.mul(q, q)
    t1sq = A.mul(t1, t1)
    # terminal quadratics for w = q and w = q + 1
    k1 = A.mul(t1sq, A.mul(qk, q) ^ q2) ^ A.mul(t1, qk) ^ c
    k2 = A.mul(t1sq, A.mul(qk, q) ^ qk ^ q2 ^ q) ^ A.mul(t1, A.frob(q ^ 1, k)) ^ c
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
    for x in norm:
        z = A.mul(x, t1i)
        y_img = z ^ A.frob(z, 2 * k)
        w_img = z ^ A.frob(z, k)
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
    passes exactly when the replay of (1, c + 1) does.  The sweep checks
    that premise on the family table once, groups the row a = 1 once (one
    stable argsort and one bincount give every S(1, v)), and replays the
    derivation once per distinct c from that grouping, under the same
    four-solution bound; a pair whose replay passed is settled without a
    scan.  Every other pair, and every pair of a table that fails the
    premise, runs its own ``reduction_trace(k, a, b)``, so the report equals
    the per-pair one, first failure included.
    """
    _check_k(k)
    _check_samples(samples)
    a, b = _sweep_pairs(k, samples)
    table = _family_table(k)
    d = dobbertin_exponent(k)
    settled = np.zeros(a.size, dtype=bool)
    if table.exponent == d:
        log, exp = _log_exp_tables(table.spec.n, table.spec.poly)
        # the pair (a, b) replays as (1, v) with v = b/a^d, i.e. c = v + 1
        v = np.where(b == 0, 0, exp[(log[b] - d * log[a]) % table.spec.order])
        lut = table.lut
        row = lut ^ lut[np.arange(lut.size) ^ 1]
        # S(1, w) is xs[bounds[w]:bounds[w + 1]]
        xs = np.argsort(row, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=lut.size))))
        passed = np.zeros(lut.size, dtype=bool)
        for w in np.unique(v).tolist():
            try:
                _derive(k, 1, w, _count_bound(
                    k, 1, w, frozenset(xs[bounds[w]:bounds[w + 1]].tolist())))
            except VerificationError:
                continue
            passed[w] = True
        settled = passed[v]
    rest = np.flatnonzero(~settled).tolist()
    report = _tally(f"reduction-replay[k={k}]", ((int(a[i]), int(b[i])) for i in rest),
                    lambda a, b: reduction_trace(k, a, b))
    return replace(report, instances=a.size)


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


def pi_image(w: MMWitness, a: int) -> int:
    """The inner map pi(a) = gamma*a^(2^(k-1)) + gamma^2*a^(2^k+1)."""
    A = _arith(w.spec.n, w.spec.poly)
    g2 = A.mul(w.gamma, w.gamma)
    return A.mul(w.gamma, A.frob(a, w.k - 1)) ^ A.mul(g2, A.mul(A.frob(a, w.k), a))


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
    g2 = A.mul(gamma, gamma)
    g3 = A.mul(g2, gamma)
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
    # the split coordinates must cover the whole field
    cover = {y ^ A.mul(omega, a) for y in sub_2k for a in sub_2k}
    if len(cover) != spec.size:
        raise VerificationError(
            "split-coordinates-cover",
            "y + omega*a does not enumerate the field", k=k)
    # fibers of the inner map
    fibers: dict[int, set[int]] = {}
    w_tmp = MMWitness(k, spec, gamma, alpha, omega, {})
    for a in sub_2k:
        fibers.setdefault(pi_image(w_tmp, a), set()).add(a)
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


def _split_offset(w: MMWitness, A: _Arith, a: int) -> int:
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
    pi_of = {a: pi_image(w, a) for a in sub_2k}
    offset_of = {a: _split_offset(w, A, a) for a in sub_2k}

    def check(y: int, a: int) -> None:
        x = y ^ A.mul(w.omega, a)
        lhs = A.subtrace(A.mul(g2, A.pow(x, d)), A.n)
        if lhs != A.subtrace(A.mul(y, pi_of[a]) ^ offset_of[a], 2 * k):
            raise VerificationError(
                "split-coordinate-form",
                "g(y + omega*a) differs from its split-coordinate form",
                k=k, y=y, a=a)

    return _tally(f"mm-decomposition[k={k}]",
                  ((y, a) for y in sub_2k for a in sub_2k), check)


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
    A = _arith(w.spec.n, w.spec.poly)
    k = w.k
    if A.frob(a0, 2 * k) != a0:
        raise ValueError(f"a0 {a0:#x} is not in the half-degree subfield")
    u = pi_image(w, a0)
    fiber = pi_fiber(w, u)
    coeff = A.frob(a0, k) ^ a0
    gi = A.inv(w.gamma)
    full = solve_linearized(w.spec, [(1, 2), (coeff, 1), (gi, 0)], 0)
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


def _fiber_sum(w: MMWitness, A: _Arith, u: int, v: int) -> int:
    k = w.k
    total = 0
    for a in pi_fiber(w, u):
        arg = _split_offset(w, A, a) ^ A.mul(v, a)
        total += 1 - 2 * A.subtrace(arg, 2 * k)
    return (1 << (2 * k)) * total


def mm_walsh_crosscheck(w: MMWitness, u: int, v: int) -> int:
    """Fiber-sum value of the coefficient at (u, v), checked two ways.

    The split-coordinate point (u, v) corresponds to the plain transform
    argument lam = u*omega + u + v; the value from the fiber sum must agree
    with the fast-transform coefficient at (lam, gamma^2) and respect the
    bound 2^(2k) * |fiber|.
    """
    A = _arith(w.spec.n, w.spec.poly)
    coef = _fiber_sum(w, A, u, v)
    lam = A.mul(u, w.omega) ^ u ^ v
    direct = int(_transform_row(w.k, A.mul(w.gamma, w.gamma))[lam])
    if coef != direct:
        raise VerificationError(
            "fiber-sum-equals-transform",
            "fiber-sum coefficient disagrees with the transform",
            k=w.k, u=u, v=v, fiber_sum=coef, transform=direct)
    if abs(coef) > (1 << (2 * w.k)) * len(pi_fiber(w, u)):
        raise VerificationError(
            "fiber-size-bound", "coefficient exceeds 2^(2k) * |fiber|",
            k=w.k, u=u, v=v)
    return coef


def mm_crosscheck_all(w: MMWitness) -> CheckReport:
    """Cross-check every (u, v) over the half-degree subfield grid."""
    sub_2k = _arith(w.spec.n, w.spec.poly).subfield(2 * w.k)
    return _tally(f"mm-walsh-crosscheck[k={w.k}]",
                  ((w, u, v) for u in sub_2k for v in sub_2k), mm_walsh_crosscheck)


def m4_sum_check(w: MMWitness) -> CheckReport:
    """Sign pattern of size-4 fibers and the trace stepping stones.

    The stepping stones Tr(alpha*gamma) = Tr_k(gamma*(alpha + alpha^(2^k)))
    = Tr_k(gamma^2) = 1 are verified unconditionally (size-4 fibers first
    occur at k = 3).  Then, for every u whose fiber has four members and
    every v, the four half-field trace bits must sum to 1 mod 2, forcing a
    3-against-1 sign split.  Four signs +-1 sum to +-2 exactly when an odd
    number of them are -1, so the check is that the fiber sum has magnitude
    exactly 2^(2k+1).
    """
    A = _arith(w.spec.n, w.spec.poly)
    k = w.k

    def stepping_stones() -> None:
        traces = (A.subtrace(A.mul(w.alpha, w.gamma), 2 * k),
                  A.subtrace(A.mul(w.gamma, w.alpha ^ A.frob(w.alpha, k)), k),
                  A.subtrace(A.mul(w.gamma, w.gamma), k))
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
    cases = [(stepping_stones,)] + [
        (four_term_sum, u, v) for u, members in sorted(w.pi_fibers.items())
        if len(members) == 4 for v in sub_2k]
    return _tally(f"mm-extremal-sum[k={k}]", cases, lambda step, *args: step(*args))


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
    """The fibers partition GF(2^(2k)): sizes sum to 2^(2k), all in {1,2,4}."""
    total = sum(len(m) for m in w.pi_fibers.values())
    expected = 1 << (2 * w.k)
    sizes = Counter(len(m) for m in w.pi_fibers.values())
    ok = total == expected and set(sizes) <= {1, 2, 4}
    return CheckReport(
        f"mm-fibers[k={w.k}]", len(w.pi_fibers), 0 if ok else 1,
        None if ok else f"partition broken: sizes {dict(sizes)}, total {total}")
