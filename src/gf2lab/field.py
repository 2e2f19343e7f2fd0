"""Exact arithmetic in binary finite fields GF(2^n).

Elements are plain Python integers: bit i of the integer is the coefficient
of x^i in the polynomial-basis representation.  A field is described by a
:class:`FieldSpec` (degree plus irreducible modulus) and every operation is a
pure function of its arguments, so specs and elements can be shared freely
across threads.

The module provides the four ring/field operations, absolute and relative
traces, Frobenius powers, and an exact solver for linearized equations
(sums of terms c_j * x^(2^(e_j))), which reduces to linear algebra over
GF(2).

Bulk arithmetic (power-map tables, the power structure of a table, the
proof replay) goes through one core, :class:`_Arith`: the cached
discrete-log / antilog tables of a fixed generator, with ops that take a
Python int or a numpy array.  It is the one place that turns logs into
elements.  The tables are built by :func:`_linear_map`, which applies
multiplication by a constant as a GF(2)-linear map of the bits.  The
scalar clmul path behind ``f_mul`` is kept independent of the tables and
serves as the public scalar API and as the test oracle for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable

import numpy as np

__all__ = [
    "FieldSpec",
    "FieldConstructionError",
    "field_make",
    "default_poly",
    "f_add",
    "f_mul",
    "f_pow",
    "f_inv",
    "frobenius",
    "trace_abs",
    "trace_rel",
    "solve_linearized",
]

MIN_DEGREE = 2
MAX_DEGREE = 24


class FieldConstructionError(ValueError):
    """Raised when a proposed field modulus is rejected."""


@dataclass(frozen=True)
class FieldSpec:
    """A binary field GF(2^n) in a fixed polynomial basis.

    Attributes
    ----------
    n : int
        Extension degree over GF(2); supported range 2..24.
    poly : int
        Irreducible modulus of degree n, encoded with bit i = coefficient
        of x^i (so bit n and bit 0 are always set).
    """

    n: int
    poly: int

    @property
    def size(self) -> int:
        """Number of field elements, 2^n."""
        return 1 << self.n

    @property
    def order(self) -> int:
        """Order of the multiplicative group, 2^n - 1."""
        return (1 << self.n) - 1


# ---------------------------------------------------------------------------
# scalar polynomial arithmetic over GF(2)
# ---------------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials (no reduction)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _polymod(v: int, poly: int) -> int:
    """Remainder of v modulo poly in GF(2)[x]."""
    dp = poly.bit_length() - 1
    dv = v.bit_length() - 1
    while dv >= dp:
        v ^= poly << (dv - dp)
        dv = v.bit_length() - 1
    return v


def _polygcd(a: int, b: int) -> int:
    """Polynomial gcd over GF(2) (bit-encoded)."""
    while b:
        a, b = b, _polymod(a, b)
    return a


def _mul(poly: int, a: int, b: int) -> int:
    return _polymod(_clmul(a, b), poly)


def _pow(poly: int, a: int, d: int) -> int:
    acc = 1
    base = a
    while d:
        if d & 1:
            acc = _mul(poly, acc, base)
        base = _mul(poly, base, base)
        d >>= 1
    return acc


def _reducible_factor_degree(poly: int, n: int) -> int | None:
    """Smallest degree of an irreducible factor of poly, or None.

    Uses the classical criterion: poly of degree n is irreducible iff
    gcd(poly, x^(2^i) - x) = 1 for every 1 <= i <= n/2.  The smallest i for
    which the gcd is nontrivial is exactly the degree of the smallest
    irreducible factor, because x^(2^i) - x is the product of all
    irreducible polynomials whose degree divides i.
    """
    x = 0b10
    xq = x
    for i in range(1, n // 2 + 1):
        xq = _polymod(_clmul(xq, xq), poly)
        g = _polygcd(poly, xq ^ x)
        if g != 1:
            return i
    return None


@lru_cache(maxsize=None)
def default_poly(n: int) -> int:
    """Lexicographically least irreducible polynomial of degree n.

    Candidates are ordered by their integer encoding; only odd encodings
    (constant term 1) can be irreducible for n >= 1.
    """
    for p in range((1 << n) | 1, 1 << (n + 1), 2):
        if _reducible_factor_degree(p, n) is None:
            return p
    raise FieldConstructionError(f"no irreducible polynomial of degree {n}")  # pragma: no cover


def field_make(n: int, poly: int | None = None) -> FieldSpec:
    """Construct a validated GF(2^n) description.

    Parameters
    ----------
    n : int
        Extension degree, 2 <= n <= 24.
    poly : int, optional
        Modulus to use.  When omitted, the lexicographically least
        irreducible polynomial of degree n is selected, so the default
        field for a given n is always the same.

    Returns
    -------
    FieldSpec

    Raises
    ------
    ValueError
        If n is out of the supported range.
    FieldConstructionError
        If poly is malformed (wrong degree, even constant term) or
        reducible; the error names the degree of a nontrivial factor.
    """
    if not MIN_DEGREE <= n <= MAX_DEGREE:
        raise ValueError(f"degree {n} outside supported range {MIN_DEGREE}..{MAX_DEGREE}")
    if poly is None:
        poly = default_poly(n)
    else:
        if poly.bit_length() != n + 1:
            raise FieldConstructionError(
                f"modulus {poly:#x} does not have degree {n}")
        if not poly & 1:
            raise FieldConstructionError(
                f"modulus {poly:#x} has zero constant term, hence the factor x")
        i = _reducible_factor_degree(poly, n)
        if i is not None:
            raise FieldConstructionError(
                f"modulus {poly:#x} is reducible: it has an irreducible factor of degree {i}")
    return FieldSpec(n, poly)


def _check_element(s: FieldSpec, a: int, name: str = "element") -> None:
    if not 0 <= a < (1 << s.n):
        raise ValueError(f"{name} {a:#x} out of range for GF(2^{s.n})")


# ---------------------------------------------------------------------------
# field operations
# ---------------------------------------------------------------------------

def f_add(s: FieldSpec, a: int, b: int) -> int:
    """Field addition: bitwise xor of the coefficient vectors."""
    _check_element(s, a)
    _check_element(s, b)
    return a ^ b


def f_mul(s: FieldSpec, a: int, b: int) -> int:
    """Field multiplication: polynomial product reduced modulo s.poly."""
    _check_element(s, a)
    _check_element(s, b)
    return _mul(s.poly, a, b)


def f_pow(s: FieldSpec, a: int, d: int) -> int:
    """a^d by square-and-multiply; 0^0 is defined as 1.

    The exponent may be any non-negative integer; exponents are reduced
    implicitly by the group order through the arithmetic itself.
    """
    _check_element(s, a)
    if d < 0:
        raise ValueError("negative exponents are not defined; use f_inv")
    return _pow(s.poly, a, d)


def f_inv(s: FieldSpec, a: int) -> int:
    """Multiplicative inverse of a nonzero element (Fermat: a^(2^n - 2))."""
    _check_element(s, a)
    if a == 0:
        raise ValueError("zero has no multiplicative inverse")
    return _pow(s.poly, a, s.size - 2)


def frobenius(s: FieldSpec, a: int, e: int) -> int:
    """e-fold Frobenius power a^(2^e), computed by e squarings."""
    _check_element(s, a)
    if e < 0:
        raise ValueError("Frobenius power must be non-negative")
    for _ in range(e % s.n):
        a = _mul(s.poly, a, a)
    return a


def trace_abs(s: FieldSpec, a: int) -> int:
    """Absolute trace a + a^2 + a^4 + ... + a^(2^(n-1)), always 0 or 1."""
    _check_element(s, a)
    acc = 0
    x = a
    for _ in range(s.n):
        acc ^= x
        x = _mul(s.poly, x, x)
    return acc


def trace_rel(s: FieldSpec, k: int, a: int) -> int:
    """Relative trace from GF(2^n) onto its subfield GF(2^k).

    Computes sum_{i<n/k} a^(2^(k*i)).  The result is fixed by the k-fold
    Frobenius, i.e. lies in the GF(2^k) subfield.

    Raises
    ------
    ValueError
        If k is not a positive divisor of n.
    """
    _check_element(s, a)
    if k <= 0 or s.n % k:
        raise ValueError(f"GF(2^{k}) is not a subfield of GF(2^{s.n})")
    acc = 0
    x = a
    for _ in range(s.n // k):
        acc ^= x
        x = frobenius(s, x, k)
    return acc


# ---------------------------------------------------------------------------
# linearized equations
# ---------------------------------------------------------------------------

def solve_linearized(
    s: FieldSpec,
    coeffs: Iterable[tuple[int, int]],
    rhs: int,
) -> set[int]:
    """Exact solution set of  sum_j c_j * x^(2^(e_j)) = rhs.

    Each term is given as the pair (c_j, e_j) with c_j a field element and
    e_j the Frobenius power of the monomial.  The left side is a GF(2)-linear
    map of x, so expressing it as an n-by-n bit matrix in the polynomial
    basis turns the equation into an affine linear system; the solution set
    is either empty or a coset of the kernel, hence has size a power of two.

    Returns
    -------
    set of int
        All solutions (possibly empty).
    """
    _check_element(s, rhs, "rhs")
    n = s.n
    terms = [(c, e) for c, e in coeffs]
    for c, _ in terms:
        _check_element(s, c, "coefficient")
    # column j = image of basis vector x^j under the linearized map
    cols = []
    for j in range(n):
        img = 0
        for c, e in terms:
            img ^= _mul(s.poly, c, frobenius(s, 1 << j, e))
        cols.append(img)
    # row i of the system: bits over unknowns j, augmented with rhs bit i
    rows = []
    for i in range(n):
        mask = 0
        for j in range(n):
            mask |= ((cols[j] >> i) & 1) << j
        rows.append([mask, (rhs >> i) & 1])
    # reduced row echelon form over GF(2)
    pivot_of_col: dict[int, int] = {}  # pivot column -> row index
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, n) if (rows[i][0] >> col) & 1), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(n):
            if i != r and (rows[i][0] >> col) & 1:
                rows[i][0] ^= rows[r][0]
                rows[i][1] ^= rows[r][1]
        pivot_of_col[col] = r
        r += 1
    if any(mask == 0 and aug for mask, aug in rows):
        return set()  # 0 = 1: inconsistent
    free_cols = [j for j in range(n) if j not in pivot_of_col]
    # particular solution: free variables zero
    particular = 0
    for col, ri in pivot_of_col.items():
        if rows[ri][1]:
            particular |= 1 << col
    # kernel basis: one vector per free variable
    kernel = []
    for fc in free_cols:
        v = 1 << fc
        for col, ri in pivot_of_col.items():
            if (rows[ri][0] >> fc) & 1:
                v |= 1 << col
        kernel.append(v)
    sols = {particular}
    for kv in kernel:
        sols |= {x ^ kv for x in sols}
    return sols


# ---------------------------------------------------------------------------
# log/exp tables: the vectorized arithmetic core
# ---------------------------------------------------------------------------

def _linear_map(a: np.ndarray, cols) -> np.ndarray:
    """The GF(2)-linear map whose basis vector x^i has the image cols[i],
    applied elementwise to the int64 array a: the xor of the cols[i] over
    the set bits i of each element."""
    acc = np.zeros_like(a)
    for i, col in enumerate(cols):
        acc ^= ((a >> i) & 1) * col
    return acc


def _factorize(m: int) -> list[int]:
    """Distinct prime factors of m by trial division (m <= 2^24)."""
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


@lru_cache(maxsize=None)
def _generator(n: int, poly: int) -> int:
    """Smallest multiplicative generator of GF(2^n)* for the given modulus."""
    order = (1 << n) - 1
    primes = _factorize(order)
    for g in range(2, 1 << n):
        if all(_pow(poly, g, order // p) != 1 for p in primes):
            return g
    raise RuntimeError("no generator found")  # pragma: no cover


@lru_cache(maxsize=8)
def _log_exp_tables(n: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) tables of the smallest generator g, as read-only int64 arrays.

    exp has length 2^n - 1 with exp[i] = g^i; log has length 2^n with
    log[exp[i]] = i and log[0] = -1.  The arrays are cached and shared by
    every caller, hence frozen.
    """
    order = (1 << n) - 1
    exp = np.empty(order, dtype=np.int64)
    exp[0] = 1
    # block doubling: exp[m:2m] = exp[:m] * g^m
    m = 1
    gm = _generator(n, poly)
    while m < order:
        step = min(m, order - m)
        # multiplication by g^m maps x^i to g^m * x^i
        exp[m:m + step] = _linear_map(exp[:step], [_mul(poly, gm, 1 << i) for i in range(n)])
        gm = _mul(poly, gm, gm)
        m *= 2
    log = np.full(1 << n, -1, dtype=np.int64)
    log[exp] = np.arange(order)
    exp.flags.writeable = False
    log.flags.writeable = False
    return log, exp


class _Arith:
    """Discrete-log arithmetic of one field, on Python ints and numpy arrays alike.

    The ops read the cached read-only log/exp tables and apply elementwise,
    so one identity written with them serves a scalar check and an array
    pass over many cases.  Zero is handled by the nonzero mask, without a
    branch: ``mul``, ``pow`` and ``frob`` map it to 0 (so ``pow`` at d = 0
    leaves 0^0 to the caller), and ``inv`` takes nonzero elements only.  A
    scalar op returns a numpy integer.
    """

    def __init__(self, spec: FieldSpec):
        self.n = spec.n
        self.order = spec.order
        self.log, self.exp = _log_exp_tables(spec.n, spec.poly)

    @cached_property
    def root(self) -> np.ndarray:
        """root[e] is the even root of x^2 + x = e, or -1 when there is none.

        x and x + 1 share the image, so each image of an even x is hit once.
        Built on first use, read-only: callers that need no quadratic root
        (a power-map table, its spectra) never pay for it.
        """
        xs = np.arange(0, 1 << self.n, 2)
        root = np.full(1 << self.n, -1, dtype=np.int64)
        root[self.mul(xs, xs) ^ xs] = xs
        root.flags.writeable = False
        return root

    def mul(self, a, b):
        return self.exp[(self.log[a] + self.log[b]) % self.order] * ((a != 0) & (b != 0))

    def inv(self, a):
        return self.exp[-self.log[a] % self.order]

    def pow(self, a, d: int):
        return self.exp[self.log[a] * (d % self.order) % self.order] * (a != 0)

    def frob(self, a, e: int):
        return self.exp[(self.log[a] << e) % self.order] * (a != 0)

    def sqrt(self, a):
        return self.frob(a, self.n - 1)

    def quad_roots(self, const: int) -> frozenset[int]:
        """Roots of x^2 + x + const = 0 (either two or none)."""
        r = int(self.root[const])
        return frozenset() if r < 0 else frozenset((r, r ^ 1))

    def subfield(self, m: int) -> tuple[int, ...]:
        """All elements fixed by the m-fold Frobenius, in increasing order.

        They form GF(2^j), j = gcd(m, n): 0 and the 2^j - 1 powers of
        g^((2^n - 1) / (2^j - 1)), one stride of the exp table.
        """
        step = self.order // ((1 << gcd(m, self.n)) - 1)
        return tuple(sorted([0] + self.exp[::step].tolist()))

    def subtrace(self, a, m: int):
        """Absolute trace of the GF(2^m) subfield, for elements lying in it."""
        acc = x = a
        for _ in range(m - 1):
            x = self.mul(x, x)
            acc = acc ^ x
        return acc


@lru_cache(maxsize=8)
def _arith(n: int, poly: int) -> _Arith:
    return _Arith(FieldSpec(n, poly))
