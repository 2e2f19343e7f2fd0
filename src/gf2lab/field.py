"""Exact arithmetic in binary finite fields GF(2^n).

Elements are plain Python integers: bit i of the integer is the coefficient
of x^i in the polynomial-basis representation.  A field is described by a
:class:`FieldSpec` (degree plus irreducible modulus) and every operation is a
pure function of its arguments, so specs and elements can be shared freely
across threads.  One check, :func:`_check_elements`, states the element rules
for the scalar API, ``theorems`` and ``spectra``: an integer (never a float, a
string or a boolean) in [0, 2^n), nonzero for ``f_inv``, ``difference_row`` and
``walsh_row``.  :func:`_check_int` states the one integer-parameter rule.

The module provides the four ring/field operations, absolute and relative
traces, Frobenius powers, and an exact solver for linearized equations
(sums of terms c_j * x^(2^(e_j))), which reduces the images of the basis
over GF(2).

Bulk arithmetic (power-map tables, the power structure of a table, the
proof replay) goes through one core, :class:`_Arith`: the cached
discrete-log / antilog tables of a fixed generator, with ops that take a
Python int or a numpy array; ``spectra`` also indexes its tables directly
(x^d, a table's exponent, the orbit pass's representatives).  Its log/exp
tables, its quadratic-root table and the Walsh trace masks are GF(2)-linear
maps of the bits, tabulated by one kernel, :func:`_span`.  The scalar clmul
path behind ``f_mul``, the public scalar API, is kept independent of the
tables and is their test oracle.  Every trace on a fast path is a parity
against the masks of :func:`_trace_basis`.
"""

from __future__ import annotations

import operator
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
    return next(p for p in range((1 << n) | 1, 1 << (n + 1), 2)
                if _reducible_factor_degree(p, n) is None)


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
        If n is None or out of the supported range (:func:`_check_int`).
    TypeError
        If n or poly is not an integer (``operator.index`` refuses it).
    FieldConstructionError
        If poly is malformed (negative, wrong degree, even constant term)
        or reducible; the error names the degree of a nontrivial factor.
    """
    n = _check_int(n, "degree n", MIN_DEGREE, MAX_DEGREE)
    if poly is None:
        poly = default_poly(n)
    else:
        poly = operator.index(poly)
        if poly < 0:
            raise FieldConstructionError(f"modulus {poly:#x} is negative")
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


def _check_elements(s: FieldSpec, a, name: str = "value", *, nonzero: bool = False) -> None:
    """Refuse an int or an array holding a value that is no integer in [0, 2^n)
    ([1, 2^n) if nonzero), naming the first: numpy would wrap a negative index,
    truncate a float and take booleans for a mask.  A list's wide ints stay ints."""
    if type(a) is int and nonzero <= a < 1 << s.n:
        return  # a Python int in range costs one comparison, no numpy call
    if (arr := np.asarray(a)).dtype.kind not in "iu":
        arr = arr if arr is a else np.array(a, dtype=object)
        for v in arr.flat:  # shown as a Python value: 1.0, not np.float64(1.0)
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} {np.asarray(v).tolist()!r} is not an integer")
    bad = arr[(arr < nonzero) | (arr >= 1 << s.n)]
    if bad.size:
        what = "a nonzero element" if nonzero else "an element"
        raise ValueError(f"{name} {int(bad.flat[0]):#x} is not {what} of GF(2^{s.n})")


def _check_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int (a float raises TypeError); None or out of [lo, hi] raises ValueError."""
    if value is None or (value := operator.index(value)) < lo or hi is not None and value > hi:
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value}")
    return value


# ---------------------------------------------------------------------------
# field operations
# ---------------------------------------------------------------------------

def f_add(s: FieldSpec, a: int, b: int) -> int:
    """Field addition: bitwise xor of the coefficient vectors."""
    _check_elements(s, a)
    _check_elements(s, b)
    return a ^ b


def f_mul(s: FieldSpec, a: int, b: int) -> int:
    """Field multiplication: polynomial product reduced modulo s.poly."""
    _check_elements(s, a)
    _check_elements(s, b)
    return _mul(s.poly, a, b)


def f_pow(s: FieldSpec, a: int, d: int) -> int:
    """a^d by square-and-multiply; 0^0 is defined as 1.

    The exponent may be any non-negative integer; exponents are reduced
    implicitly by the group order through the arithmetic itself.
    """
    _check_elements(s, a)
    return _pow(s.poly, a, _check_int(d, "exponent", 0))


def f_inv(s: FieldSpec, a: int) -> int:
    """Multiplicative inverse a^(2^n - 2) (Fermat) of an integer a in [1, 2^n);
    any other a, 0 or a float included, raises ValueError."""
    _check_elements(s, a, nonzero=True)
    return _pow(s.poly, a, s.size - 2)


def frobenius(s: FieldSpec, a: int, e: int) -> int:
    """e-fold Frobenius power a^(2^e), computed by e squarings."""
    _check_elements(s, a)
    for _ in range(_check_int(e, "Frobenius power", 0) % s.n):
        a = _mul(s.poly, a, a)
    return a


def trace_abs(s: FieldSpec, a: int) -> int:
    """Absolute trace a + a^2 + a^4 + ... + a^(2^(n-1)), always 0 or 1."""
    _check_elements(s, a)
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
        If k is not a positive divisor of n (:func:`_check_int` reads k).
    """
    _check_elements(s, a)
    if s.n % (k := _check_int(k, "subfield degree k", 1)):
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
    e_j the Frobenius power of the monomial.  The left side L is a
    GF(2)-linear map of x, so the solution set is either empty or a coset of
    its kernel, hence has size a power of two.  One reduction finds both:
    each basis image L(x^j), tagged by its preimage x^j, is reduced against
    the images kept so far by their leading bits; a zero image puts its tag
    in the kernel, a nonzero one is kept.  rhs reduces the same way, to a
    particular solution, or to a nonzero remainder when there is none.

    Returns
    -------
    set of int
        All solutions (possibly empty).
    """
    _check_elements(s, rhs, "rhs")
    terms = [(c, e) for c, e in coeffs]
    for c, _ in terms:
        _check_elements(s, c, "coefficient")
    kept: dict[int, tuple[int, int]] = {}  # bit length -> (image, preimage)

    def reduce(img: int, tag: int) -> tuple[int, int]:
        while img and (hit := kept.get(img.bit_length())):
            img, tag = img ^ hit[0], tag ^ hit[1]
        return img, tag

    kernel = []
    for j in range(s.n):
        img = 0
        for c, e in terms:
            img ^= _mul(s.poly, c, frobenius(s, 1 << j, e))
        img, tag = reduce(img, 1 << j)
        if img:
            kept[img.bit_length()] = img, tag
        else:
            kernel.append(tag)
    rest, particular = reduce(rhs, 0)
    if rest:
        return set()
    sols = {particular}
    for kv in kernel:
        sols |= {x ^ kv for x in sols}
    return sols


# ---------------------------------------------------------------------------
# log/exp tables: the vectorized arithmetic core
# ---------------------------------------------------------------------------

def _span(cols) -> np.ndarray:
    """out[v] is the image of v under the GF(2)-linear map x^i -> cols[i], for
    every v < 2^len(cols): filled by doubling, as v + x^i maps to out[v] ^ cols[i]."""
    out = np.zeros(1 << len(cols), dtype=np.int64)
    for i, col in enumerate(cols):
        out[1 << i : 2 << i] = out[: 1 << i] ^ col
    return out


def _linear_map(a: np.ndarray, cols) -> np.ndarray:
    """The GF(2)-linear map whose basis vector x^i has the image cols[i],
    applied elementwise to the int64 array a of elements below 2^len(cols):
    one gather per byte of a, from the span of that byte's columns."""
    acc = np.zeros_like(a)
    for j in range(0, len(cols), 8):
        acc ^= _span(cols[j:j + 8])[(a >> j) & 255]
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
    return next(g for g in range(2, 1 << n) if all(_pow(poly, g, order // p) != 1 for p in primes))


@lru_cache(maxsize=8)
def _log_exp_tables(n: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    """(log, exp) tables of the smallest generator g, as read-only int64 arrays.

    exp has length 2^n - 1 with exp[i] = g^i; log has length 2^n with
    log[exp[i]] = i and log[0] = -1.  The arrays are cached and shared by
    every caller, hence frozen.
    """
    order = (1 << n) - 1
    exp = np.ones(order, dtype=np.int64)
    gm = _generator(n, poly)
    for t in range(n):
        # block doubling: exp[m:2m] = exp[:m] * g^m, m = 2^t, a GF(2)-linear map of exp[:m]
        m = 1 << t
        exp[m:2 * m] = _linear_map(exp[:m], [_mul(poly, gm, 1 << i) for i in range(n)])[:order - m]
        gm = _mul(poly, gm, gm)
    log = np.full(1 << n, -1, dtype=np.int64)
    log[exp] = np.arange(order)
    exp.flags.writeable = False
    log.flags.writeable = False
    return log, exp


@lru_cache(maxsize=None)
def _trace_basis(n: int, poly: int) -> tuple[int, ...]:
    """Row i is the mask M with parity(M & y) = Tr(x^i * y) for every y.  Bit j
    is Tr(x^(i+j)): the rows are n-bit windows of the scalar traces of x^0 ..
    x^(2n-2), and no log/exp table is built."""
    s = FieldSpec(n, poly)
    bits = sum(trace_abs(s, _polymod(1 << j, poly)) << j for j in range(2 * n - 1))
    return tuple((bits >> i) & (s.size - 1) for i in range(n))


@lru_cache(maxsize=None)
def _subtrace_mask(n: int, poly: int, m: int) -> int:
    """The mask M with parity(M & z) = Tr_m(z) for every z in the GF(2^m) subfield.

    M is the mask of theta = beta / Tr_{n/m}(beta), beta the least basis bit
    off the kernel of the (onto) relative trace: Tr(theta * z) = Tr_m(z) as
    Tr_{n/m}(theta) = 1.  theta leans on no basis that a check certifies.
    """
    s = FieldSpec(n, poly)
    t, beta = next((t, 1 << i) for i in range(n) if (t := trace_rel(s, m, 1 << i)))
    return int(_linear_map(np.array(f_mul(s, beta, f_inv(s, t))), _trace_basis(n, poly)))


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
        self.poly = spec.poly
        self.order = spec.order
        self.log, self.exp = _log_exp_tables(spec.n, spec.poly)

    @cached_property
    def root(self) -> np.ndarray:
        """root[e] is the even root of x^2 + x = e, or -1 when there is none.

        x -> x^2 + x is GF(2)-linear with kernel {0, 1}, so the span of its
        images of x^1 .. x^(n-1) holds the image of each even x once, in the
        order of x; no product is taken.  Built on first use, read-only:
        callers that need no quadratic root (a power-map table, its spectra)
        never pay for it.
        """
        root = np.full(1 << self.n, -1, dtype=np.int64)
        cols = [_polymod(1 << 2 * i, self.poly) ^ (1 << i) for i in range(1, self.n)]
        root[_span(cols)] = np.arange(0, 1 << self.n, 2)
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

    def subfield(self, m: int) -> tuple[int, ...]:
        """All elements fixed by the m-fold Frobenius, in increasing order.

        They form GF(2^j), j = gcd(m, n): 0 and the 2^j - 1 powers of
        g^((2^n - 1) / (2^j - 1)), one stride of the exp table.
        """
        step = self.order // ((1 << gcd(m, self.n)) - 1)
        return tuple(sorted([0] + self.exp[::step].tolist()))

    def subtrace(self, a, m: int):
        """Absolute trace (int64 0/1) of the GF(2^m) subfield, for elements lying in it."""
        return (np.bitwise_count(a & _subtrace_mask(self.n, self.poly, m)) & 1).astype(np.int64)


@lru_cache(maxsize=8)
def _arith(n: int, poly: int) -> _Arith:
    return _Arith(FieldSpec(n, poly))
