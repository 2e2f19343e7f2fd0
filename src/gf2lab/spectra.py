"""Difference distribution tables, Walsh spectra, and classification flags.

All sweeps operate on a :class:`FunctionTable` (a full lookup table of a map
GF(2^n) -> GF(2^n)) and are exact: counts and transform coefficients are
integers, never floats.  Power-map tables, and the power structure of
any table, are computed through the table-backed arithmetic of
:mod:`gf2lab.field`.  The Walsh sweep runs one fast Walsh-Hadamard
transform per component b, which brings the total cost to about
n * 2^(2n) bit operations instead of the 2^(3n) of the naive triple sum.
A pass that fills more entries than a full sweep over GF(2^15) needs
``deep=True`` (``--deep``), as decided for every caller by
:func:`require_desk_scale`: every full sweep with n >= 16, and an orbit
Walsh pass whose gcd(e, 2^n - 1) rows are too many.

Tables with an exponent (:attr:`FunctionTable.exponent`, read from the
table, or from d for :func:`build_lut`'s x^d) go through the power-map
orbit engine, :func:`power_delta` and :func:`power_walsh_spectrum`, whose
docstrings give the derivation; other tables go through the full sweeps.
The named sweeps (:func:`differential_uniformity`, :func:`ddt_rows`,
:func:`walsh_spectrum`, :func:`walsh_row`) stay full sweeps whatever the
table, and serve as the oracle the orbit engine is tested against.
:func:`classify` and ``analyze`` choose between the two in one place, by
the table's exponent.  Every difference row is a :class:`DifferenceRow`,
and only its ``sets`` groups a row into the solution sets the replay reads.

Every sweep runs on one thread: the Walsh sweeps transform fixed-size
blocks of components in place and merge them into one offset histogram,
so their results do not depend on the block size.  A block holds one
component per column, in the narrowest integer dtype that holds +-2^n
(int16 up to n = 14, int32 above), so every butterfly level of the
transform streams runs at least one block row long.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator

import numpy as np

from .field import FieldSpec, _arith, _mul, trace_abs

__all__ = [
    "FunctionTable",
    "DifferenceRow",
    "WalshSpectrum",
    "SpectrumSummary",
    "build_lut",
    "lut_from_values",
    "differential_uniformity",
    "ddt_rows",
    "difference_row",
    "walsh_spectrum",
    "walsh_row",
    "power_delta",
    "power_walsh_spectrum",
    "nonlinearity",
    "summarize",
    "classify",
    "require_desk_scale",
]

# DDT counts or Walsh coefficients a pass may fill without deep: those of a
# full sweep over GF(2^15), the largest field a full sweep runs on by default.
DESK_ENTRIES = ((1 << 15) - 1) << 15
# Walsh coefficients per transform block (one column when a column is
# larger).  An int16 block and its mask product take 512 KiB each.  Full
# sweeps of a random table, best of 3, at 2^16 / 2^17 / 2^18 / 2^19
# coefficients: n = 11 took 19.0 / 16.6 / 15.6 / 17.4 ms, n = 12 90 / 75 /
# 67 / 68 ms, n = 13 492 / 370 / 307 / 294 ms (2-vCPU Xeon, numpy 2.4).
WALSH_BLOCK_COEFFS = 1 << 18


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """A function GF(2^n) -> GF(2^n) as an exhaustive lookup table.

    ``lut[i]`` is the image of the element with integer encoding i; the
    array has length 2^n and dtype int64, and is read-only when made by
    :func:`build_lut` or :func:`lut_from_values`.
    """

    spec: FieldSpec
    lut: np.ndarray

    @cached_property
    def exponent(self) -> int | None:
        """The e in [0, 2^n - 1) with f(g*x) = g^e * f(x) for every x, or None.

        g is the generator of the log/exp tables, so by induction
        f(c*x) = c^e * f(x) for every c != 0: the one premise of the
        power-map orbit engine and the replay sweep, met by every x^d and
        c*x^d (c != 0), with e = d mod 2^n - 1, whatever made the table.
        Tables with an image 0 off 0 (the zero map fits every e), or with
        f(0) != 0 (which forces e = 0) and not constant off 0, get None
        without the log/exp tables; the others take one pass over the logs
        of f(g^i).  Computed once, so the lut must not change afterwards;
        :func:`build_lut` fills it in from d without that pass.
        """
        s, lut = self.spec, self.lut
        if not lut[1:].all() or (lut[0] and (lut[2:] != lut[1]).any()):
            return None
        A = _arith(s.n, s.poly)
        logs = A.log[lut[A.exp]]
        e = int(logs[1] - logs[0]) % s.order
        # logs[i] = logs[0] + i*e; the wrap from g^(2^n-2) to g^0 holds
        # because (2^n - 1)*e = 0 mod 2^n - 1
        steps = np.arange(s.order, dtype=np.int64) * e
        steps += logs[0]
        steps %= s.order
        return e if np.array_equal(logs, steps) else None


@dataclass(frozen=True, eq=False)
class DifferenceRow:
    """The row of one difference a != 0 of the difference distribution table:
    ``values[x]`` is the derivative D_a f(x) = f(x) + f(x + a), and
    ``counts[b]`` the size of S(a, b) = {x : D_a f(x) = b}; every count is
    even (solutions come in pairs {x, x + a}) and the row sums to 2^n."""

    a: int
    counts: np.ndarray
    values: np.ndarray

    def sets(self, bs) -> tuple[np.ndarray, np.ndarray]:
        """``(sols, valid)``: row i of sols is S(a, bs[i]) in increasing order,
        padded with 0 to max(4, counts.max()) slots, and valid marks the
        filled slots.  A b that is not an integer in [0, 2^n) raises
        ValueError."""
        bs, counts = np.asarray(bs), self.counts
        if bs.size == 0:  # np.asarray([]) is float64
            bs = bs.astype(np.int64)
        if bs.dtype.kind not in "iu" or np.any((bs < 0) | (bs >= counts.size)):
            raise ValueError("b is not a field element")
        # the one sort of a row, made only here: S(a, b) = xs[starts[b]:starts[b] + counts[b]]
        xs = np.argsort(self.values, kind="stable")
        starts = np.cumsum(counts) - counts
        slots = np.arange(max(4, counts.max()))
        valid = slots < counts[bs, None]
        return np.where(valid, xs[np.minimum(starts[bs, None] + slots, counts.size - 1)], 0), valid


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Result of a Walsh sweep over every component b != 0.

    Attributes
    ----------
    max_abs : int
        max |f^(a,b)| over all a and all b != 0.
    histogram : Counter
        Multiplicity of each coefficient value over all a and b != 0; the
        multiplicities sum to 2^n * (2^n - 1).
    """

    max_abs: int
    histogram: Counter


@dataclass(frozen=True, eq=False)
class SpectrumSummary:
    """Aggregate analysis results for one function.

    ``is_ab`` is None for even n: the almost-bent property is defined only
    on odd-degree fields.
    """

    delta: int
    nl: int
    walsh_max: int
    lam: Counter
    is_permutation: bool
    is_apn: bool
    is_ab: bool | None


# ---------------------------------------------------------------------------
# lookup-table construction
# ---------------------------------------------------------------------------

def build_lut(s: FieldSpec, d: int) -> FunctionTable:
    """Materialize the power map x -> x^d as a read-only FunctionTable.

    Each x != 0 is read off the log/exp tables of :mod:`gf2lab.field` as
    x^d = exp[log(x) * d mod 2^n - 1].  With the 0^0 = 1 convention, d = 0
    yields the constant-1 table; any d > 0 maps 0 to 0.
    """
    if d < 0:
        raise ValueError("exponent must be non-negative")
    A = _arith(s.n, s.poly)
    # log[0] = -1 lands on some element, which lut[0] then overwrites
    lut = A.exp[A.log * (d % A.order) % A.order]
    lut[0] = d == 0
    lut.flags.writeable = False
    f = FunctionTable(s, lut)
    # x^d meets f(g*x) = g^e * f(x) with e = d mod 2^n - 1 (d = 0 included),
    # so the exponent property need not rederive it from the table
    f.__dict__["exponent"] = d % A.order
    return f


def lut_from_values(s: FieldSpec, values) -> FunctionTable:
    """Wrap an explicit value sequence as a FunctionTable, validating it.

    The values are copied, so the table can be frozen without freezing the
    caller's array.  Values whose array dtype is not an integer kind
    (floats, strings, booleans, objects) raise ValueError, as do Python
    ints outside [0, 2^n), however wide.
    """
    lut = np.array(values)
    if lut.dtype.kind not in "iu":
        # numpy holds Python ints beyond 64 bits (or past int64 next to
        # others) as object or float64 entries; only such input pays a pass
        wide = lut.ndim == 1 and all(type(v) is int for v in values)
        if wide and not all(0 <= v < s.size for v in values):
            raise ValueError("lookup table entry out of range")
        raise ValueError(f"lookup table entries must be integers, got dtype {lut.dtype}")
    if lut.shape != (s.size,):
        raise ValueError(f"lookup table must have exactly {s.size} entries, got {lut.size}")
    if lut.size and (lut.min() < 0 or lut.max() >= s.size):
        raise ValueError("lookup table entry out of range")
    lut = lut.astype(np.int64, copy=False)
    lut.flags.writeable = False
    return FunctionTable(s, lut)


# ---------------------------------------------------------------------------
# difference distribution
# ---------------------------------------------------------------------------

def require_desk_scale(n: int, deep: bool, exponent: int | None = None) -> None:
    """Raise ValueError, unless deep, for a pass over GF(2^n) past DESK_ENTRIES.

    A pass fills rows * 2^n entries, DDT counts or Walsh coefficients.  A
    full sweep has rows = 2^n - 1, so it needs deep from n = 16 on.  The
    orbit Walsh pass of a table with the given exponent has rows =
    gcd(exponent, 2^n - 1), one per coset of the exponent's powers (see
    :func:`power_walsh_spectrum`).  The one row of :func:`power_delta`
    fills 2^n entries, under the budget at every supported degree.
    """
    order = (1 << n) - 1
    rows = order if exponent is None else gcd(exponent, order)
    if rows << n > DESK_ENTRIES and not deep:
        what = "full sweep" if rows == order else f"orbit pass of {rows} rows"
        raise ValueError(
            f"{what} over GF(2^{n}) needs deep=True (--deep on the command "
            f"line), as does any pass larger than a full sweep over GF(2^15)")


def _ddt_row(lut: np.ndarray, idx: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, values)`` of the row a of the table lut; idx is arange(2^n)."""
    values = lut ^ lut[idx ^ a]
    return np.bincount(values, minlength=lut.size), values


def difference_row(f: FunctionTable, a: int) -> DifferenceRow:
    """The row a of f's difference table; an a outside [1, 2^n) raises ValueError."""
    if not 0 < a < f.spec.size:
        raise ValueError("difference a must be a nonzero field element")
    return DifferenceRow(a, *_ddt_row(f.lut, np.arange(f.spec.size), a))


def ddt_rows(f: FunctionTable) -> Iterator[DifferenceRow]:
    """Stream the difference distribution table one row (one a != 0) at a time."""
    idx = np.arange(f.spec.size)
    for a in range(1, f.spec.size):
        yield DifferenceRow(a, *_ddt_row(f.lut, idx, a))


def differential_uniformity(f: FunctionTable, *, deep: bool = False) -> int:
    """Differential uniformity: max over a != 0 and all b of |{x : f(x+a)+f(x) = b}|.

    The sweep is one pass per difference a, accumulating the counts of
    f(x) + f(x+a) with a single bincount; :func:`ddt_rows` streams the
    rows themselves.
    """
    s = f.spec
    require_desk_scale(s.n, deep)
    idx = np.arange(s.size)
    return max(int(_ddt_row(f.lut, idx, a)[0].max()) for a in range(1, s.size))


# ---------------------------------------------------------------------------
# Walsh spectrum
# ---------------------------------------------------------------------------

def _trace_masks(s: FieldSpec) -> np.ndarray:
    """masks[a] = bitmask m with parity(m & y) = Tr(a*y) for all y.

    Built from the trace bilinear form: bit j of masks[2^i] is
    Tr(x^(i+j)), and masks is completed by linearity over the bits of a.
    """
    n = s.n
    # Tr(x^m) for m = 0 .. 2n-2
    tr_of_xm = []
    xm = 1
    for _ in range(2 * n - 1):
        tr_of_xm.append(trace_abs(s, xm))
        xm = _mul(s.poly, xm, 0b10)
    basis = np.zeros(n, dtype=np.int64)
    for i in range(n):
        m = 0
        for j in range(n):
            m |= tr_of_xm[i + j] << j
        basis[i] = m
    masks = np.zeros(s.size, dtype=np.int64)
    for i in range(n):
        step = 1 << i
        masks[step : 2 * step] = masks[:step] ^ basis[i]
    return masks


def _fwht_rows(mat: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform along axis 0 of a C-contiguous matrix, in place.

    mat has shape (2^n, R): each of its R columns is one transform.  Level
    h pairs the runs of h * R elements that start h rows apart, so even the
    first levels stream runs of at least R elements.  After level h every
    value v satisfies |v| <= 2h <= 2^n, so the matrix's dtype must hold
    +-2^n (see :func:`_block_lut`).
    """
    size = mat.shape[0]
    width = mat.size // size
    h = 1
    while h < size:
        m = mat.reshape(size // (2 * h), 2, h * width)
        top, bot = m[:, 0], m[:, 1]
        diff = top - bot
        top += bot
        bot[...] = diff
        h *= 2
    return mat


def _block_lut(f: FunctionTable) -> np.ndarray:
    """f's table in the dtype of its Walsh blocks, cast once per sweep.

    The blocks are int16 for n <= 14 and int32 above: every coefficient
    lies in [-2^n, 2^n], and 2^14 is the largest such bound int16 holds.
    """
    return f.lut.astype(np.int16 if f.spec.n <= 14 else np.int32)


def _walsh_block(lut: np.ndarray, masks: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Coefficients for the given b values, one column per b, row u = parity(u & x).

    lut is the table from :func:`_block_lut`, and the block has its dtype.
    Tr(a*x) = parity(masks[a] & x), so f^(a, b) sits at row masks[a] of
    b's column.  Table values and masks are below 2^n, so the mask product
    is taken in the same dtype.
    """
    dtype = lut.dtype
    # sign table: (-1)^Tr(b * f(x)) via the mask parity trick
    product = lut[:, None] & masks[bs].astype(dtype)
    signs = (np.bitwise_count(product) & 1).astype(dtype)
    signs *= -2
    signs += 1
    return _fwht_rows(signs)


def _walsh_counts(
    f: FunctionTable,
    masks: np.ndarray,
    bs: np.ndarray,
    *,
    weight: int = 1,
) -> WalshSpectrum:
    """Histogram of every coefficient f^(a, b) over all a and the b in bs.

    One transform of size 2^n per b, in blocks of about WALSH_BLOCK_COEFFS
    coefficients; each count is multiplied by weight.  The histogram is
    counted over the transform index u: a -> masks[a] is a bijection, so no
    block is reindexed.
    """
    size = f.spec.size
    half = size >> 1
    block = max(1, WALSH_BLOCK_COEFFS // size)
    # every coefficient v is even and lies in [-2^n, 2^n]; bin v/2 + 2^(n-1)
    # counts the value v
    counts = np.zeros(size + 1, dtype=np.int64)
    lut = _block_lut(f)
    for lo in range(0, len(bs), block):
        coeffs = _walsh_block(lut, masks, bs[lo : lo + block])
        coeffs >>= 1
        coeffs += half
        counts += np.bincount(coeffs.ravel(), minlength=size + 1)
    values = np.flatnonzero(counts)
    hist = Counter(dict(zip((2 * values - size).tolist(),
                            (counts[values] * weight).tolist())))
    max_abs = max(size - 2 * int(values[0]), 2 * int(values[-1]) - size)
    return WalshSpectrum(max_abs, hist)


def walsh_spectrum(f: FunctionTable, *, deep: bool = False) -> WalshSpectrum:
    """Full Walsh sweep: every coefficient f^(a,b) for all a and b != 0.

    The sweep transforms every component b whatever the table, so it is
    the oracle for :func:`power_walsh_spectrum`; :func:`walsh_row` gives
    the coefficients of one component.
    """
    s = f.spec
    require_desk_scale(s.n, deep)
    return _walsh_counts(f, _trace_masks(s), np.arange(1, s.size))


def _require_exponent(f: FunctionTable) -> int:
    if f.exponent is None:
        raise ValueError("the orbit engine needs a homogeneous table, "
                         "f(c*x) = c^e * f(x) for every c != 0 (FunctionTable.exponent)")
    return f.exponent


def power_delta(f: FunctionTable) -> int:
    """Differential uniformity of a power-map table from its row a = 1.

    For f(a*y) = a^d * f(y) (d = ``f.exponent``), substituting x = a*y
    gives delta(a, b) = delta(1, b / a^d), so every row is a permutation
    of the row a = 1, whose 2^n entries need no ``deep`` at any degree.
    Raises ValueError for a table without an exponent.
    """
    _require_exponent(f)
    return int(difference_row(f, 1).counts.max())


def power_walsh_spectrum(f: FunctionTable, *, deep: bool = False) -> WalshSpectrum:
    """Exact Walsh extremum and histogram of a power-map table, without the table.

    For f(c*y) = c^d * f(y) (d = ``f.exponent``), substituting x = c*y
    gives f^(a, b) = f^(ac, b c^d) for every c != 0, so the coefficients
    of component b are those of any b' in the same coset of the d-th
    powers, the subgroup of index g = gcd(d, 2^n - 1).  The generator
    powers gamma^0 .. gamma^(g-1) represent the g cosets, each of
    (2^n - 1) / g components, so each transform is weighted by
    (2^n - 1) / g.  At g = 2^n - 1 (d = 0: x^0, x^(2^n - 1)) this is the
    full sweep.  Raises ValueError for a table without an exponent.
    """
    d = _require_exponent(f)
    s = f.spec
    require_desk_scale(s.n, deep, d)
    g = gcd(d, s.order)
    return _walsh_counts(f, _trace_masks(s), _arith(s.n, s.poly).exp[:g],
                         weight=s.order // g)


def walsh_row(f: FunctionTable, b: int) -> np.ndarray:
    """All coefficients f^(a, b) for one fixed b, as an int32 row indexed by a."""
    if not 0 < b < f.spec.size:
        raise ValueError("b must be a nonzero field element")
    masks = _trace_masks(f.spec)
    row = _walsh_block(_block_lut(f), masks, np.array([b]))[masks, 0]
    return row.astype(np.int32, copy=False)


def walsh_coefficient_direct(f: FunctionTable, a: int, b: int) -> int:
    """Direct-definition sum over all x of (-1)^(Tr(ax) + Tr(b f(x))).

    Quadratic cost; used to cross-check the transform.
    """
    s = f.spec
    total = 0
    for x in range(s.size):
        e = trace_abs(s, _mul(s.poly, a, x)) ^ trace_abs(
            s, _mul(s.poly, b, int(f.lut[x])))
        total += 1 - 2 * e
    return total


def nonlinearity(f: FunctionTable, *, deep: bool = False) -> int:
    """2^(n-1) - max|f^|/2: distance of all components to affine functions.

    The extremum comes from the orbit engine for tables with an exponent
    (see :attr:`FunctionTable.exponent`), else from the full sweep, as in
    :func:`classify`.
    """
    return (1 << (f.spec.n - 1)) - _spectrum(f, deep).max_abs // 2


def summarize(f: FunctionTable, delta: int, ws: WalshSpectrum) -> SpectrumSummary:
    """Derive nonlinearity and the flag set from a measured delta and spectrum."""
    s = f.spec
    nl = (1 << (s.n - 1)) - ws.max_abs // 2
    is_perm = bool(np.bincount(f.lut, minlength=s.size).all())
    if s.n % 2 == 1:
        v = 1 << ((s.n + 1) // 2)
        is_ab = set(ws.histogram) == {0, v, -v}
    else:
        is_ab = None
    return SpectrumSummary(
        delta=delta,
        nl=nl,
        walsh_max=ws.max_abs,
        lam=ws.histogram,
        is_permutation=is_perm,
        is_apn=delta == 2,
        is_ab=is_ab,
    )


def _delta(f: FunctionTable, deep: bool) -> int:
    """Exact delta: the orbit engine for tables with an exponent, else the full sweep."""
    if f.exponent is not None:
        return power_delta(f)
    return differential_uniformity(f, deep=deep)


def _spectrum(f: FunctionTable, deep: bool) -> WalshSpectrum:
    """Exact Walsh extremum and histogram, chosen like :func:`_delta`."""
    if f.exponent is not None:
        return power_walsh_spectrum(f, deep=deep)
    return walsh_spectrum(f, deep=deep)


def classify(f: FunctionTable, *, deep: bool = False) -> SpectrumSummary:
    """Aggregate delta, nonlinearity, Walsh extremum, and the flag set.

    Tables with an exponent (see :attr:`FunctionTable.exponent`) go
    through the orbit engine, other tables through the full sweeps.
    """
    return summarize(f, _delta(f, deep), _spectrum(f, deep))
