"""Difference distribution tables, Walsh spectra, and classification flags.

All sweeps operate on a :class:`FunctionTable` (a full lookup table of a map
GF(2^n) -> GF(2^n)) and are exact: counts and transform coefficients are
integers, never floats.  Power-map tables, and the power structure of
any table, are computed through the table-backed arithmetic of
:mod:`gf2lab.field`.  The Walsh sweep runs one fast Walsh-Hadamard
transform per component b, which brings the total cost to about
n * 2^(2n) bit operations instead of the 2^(3n) of the naive triple sum.
It reads each component b as its trace mask v, parity(v & y) = Tr(b*y):
the orbit pass maps only its g representatives (``field._linear_map``).
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
table, and serve as the oracle the orbit engine is tested against.  Every
full DDT pass, delta and the CLI's CSV dump alike, reads the half rows of
:func:`_half_rows`, grouped by the highest set bit of a; :func:`ddt_rows`
counts every x and is their oracle.
:func:`classify` and ``analyze`` choose between the two in one place, by
the table's exponent.  Every difference row is a :class:`DifferenceRow`,
whose ``values`` tag each x with the solution set it lies in: the replay
reads the sets in that form, so no module sorts a row.

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

from .field import (FieldSpec, _arith, _check_elements, _check_int, _linear_map, _mul,
                    _span, _trace_basis, trace_abs)

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
# larger).  An int16 block takes 512 KiB.  Full
# sweeps of a random table, best of 3, at 2^16 / 2^17 / 2^18 / 2^19
# coefficients: n = 11 took 19.0 / 16.6 / 15.6 / 17.4 ms, n = 12 90 / 75 /
# 67 / 68 ms, n = 13 492 / 370 / 307 / 294 ms (2-vCPU Xeon, numpy 2.4).
WALSH_BLOCK_COEFFS = 1 << 18
# (difference, x) entries per block of the half-pair DDT sweep: 64 KiB of
# uint16 indices and as much of values.  Full sweeps of a random table, best
# of 7, at 2^13 / 2^14 / 2^15 / 2^16 entries (the last in uint32): n = 10
# took 3.7 / 3.3 / 2.5 / 4.3 ms and n = 12 49.4 / 48.3 / 45.4 / 59.6 ms
# (2-vCPU Xeon, numpy 2.4).  From n = 16 on a block is one row.
DDT_BLOCK_ENTRIES = 1 << 15


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
    even (solutions come in pairs {x, x + a}) and the row sums to 2^n.
    Each x lies in S(a, values[x]), so ``values`` tags every x with its set."""

    a: int
    counts: np.ndarray
    values: np.ndarray


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
    yields the constant-1 table; any d > 0 maps 0 to 0; ``field._check_int`` reads d.
    """
    d = _check_int(d, "exponent", 0)
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
    caller's array.  ValueError is raised for any shape but (2^n,); then by
    ``field._check_elements`` for an entry that is no integer in [0, 2^n),
    however wide, a boolean included.  What passes is stored as int64.
    """
    lut = np.array(values)
    if lut.shape != (s.size,):
        raise ValueError(f"lookup table must have shape ({s.size},), got {lut.shape}")
    _check_elements(s, values, "lookup table entry")  # numpy may hold wide ints as floats
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


def _ddt_row(lut: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, values)`` of the row a of lut; the gathered f(x + a) takes
    f(x) in place, so the index arange(2^n) ^ a is freed before the count."""
    values = lut[np.arange(lut.size) ^ a]
    values ^= lut
    return np.bincount(values, minlength=lut.size), values


def difference_row(f: FunctionTable, a: int) -> DifferenceRow:
    """The row a of f's difference table; an a that is no integer in [1, 2^n)
    raises ValueError (``field._check_elements``)."""
    _check_elements(f.spec, a, "difference a", nonzero=True)
    return DifferenceRow(a, *_ddt_row(f.lut, a))


def ddt_rows(f: FunctionTable) -> Iterator[DifferenceRow]:
    """Stream the difference distribution table one row (one a != 0) at a time."""
    for a in range(1, f.spec.size):
        yield DifferenceRow(a, *_ddt_row(f.lut, a))


def _half_rows(f: FunctionTable) -> Iterator[np.ndarray]:
    """Half the rows of f's difference table, a block of rows at a time,
    as (rows, 2^n) count arrays in increasing a.

    x and x + a give the same value f(x) + f(x + a), so a row counts one x
    of each pair {x, x + a}: those whose bit t is clear, for the highest
    set bit t of a.  Every a in [2^t, 2^(t+1)) shares those x, so the rows
    of one t run in consecutive blocks of about DDT_BLOCK_ENTRIES entries,
    in buffers made once per t, uint16 up to n = 16.  Row r of ``base``
    holds f(xs) + r * 2^n, so one bincount per block keeps the rows apart.
    """
    s = f.spec
    block = max(1, DDT_BLOCK_ENTRIES // (s.size >> 1))
    # the narrowest dtype that holds every value with its row offset
    dtype = np.uint16 if block << s.n <= 1 << 16 else np.uint32
    lut, x = f.lut.astype(dtype), np.arange(s.size, dtype=dtype)
    for t in range(s.n):
        xs = x[(x >> t) & 1 == 0]
        rows = min(1 << t, block)
        base = lut[xs] ^ (np.arange(rows, dtype=dtype)[:, None] << s.n)
        idx, val = np.empty_like(base), np.empty_like(base)
        for lo in range(1 << t, 2 << t, rows):
            np.bitwise_xor(xs, np.arange(lo, lo + rows, dtype=dtype)[:, None], out=idx)
            np.take(lut, idx, out=val)
            np.bitwise_xor(val, base, out=val)
            yield np.bincount(val.ravel(), minlength=rows << s.n).reshape(rows, s.size)


def differential_uniformity(f: FunctionTable, *, deep: bool = False) -> int:
    """Differential uniformity: max over a != 0 and all b of |{x : f(x+a)+f(x) = b}|.

    Twice the largest count of :func:`_half_rows`, which counts one x of
    each pair {x, x + a}; :func:`ddt_rows` streams the full rows themselves.
    """
    require_desk_scale(f.spec.n, deep)
    peak = 0
    for half in _half_rows(f):
        peak = max(peak, int(half.max()))
        del half  # free each block before the next is counted: about 10 % faster
    return 2 * peak


# ---------------------------------------------------------------------------
# Walsh spectrum
# ---------------------------------------------------------------------------

def _trace_masks(s: FieldSpec) -> np.ndarray:
    """masks[a] = bitmask m with parity(m & y) = Tr(a*y) for all y: the span
    of the rows of ``field._trace_basis``, since a -> m is GF(2)-linear."""
    return _span(_trace_basis(s.n, s.poly))


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


def _walsh_block(lut: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Coefficients of the components with trace masks vs, one column per v.

    lut is the table from :func:`_block_lut`, and the block has its dtype.
    Column v, the mask of b, transforms (-1)^Tr(b*f(x)) by parity(u & x),
    so f^(a, b) sits at row u = masks[a].  Values and masks are below 2^n,
    so their product is taken in that dtype and turned into signs in place.
    """
    signs = lut[:, None] & vs.astype(lut.dtype)
    np.bitwise_count(signs, out=signs)
    signs &= 1
    signs *= -2
    signs += 1
    return _fwht_rows(signs)


def _walsh_counts(f: FunctionTable, vs: np.ndarray, *, weight: int = 1) -> WalshSpectrum:
    """Histogram of every coefficient f^(a, b) over all a and the b with trace masks vs.

    One transform of size 2^n per mask, in blocks of about
    WALSH_BLOCK_COEFFS coefficients; each count is multiplied by weight.
    The histogram is counted over the transform index u: a -> masks[a] is a
    bijection, so no block is reindexed.
    """
    size = f.spec.size
    half = size >> 1
    block = max(1, WALSH_BLOCK_COEFFS // size)
    # every coefficient v is even and lies in [-2^n, 2^n]; bin v/2 + 2^(n-1)
    # counts the value v
    counts = np.zeros(size + 1, dtype=np.int64)
    lut = _block_lut(f)
    for lo in range(0, len(vs), block):
        coeffs = _walsh_block(lut, vs[lo : lo + block])
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

    The sweep transforms every component b whatever the table, as every
    nonzero trace mask once (b -> masks[b] is a bijection), so it is the
    oracle for :func:`power_walsh_spectrum`; :func:`walsh_row` gives the
    coefficients of one component.
    """
    s = f.spec
    require_desk_scale(s.n, deep)
    return _walsh_counts(f, np.arange(1, s.size))


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
    vs = _linear_map(_arith(s.n, s.poly).exp[:g], _trace_basis(s.n, s.poly))
    return _walsh_counts(f, vs, weight=s.order // g)


def walsh_row(f: FunctionTable, b: int) -> np.ndarray:
    """All coefficients f^(a, b) for one fixed b, as an int32 row indexed by a;
    a b that is no integer in [1, 2^n) raises ValueError (``field._check_elements``)."""
    _check_elements(f.spec, b, "b", nonzero=True)
    masks = _trace_masks(f.spec)
    row = _walsh_block(_block_lut(f), masks[b : b + 1])[masks, 0]
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
    v = 1 << ((s.n + 1) // 2)  # at odd n, almost bent means the spectrum {0, +-v}
    return SpectrumSummary(
        delta=delta,
        nl=(1 << (s.n - 1)) - ws.max_abs // 2,
        walsh_max=ws.max_abs,
        lam=ws.histogram,
        is_permutation=bool(np.bincount(f.lut, minlength=s.size).all()),
        is_apn=delta == 2,
        is_ab=set(ws.histogram) == {0, v, -v} if s.n % 2 else None,
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
