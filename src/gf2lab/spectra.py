"""Difference distribution tables, Walsh spectra, and classification flags.

All sweeps operate on a :class:`FunctionTable` (a full lookup table of a map
GF(2^n) -> GF(2^n)) and are exact: counts and transform coefficients are
integers, never floats.  Power-map tables are gathered from the log/exp
tables of :mod:`gf2lab.field`.  The Walsh sweep runs one fast
Walsh-Hadamard transform per component b, which brings the total cost to
about n * 2^(2n) bit operations instead of the 2^(3n) of the naive triple
sum.  Full sweeps with n >= 16 need ``deep=True`` (``--deep``), as
decided for every caller by :func:`require_desk_scale`.

Every sweep runs on one thread: the Walsh sweep transforms fixed-size
blocks of components in place and merges them into one offset histogram,
so its results do not depend on the block size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .field import FieldSpec, _log_exp_tables, _mul, trace_abs

__all__ = [
    "FunctionTable",
    "DifferenceRow",
    "WalshSpectrum",
    "SpectrumSummary",
    "build_lut",
    "lut_from_values",
    "differential_uniformity",
    "ddt_rows",
    "walsh_spectrum",
    "walsh_row",
    "nonlinearity",
    "summarize",
    "classify",
    "sampled_delta_lower_bound",
    "require_desk_scale",
]

# From this degree on a full sweep must be requested explicitly.
DEEP_DEGREE = 16
# Full DDT / Walsh tables are materialized in memory only up to this degree.
TABLE_DEGREE = 12
# Walsh coefficients per transform block (one row when a row is larger).  The
# int32 block (512 KiB) and its int64 mask product fit a 2 MiB L2 cache;
# 2^16 to 2^18 measured within 5% of each other at n = 10..13.
WALSH_BLOCK_COEFFS = 1 << 17


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """A function GF(2^n) -> GF(2^n) as an exhaustive lookup table.

    ``lut[i]`` is the image of the element with integer encoding i; the
    array has length 2^n and dtype int64, and is read-only when made by
    :func:`build_lut` or :func:`lut_from_values`.
    """

    spec: FieldSpec
    lut: np.ndarray


@dataclass(frozen=True, eq=False)
class DifferenceRow:
    """One row of the difference distribution table.

    ``counts[b]`` is the number of x with f(x + a) + f(x) = b for the fixed
    nonzero difference a.  Every count is even (solutions come in pairs
    {x, x + a}) and the row sums to 2^n.
    """

    a: int
    counts: np.ndarray


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """Result of a full Walsh sweep.

    Attributes
    ----------
    max_abs : int
        max |f^(a,b)| over all a and all b != 0.
    histogram : Counter
        Multiplicity of each coefficient value over all a and b != 0; the
        multiplicities sum to 2^n * (2^n - 1).
    table : numpy.ndarray or None
        Full int32 coefficient table with table[b-1, a] = f^(a,b), kept
        only when the field is small enough (or explicitly requested).
    """

    max_abs: int
    histogram: Counter
    table: np.ndarray | None


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

    Nonzero x = g^i maps to g^(i*d), gathered from the log/exp tables.
    With the 0^0 = 1 convention, d = 0 yields the constant-1 table; any
    d > 0 maps 0 to 0.
    """
    if d < 0:
        raise ValueError("exponent must be non-negative")
    log, exp = _log_exp_tables(s.n, s.poly)
    lut = np.empty(s.size, dtype=np.int64)
    lut[0] = 1 if d == 0 else 0
    # reducing d first keeps log * d below 2^48, so int64 cannot overflow
    lut[1:] = exp[(log[1:] * (d % s.order)) % s.order]
    lut.flags.writeable = False
    return FunctionTable(s, lut)


def lut_from_values(s: FieldSpec, values) -> FunctionTable:
    """Wrap an explicit value sequence as a FunctionTable, validating it.

    The values are copied, so the table can be frozen without freezing the
    caller's array.
    """
    lut = np.array(values, dtype=np.int64)
    if lut.shape != (s.size,):
        raise ValueError(f"lookup table must have exactly {s.size} entries, got {lut.size}")
    if lut.size and (lut.min() < 0 or lut.max() >= s.size):
        raise ValueError("lookup table entry out of range")
    lut.flags.writeable = False
    return FunctionTable(s, lut)


# ---------------------------------------------------------------------------
# difference distribution
# ---------------------------------------------------------------------------

def require_desk_scale(n: int, deep: bool) -> None:
    """Raise ValueError for a full sweep over GF(2^n), n >= 16, unless deep."""
    if n >= DEEP_DEGREE and not deep:
        raise ValueError(
            f"full sweep over GF(2^{n}) needs deep=True (--deep on the command "
            f"line), as does any degree >= {DEEP_DEGREE}; sweeps grow as n * 4^n")


def _ddt_row(lut: np.ndarray, idx: np.ndarray, a: int) -> np.ndarray:
    """Counts of f(x) + f(x + a) = b for every b; idx is arange(2^n)."""
    return np.bincount(lut ^ lut[idx ^ a], minlength=lut.size)


def ddt_rows(f: FunctionTable) -> Iterator[DifferenceRow]:
    """Stream the difference distribution table one row (one a != 0) at a time."""
    idx = np.arange(f.spec.size)
    for a in range(1, f.spec.size):
        yield DifferenceRow(a, _ddt_row(f.lut, idx, a))


def differential_uniformity(
    f: FunctionTable,
    *,
    want_table: bool | None = None,
    deep: bool = False,
) -> tuple[int, np.ndarray | None]:
    """Differential uniformity and (optionally) the full DDT.

    Returns
    -------
    (delta, table)
        delta is max over a != 0 and all b of |{x : f(x+a)+f(x) = b}|.
        table[a-1, b] holds the counts when materialized (by default only
        for n <= 12), else None.

    The sweep is one pass per difference a, accumulating the counts of
    f(x) + f(x+a) with a single bincount.
    """
    s = f.spec
    require_desk_scale(s.n, deep)
    if want_table is None:
        want_table = s.n <= TABLE_DEGREE
    idx = np.arange(s.size)
    row_dtype = np.uint16 if s.n <= TABLE_DEGREE else np.uint32
    table = np.empty((s.size - 1, s.size), dtype=row_dtype) if want_table else None
    delta = 0
    for a in range(1, s.size):
        counts = _ddt_row(f.lut, idx, a)
        delta = max(delta, int(counts.max()))
        if table is not None:
            table[a - 1] = counts
    return delta, table


def sampled_delta_lower_bound(
    f: FunctionTable, samples: int, seed: int = 0
) -> tuple[int, int]:
    """Lower bound on delta from a uniform sample of differences a.

    Returns (bound, samples_used).  The value is only a lower bound: a full
    sweep may find a larger count on an unsampled a.
    """
    rng = np.random.default_rng(seed)
    size = f.spec.size
    idx = np.arange(size)
    best = 0
    picks = rng.integers(1, size, size=samples)
    for a in picks:
        best = max(best, int(_ddt_row(f.lut, idx, int(a)).max()))
    return best, samples


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
        xm = _mul(n, s.poly, xm, 0b10)
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
    """Fast Walsh-Hadamard transform of each row of a C-contiguous int32 matrix, in place."""
    rows, size = mat.shape
    h = 1
    while h < size:
        m = mat.reshape(rows, size // (2 * h), 2, h)
        top, bot = m[:, :, 0, :], m[:, :, 1, :]
        diff = top - bot
        top += bot
        bot[...] = diff
        h *= 2
    return mat


def _walsh_block(f: FunctionTable, masks: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Rows of coefficients for the given b values, column u = parity(u & x).

    Tr(a*x) = parity(masks[a] & x), so f^(a, b) sits at column masks[a].
    """
    # sign table: (-1)^Tr(b * f(x)) via the mask parity trick
    signs = (np.bitwise_count(masks[bs][:, None] & f.lut) & 1).astype(np.int32)
    signs *= -2
    signs += 1
    return _fwht_rows(signs)


def walsh_spectrum(
    f: FunctionTable,
    *,
    keep_table: bool | None = None,
    deep: bool = False,
) -> WalshSpectrum:
    """Full Walsh sweep: every coefficient f^(a,b) for all a and b != 0.

    One transform of size 2^n per b, in blocks of about WALSH_BLOCK_COEFFS
    coefficients.  The histogram is counted over transform columns: a ->
    masks[a] is a bijection, so no block is reindexed unless the table is
    kept.
    """
    s = f.spec
    require_desk_scale(s.n, deep)
    if keep_table is None:
        keep_table = s.n <= TABLE_DEGREE
    masks = _trace_masks(s)
    size = s.size
    block = max(1, WALSH_BLOCK_COEFFS // size)
    table = np.empty((size - 1, size), dtype=np.int32) if keep_table else None
    # coefficients lie in [-2^n, 2^n]; bin v + 2^n counts the value v
    counts = np.zeros(2 * size + 1, dtype=np.int64)
    for lo in range(1, size, block):
        rows = _walsh_block(f, masks, np.arange(lo, min(lo + block, size)))
        if table is not None:
            table[lo - 1 : lo - 1 + len(rows)] = rows[:, masks]
        counts += np.bincount((rows + size).ravel(), minlength=2 * size + 1)
    values = np.flatnonzero(counts)
    hist = Counter(dict(zip((values - size).tolist(), counts[values].tolist())))
    max_abs = max(size - int(values[0]), int(values[-1]) - size)
    return WalshSpectrum(max_abs, hist, table)


def walsh_row(f: FunctionTable, b: int) -> np.ndarray:
    """All coefficients f^(a, b) for one fixed b (row indexed by a)."""
    if not 0 < b < f.spec.size:
        raise ValueError("b must be a nonzero field element")
    masks = _trace_masks(f.spec)
    return _walsh_block(f, masks, np.array([b]))[0, masks]


def walsh_coefficient_direct(f: FunctionTable, a: int, b: int) -> int:
    """Direct-definition sum over all x of (-1)^(Tr(ax) + Tr(b f(x))).

    Quadratic cost; used to cross-check the transform.
    """
    s = f.spec
    total = 0
    for x in range(s.size):
        e = trace_abs(s, _mul(s.n, s.poly, a, x)) ^ trace_abs(
            s, _mul(s.n, s.poly, b, int(f.lut[x])))
        total += 1 - 2 * e
    return total


def nonlinearity(f: FunctionTable, *, deep: bool = False) -> int:
    """2^(n-1) - max|f^|/2: distance of all components to affine functions."""
    spec = walsh_spectrum(f, keep_table=False, deep=deep)
    return (1 << (f.spec.n - 1)) - spec.max_abs // 2


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


def classify(f: FunctionTable, *, deep: bool = False) -> SpectrumSummary:
    """Aggregate delta, nonlinearity, Walsh extremum, and the flag set."""
    delta, _ = differential_uniformity(f, want_table=False, deep=deep)
    ws = walsh_spectrum(f, keep_table=False, deep=deep)
    return summarize(f, delta, ws)
