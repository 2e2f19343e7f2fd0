"""Known power-map families with differential uniformity four.

Four families are cataloged: Gold (2^s + 1), Kasami (2^(2s) - 2^s + 1), the
field inverse (2^n - 2, with 0 mapped to 0), and the degree-4k family
2^(2k) + 2^k + 1.  Each entry carries its applicability conditions and, when
measured, the exact spectrum summary computed by :mod:`gf2lab.spectra`.  The
rows are one table, ``_ROWS``; every parameter passes one check, ``_check_param``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .field import MIN_DEGREE, FieldSpec, _check_exponent, field_make
from .spectra import FunctionTable, SpectrumSummary, build_lut, classify
from .theorems import dobbertin_exponent

__all__ = [
    "FamilySpec",
    "CatalogEntry",
    "PermutationCheck",
    "family_exponent",
    "permutation_check",
    "inverse_map",
    "catalog_table",
]

FAMILIES = ("gold", "kasami", "inverse", "dobbertin")


@dataclass(frozen=True)
class FamilySpec:
    """One instantiated family member: tag, field degree, exponent, parameter."""

    family: str
    n: int
    d: int
    param: int | None = None


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A catalog row: family instance, side conditions, prediction, measurement."""

    family: FamilySpec
    conditions_met: bool
    expected_delta: int | None
    expected_permutation: bool | None
    summary: SpectrumSummary


class PermutationCheck(NamedTuple):
    gcd: int
    is_permutation: bool


def _check_param(value, name: str, floor: int = 1) -> int:
    """value as an int (a float raises TypeError); None or below floor raises ValueError."""
    if value is None or (value := operator.index(value)) < floor:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value}")
    return value


def family_exponent(family: str, *, n: int | None = None,
                    s: int | None = None, k: int | None = None) -> FamilySpec:
    """Build a FamilySpec from a family tag and its parameters.

    gold / kasami need n and s; inverse needs n; dobbertin needs k (n = 4k).
    Each passes ``_check_param``, with n >= 2 and s, k >= 1; an unknown family
    or a dobbertin n other than 4k raises ValueError too.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "dobbertin":
        k = _check_param(k, "dobbertin parameter k")
        if n is not None and _check_param(n, "dobbertin degree n", MIN_DEGREE) != 4 * k:
            raise ValueError(f"dobbertin with k={k} lives on degree {4 * k}, not {n}")
        return FamilySpec("dobbertin", 4 * k, dobbertin_exponent(k), k)
    n = _check_param(n, f"{family} degree n", MIN_DEGREE)
    if family == "inverse":
        return FamilySpec("inverse", n, (1 << n) - 2, None)
    s = _check_param(s, f"{family} parameter s")
    d = (1 << s) + 1 if family == "gold" else (1 << (2 * s)) - (1 << s) + 1
    return FamilySpec(family, n, d, s)


def conditions_met(fs: FamilySpec) -> bool:
    """Side conditions under which the family is predicted delta-4 and bijective.

    gold / kasami: n = 2m with m odd and gcd(n, s) = 2; inverse: n even;
    dobbertin: k odd.
    """
    if fs.family in ("gold", "kasami"):
        return fs.n % 2 == 0 and (fs.n // 2) % 2 == 1 and gcd(fs.n, fs.param) == 2
    if fs.family == "inverse":
        return fs.n % 2 == 0
    return fs.param % 2 == 1


def permutation_check(n: int, d: int) -> PermutationCheck:
    """Whether x^d permutes GF(2^n): gcd(d, 2^n - 1) = 1, with the gcd witness;
    x^0 is constant, so d = 0 gives (2^n - 1, False)."""
    g = gcd(_check_exponent(d), (1 << _check_param(n, "degree n", MIN_DEGREE)) - 1)
    return PermutationCheck(g, g == 1)


def inverse_map(s: FieldSpec) -> FunctionTable:
    """The inversion table with the 0 -> 0 convention; equals x^(2^n - 2)."""
    return build_lut(s, s.size - 2)


# every catalog row in print order, each with whether it is shown only with deep
_ROWS: tuple[tuple[FamilySpec, bool], ...] = (
    (family_exponent("gold", n=6, s=2), False),
    (family_exponent("kasami", n=6, s=2), False),
    (family_exponent("gold", n=10, s=4), True),
    (family_exponent("kasami", n=10, s=4), True),
    *((family_exponent("inverse", n=n), False) for n in (4, 6, 8, 10, 12)),
    *((family_exponent("dobbertin", k=k), False) for k in (1, 2, 3)),
)


def _desk_rows(max_n: int, deep: bool) -> list[FamilySpec]:
    return [fs for fs, deep_only in _ROWS if fs.n <= max_n and (deep or not deep_only)]


def catalog_table(max_n: int = 12, *, deep: bool = False) -> list[CatalogEntry]:
    """Instantiate and measure every catalog row realizable at degree <= max_n.

    Every row has degree at most 12 and is a power map, whose table has an
    exponent (see :attr:`gf2lab.spectra.FunctionTable.exponent`), so
    :func:`gf2lab.spectra.classify` measures it exactly through the
    power-map orbit engine, and a larger max_n yields the max_n = 12 rows.
    deep adds the n = 10 Gold and Kasami rows of ``_ROWS``.  Conditioned rows
    also carry the predicted (delta=4, permutation) pair.  A float max_n
    raises TypeError, and one below every row's degree (4) ValueError.
    """
    rows = _desk_rows(max_n := operator.index(max_n), deep)
    if not rows:
        raise ValueError(f"no catalog row has degree <= {max_n}; the smallest degree is 4")
    entries = []
    for fs in rows:
        spec = field_make(fs.n)
        table = build_lut(spec, fs.d)
        summary = classify(table)
        ok = conditions_met(fs)
        entries.append(CatalogEntry(
            family=fs,
            conditions_met=ok,
            expected_delta=4 if ok else None,
            expected_permutation=True if ok else None,
            summary=summary,
        ))
    return entries
