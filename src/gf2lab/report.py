"""Machine-readable analysis reports.

The JSON layout is part of the tool's stable interface: field names are
fixed, the coefficient histogram uses decimal strings of the signed values
as keys, and keys are emitted sorted so that identical analyses produce
byte-identical documents apart from the ``timings_ms`` subtree.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

TOOL_NAME = "gf2lab"
TOOL_VERSION = "0.1.0"

__all__ = ["AnalysisReport", "report_to_json", "TOOL_NAME", "TOOL_VERSION"]


@dataclass
class AnalysisReport:
    """Everything one analysis run measured, plus provenance of the input map."""

    field_n: int
    poly: int
    map_kind: str                 # "exponent" | "lut"
    exponent: int | None
    lut_sha256: str | None
    is_permutation: bool
    delta: int
    nl: int
    walsh_max: int
    lam: Counter
    is_apn: bool
    is_ab: bool | None
    timings_ms: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Internal consistency: the NL identity, the histogram mass and Parseval.

        Raises
        ------
        ValueError
            Naming the identity the report breaks.
        """
        nl = (1 << (self.field_n - 1)) - self.walsh_max // 2
        if self.nl != nl:
            raise ValueError(
                f"NL formula broken: nl={self.nl} but 2^(n-1) - walsh_max/2 = {nl}")
        total = sum(self.lam.values())
        size = 1 << self.field_n
        if total != size * (size - 1):
            raise ValueError(
                f"histogram mass broken: coefficients sum to {total}, "
                f"not 2^n * (2^n - 1) = {size * (size - 1)}")
        # each component b carries sum over a of f^(a, b)^2 = 2^(2n)
        energy = sum(v * v * c for v, c in self.lam.items())
        if energy != size * size * (size - 1):
            raise ValueError(
                f"Parseval identity broken: sum of v^2 * count is {energy}, "
                f"not 2^(2n) * (2^n - 1) = {size * size * (size - 1)}")


def report_to_dict(r: AnalysisReport) -> dict:
    return {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "field": {"n": r.field_n, "poly": format(r.poly, "x")},
        "map": {
            "kind": r.map_kind,
            "exponent": r.exponent,
            "family": None,
            "lut_sha256": r.lut_sha256,
        },
        "results": {
            "is_permutation": r.is_permutation,
            "delta": r.delta,
            "nl": r.nl,
            "walsh_max": r.walsh_max,
            "is_apn": r.is_apn,
            "is_ab": r.is_ab,
            "lambda_histogram": {str(v): c for v, c in sorted(r.lam.items())},
        },
        "timings_ms": dict(r.timings_ms),
    }


def report_to_json(r: AnalysisReport) -> str:
    return json.dumps(report_to_dict(r), indent=2, sort_keys=True) + "\n"
