"""Machine-readable analysis reports.

The JSON layout is part of the tool's stable interface: field names are
fixed, the coefficient histogram uses decimal strings of the signed values
as keys, and keys are emitted sorted so that identical analyses produce
byte-identical documents apart from the ``timings_ms`` subtree.

:func:`report_to_json` imports ``json`` itself, so only a run that writes a
report loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .field import FieldSpec
from .spectra import SpectrumSummary

TOOL_NAME = "gf2lab"
TOOL_VERSION = "0.1.0"

__all__ = ["AnalysisReport", "report_to_json", "TOOL_NAME", "TOOL_VERSION"]


@dataclass
class AnalysisReport:
    """One analysis run: the field, the map (its exponent, or None and the
    digest of its LUT file) and what was measured."""

    spec: FieldSpec
    exponent: int | None
    lut_sha256: str | None
    summary: SpectrumSummary
    timings_ms: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Internal consistency: the NL identity, the histogram mass and Parseval.

        Raises
        ------
        ValueError
            Naming the identity the report breaks.
        """
        summ, size = self.summary, self.spec.size
        nl = (1 << (self.spec.n - 1)) - summ.walsh_max // 2
        if summ.nl != nl:
            raise ValueError(
                f"NL formula broken: nl={summ.nl} but 2^(n-1) - walsh_max/2 = {nl}")
        total = sum(summ.lam.values())
        if total != size * (size - 1):
            raise ValueError(
                f"histogram mass broken: coefficients sum to {total}, "
                f"not 2^n * (2^n - 1) = {size * (size - 1)}")
        # each component b carries sum over a of f^(a, b)^2 = 2^(2n)
        energy = sum(v * v * c for v, c in summ.lam.items())
        if energy != size * size * (size - 1):
            raise ValueError(
                f"Parseval identity broken: sum of v^2 * count is {energy}, "
                f"not 2^(2n) * (2^n - 1) = {size * size * (size - 1)}")


def report_to_json(r: AnalysisReport) -> str:
    import json

    summ = r.summary
    doc = {
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "field": {"n": r.spec.n, "poly": format(r.spec.poly, "x")},
        "map": {
            "kind": "lut" if r.exponent is None else "exponent",
            "exponent": r.exponent,
            "family": None,
            "lut_sha256": r.lut_sha256,
        },
        "results": {
            "is_permutation": summ.is_permutation,
            "delta": summ.delta,
            "nl": summ.nl,
            "walsh_max": summ.walsh_max,
            "is_apn": summ.is_apn,
            "is_ab": summ.is_ab,
            "lambda_histogram": {str(v): c for v, c in sorted(summ.lam.items())},
        },
        "timings_ms": dict(r.timings_ms),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
