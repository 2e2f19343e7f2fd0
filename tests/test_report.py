"""Analysis-report consistency checks."""

import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

from gf2lab import AnalysisReport, SpectrumSummary, field_make


def _good_report() -> AnalysisReport:
    # x^3 on GF(2^3): almost bent, coefficient 0 28 times, 4 21 times, -4 7 times
    return AnalysisReport(
        spec=field_make(3, 0xB), exponent=3, lut_sha256=None,
        summary=SpectrumSummary(delta=2, nl=2, walsh_max=4,
                                lam=Counter({0: 28, 4: 21, -4: 7}),
                                is_permutation=True, is_apn=True, is_ab=True))


def _with(**changes) -> AnalysisReport:
    """The good report with some of its summary's fields replaced."""
    r = _good_report()
    return replace(r, summary=replace(r.summary, **changes))


def test_validate_accepts_consistent_report():
    _good_report().validate()


def test_validate_rejects_broken_nl_formula():
    with pytest.raises(ValueError, match="NL formula"):
        _with(nl=3).validate()


def test_validate_rejects_broken_histogram_mass():
    with pytest.raises(ValueError, match="histogram mass"):
        _with(lam=Counter({0: 28, 4: 21})).validate()


def test_validate_rejects_broken_parseval_identity():
    # right mass (56) but weights that put 4 and -4 on too few coefficients
    with pytest.raises(ValueError, match="Parseval"):
        _with(lam=Counter({0: 35, 4: 14, -4: 7})).validate()


def test_validate_survives_optimized_mode():
    # python -O strips assert statements; the checks must still raise
    code = ("from collections import Counter\n"
            "from gf2lab import AnalysisReport, SpectrumSummary, field_make\n"
            "summ = SpectrumSummary(2, 3, 4, Counter({0: 28, 4: 21, -4: 7}),\n"
            "                       True, True, True)\n"
            "r = AnalysisReport(field_make(3, 0xB), 3, None, summ)\n"
            "try:\n"
            "    r.validate()\n"
            "except ValueError as e:\n"
            "    print('raised', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.startswith("raised NL formula")
