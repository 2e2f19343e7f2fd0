"""Analysis-report consistency checks."""

import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

from gf2lab import AnalysisReport


def _good_report() -> AnalysisReport:
    # x^3 on GF(2^3): almost bent, coefficient 0 28 times, 4 21 times, -4 7 times
    return AnalysisReport(
        field_n=3, poly=0xB, map_kind="exponent", exponent=3, family=None,
        lut_sha256=None, is_permutation=True, delta=2, nl=2, walsh_max=4,
        lam=Counter({0: 28, 4: 21, -4: 7}), is_apn=True, is_ab=True)


def test_validate_accepts_consistent_report():
    _good_report().validate()


def test_validate_rejects_broken_nl_formula():
    with pytest.raises(ValueError, match="NL formula"):
        replace(_good_report(), nl=3).validate()


def test_validate_rejects_broken_histogram_mass():
    with pytest.raises(ValueError, match="histogram mass"):
        replace(_good_report(), lam=Counter({0: 28, 4: 21})).validate()


def test_validate_rejects_broken_parseval_identity():
    # right mass (56) but weights that put 4 and -4 on too few coefficients
    with pytest.raises(ValueError, match="Parseval"):
        replace(_good_report(), lam=Counter({0: 35, 4: 14, -4: 7})).validate()


def test_validate_survives_optimized_mode():
    # python -O strips assert statements; the checks must still raise
    code = ("from collections import Counter\n"
            "from gf2lab import AnalysisReport\n"
            "r = AnalysisReport(3, 0xB, 'exponent', 3, None, None, True, 2, 3, 4,\n"
            "                   Counter({0: 28, 4: 21, -4: 7}), True, True)\n"
            "try:\n"
            "    r.validate()\n"
            "except ValueError as e:\n"
            "    print('raised', e)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.startswith("raised NL formula")
