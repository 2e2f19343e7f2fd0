"""Family catalog: exponents, side conditions, measured rows."""

import numpy as np
import pytest

from gf2lab import (
    build_lut,
    catalog_table,
    f_mul,
    family_exponent,
    field_make,
    inverse_map,
    permutation_check,
)
from gf2lab.catalog import conditions_met


def test_family_exponent_values():
    assert family_exponent("gold", n=6, s=1).d == 3
    assert family_exponent("gold", n=6, s=2).d == 5
    assert family_exponent("kasami", n=6, s=2).d == 13
    assert family_exponent("kasami", n=8, s=3).d == 57
    assert family_exponent("inverse", n=6).d == 62
    assert family_exponent("dobbertin", k=1).d == 7
    assert family_exponent("dobbertin", k=2).d == 21
    assert family_exponent("dobbertin", k=3).d == 73
    fs = family_exponent("dobbertin", k=2)
    assert fs.n == 8 and fs.param == 2


def test_family_exponent_validation():
    with pytest.raises(ValueError):
        family_exponent("nope", n=6)
    with pytest.raises(ValueError):
        family_exponent("gold", n=6)  # missing s
    with pytest.raises(ValueError):
        family_exponent("kasami", s=2)  # missing n
    with pytest.raises(ValueError):
        family_exponent("inverse")
    with pytest.raises(ValueError):
        family_exponent("dobbertin")
    with pytest.raises(ValueError):
        family_exponent("dobbertin", k=2, n=12)  # degree must be 4k
    with pytest.raises(TypeError):
        family_exponent("dobbertin", k=2, n=8.0)  # the optional degree is checked too


# each entry reads one catalog parameter v, with the least value it takes
CATALOG_PARAMETERS = {
    "gold-n": (lambda v: family_exponent("gold", n=v, s=2), 2),
    "gold-s": (lambda v: family_exponent("gold", n=6, s=v), 1),
    "kasami-n": (lambda v: family_exponent("kasami", n=v, s=2), 2),
    "kasami-s": (lambda v: family_exponent("kasami", n=6, s=v), 1),
    "inverse-n": (lambda v: family_exponent("inverse", n=v), 2),
    "dobbertin-k": (lambda v: family_exponent("dobbertin", k=v), 1),
    "permutation_check-n": (lambda v: permutation_check(v, 5), 2),
    "catalog_table-max_n": (lambda v: catalog_table(v), 4),
}


@pytest.mark.parametrize("entry", CATALOG_PARAMETERS)
def test_one_catalog_parameter_rule(entry):
    # catalog_table(12.5) used to measure 10 rows, gold took n = 6.0 and
    # n = -3, and a float s or k died in a shift
    call, least = CATALOG_PARAMETERS[entry]
    for value in (6.0, 12.5, np.float64(8.0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(value)
    refused = [-3, 0, least - 1] + [None] * (entry != "catalog_table-max_n")
    for value in refused:
        with pytest.raises(ValueError):
            call(value)
    # a numpy integer is read as the int itself, so the reprs agree
    assert repr(call(least)) == repr(call(np.int64(least)))
    # a boolean is read as its int: True is 1, which only s and k take
    if least == 1:
        assert type(call(True).param) is int and call(True) == call(1)
    else:
        with pytest.raises(ValueError, match=r"\b1\b"):
            call(True)


def test_conditions_met():
    assert conditions_met(family_exponent("gold", n=6, s=2))
    assert not conditions_met(family_exponent("gold", n=8, s=2))  # n/2 even
    assert not conditions_met(family_exponent("gold", n=6, s=3))  # gcd(6,3)=3
    assert conditions_met(family_exponent("kasami", n=10, s=4))
    assert conditions_met(family_exponent("inverse", n=8))
    assert not conditions_met(family_exponent("inverse", n=7))
    assert conditions_met(family_exponent("dobbertin", k=1))
    assert not conditions_met(family_exponent("dobbertin", k=2))
    assert conditions_met(family_exponent("dobbertin", k=3))


def test_permutation_check():
    assert permutation_check(4, 7) == (1, True)
    assert permutation_check(8, 21) == (3, False)
    assert permutation_check(12, 73) == (1, True)
    assert permutation_check(6, 62) == (1, True)
    # x^0 is the constant table, which permutes nothing: the gcd is 2^n - 1
    assert permutation_check(6, 0) == (63, False)


def test_permutation_check_matches_lut_bijectivity():
    for n in (4, 5, 6):
        s = field_make(n)
        for d in range(1, s.size):
            predicted = permutation_check(n, d).is_permutation
            lut = build_lut(s, d).lut
            actual = bool(np.bincount(lut, minlength=s.size).all())
            assert predicted == actual, (n, d)


def test_inverse_map():
    s = field_make(6)
    inv = inverse_map(s)
    assert int(inv.lut[0]) == 0
    for x in range(1, s.size):
        assert f_mul(s, x, int(inv.lut[x])) == 1
    # an involution: applying it twice gives the identity
    assert (inv.lut[inv.lut] == np.arange(s.size)).all()


# (family, n, d, conditioned, nl, permutation) frozen from full sweeps
EXPECTED_ROWS = [
    ("gold", 6, 5, True, 24, True),
    ("kasami", 6, 13, True, 24, True),
    ("inverse", 4, 14, True, 4, True),
    ("inverse", 6, 62, True, 24, True),
    ("inverse", 8, 254, True, 112, True),
    ("inverse", 10, 1022, True, 480, True),
    ("inverse", 12, 4094, True, 1984, True),
    ("dobbertin", 4, 7, True, 4, True),
    ("dobbertin", 8, 21, False, 112, False),
    ("dobbertin", 12, 73, True, 1984, True),
]


def test_catalog_table_full():
    entries = catalog_table(12)
    got = [(e.family.family, e.family.n, e.family.d, e.conditions_met,
            e.summary.nl, e.summary.is_permutation) for e in entries]
    assert got == EXPECTED_ROWS
    for e in entries:
        assert e.summary.delta == 4
        if e.conditions_met:
            assert e.expected_delta == 4
            assert e.expected_permutation is True
        else:
            assert e.expected_delta is None
            assert e.expected_permutation is None


def test_catalog_table_deep_rows():
    entries = catalog_table(10, deep=True)
    tagged = {(e.family.family, e.family.n): e for e in entries}
    for fam in ("gold", "kasami"):
        e = tagged[(fam, 10)]
        assert e.family.param == 4
        assert e.conditions_met
        assert e.summary.delta == 4
        assert e.summary.nl == 480
        assert e.summary.is_permutation


def test_catalog_table_degree_limit():
    # no row exceeds degree 12, so a larger max_n measures the same rows
    def rows(max_n):
        return [(e.family, vars(e.summary)) for e in catalog_table(max_n)]
    assert rows(17) == rows(12)


def test_catalog_table_refuses_a_max_n_without_rows():
    for max_n in (-5, 0, 3):
        with pytest.raises(ValueError, match=f"no catalog row has degree <= {max_n}"):
            catalog_table(max_n)
    assert {e.family.n for e in catalog_table(4)} == {4}
