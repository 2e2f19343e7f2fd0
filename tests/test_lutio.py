"""Lookup-table file format: round trips and parse diagnostics."""

import hashlib
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gf2lab import (FieldConstructionError, LutParseError, build_lut, field_make,
                    lut_from_values, read_lut, write_lut)
from gf2lab.lutio import lut_digest

FROZEN_DIGEST_N4_D7 = "65da0655c8c79aa966a088cb342305933b9c826c85f58eb51b94e549c1a83cad"


def test_round_trip(tmp_path):
    table = build_lut(field_make(6), 13)
    path = tmp_path / "map.lut"
    write_lut(path, table)
    back, digest = read_lut(path)
    assert back.spec == table.spec
    assert list(back.lut) == list(table.lut)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert lut_digest(back) == lut_digest(table)


def _rewrap(body, per_line):
    """The whitespace-separated tokens of body, per_line to a line."""
    toks = body.split()
    return "".join(" ".join(toks[i:i + per_line]) + "\n"
                   for i in range(0, len(toks), per_line))


@lru_cache(maxsize=None)
def _moduli(n):
    """Every irreducible modulus of degree n."""
    found = []
    for poly in range((1 << n) | 1, 1 << (n + 1), 2):
        try:
            found.append(field_make(n, poly).poly)
        except FieldConstructionError:
            pass
    return found


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    # random degree, modulus and table; the reader takes any line width and
    # token case, so the written body is rewrapped and recased here
    n = data.draw(st.integers(2, 10), label="n")
    poly = data.draw(st.sampled_from(_moduli(n)), label="poly")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    per_line = data.draw(st.integers(1, 40), label="per_line")
    upper = data.draw(st.booleans(), label="upper")
    spec = field_make(n, poly)
    table = lut_from_values(spec, np.random.default_rng(seed).integers(0, spec.size, spec.size))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.lut"
        write_lut(path, table)
        header, body = path.read_text().split("\n", 1)
        body = _rewrap(body, per_line)
        path.write_text(f"{header}\n{body.upper() if upper else body}")
        back, digest = read_lut(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert back.spec == spec
    assert back.lut.tolist() == table.lut.tolist()
    assert lut_digest(back) == lut_digest(table)


def test_written_format(tmp_path):
    table = build_lut(field_make(4), 7)
    path = tmp_path / "map.lut"
    write_lut(path, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "n=4 poly=13"
    assert len(lines) == 2  # sixteen values fit on one line
    toks = lines[1].split()
    assert len(toks) == 16
    assert all(t == t.lower() for t in toks)
    assert [int(t, 16) for t in toks] == list(table.lut)


def test_canonical_digest_frozen():
    assert lut_digest(build_lut(field_make(4), 7)) == FROZEN_DIGEST_N4_D7


def test_digest_ignores_line_wrapping(tmp_path):
    table = build_lut(field_make(5), 3)
    a, b = tmp_path / "a.lut", tmp_path / "b.lut"
    write_lut(a, table)
    header, body = a.read_text().split("\n", 1)
    b.write_text(f"{header}\n{_rewrap(body, 4)}")
    assert a.read_bytes() != b.read_bytes()
    ta, _ = read_lut(a)
    tb, _ = read_lut(b)
    assert lut_digest(ta) == lut_digest(tb)


def _write(tmp_path, text):
    p = tmp_path / "bad.lut"
    p.write_text(text)
    return p


def test_empty_file(tmp_path):
    with pytest.raises(LutParseError) as exc:
        read_lut(_write(tmp_path, ""))
    assert exc.value.line == 1


def test_bad_header(tmp_path):
    for header in ("m=4 poly=13", "n=4poly=13", "n=four poly=13", "n=4 poly=g3"):
        with pytest.raises(LutParseError) as exc:
            read_lut(_write(tmp_path, header + "\n0 1 2 3\n"))
        assert exc.value.line == 1


@pytest.mark.parametrize("tok", ["zz", "-1", "0x1", "+1", "1_0"])
def test_non_hex_token_reports_line(tmp_path, tok):
    # int(tok, 16) takes all but "zz"; the format allows hex digits only
    text = f"n=4 poly=13\n0 1 2 3\n4 5 {tok} 7\n"
    with pytest.raises(LutParseError) as exc:
        read_lut(_write(tmp_path, text))
    assert exc.value.line == 3
    assert tok in str(exc.value)


def test_value_out_of_range(tmp_path):
    text = "n=4 poly=13\n" + " ".join(["0"] * 15) + " 99\n"
    with pytest.raises(LutParseError) as exc:
        read_lut(_write(tmp_path, text))
    assert exc.value.line == 2


def test_too_many_values(tmp_path):
    text = "n=4 poly=13\n" + " ".join(["1"] * 17) + "\n"
    with pytest.raises(LutParseError, match="more than 16"):
        read_lut(_write(tmp_path, text))


def test_too_few_values(tmp_path):
    text = "n=4 poly=13\n1 2 3\n"
    with pytest.raises(LutParseError, match="expected 16 values"):
        read_lut(_write(tmp_path, text))


def test_reducible_modulus_rejected(tmp_path):
    text = "n=4 poly=11\n" + " ".join(["0"] * 16) + "\n"
    with pytest.raises(FieldConstructionError):
        read_lut(_write(tmp_path, text))
