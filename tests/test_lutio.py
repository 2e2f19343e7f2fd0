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


def test_round_trip(tmp_path):
    table = build_lut(field_make(6), 13)
    path = tmp_path / "map.lut"
    write_lut(path, table)
    back, digest = read_lut(path)
    assert back.spec == table.spec
    assert list(back.lut) == list(table.lut)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


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


def test_header_modulus_in_either_case(tmp_path):
    # the values are read in either case, and so is the header's modulus
    write_lut(tmp_path / "lower.lut", build_lut(field_make(8, 0x11B), 7))
    header, body = (tmp_path / "lower.lut").read_text().split("\n", 1)
    assert header == "n=8 poly=11b"
    lower, _ = read_lut(tmp_path / "lower.lut")
    upper, _ = read_lut(_write(tmp_path, f"n=8 poly=11B\n{body}"))
    assert upper.spec == lower.spec and np.array_equal(upper.lut, lower.lut)


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


@pytest.mark.parametrize("tail", ["\n", "", "\n\n"], ids=["newline", "none", "blank-line"])
def test_too_few_values_reports_the_last_line(tmp_path, tail):
    text = "n=4 poly=13\n1 2 3" + tail
    with pytest.raises(LutParseError, match="expected 16 values, found 3") as exc:
        read_lut(_write(tmp_path, text))
    assert exc.value.line == (3 if tail == "\n\n" else 2)


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f"],
                         ids=["vt", "ff", "fs", "gs", "rs", "us"])
def test_only_line_breaks_count_lines(tmp_path, sep):
    # str.splitlines() would break at \v, \f and \x1c-\x1e as well, and
    # report the bad token below one line too far down
    text = f"n=4 poly=13\n0 1{sep}2 3\n4 5 zz 7\n"
    with pytest.raises(LutParseError, match="not a hexadecimal value: 'zz'") as exc:
        read_lut(_write(tmp_path, text))
    assert exc.value.line == 3


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_each_line_break_ends_one_line(tmp_path, brk):
    path = tmp_path / "bad.lut"
    path.write_bytes(brk.join(["n=4 poly=13", "0 1 2 3", "", "4 5 zz 7", ""]).encode())
    with pytest.raises(LutParseError) as exc:
        read_lut(path)
    assert exc.value.line == 4


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c"], ids=["vt", "ff", "fs"])
def test_other_whitespace_separates_values(tmp_path, sep):
    table = build_lut(field_make(4), 7)
    text = "n=4 poly=13\n" + sep.join(format(int(v), "x") for v in table.lut) + "\n"
    back, _ = read_lut(_write(tmp_path, text))
    assert back.lut.tolist() == table.lut.tolist()


@pytest.mark.parametrize("body, line, detail", [
    ("0 99 zz", 2, "value 99 out of range for GF(2^4)"),
    ("0 zz 99", 2, "not a hexadecimal value: 'zz'"),
    (" ".join(["0"] * 16) + "\n1 zz", 3, "more than 16 values"),
    (" ".join(["0"] * 16) + "\n99 1", 3, "value 99 out of range for GF(2^4)"),
], ids=["range-then-token", "token-then-range", "count-own-line", "range-before-count"])
def test_first_failure_in_file_order_wins(tmp_path, body, line, detail):
    with pytest.raises(LutParseError) as exc:
        read_lut(_write(tmp_path, f"n=4 poly=13\n{body}\n"))
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {detail}")


def test_reducible_modulus_rejected(tmp_path):
    text = "n=4 poly=11\n" + " ".join(["0"] * 16) + "\n"
    with pytest.raises(FieldConstructionError):
        read_lut(_write(tmp_path, text))
