"""Reading and writing lookup-table files.

The exchange format is plain text: a header line ``n=<degree> poly=<hex>``
followed by exactly 2^n whitespace-separated hexadecimal values (no prefix),
the i-th value being the image of the element with integer encoding i.
Hexadecimal keeps the files bit-exact and readable at n <= 16.
:func:`write_lut` writes lowercase hex, 16 values on a line; :func:`read_lut`
takes hex digits of either case, in the modulus as in the values.  A line
ends at ``\n``, ``\r\n`` or ``\r``, and parse errors give its 1-based
number; any other whitespace (``\v``, ``\f``, ``\x1c`` to ``\x1f``
included) separates values within a line.

:func:`read_lut` imports ``hashlib`` itself: loading it maps OpenSSL's
libcrypto, about 3.8 MB of peak resident memory, which a process that
reads no LUT file should not pay.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .field import field_make
from .spectra import FunctionTable, lut_from_values

__all__ = ["LutParseError", "read_lut", "write_lut"]

_HEADER = re.compile(r"^n=(\d+)\s+poly=([0-9a-fA-F]+)\s*$")
# int(tok, 16) alone would also take signs, a 0x prefix and underscores
_HEX_TOKEN = re.compile(r"[0-9a-fA-F]+")
# str.splitlines() would also break at \v, \f and \x1c-\x1e
_LINE_END = re.compile(r"\r\n?|\n")


class LutParseError(ValueError):
    """Malformed lookup-table file; carries the 1-based offending line."""

    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


def read_lut(path: str | Path) -> tuple[FunctionTable, str]:
    """Parse a lookup-table file.

    Returns
    -------
    (table, digest)
        The validated FunctionTable and the sha256 hex digest of the raw
        file bytes (used as the map descriptor in reports).
    """
    import hashlib

    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    lines = _LINE_END.split(raw.decode("ascii", errors="replace"))
    if not lines[-1]:
        lines.pop()  # the break that ends the last line opens none
    if not lines:
        raise LutParseError(1, "empty file, expected 'n=<degree> poly=<hex>' header")
    m = _HEADER.match(lines[0].strip())
    if not m:
        raise LutParseError(1, f"bad header {lines[0]!r}, expected 'n=<degree> poly=<hex>'")
    n = int(m.group(1))
    poly = int(m.group(2), 16)
    spec = field_make(n, poly)  # propagates construction errors
    values = []
    size = spec.size
    # token by token, so the first failure in file order is the one reported
    for line_no, line in enumerate(lines[1:], start=2):
        for tok in line.split():
            if not _HEX_TOKEN.fullmatch(tok):
                raise LutParseError(line_no, f"not a hexadecimal value: {tok!r}")
            value = int(tok, 16)
            if value >= size:
                raise LutParseError(line_no, f"value {tok} out of range for GF(2^{n})")
            if len(values) == size:
                raise LutParseError(line_no, f"more than {size} values")
            values.append(value)
    if len(values) < size:
        raise LutParseError(len(lines), f"expected {size} values, found {len(values)}")
    # ints already range-checked: typed here, numpy need not infer a dtype
    return lut_from_values(spec, np.array(values, dtype=np.int64)), digest


def write_lut(path: str | Path, f: FunctionTable) -> None:
    """Write a FunctionTable in the exchange format, 16 values per line."""
    s = f.spec
    out = [f"n={s.n} poly={s.poly:x}"]
    vals = [format(int(v), "x") for v in f.lut]
    for i in range(0, len(vals), 16):
        out.append(" ".join(vals[i:i + 16]))
    Path(path).write_text("\n".join(out) + "\n", encoding="ascii")
