"""Command-line front end.

Three subcommands:

* ``analyze`` -- measure one map (an exponent or a LUT file): differential
  uniformity, nonlinearity, Walsh extremum, flags; optional JSON report and
  CSV difference-table dump.
* ``verify`` -- run the derivation replays and split-coordinate checks and
  print a pass/fail table.
* ``catalog`` -- measure the built-in differentially-4 families and compare
  against their predicted properties.

Exit codes: 0 success, 1 verification/measurement mismatch, 2 usage or
input errors.

:func:`run` is the process entry point (``python -m gf2lab``, ``python -m
gf2lab.cli`` and the ``gf2lab`` script); :func:`main` is the in-process one.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from itertools import islice

import numpy as np

from .catalog import catalog_table
from .field import FieldConstructionError, field_make
from .lutio import _HEX_TOKEN, LutParseError, read_lut, write_lut
from .report import AnalysisReport, report_to_json
from .spectra import (FunctionTable, _delta, _spectrum, build_lut, ddt_rows,
                      require_desk_scale, summarize)
from .theorems import run_all_checks


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored: every sweep runs "
                        "on one thread")
    p.add_argument("--deep", action="store_true",
                   help="allow passes that fill more entries than a full sweep "
                        "over GF(2^15): full sweeps with n >= 16 (analyze "
                        "--ddt-csv or a table without power structure, verify "
                        "--k 4) and the larger power-map orbit passes; on "
                        "catalog, add the n = 10 Gold and Kasami rows")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gf2lab",
        description="Exact spectra and proof-step verification for maps on GF(2^n)")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="measure one map")
    src = pa.add_mutually_exclusive_group(required=True)
    src.add_argument("--exp", type=int, help="analyze the power map x^d")
    src.add_argument("--lut", help="analyze a lookup-table file")
    pa.add_argument("--n", type=int, help="field degree (required with --exp)")
    pa.add_argument("--poly", help="field modulus as hex, with --exp only "
                                   "(default: least irreducible)")
    pa.add_argument("--json", help="write the JSON report to this path")
    pa.add_argument("--ddt-csv", help="dump the full difference table as CSV")
    pa.add_argument("--write-lut", help="also write the analyzed map as a LUT file")
    _add_common(pa)

    pv = sub.add_parser("verify", help="replay the derivations and print a check table")
    pv.add_argument("--k", default="1,2,3",
                    help="comma-separated k values (field degree 4k); default 1,2,3")
    pv.add_argument("--samples", type=int, default=None,
                    help="random pairs per replay sweep (default: exhaustive for k<=2, 1000 above)")
    pv.add_argument("--all-gamma", action="store_true",
                    help="repeat the split-coordinate suite for every qualifying gamma")
    _add_common(pv)

    pc = sub.add_parser("catalog", help="measure the built-in families")
    pc.add_argument("--max-n", type=int, default=12, help="largest field degree")
    _add_common(pc)
    return ap


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# DDT entries per block of the CSV dump
CSV_BLOCK_ENTRIES = 1 << 16


def _glyphs(top: int) -> np.ndarray:
    """The text of every count 0..top, first followed by "," and then
    (from index top + 1 on) by CRLF, NUL-padded to one width of at least 4."""
    text = [f"{v}," for v in range(top + 1)] + [f"{v}\r\n" for v in range(top + 1)]
    return np.array(text, dtype=f"S{max(4, len(str(top)) + 2)}")


def _write_ddt_csv(path: str, table: FunctionTable) -> int:
    """Write the rows of ddt_rows(table) as CSV, as csv.writer would (CRLF
    line ends), and return their largest count.

    Each block of rows is one gather from the glyph table of its largest
    count, with the NUL padding deleted from the bytes.  A table is made
    once per largest count.
    """
    delta, glyphs = 0, {}
    rows = ddt_rows(table)
    per = max(1, CSV_BLOCK_ENTRIES // table.spec.size)
    with open(path, "wb") as fh:
        while chunk := [row.counts for row in islice(rows, per)]:
            block = np.stack(chunk)
            top = int(block.max())
            delta = max(delta, top)
            if top not in glyphs:
                glyphs[top] = _glyphs(top)
            block[:, -1] += top + 1  # the last column ends its line
            fh.write(glyphs[top][block].tobytes().translate(None, b"\0"))
    return delta


def _analyze(args) -> int:
    timings: dict[str, float] = {}
    table = None
    if args.exp is not None:
        if args.n is None:
            return _fail_usage("--exp requires --n")
        if args.exp < 0:
            return _fail_usage("--exp must be non-negative")
        if args.poly is not None and not _HEX_TOKEN.fullmatch(args.poly):
            return _fail_usage(f"--poly must be hexadecimal digits, got {args.poly!r}")
        try:
            poly = None if args.poly is None else int(args.poly, 16)
            s = field_make(args.n, poly)
        except (ValueError, FieldConstructionError) as e:
            return _fail_usage(str(e))
        exponent, digest = args.exp, None
    else:
        if args.n is not None or args.poly is not None:
            return _fail_usage("--n and --poly apply to --exp only; a LUT file "
                               "names its field in its header")
        try:
            table, digest = read_lut(args.lut)
        except (LutParseError, FieldConstructionError, ValueError) as e:
            return _fail_usage(f"{args.lut}: {e}")
        s, exponent = table.spec, None
    # the DDT dump is a full sweep whatever the map
    orbit = None if args.ddt_csv else (args.exp if table is None else table.exponent)
    try:
        require_desk_scale(s.n, args.deep, orbit)
    except ValueError as e:
        return _fail_usage(str(e))
    if table is None:
        t0 = time.perf_counter()
        table = build_lut(s, args.exp)
        timings["build"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    if args.ddt_csv:
        delta = _write_ddt_csv(args.ddt_csv, table)
    else:
        delta = _delta(table, args.deep)
    timings["ddt"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    ws = _spectrum(table, args.deep)
    timings["walsh"] = (time.perf_counter() - t0) * 1e3

    summ = summarize(table, delta, ws)
    rep = AnalysisReport(s, exponent, digest, summ, timings)
    rep.validate()

    if args.write_lut:
        write_lut(args.write_lut, table)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report_to_json(rep))

    desc = f"lut sha256 {digest[:16]}..." if exponent is None else f"x^{exponent}"
    print(f"field GF(2^{s.n}), modulus {s.poly:#x}")
    print(f"map {desc}")
    print(f"permutation: {'yes' if summ.is_permutation else 'no'}")
    print(f"delta (differential uniformity): {delta}")
    print(f"nonlinearity: {summ.nl}   walsh max: {summ.walsh_max}")
    # the conventional even-degree candidates differ; print both next to the measurement
    half = s.n // 2
    if s.n % 2 == 0:
        print(f"even-degree reference points: 2^(n-1) - 2^(n/2) = {(1 << (s.n - 1)) - (1 << half)}, "
              f"2^(n-1) - 2^(n/2 - 1) = {(1 << (s.n - 1)) - (1 << (half - 1))}")
    ab = "n/a (even degree)" if summ.is_ab is None else ("yes" if summ.is_ab else "no")
    print(f"apn: {'yes' if summ.is_apn else 'no'}   ab: {ab}")
    return 0


def _verify(args) -> int:
    try:
        ks = [int(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError:
        return _fail_usage(f"bad --k list: {args.k!r}")
    if not ks:
        return _fail_usage("empty --k list")
    try:
        reports = run_all_checks(ks, samples=args.samples,
                                 all_gamma=args.all_gamma, deep=args.deep)
    except ValueError as e:
        return _fail_usage(str(e))
    width = max(len(r.name) for r in reports)
    print(f"{'check':<{width}}  {'instances':>10}  {'failures':>8}")
    for r in reports:
        print(f"{r.name:<{width}}  {r.instances:>10}  {r.failures:>8}")
    bad = [r for r in reports if r.failures]
    if bad:
        first = next((r.first_failure for r in bad if r.first_failure), None)
        print(f"\nFAILED: {len(bad)} check(s); first counterexample: {first}")
        return 1
    print("\nall checks passed")
    return 0


def _catalog(args) -> int:
    try:
        entries = catalog_table(args.max_n, deep=args.deep)
    except ValueError as e:
        return _fail_usage(str(e))
    hdr = (f"{'family':<10} {'n':>3} {'d':>6} {'cond':>5} "
           f"{'delta':>6} {'nl':>6} {'perm':>5} {'pred':>12}")
    print(hdr)
    mismatches = 0
    for e in entries:
        summ = e.summary
        pred = "-"
        if e.conditions_met:
            ok = summ.delta == e.expected_delta and summ.is_permutation == e.expected_permutation
            pred = "ok" if ok else "MISMATCH"
            mismatches += 0 if ok else 1
        toks = f"{e.family.family:<10} {e.family.n:>3} {e.family.d:>6} "
        toks += f"{'yes' if e.conditions_met else 'no':>5} "
        toks += f"{summ.delta:>6} {summ.nl:>6} {'yes' if summ.is_permutation else 'no':>5} {pred:>12}"
        print(toks)
    return 1 if mismatches else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        try:
            return _analyze(args)
        except OSError as e:  # --lut, --ddt-csv, --write-lut or --json
            return _fail_usage(str(e))
    if args.command == "verify":
        return _verify(args)
    return _catalog(args)


def run() -> None:
    """Run main() on the command line and exit with its code.

    The objects alive before and after main() are frozen, so the cycle
    collector never walks them again: not in the job's full collections,
    and not at interpreter exit, where walking the ~22 000 objects that
    importing this module leaves tracked took about 16 ms of a 200 ms
    verify job.  The process ends right after, so nothing frozen could be
    reclaimed; callers of main() keep a normal collector.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
