"""Seeded job lists for the gf2lab CLI benchmark, and the per-job output checks.

A workload is a list of CLI jobs (argv for ``python -m gf2lab``).  Every input
the program sees -- exponents and ``.lut`` files -- is made here from the
seed, before any timing starts; the same seed gives byte-identical job lists
and tables.

Each workload is built from *rounds*.  A round has a fixed shape (which field
degrees, which kinds of exponent or table, which flags); the seed only picks
the concrete exponents and tables inside that shape.  Per-job cost depends on
the shape, not on the drawn values, so the figures stay comparable across
seeds.  ``rounds_for`` turns the requested measuring time into a round count
using the nominal round cost measured on the reference machine (see
README.md).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

import numpy as np

WORKLOADS = ("power-spectra", "table-spectra", "proof-replay")

# Nominal seconds of one round on the reference machine (2-core Xeon).
ROUND_SECONDS = {"power-spectra": 28.0, "table-spectra": 24.0, "proof-replay": 5.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy.

    ``argv`` is passed to ``python -m gf2lab``; paths in it are relative to
    the checkout root.  ``expect`` holds the facts the checker compares
    against, all derived from the generated inputs.
    """

    argv: tuple[str, ...]
    kind: str                      # "analyze", "verify" or "catalog"
    expect: dict = field(default_factory=dict)

    def label(self) -> str:
        return " ".join(self.argv)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ---------------------------------------------------------------------------
# power-spectra: analyze --exp and catalog
# ---------------------------------------------------------------------------

DOBBERTIN_12 = 73   # 2^(2k) + 2^k + 1 with k = 3: delta 4, Walsh extremum 2^(2k+1)

# The counts in POWER_SLOTS, TABLE_SLOTS and VERIFY_ROUND put job_s.p50 and
# job_s.tail inside a large group of equally expensive jobs, low in it where
# the list allows, so a few jobs caught in the host's slow state do not move
# them by a whole group's cost (README.md).

# One round: (degree, exponent kind).  "coprime" draws d with
# gcd(d, 2^n - 1) = 1, "shared" draws d with gcd > 1 (2^13 - 1 is prime, so
# n = 13 has only coprime exponents), "inverse" is d = 2^n - 2 and
# "dobbertin" is the degree-4k exponent 2^(2k) + 2^k + 1 at n = 12.
POWER_SLOTS = (
    (10, "inverse"), (10, "coprime"), (10, "coprime"), (10, "shared"),
    (11, "inverse"), (11, "coprime"), (11, "coprime"), (11, "shared"),
    (12, "dobbertin"), (12, "inverse"), (12, "coprime"), (12, "coprime"), (12, "coprime"),
    (12, "shared"), (12, "shared"), (12, "shared"),
    (13, "coprime"),
)


def _draw_exponent(rng: random.Random, n: int, kind: str) -> int:
    order = (1 << n) - 1
    if kind == "inverse":
        return order - 1
    if kind == "dobbertin":
        return DOBBERTIN_12
    want_coprime = kind == "coprime"
    while True:
        d = rng.randrange(3, order - 1)
        if (gcd(d, order) == 1) == want_coprime:
            return d


def _power_round(rng: random.Random, work: Path, tag: str) -> list[Job]:
    jobs = []
    for i, (n, kind) in enumerate(POWER_SLOTS):
        d = _draw_exponent(rng, n, kind)
        out = str(work / f"{tag}-exp{i}.json")
        jobs.append(Job(
            ("analyze", "--exp", str(d), "--n", str(n), "--threads", "1", "--json", out),
            "analyze",
            {"n": n, "d": d, "json": out, "f0": 0,
             "is_permutation": gcd(d, (1 << n) - 1) == 1}))
    for deep in (False, True):
        argv = ("catalog", "--max-n", "12", "--threads", "1") + (("--deep",) if deep else ())
        jobs.append(Job(argv, "catalog", {"rows": catalog_rows(12, deep)}))
    return jobs


def catalog_rows(max_n: int, deep: bool) -> list[tuple[str, int]]:
    """(family, n) rows the catalog prints for this degree limit."""
    rows = []
    if max_n >= 6:
        rows += [("gold", 6), ("kasami", 6)]
    if deep and max_n >= 10:
        rows += [("gold", 10), ("kasami", 10)]
    rows += [("inverse", n) for n in (4, 6, 8, 10, 12) if n <= max_n]
    rows += [("dobbertin", 4 * k) for k in (1, 2, 3) if 4 * k <= max_n]
    return rows


# ---------------------------------------------------------------------------
# table-spectra: analyze --lut on seeded random tables
# ---------------------------------------------------------------------------

# One round: (degree, permutation?).  Half permutations, half arbitrary
# functions; jobs at n <= 11 also dump the DDT as CSV.
TABLE_SLOTS = tuple((n, perm) for n, reps in ((10, 5), (11, 3), (12, 4))
                    for _ in range(reps) for perm in (True, False))
CSV_MAX_DEGREE = 11


def least_irreducible(n: int) -> int:
    """Lexicographically least irreducible binary polynomial of degree n."""
    def mod(a: int, b: int) -> int:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        return a
    for poly in range((1 << n) + 1, 1 << (n + 1), 2):
        if all(mod(poly, q) for q in range(2, 1 << (n // 2 + 1))):
            return poly
    raise ValueError(f"no irreducible polynomial of degree {n}")


def write_lut_file(path: Path, n: int, values: list[int]) -> None:
    """The ``.lut`` text format: header, then 16 lowercase hex values a line."""
    lines = [f"n={n} poly={least_irreducible(n):x}"]
    hexed = [format(v, "x") for v in values]
    lines += [" ".join(hexed[i:i + 16]) for i in range(0, len(hexed), 16)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _table_round(rng: random.Random, work: Path, tag: str, threads: int) -> list[Job]:
    jobs = []
    for i, (n, perm) in enumerate(TABLE_SLOTS):
        size = 1 << n
        if perm:
            values = list(range(size))
            rng.shuffle(values)
        else:
            values = [rng.randrange(size) for _ in range(size)]
        lut = work / f"{tag}-t{i}.lut"
        write_lut_file(lut, n, values)
        out = str(work / f"{tag}-t{i}.json")
        argv = ["analyze", "--lut", str(lut), "--threads", str(threads), "--json", out]
        expect = {"n": n, "json": out, "f0": values[0],
                  "is_permutation": len(set(values)) == size}
        if n <= CSV_MAX_DEGREE:
            csv = str(work / f"{tag}-t{i}.csv")
            argv += ["--ddt-csv", csv]
            expect["csv"] = csv
        jobs.append(Job(tuple(argv), "analyze", expect))
    return jobs


# ---------------------------------------------------------------------------
# proof-replay: verify
# ---------------------------------------------------------------------------

# The CLI takes no seed for the replay, so this list is the same for every
# benchmark seed; the seed only shuffles the job order.
VERIFY_ROUND = (
    ("--k", "1,2"),
    ("--k", "3", "--samples", "20000"),
    ("--k", "3", "--samples", "20000"),
    ("--k", "3", "--all-gamma", "--samples", "5000"),
    ("--k", "3", "--all-gamma", "--samples", "5000"),
)


def _verify_round() -> list[Job]:
    jobs = []
    for flags in VERIFY_ROUND:
        ks = [int(t) for t in flags[1].split(",")]
        jobs.append(Job(("verify",) + flags + ("--threads", "1"), "verify",
                        {"ks": ks, "all_gamma": "--all-gamma" in flags}))
    return jobs


def make_jobs(workload: str, seed: int, seconds: float, work: Path,
              threads: int) -> list[Job]:
    """The seeded job list; writes the generated ``.lut`` files into ``work``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    jobs: list[Job] = []
    for r in range(rounds_for(workload, seconds)):
        if workload == "power-spectra":
            jobs += _power_round(rng, work, f"r{r}")
        elif workload == "table-spectra":
            jobs += _table_round(rng, work, f"r{r}", threads)
        else:
            jobs += _verify_round()
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

VERIFY_CHECKS = ("delta-sweep", "reduction-replay", "mm-basis", "mm-decomposition",
                 "mm-fibers", "mm-quartic", "mm-walsh-crosscheck", "mm-extremal-sum")


def check_analyze(expect: dict, doc: dict) -> list[str]:
    """Identities every exact spectrum must satisfy, plus known answers."""
    n = expect["n"]
    size = 1 << n
    res = doc["results"]
    hist = {int(v): c for v, c in res["lambda_histogram"].items()}
    delta, wmax = res["delta"], res["walsh_max"]
    errs = []
    if sum(hist.values()) != size * (size - 1):
        errs.append(f"histogram mass {sum(hist.values())} != 2^n(2^n-1)")
    if sum(v * v * c for v, c in hist.items()) != size * size * (size - 1):
        errs.append("Parseval identity fails")
    # sum over a and b != 0 of W(a, b) is 2^n * sum_b (-1)^Tr(b f(0))
    want_sum = size * (size - 1) if expect["f0"] == 0 else -size
    if sum(v * c for v, c in hist.items()) != want_sum:
        errs.append("coefficient sum does not match f(0)")
    if hist and max(abs(v) for v in hist) != wmax:
        errs.append("walsh_max is not the histogram extremum")
    if res["nl"] != (size >> 1) - wmax // 2:
        errs.append(f"nl {res['nl']} != 2^(n-1) - walsh_max/2")
    if delta % 2 or not 2 <= delta <= size:
        errs.append(f"delta {delta} is not an even value in [2, 2^n]")
    if res["is_apn"] != (delta == 2):
        errs.append("is_apn disagrees with delta")
    if res["is_permutation"] != expect["is_permutation"]:
        errs.append("is_permutation disagrees with the input")
    d = expect.get("d")
    if n == 12 and d == DOBBERTIN_12 and (delta, wmax) != (4, 128):
        errs.append(f"x^{d} on GF(2^12): delta {delta}, walsh_max {wmax}, want 4 and 128")
    if d == size - 2 and n % 2 == 0 and delta != 4:
        errs.append(f"inverse on even degree: delta {delta}, want 4")
    if d == size - 2 and n % 2 == 1 and delta != 2:
        errs.append(f"inverse on odd degree: delta {delta}, want 2")
    return errs


def check_ddt_csv(text: str, n: int, delta: int) -> list[str]:
    size = 1 << n
    rows = text.split()
    if len(rows) != size - 1:
        return [f"DDT CSV has {len(rows)} rows, want {size - 1}"]
    ddt = np.fromstring(",".join(rows), dtype=np.int64, sep=",")
    if ddt.size != size * (size - 1):
        return ["DDT CSV rows have the wrong length"]
    ddt = ddt.reshape(size - 1, size)
    errs = []
    if (ddt.sum(axis=1) != size).any():
        errs.append("a DDT row does not sum to 2^n")
    if (ddt % 2).any():
        errs.append("odd DDT entry")
    if int(ddt.max()) != delta:
        errs.append("DDT maximum differs from the reported delta")
    return errs


def check_verify(expect: dict, stdout: str) -> list[str]:
    errs = []
    if "all checks passed" not in stdout:
        errs.append("'all checks passed' missing")
    names = []
    for line in stdout.splitlines():
        toks = line.split()
        if len(toks) == 3 and "[" in toks[0]:
            names.append(toks[0])
            if toks[2] != "0":
                errs.append(f"{toks[0]}: {toks[2]} failures")
    for k in expect["ks"]:
        for check in VERIFY_CHECKS:
            if not any(nm.startswith(f"{check}[k={k}") for nm in names):
                errs.append(f"check {check}[k={k}] missing")
    return errs


def check_catalog(expect: dict, stdout: str) -> list[str]:
    rows = []
    errs = []
    for line in stdout.splitlines()[1:]:
        toks = line.split()
        if len(toks) != 8:
            continue
        rows.append((toks[0], int(toks[1])))
        if toks[7] not in ("ok", "-"):
            errs.append(f"catalog row {toks[0]} n={toks[1]}: {toks[7]}")
    if sorted(rows) != sorted(tuple(r) for r in expect["rows"]):
        errs.append(f"catalog rows {rows} differ from the expected set")
    return errs


def check_job(job: Job, returncode: int, stdout: str, root: Path) -> list[str]:
    """Every reason this job's output is wrong; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        if job.kind == "verify":
            return check_verify(job.expect, stdout)
        if job.kind == "catalog":
            return check_catalog(job.expect, stdout)
        doc = json.loads((root / job.expect["json"]).read_text())
        errs = check_analyze(job.expect, doc)
        if "csv" in job.expect:
            csv_path = root / job.expect["csv"]
            errs += check_ddt_csv(csv_path.read_text(), job.expect["n"],
                                  doc["results"]["delta"])
        return errs
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {e!r}"]
