"""Golden digests of every deterministic output.

Each case runs :func:`gf2lab.cli.main` in process and pins its exit code
and the sha256 of its stdout against ``tests/golden.json``; a case that
writes a JSON report also pins the sha256 of its ``results`` (keys
sorted), and one that writes a ``--ddt-csv`` dump the sha256 of the file.
The ``analyze --lut`` cases read tables and permutations drawn with
Python's ``random`` from a fixed seed.  ``{dir}`` in an argv is the
directory that holds those LUT files and the case's outputs.

The test never writes ``golden.json``.  A change that alters an output
edits the lines it changes by hand.  To print the current digests::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from gf2lab import field_make, lut_from_values, write_lut
from gf2lab.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 2009
LUTS = [(kind, n) for n in (8, 10, 11) for kind in ("table", "permutation")]


def _lut_case(kind, n):
    return (f"analyze --lut {kind} n={n}",
            ["analyze", "--lut", f"{{dir}}/{kind}{n}.lut",
             "--json", "{dir}/report.json", "--ddt-csv", "{dir}/ddt.csv"])


CASES = dict([
    ("verify --k 1,2", ["verify", "--k", "1,2"]),
    ("verify --k 1,2,3", ["verify", "--k", "1,2,3"]),
    ("verify --k 3 --samples 20000", ["verify", "--k", "3", "--samples", "20000"]),
    ("verify --k 3 --all-gamma --samples 5000",
     ["verify", "--k", "3", "--all-gamma", "--samples", "5000"]),
    ("verify --k 1,2,4", ["verify", "--k", "1,2,4"]),
    ("verify --k 1,2,5 (refused)", ["verify", "--k", "1,2,5"]),
    ("verify --samples 0 (refused)", ["verify", "--samples", "0"]),
    ("verify --k 1,1 (refused)", ["verify", "--k", "1,1"]),
    ("catalog --max-n 12", ["catalog", "--max-n", "12"]),
    ("catalog --max-n 12 --deep", ["catalog", "--max-n", "12", "--deep"]),
    ("catalog --max-n 17", ["catalog", "--max-n", "17"]),
    *((f"analyze --exp {d} --n 12", ["analyze", "--exp", str(d), "--n", "12"])
      for d in (73, 4094, 2730, 0, 4095)),
    ("analyze --exp 1234 --n 13", ["analyze", "--exp", "1234", "--n", "13"]),
    ("analyze --exp 21 --n 8", ["analyze", "--exp", "21", "--n", "8"]),
    ("analyze --exp 21 --n 8 --poly 11d",
     ["analyze", "--exp", "21", "--n", "8", "--poly", "11d"]),
    ("analyze --exp 273 --n 16", ["analyze", "--exp", "273", "--n", "16"]),
    ("analyze --exp 1057 --n 20", ["analyze", "--exp", "1057", "--n", "20"]),
    *(_lut_case(kind, n) for kind, n in LUTS),
])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_luts(folder: Path) -> None:
    """Write the drawn tables and permutations as LUT files into folder."""
    for kind, n in LUTS:
        size = 1 << n
        rng = random.Random(SEED + n)
        values = (rng.sample(range(size), size) if kind == "permutation"
                  else [rng.randrange(size) for _ in range(size)])
        write_lut(folder / f"{kind}{n}.lut", lut_from_values(field_make(n), values))


def run_case(argv: list[str], folder: Path) -> dict:
    """The exit code and the digests of one case, run with {dir} = folder."""
    args = [a.replace("{dir}", str(folder)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    got = {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue().encode())}
    if "--json" in args:
        path = Path(args[args.index("--json") + 1])
        results = json.loads(path.read_text())["results"]
        got["results"] = _sha256(json.dumps(results, sort_keys=True).encode())
        path.unlink()
    if "--ddt-csv" in args:
        path = Path(args[args.index("--ddt-csv") + 1])
        got["ddt_csv"] = _sha256(path.read_bytes())
        path.unlink()
    return got


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_luts(path)
    return path


def test_golden_file_lists_every_case():
    assert list(json.loads(GOLDEN.read_text())) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_its_golden_digest(name, folder):
    assert run_case(CASES[name], folder) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_luts(Path(tmp))
        digests = {name: run_case(argv, Path(tmp)) for name, argv in CASES.items()}
    json.dump(digests, sys.stdout, indent=2)
    print()
