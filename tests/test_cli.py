"""Command-line interface: outputs, file side effects, exit codes."""

import csv
import gc
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gf2lab import (build_lut, ddt_rows, differential_uniformity, field_make,
                    lut_from_values, read_lut, walsh_spectrum, write_lut)
from gf2lab import cli
from gf2lab.cli import main
from gf2lab.theorems import CheckReport


def test_analyze_exponent_text(capsys):
    assert main(["analyze", "--exp", "7", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "field GF(2^4), modulus 0x13" in out
    assert "map x^7" in out
    assert "permutation: yes" in out
    assert "delta (differential uniformity): 4" in out
    assert "nonlinearity: 4" in out


def test_analyze_json_report(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert main(["analyze", "--exp", "7", "--n", "4",
                 "--json", str(out_json)]) == 0
    capsys.readouterr()
    doc = json.loads(out_json.read_text())
    assert doc["tool"]["name"] == "gf2lab"
    assert doc["field"] == {"n": 4, "poly": "13"}
    assert doc["map"]["kind"] == "exponent"
    assert doc["map"]["exponent"] == 7
    assert doc["map"]["lut_sha256"] is None
    res = doc["results"]
    assert res["delta"] == 4 and res["nl"] == 4 and res["walsh_max"] == 8
    assert res["is_permutation"] is True
    assert res["is_apn"] is False and res["is_ab"] is None
    hist = res["lambda_histogram"]
    assert set(hist) == {"-4", "0", "4", "8"}
    assert sum(hist.values()) == 16 * 15
    assert set(doc["timings_ms"]) == {"build", "ddt", "walsh"}


def test_analyze_json_document_is_pinned(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert main(["analyze", "--exp", "7", "--n", "4", "--json", str(out_json)]) == 0
    capsys.readouterr()
    text = out_json.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert set(doc.pop("timings_ms")) == {"build", "ddt", "walsh"}
    assert doc == {
        "tool": {"name": "gf2lab", "version": "0.1.0"},
        "field": {"n": 4, "poly": "13"},
        "map": {"kind": "exponent", "exponent": 7, "family": None, "lut_sha256": None},
        "results": {
            "is_permutation": True, "delta": 4, "nl": 4, "walsh_max": 8,
            "is_apn": False, "is_ab": None,
            "lambda_histogram": {"-4": 60, "0": 90, "4": 60, "8": 30},
        },
    }


@pytest.mark.parametrize("n,d", [(6, 13), (12, 73), (12, 2730), (8, 0)])
def test_analyze_lut_round_trip(tmp_path, capsys, n, d):
    # both sides are power maps, so both take the orbit engine: the named
    # full sweeps of the file's table are the oracle
    lut_path = tmp_path / "map.lut"
    assert main(["analyze", "--exp", str(d), "--n", str(n),
                 "--write-lut", str(lut_path)]) == 0
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["analyze", "--exp", str(d), "--n", str(n), "--json", str(first)]) == 0
    assert main(["analyze", "--lut", str(lut_path), "--json", str(second)]) == 0
    capsys.readouterr()
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    assert b["map"]["kind"] == "lut"
    assert b["map"]["lut_sha256"] == hashlib.sha256(lut_path.read_bytes()).hexdigest()
    assert a["results"] == b["results"]
    assert a["field"] == b["field"]
    table, _ = read_lut(lut_path)
    full = walsh_spectrum(table)
    assert b["results"]["delta"] == differential_uniformity(table)
    assert b["results"]["walsh_max"] == full.max_abs
    assert b["results"]["lambda_histogram"] == {str(v): c for v, c in full.histogram.items()}


def test_analyze_ddt_csv(tmp_path, capsys):
    csv_path = tmp_path / "ddt.csv"
    assert main(["analyze", "--exp", "7", "--n", "4",
                 "--ddt-csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "delta (differential uniformity): 4" in out
    with open(csv_path, newline="") as fh:
        rows = [[int(v) for v in row] for row in csv.reader(fh)]
    assert len(rows) == 15  # one row per nonzero difference
    for row in rows:
        assert len(row) == 16
        assert sum(row) == 16
        assert all(v % 2 == 0 for v in row)
    assert max(max(row) for row in rows) == 4


def test_analyze_ddt_csv_bytes_match_csv_writer(tmp_path, capsys):
    s = field_make(6)
    table = lut_from_values(s, np.random.default_rng(7).integers(0, s.size, s.size))
    lut_path, csv_path, ref_path = (tmp_path / name for name in ("t.lut", "ddt.csv", "ref.csv"))
    write_lut(lut_path, table)
    assert main(["analyze", "--lut", str(lut_path), "--ddt-csv", str(csv_path)]) == 0
    capsys.readouterr()
    with open(ref_path, "w", newline="") as fh:
        csv.writer(fh).writerows(row.counts.tolist() for row in ddt_rows(table))
    assert csv_path.read_bytes() == ref_path.read_bytes()
    assert csv_path.read_bytes().endswith(b"\r\n")


def _half_constant(s):
    # the identity on the lower half and 0 above: rows whose largest count
    # is wider than two digits next to rows whose largest is not
    return lut_from_values(s, [x if x < s.size // 2 else 0 for x in range(s.size)])


@pytest.mark.parametrize("make, block", [
    (lambda s: lut_from_values(s, [5] * s.size), None),  # every row counts 256 at 0
    (lambda s: lut_from_values(s, np.random.default_rng(3).integers(0, s.size, s.size)),
     1 << 11),                                           # 8 rows a block, 255 = 31*8 + 7
    (_half_constant, 1 << 10),                           # 4 rows a block, 255 = 63*4 + 3
], ids=["constant", "random-blocks", "mixed-width-blocks"])
def test_ddt_csv_blocks_match_csv_writer(tmp_path, capsys, monkeypatch, make, block):
    if block is not None:
        monkeypatch.setattr(cli, "CSV_BLOCK_ENTRIES", block)
    table = make(field_make(8))
    lut_path, csv_path, ref_path = (tmp_path / name for name in ("t.lut", "ddt.csv", "ref.csv"))
    write_lut(lut_path, table)
    assert main(["analyze", "--lut", str(lut_path), "--ddt-csv", str(csv_path)]) == 0
    counts = [row.counts.tolist() for row in ddt_rows(table)]
    delta = max(map(max, counts))
    assert f"delta (differential uniformity): {delta}\n" in capsys.readouterr().out
    with open(ref_path, "w", newline="") as fh:
        csv.writer(fh).writerows(counts)
    assert csv_path.read_bytes() == ref_path.read_bytes()


def test_analyze_alternate_modulus(capsys):
    assert main(["analyze", "--exp", "21", "--n", "8", "--poly", "11d"]) == 0
    out = capsys.readouterr().out
    assert "modulus 0x11d" in out
    assert "delta (differential uniformity): 4" in out


def test_analyze_usage_errors(tmp_path, capsys):
    assert main(["analyze", "--exp", "7"]) == 2          # missing --n
    assert main(["analyze", "--exp", "-1", "--n", "4"]) == 2
    assert main(["analyze", "--exp", "3", "--n", "4", "--poly", "11"]) == 2
    assert main(["analyze", "--exp", "3", "--n", "4", "--poly", "zz"]) == 2
    assert main(["analyze", "--lut", str(tmp_path / "missing.lut")]) == 2
    bad = tmp_path / "bad.lut"
    bad.write_text("n=4 poly=13\n1 2\n")
    assert main(["analyze", "--lut", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # int(s, 16) would take a sign, underscores and spaces; --poly takes hex digits
    for poly in (" +1_1d", "1_1d", "-11d"):
        assert main(["analyze", "--exp", "21", "--n", "8", f"--poly={poly}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--json", "--write-lut", "--ddt-csv"])
def test_analyze_unwritable_output_is_a_usage_error(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out"
    assert main(["analyze", "--exp", "7", "--n", "6", flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert str(path) in captured.err
    assert not (tmp_path / "missing").exists()


def test_analyze_refuses_large_fields_without_deep(capsys):
    assert main(["analyze", "--exp", "0", "--n", "17"]) == 2
    err = capsys.readouterr().err
    assert "--deep" in err


def test_every_entry_point_refuses_degree_16_before_any_work(tmp_path, capsys):
    lut16 = tmp_path / "f16.lut"
    write_lut(lut16, build_lut(field_make(16), 3))
    outs = [tmp_path / name for name in ("r.json", "d.csv", "m.lut")]
    flags = ["--json", str(outs[0]), "--ddt-csv", str(outs[1]), "--write-lut", str(outs[2])]
    for source in (["--exp", "3", "--n", "16"], ["--lut", str(lut16)]):
        assert main(["analyze", *source, *flags]) == 2
        assert not any(p.exists() for p in outs)
    assert main(["verify", "--k", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errs = captured.err.splitlines()
    assert len(errs) == 3
    assert all("GF(2^16)" in e and "deep=True" in e and "--deep" in e for e in errs)


def test_analyze_orbit_pass_within_budget_needs_no_deep(tmp_path, capsys):
    # x^273 on GF(2^16) (the family at k = 4): gcd(273, 2^16 - 1) = 3 rows
    lut = tmp_path / "m.lut"
    write_lut(lut, build_lut(field_make(16), 273))
    for source in (["--exp", "273", "--n", "16"], ["--lut", str(lut)]):
        runs = []
        for flag in ([], ["--deep"]):
            report = tmp_path / f"r{len(runs)}.json"
            assert main(["analyze", *source, "--json", str(report), *flag]) == 0
            doc = json.loads(report.read_text())
            doc.pop("timings_ms")
            runs.append((capsys.readouterr(), doc))
        (plain, plain_doc), (deep, deep_doc) = runs
        assert plain.out == deep.out and plain.err == deep.err == ""
        assert plain_doc == deep_doc
        assert "walsh max: 512" in plain.out


def test_analyze_refuses_passes_past_the_budget(tmp_path, capsys):
    # x^21845 has gcd 21845 with 2^16 - 1; a table without power structure
    # takes the full sweeps
    s = field_make(16)
    lut = build_lut(s, 3).lut.copy()
    lut[5], lut[9] = lut[9], lut[5]
    other = tmp_path / "other.lut"
    write_lut(other, lut_from_values(s, lut))
    outs = [tmp_path / name for name in ("r.json", "m.lut")]
    flags = ["--json", str(outs[0]), "--write-lut", str(outs[1])]
    for source in (["--exp", "21845", "--n", "16"], ["--lut", str(other)]):
        assert main(["analyze", *source, *flags]) == 2
        assert not any(p.exists() for p in outs)
        captured = capsys.readouterr()
        assert captured.out == ""
        errs = captured.err.splitlines()
        assert len(errs) == 1 and errs[0].startswith("error:")
        assert "GF(2^16)" in errs[0] and "deep=True" in errs[0] and "--deep" in errs[0]


def test_analyze_lut_refuses_field_flags(tmp_path, capsys):
    # the file's header names the field; --n and --poly would be ignored
    lut = tmp_path / "m.lut"
    write_lut(lut, build_lut(field_make(8), 21))
    outs = [tmp_path / name for name in ("r.json", "d.csv", "w.lut")]
    flags = ["--json", str(outs[0]), "--ddt-csv", str(outs[1]), "--write-lut", str(outs[2])]
    for extra in (["--n", "12"], ["--poly", "11d"], ["--n", "12", "--poly", "11d"],
                  ["--n", "8"]):
        assert main(["analyze", "--lut", str(lut), *extra, *flags]) == 2
        assert not any(p.exists() for p in outs)
        captured = capsys.readouterr()
        assert captured.out == ""
        errs = captured.err.splitlines()
        assert len(errs) == 1 and "--exp only" in errs[0]


def test_analyze_source_flags_mutually_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--exp", "3", "--lut", str(tmp_path / "x.lut"), "--n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_verify_success(capsys):
    assert main(["verify", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "delta-sweep[k=1]" in out
    assert "mm-extremal-sum[k=1]" in out
    assert "all checks passed" in out


def test_verify_usage_errors(capsys):
    assert main(["verify", "--k", "zero"]) == 2
    assert main(["verify", "--k", ""]) == 2
    assert main(["verify", "--k", "9"]) == 2
    for samples in ("0", "-3"):
        assert main(["verify", "--k", "1", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("samples must be at least 1") == 2


def test_verify_reports_failures(monkeypatch, capsys):
    import gf2lab.cli as cli_mod

    def fake(*args, **kwargs):
        return [CheckReport("made-up-check", 10, 3, "counterexample detail")]

    monkeypatch.setattr(cli_mod, "run_all_checks", fake)
    assert main(["verify", "--k", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "counterexample detail" in out


def test_verify_reports_a_failed_basis(monkeypatch, capsys):
    from gf2lab import theorems

    def mm_basis(k, *, gamma=None):
        raise theorems.VerificationError("alpha-roots-subfield", "forced", k=k, gamma=gamma)

    monkeypatch.setattr(theorems, "mm_basis", mm_basis)
    assert main(["verify", "--k", "1"]) == 1
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[1:] if line.strip()]
    assert rows[:3] == [["delta-sweep[k=1]", "15", "0"],
                        ["reduction-replay[k=1]", "240", "0"],
                        ["mm-basis[k=1]", "1", "1"]]
    assert "mm-decomposition" not in out
    assert "\nFAILED: 1 check(s); first counterexample: alpha-roots-subfield: " in out


def test_catalog_output(capsys):
    assert main(["catalog", "--max-n", "8"]) == 0
    out = capsys.readouterr().out
    assert "gold" in out and "kasami" in out and "inverse" in out
    assert "MISMATCH" not in out
    # no catalog row exceeds degree 12, so no larger max_n is refused
    assert main(["catalog", "--max-n", "17"]) == 0
    beyond = capsys.readouterr().out
    assert main(["catalog", "--max-n", "12"]) == 0
    assert capsys.readouterr().out == beyond


def test_catalog_refuses_a_max_n_without_rows(capsys):
    for max_n in ("-5", "3"):
        assert main(["catalog", "--max-n", max_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no catalog row has degree <= {max_n}; the smallest degree is 4\n"


def test_json_identical_across_thread_counts(tmp_path, capsys):
    docs = []
    for threads in ("1", "3"):
        path = tmp_path / f"t{threads}.json"
        assert main(["analyze", "--exp", "21", "--n", "8",
                     "--threads", threads, "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc.pop("timings_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    capsys.readouterr()
    assert docs[0] == docs[1]


def test_cli_jobs_never_load_numpy_ma():
    # importing numpy.ma costs every process that loads it 15-17 ms, and
    # numpy.random 10-14 ms, more than drawing a whole sample of pairs
    jobs = [["verify", "--k", "1,2"], ["analyze", "--exp", "73", "--n", "12"],
            ["catalog", "--max-n", "8"], ["verify", "--k", "3", "--samples", "50"]]
    code = ("import sys\n"
            "from gf2lab.cli import main\n"
            f"codes = [main(argv) for argv in {jobs!r}]\n"
            "print(codes, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False False"


@pytest.mark.parametrize("job, loads", [
    (["verify", "--k", "1"], set()),
    (["catalog", "--max-n", "6"], set()),
    (["analyze", "--exp", "7", "--n", "4"], set()),
    (["analyze", "--lut", "{lut}"], {"_hashlib"}),
    (["analyze", "--exp", "7", "--n", "4", "--json", "{json}"], {"json"}),
])
def test_cli_jobs_load_hashlib_and_json_only_when_used(tmp_path, job, loads):
    # _hashlib maps OpenSSL's libcrypto, 3.8 MB of peak RSS, for the digest
    # of a LUT file; json serves only the --json report
    lut = tmp_path / "m.lut"
    write_lut(lut, build_lut(field_make(4), 7))
    argv = [arg.format(lut=lut, json=tmp_path / "r.json") for arg in job]
    dump = "print('\\n'.join(sys.modules), file=sys.stderr)"
    bare = subprocess.run([sys.executable, "-c", f"import sys\n{dump}"],
                          capture_output=True, text=True, check=True)
    code = f"import sys\nfrom gf2lab.cli import main\nassert main({argv!r}) == 0\n{dump}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    held = set(bare.stderr.split())  # whatever a site hook loads is not the job's
    watched = {"_hashlib", "json"}
    assert (set(proc.stderr.split()) - held) & watched == loads - held


def test_module_entry_point(capsys):
    assert main(["verify", "--k", "1"]) == 0
    table = capsys.readouterr().out
    assert gc.get_freeze_count() == 0  # only the process entry point freezes
    for module in ("gf2lab", "gf2lab.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "verify", "--k", "1"],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, table, "")
    proc = subprocess.run(
        [sys.executable, "-m", "gf2lab", "analyze", "--exp", "7", "--n", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "delta (differential uniformity): 4" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "gf2lab", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "verify" in proc.stdout
    # one usage error from main's own checks, one from argparse
    for argv in (["verify", "--k", "x"], ["analyze", "--n", "4"]):
        proc = subprocess.run([sys.executable, "-m", "gf2lab", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert sum("error:" in line for line in proc.stderr.splitlines()) == 1


def test_run_freezes_and_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gf2lab", "verify", "--k", "x"])
    try:
        with pytest.raises(SystemExit) as stop:
            cli.run()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert stop.value.code == 2
    assert capsys.readouterr().err == "error: bad --k list: 'x'\n"


def test_script_entry_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; the package takes 3.10
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    doc = tomllib.loads(pyproject.read_text())
    assert doc["project"]["scripts"] == {"gf2lab": "gf2lab.cli:run"}
