"""Tests of the benchmark itself: inputs, checker, tracer and metric names.

Run with ``python -m pytest perfbench``.
"""

import json
import time
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _snapshot(workload, seed, work):
    jobs = workloads.make_jobs(workload, seed, 25, work, 2)
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return [(j.argv, j.expect) for j in jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_for_a_seed(tmp_path, workload):
    first = _snapshot(workload, 7, tmp_path)
    for p in tmp_path.iterdir():
        p.unlink()
    assert _snapshot(workload, 7, tmp_path) == first
    for p in tmp_path.iterdir():
        p.unlink()
    other = _snapshot(workload, 8, tmp_path)
    if workload == "proof-replay":
        # the CLI takes no replay seed: only the job order moves
        assert sorted(other[0], key=str) == sorted(first[0], key=str)
    else:
        assert other != first


def test_power_exponents_cover_the_required_cases(tmp_path):
    jobs = workloads.make_jobs("power-spectra", 3, 25, tmp_path, 1)
    exps = [(j.expect["n"], j.expect["d"]) for j in jobs if j.kind == "analyze"]
    assert {n for n, _ in exps} == {10, 11, 12, 13}
    assert (12, 73) in exps
    assert all((n, (1 << n) - 2) in exps for n in (10, 11, 12))
    perms = [workloads.gcd(d, (1 << n) - 1) == 1 for n, d in exps]
    assert any(perms) and not all(perms)
    assert sum(j.kind == "catalog" for j in jobs) == 2


def test_generated_tables_match_their_expectations(tmp_path):
    jobs = workloads.make_jobs("table-spectra", 5, 25, tmp_path, 2)
    perms = [j.expect["is_permutation"] for j in jobs]
    assert perms.count(True) == perms.count(False)
    for j in jobs:
        lut = Path(j.argv[j.argv.index("--lut") + 1])
        header, *rows = lut.read_text().split("\n")
        values = [int(v, 16) for row in rows for v in row.split()]
        assert len(values) == 1 << j.expect["n"]
        assert values[0] == j.expect["f0"]
        assert ("--ddt-csv" in j.argv) == (j.expect["n"] <= 11)


def test_least_irreducible_matches_the_program_default():
    assert [workloads.least_irreducible(n) for n in (2, 3, 4, 8)] == [0x7, 0xB, 0x13, 0x11B]


def _identity_doc():
    # f(x) = x on GF(2^3): delta 8, W(a, b) = 8 exactly when a = b
    return {"results": {"delta": 8, "nl": 0, "walsh_max": 8, "is_apn": False,
                        "is_permutation": True, "is_ab": False,
                        "lambda_histogram": {"0": 49, "8": 7}}}


def test_checker_accepts_a_correct_spectrum():
    expect = {"n": 3, "d": 1, "f0": 0, "is_permutation": True}
    assert workloads.check_analyze(expect, _identity_doc()) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: r.update(delta=7), "delta"),
    (lambda r: r["lambda_histogram"].update({"0": 48}), "histogram mass"),
    (lambda r: r.update(nl=1), "nl"),
    (lambda r: r.update(is_apn=True), "is_apn"),
    (lambda r: r.update(is_permutation=False), "is_permutation"),
])
def test_checker_rejects_a_corrupted_spectrum(corrupt, message):
    doc = _identity_doc()
    corrupt(doc["results"])
    errs = workloads.check_analyze({"n": 3, "d": 1, "f0": 0, "is_permutation": True}, doc)
    assert any(message in e for e in errs), errs


def test_checker_applies_known_answers():
    doc = _identity_doc()
    errs = workloads.check_analyze({"n": 3, "d": 6, "f0": 0, "is_permutation": True}, doc)
    assert any("inverse on odd degree" in e for e in errs)


def test_checker_rejects_verify_and_catalog_failures():
    good = "check  instances  failures\ndelta-sweep[k=1]  15  0\n\nall checks passed\n"
    errs = workloads.check_verify({"ks": [1]}, good)
    assert errs and all("missing" in e for e in errs)   # the other suites are absent
    bad = good.replace("15  0", "15  2")
    assert any("2 failures" in e for e in workloads.check_verify({"ks": [1]}, bad))
    row = "inverse      4      2     no      4      4   yes            -"
    out = "family n d cond delta nl perm pred\n" + row + "\n"
    assert workloads.check_catalog({"rows": [("inverse", 4)]}, out) == []
    assert workloads.check_catalog({"rows": [("inverse", 4)]},
                                   out.replace("          -", "   MISMATCH"))


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        {"id": 0, "parent": None, "busy": 10.0},
        {"id": 1, "parent": 0, "busy": 4.0},
        {"id": 2, "parent": 0, "busy": 3.0},
        {"id": 3, "parent": 1, "busy": 2.5},
        {"id": 4, "parent": 3, "busy": 0.5},
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 1.5, 2: 3.0, 3: 2.0, 4: 0.5}
    assert sum(own.values()) == spans[0]["busy"]


def test_tracer_nesting_aggregation_and_generators():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x
    leaf.__module__ = "gf2lab.theorems"

    def rows(k):
        yield from range(k)
    rows.__module__ = "gf2lab.spectra"

    traced_leaf = tracer.wrap(leaf, "theorems", aggregate=True)
    traced_rows = tracer.wrap_generator(rows, "cli")
    sid, t0 = tracer.open("cli", "cli")
    for _ in range(3):
        traced_leaf(1)
    gen = traced_rows(4)
    assert [s["name"] for s in tracer.spans] == ["cli", "theorems.leaf"]  # lazy until next
    assert list(gen) == [0, 1, 2, 3]
    tracer.close(sid, t0)
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["theorems.leaf"]["calls"] == 3
    assert by_name["spectra.rows"]["calls"] == 5          # four items and the final stop
    assert by_name["spectra.rows"]["parent"] == sid
    own = tracing.self_times(tracer.spans)
    assert sum(own.values()) == tracer.spans[sid]["busy"]
    assert min(own.values()) >= 0


def test_a_removed_name_records_zero_calls():
    def classify(f):
        return f
    classify.__module__ = "gf2lab.spectra"
    modules = {site: types.SimpleNamespace() for site in tracing.PATCHES}
    modules["catalog"].classify = classify
    tracer = tracing.Tracer()
    missing = tracer.install(modules)
    assert "theorems.reduction_trace" in missing and "catalog.classify" not in missing
    modules["catalog"].classify(1)
    trace = {"import_s": 0.1, "spans": tracer.spans, "counters": dict(tracer.counters),
             "missing": missing}
    result = run.JobResult(None, 1.0, 1.0, 1.0, [], trace)
    layers, not_found = run.per_layer([result], 1.0, 1.0)
    assert "theorems.reduction_trace" in not_found
    assert layers["theorems.reduction_trace.calls"][0] == 0
    assert layers["catalog.classify.calls"][0] == 1


def test_tail_index_leaves_ten_jobs_beyond():
    assert run.tail_index(10) is None
    assert run.tail_index(11) == 0
    assert run.tail_index(22) == 11


def test_metric_names_match_benchmark_json():
    results = [run.JobResult(None, 1.0 + i, 1.0, 50.0, []) for i in range(12)]
    e2e, note = run.end_to_end(results, 0.3)
    assert list(e2e) == ["wall_s", "job_s.p50", "job_s.tail", "cpu_s", "peak_rss_mb",
                         "setup_s"]
    for m in BENCHMARK["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"]
    assert "setup_s" in [m["name"] for m in BENCHMARK["end_to_end"]]
    assert e2e["job_s.tail"][0] == 2.0 and "p16.7 of 12" in note
    layers, _ = run.per_layer([], 1.0, 1.0)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_real_jobs_pass_their_checks_traced_and_untraced(tmp_path):
    work = tmp_path
    lut = work / "t.lut"
    values = [(7 * v + 3) % 64 for v in range(64)]
    workloads.write_lut_file(lut, 6, values)
    jobs = [
        workloads.Job(("analyze", "--exp", "62", "--n", "6", "--json", str(work / "a.json")),
                      "analyze", {"n": 6, "d": 62, "f0": 0, "is_permutation": True,
                                  "json": str(work / "a.json")}),
        workloads.Job(("analyze", "--lut", str(lut), "--threads", "2", "--json",
                       str(work / "b.json"), "--ddt-csv", str(work / "b.csv")),
                      "analyze", {"n": 6, "f0": 3, "is_permutation": True,
                                  "json": str(work / "b.json"), "csv": str(work / "b.csv")}),
        workloads.Job(("verify", "--k", "1"), "verify", {"ks": [1]}),
        workloads.Job(("catalog", "--max-n", "6"), "catalog",
                      {"rows": workloads.catalog_rows(6, False)}),
    ]
    deadline = time.monotonic() + 120
    for traced in (False, True):
        results = run.run_jobs(jobs, work, deadline, traced)
        assert [r.errors for r in results] == [[]] * len(jobs)
    layers = run.layer_totals(results)
    catalog_rows = len(workloads.catalog_rows(6, False))
    assert layers["spans"]["spectra.walsh_spectrum"]["calls"] == 2 + catalog_rows
    assert layers["spans"]["spectra.ddt_rows"]["calls"] == 64     # 63 rows and the stop
    assert layers["counters"]["lutio.read_lut.bytes"] == lut.stat().st_size
    assert layers["site_calls"]["catalog.classify"] == catalog_rows
