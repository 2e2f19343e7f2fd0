"""Fresh-process CLI benchmark for gf2lab.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload power-spectra --seed 1 --seconds 25 --trace 0

One client runs the workload's seeded job list in a closed loop: one job at
a time, each in a fresh ``python -m gf2lab ...`` process with ``src`` on
``PYTHONPATH``, so every job pays interpreter start-up, imports and cold
caches the way a shell user does.  Every job's output is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
job list twice, untraced and then through ``tracing.py``, and prints the
per-layer metrics plus the tracing overhead (traced minus untraced
``wall_s``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / "_work"          # relative to ROOT; ignored by git
SETUP_SAMPLES = 11
RUN_LIMIT_S = 160.0                          # hard stop for one benchmark run
JOB_TIMEOUT_S = 90.0


@dataclass
class JobResult:
    job: workloads.Job
    wall: float
    cpu: float
    rss_mb: float
    errors: list
    trace: dict | None = None


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout_path: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def measure_setup(work: Path) -> float:
    """Median wall time of a fresh process that imports gf2lab.cli."""
    times = []
    for _ in range(SETUP_SAMPLES):
        rc, wall, _, _ = spawn([sys.executable, "-c", "import gf2lab.cli"],
                               ROOT / work / "setup.out", JOB_TIMEOUT_S)
        if rc != 0:
            raise RuntimeError("importing gf2lab.cli failed: "
                               + (ROOT / work / "setup.out").read_text()[-2000:])
        times.append(wall)
    return statistics.median(times)


def run_jobs(jobs: list[workloads.Job], work: Path, deadline: float,
             traced: bool) -> list[JobResult]:
    results = []
    for i, job in enumerate(jobs):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            results.append(JobResult(job, 0.0, 0.0, 0.0, ["not started: run time limit"]))
            continue
        out = ROOT / work / f"job{i}.out"
        spans = work / f"job{i}.spans.json"
        if traced:
            argv = [sys.executable, str(Path("perfbench") / "tracing.py"), str(spans),
                    *job.argv]
        else:
            argv = [sys.executable, "-m", "gf2lab", *job.argv]
        rc, wall, cpu, rss = spawn(argv, out, min(JOB_TIMEOUT_S, remaining))
        stdout = out.read_text(errors="replace")
        errors = workloads.check_job(job, rc, stdout, ROOT)
        trace = None
        if traced and rc == 0:
            trace = json.loads((ROOT / spans).read_text())
            covered = sum(tracing.self_times(trace["spans"]).values())
            if covered > wall:
                errors.append(f"traced self time {covered:.3f}s exceeds job wall {wall:.3f}s")
        results.append(JobResult(job, wall, cpu, rss, errors, trace))
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_index(count: int) -> int | None:
    """Sorted index of the highest percentile leaving >= 10 samples beyond it."""
    return count - 11 if count >= 11 else None


def end_to_end(results: list[JobResult], setup_s: float) -> tuple[dict, str]:
    walls = sorted(r.wall for r in results)
    ti = tail_index(len(walls))
    # below eleven jobs no percentile leaves ten beyond it; report the maximum
    tail = walls[ti] if ti is not None else walls[-1]
    pct = 100.0 * (ti + 1) / len(walls) if ti is not None else 100.0
    metrics = {
        "wall_s": (sum(walls), "s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.tail": (tail, "s"),
        "cpu_s": (sum(r.cpu for r in results), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in results), "MB"),
        "setup_s": (setup_s, "s"),
    }
    note = f"job_s.tail is p{pct:.1f} of {len(walls)} jobs"
    return metrics, note


def layer_totals(results: list[JobResult]) -> dict:
    """Per-span-name self time, busy time and calls, summed over all jobs."""
    tot: dict = {}
    counters: dict = {}
    site_calls: dict = {}
    imports = []
    for r in results:
        if r.trace is None:
            continue
        imports.append(r.trace["import_s"])
        own = tracing.self_times(r.trace["spans"])
        for s in r.trace["spans"]:
            t = tot.setdefault(s["name"], {"self": 0.0, "busy": 0.0, "calls": 0})
            t["self"] += own[s["id"]]
            t["busy"] += s["busy"]
            t["calls"] += s["calls"]
            key = f"{s['site']}.{s['name'].rpartition('.')[2]}"
            site_calls[key] = site_calls.get(key, 0) + s["calls"]
        for k, v in r.trace["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return {"spans": tot, "counters": counters, "site_calls": site_calls,
            "import_s": statistics.median(imports) if imports else 0.0,
            "missing": sorted({m for r in results if r.trace for m in r.trace["missing"]})}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(results: list[JobResult], traced_wall: float,
              untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics by name, and the patched names a refactor removed."""
    t = layer_totals(results)
    sp, ct = t["spans"], t["counters"]

    def self_s(name):
        return sp.get(name, {}).get("self", 0.0)

    def calls(name):
        return sp.get(name, {}).get("calls", 0)

    walsh = "spectra.walsh_spectrum"
    trace = "theorems.reduction_trace"
    m = {
        "cli.import_s": (t["import_s"], "s"),
        "cli.self_s": (self_s("cli"), "s"),
        f"{walsh}.self_s": (self_s(walsh), "s"),
        f"{walsh}.calls": (calls(walsh), "count"),
        f"{walsh}.coeffs": (ct.get(f"{walsh}.coeffs", 0), "count"),
        f"{walsh}.coeffs_per_s": (_ratio(ct.get(f"{walsh}.coeffs", 0), self_s(walsh)), "1/s"),
        "spectra.differential_uniformity.self_s": (self_s("spectra.differential_uniformity"), "s"),
        "spectra.differential_uniformity.rows": (
            ct.get("spectra.differential_uniformity.rows", 0), "count"),
        "spectra.ddt_rows.self_s": (self_s("spectra.ddt_rows"), "s"),
        "spectra.build_lut.self_s": (self_s("spectra.build_lut"), "s"),
        "spectra.classify.self_s": (self_s("spectra.classify"), "s"),
        "catalog.catalog_table.self_s": (self_s("catalog.catalog_table"), "s"),
        "catalog.classify.calls": (t["site_calls"].get("catalog.classify", 0), "count"),
        "theorems.reduction_sweep.self_s": (self_s("theorems.reduction_sweep"), "s"),
        f"{trace}.calls": (calls(trace), "count"),
        f"{trace}.us_per_call": (
            1e6 * _ratio(sp.get(trace, {}).get("busy", 0.0), calls(trace)), "us"),
        f"{trace}.terminal_frac": (_ratio(ct.get(f"{trace}.terminal", 0), calls(trace)), "ratio"),
    }
    for fn in ("delta_sweep", "mm_basis", "mm_decomposition_check", "quartic_check_all",
               "mm_crosscheck_all", "m4_sum_check"):
        m[f"theorems.{fn}.self_s"] = (self_s(f"theorems.{fn}"), "s")
    m["theorems.instances"] = (ct.get("theorems.instances", 0), "count")
    m["theorems.failures"] = (ct.get("theorems.failures", 0), "count")
    m["field.field_make.self_s"] = (self_s("field.field_make"), "s")
    m["field.field_make.calls"] = (calls("field.field_make"), "count")
    m["field._log_exp_tables.self_s"] = (self_s("field._log_exp_tables"), "s")
    m["field.solve_linearized.self_s"] = (self_s("field.solve_linearized"), "s")
    m["field.solve_linearized.calls"] = (calls("field.solve_linearized"), "count")
    m["lutio.read_lut.self_s"] = (self_s("lutio.read_lut"), "s")
    m["lutio.read_lut.bytes"] = (ct.get("lutio.read_lut.bytes", 0), "B")
    m["report.report_to_json.self_s"] = (self_s("report.report_to_json"), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return m, t["missing"]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "gf2lab" / "cli.py").is_file():
        print(f"error: no gf2lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    shutil.rmtree(ROOT / WORK, ignore_errors=True)
    (ROOT / WORK).mkdir(parents=True)
    # build: byte-compile the sources once, so no job pays for it
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if build.returncode != 0:
        print(build.stdout.decode(errors="replace"), file=sys.stderr)
        return 2

    threads = min(2, len(os.sched_getaffinity(0)))
    jobs = workloads.make_jobs(args.workload, args.seed, args.seconds, WORK, threads)
    try:
        setup_s = measure_setup(WORK)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    plain = run_jobs(jobs, WORK, deadline, traced=False)
    if args.trace:
        results = run_jobs(jobs, WORK, deadline, traced=True)
        ran = plain + results
        metrics, missing = per_layer(results, sum(r.wall for r in results),
                                     sum(r.wall for r in plain))
        note = f"names not found, their metrics read 0: {', '.join(missing)}" if missing else ""
    else:
        results = ran = plain
        metrics, note = end_to_end(plain, setup_s)
    attempted = len(ran)
    bad = [r for r in ran if r.errors]
    shutil.rmtree(ROOT / WORK, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, "
          f"{threads} threads max per job, {time.monotonic() - started:.1f}s in total")
    for r in results:
        print(f"{r.wall:8.3f}s {r.cpu:8.3f}s cpu {r.rss_mb:7.1f} MB  {r.job.label()}")
    for r in bad:
        print(f"FAILED {r.job.label()}: {'; '.join(r.errors)}")
    print(f"fail_frac {len(bad) / attempted:.4f} ({len(bad)} of {attempted} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    if note:
        print(note)
    # the result carries the metrics BENCHMARK.json declares for this mode
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
