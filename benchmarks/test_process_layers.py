"""Per-layer record of what one fresh gf2lab process costs.

Five command lines, each spawned once per round: ``python -c "import
gf2lab.cli"``, the import every CLI run pays, the catalog's row table
included; ``python -m gf2lab analyze --exp 73 --n 12``, a short
orbit-engine job; ``python -m gf2lab verify --k 1,2``, the exhaustive proof
replay at desk scale; ``python -m gf2lab catalog --max-n 12 --deep``, every
catalog row; and ``python -m gf2lab analyze --lut F`` on a seeded random
table at n = 10, the one job that hashes a file.  Before the first case,
each command line is spawned once, untimed, so no case absorbs the
run's warm-up (the first case used to read slower than a job that does
its import and more).  Each case records in ``extra_info`` the child's
median CPU time (``ru_utime + ru_stime`` from ``os.wait4``) and its median
wall time from spawn to reaping, each with its interquartile range, its
median peak resident memory, and the largest OS thread count seen at its
exit.  The
thread count and the peak (``VmHWM`` from ``/proc/self/status``) come from
an ``atexit`` hook that a ``sitecustomize`` module, in a temporary
directory put first on the child's ``PYTHONPATH``, installs, so the command
lines stay the ones a user types.
The peak is the child's own: ``ru_maxrss`` from ``wait4`` would start from
the resident size of this pytest process at the fork.  The child inherits
the environment without ``OPENBLAS_NUM_THREADS``, so it measures the
package's own default.  Only the CLI is run, so the file runs unchanged on
any version of the package.  The children import a copy of the sources
in that directory, byte-compiled first as perfbench's build step compiles
``src``, so no child pays for compiling them and the checkout gains no
``__pycache__``.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_process_layers.py --benchmark-json=out.json
"""

import compileall
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HOOK = """import atexit, os


def _record_exit():
    with open("/proc/self/status") as status:
        peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.path.join(os.path.dirname(__file__), "exit"), "w") as out:
        out.write(f"{len(os.listdir('/proc/self/task'))} {peak_kb}")


atexit.register(_record_exit)
"""
COMMANDS = {
    "import": ["-c", "import gf2lab.cli"],
    "analyze": ["-m", "gf2lab", "analyze", "--exp", "73", "--n", "12"],
    "verify": ["-m", "gf2lab", "verify", "--k", "1,2"],
    "catalog": ["-m", "gf2lab", "catalog", "--max-n", "12", "--deep"],
    "lut": ["-m", "gf2lab", "analyze", "--lut", "{lut}"],
}
LUT_N, LUT_POLY, LUT_SEED = 10, 0x409, 28


def _write_lut(path):
    """A seeded random map on GF(2^10) in the LUT exchange format."""
    rng = random.Random(LUT_SEED)
    vals = [format(rng.randrange(1 << LUT_N), "x") for _ in range(1 << LUT_N)]
    lines = [f"n={LUT_N} poly={LUT_POLY:x}"]
    lines += [" ".join(vals[i:i + 16]) for i in range(0, len(vals), 16)]
    path.write_text("\n".join(lines) + "\n")


def _spawn(argv, hook_dir):
    """(CPU s, wall s, OS threads at exit, peak MB) of one child run to completion."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, argv
    threads, peak_kb = map(int, (hook_dir / "exit").read_text().split())
    return usage.ru_utime + usage.ru_stime, wall, threads, peak_kb / 1024.0


def _argv(name, work):
    return [arg.format(lut=work / "map.lut") for arg in COMMANDS[name]]


def _iqr(xs):
    if len(xs) < 2:  # a disabled benchmark runs its case once
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The hook, the compiled sources and the table, with every command line
    spawned once, untimed."""
    work = tmp_path_factory.mktemp("process")
    shutil.copytree(SRC / "gf2lab", work / "gf2lab", ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(work / "gf2lab", quiet=1)
    (work / "sitecustomize.py").write_text(HOOK)
    _write_lut(work / "map.lut")
    for name in COMMANDS:
        _spawn(_argv(name, work), work)
    return work


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("name", COMMANDS)
def test_one_process(benchmark, work, name):
    argv = _argv(name, work)
    runs = []

    def spawn():
        runs.append(_spawn(argv, work))

    benchmark.pedantic(spawn, rounds=11)
    benchmark.extra_info["cpu_s"] = statistics.median(r[0] for r in runs)
    benchmark.extra_info["cpu_iqr_s"] = _iqr([r[0] for r in runs])
    benchmark.extra_info["wall_s"] = statistics.median(r[1] for r in runs)
    benchmark.extra_info["wall_iqr_s"] = _iqr([r[1] for r in runs])
    benchmark.extra_info["threads"] = max(r[2] for r in runs)
    benchmark.extra_info["peak_mb"] = statistics.median(r[3] for r in runs)
