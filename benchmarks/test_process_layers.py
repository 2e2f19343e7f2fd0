"""Per-layer record of what one fresh gf2lab process costs.

Two command lines, each spawned once per round: ``python -c "import
gf2lab.cli"``, the import every CLI run pays, and ``python -m gf2lab
analyze --exp 73 --n 12``, a short orbit-engine job.  Each case records in
``extra_info`` the child's median CPU time (``ru_utime + ru_stime`` from
``os.wait4``), its median wall time from spawn to reaping, and the largest
OS thread count seen at its exit.  The count comes from an ``atexit`` hook
that a ``sitecustomize`` module, in a temporary directory put first on the
child's ``PYTHONPATH``, installs, so the command lines stay the ones a user
types.  The child inherits the environment without
``OPENBLAS_NUM_THREADS``, so it measures the package's own default.  Only
the CLI is run, so the file runs unchanged on any version of the package.
The sources are byte-compiled first, so no child pays for compiling them.

Not part of the test suite (``testpaths`` is ``tests``).  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_process_layers.py --benchmark-json=out.json
"""

import compileall
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HOOK = """import atexit, os


def _count_threads():
    with open(os.path.join(os.path.dirname(__file__), "threads"), "w") as out:
        out.write(str(len(os.listdir("/proc/self/task"))))


atexit.register(_count_threads)
"""
COMMANDS = {
    "import": ["-c", "import gf2lab.cli"],
    "analyze": ["-m", "gf2lab", "analyze", "--exp", "73", "--n", "12"],
}


def _spawn(argv, hook_dir):
    """(CPU s, wall s, OS threads at exit) of one child run to completion."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, argv
    return usage.ru_utime + usage.ru_stime, wall, int((hook_dir / "threads").read_text())


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("name", COMMANDS)
def test_one_process(benchmark, tmp_path, name):
    assert compileall.compile_dir(SRC, quiet=1)
    (tmp_path / "sitecustomize.py").write_text(HOOK)
    runs = []

    def spawn():
        runs.append(_spawn(COMMANDS[name], tmp_path))

    benchmark.pedantic(spawn, rounds=11, warmup_rounds=1)
    timed = runs[1:]
    benchmark.extra_info["cpu_s"] = statistics.median(r[0] for r in timed)
    benchmark.extra_info["wall_s"] = statistics.median(r[1] for r in timed)
    benchmark.extra_info["threads"] = max(r[2] for r in timed)
