"""Span tracing of one gf2lab CLI job, from wrappers outside the program.

Run as a script, this module is the traced counterpart of
``python -m gf2lab ARGV``::

    python perfbench/tracing.py SPANS.json ARGV...

It times ``import gf2lab.cli``, replaces every cross-module name the layers
look up (``cli.*``, ``catalog.*``, ``theorems.*`` and the ``spectra`` globals
used for intra-module calls) with a timing wrapper, calls
``gf2lab.cli.main(ARGV)`` inside a root span named ``cli``, and writes the
spans and counters to SPANS.json once, at the end.  The exit code is the
CLI's.

A span is ``{id, parent, name, site, calls, busy, start, end}``: ``name`` is
``<home module>.<function>``, ``site`` the module in which the name was
looked up, and ``busy`` the seconds spent inside it.  Hot per-item calls
(``reduction_trace`` and each ``next`` of the ``ddt_rows`` generator) are
aggregated: one span per (parent, name, site) with a call count and summed
time.  A span's self time is its busy time minus its children's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# site module -> names looked up there that cross a layer boundary
PATCHES = {
    "cli": ("catalog_table", "field_make", "read_lut", "write_lut",
            "report_to_json", "build_lut", "ddt_rows",
            "differential_uniformity", "walsh_spectrum", "run_all_checks"),
    "catalog": ("field_make", "build_lut", "classify"),
    "spectra": ("differential_uniformity", "walsh_spectrum"),
    "theorems": ("field_make", "solve_linearized", "_log_exp_tables",
                 "build_lut", "walsh_row", "reduction_sweep", "reduction_trace",
                 "delta_sweep", "mm_basis", "mm_decomposition_check",
                 "quartic_check_all", "mm_crosscheck_all", "m4_sum_check"),
}
GENERATORS = frozenset({"ddt_rows"})
AGGREGATED = frozenset({"reduction_trace"})


def _table_degree(args, kwargs) -> int:
    table = args[0] if args else kwargs["f"]
    return table.spec.n


def _count_walsh(args, kwargs, result) -> dict:
    n = _table_degree(args, kwargs)
    return {"spectra.walsh_spectrum.coeffs": (1 << n) * ((1 << n) - 1)}


def _count_ddt(args, kwargs, result) -> dict:
    return {"spectra.differential_uniformity.rows": (1 << _table_degree(args, kwargs)) - 1}


def _count_read_lut(args, kwargs, result) -> dict:
    return {"lutio.read_lut.bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _count_trace(args, kwargs, result) -> dict:
    return {"theorems.reduction_trace.terminal": int(result.obstruction is None)}


def _count_reports(args, kwargs, result) -> dict:
    return {"theorems.instances": sum(r.instances for r in result),
            "theorems.failures": sum(r.failures for r in result)}


COUNTERS = {
    "walsh_spectrum": _count_walsh,
    "differential_uniformity": _count_ddt,
    "read_lut": _count_read_lut,
    "reduction_trace": _count_trace,
    "run_all_checks": _count_reports,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._aggregates: dict[tuple, int] = {}

    def open(self, name: str, site: str, aggregate: bool = False) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else None
        sid = self._aggregates.get((parent, name, site)) if aggregate else None
        if sid is None:
            sid = len(self.spans)
            self.spans.append({"id": sid, "parent": parent, "name": name, "site": site,
                               "calls": 0, "busy": 0.0, "start": None, "end": None})
            if aggregate:
                self._aggregates[(parent, name, site)] = sid
        self._stack.append(sid)
        return sid, self.clock()

    def close(self, sid: int, t0: float) -> None:
        t1 = self.clock()
        self._stack.pop()
        span = self.spans[sid]
        span["calls"] += 1
        span["busy"] += t1 - t0
        if span["start"] is None:
            span["start"] = t0
        span["end"] = t1

    def wrap(self, fn, site: str, *, aggregate: bool = False, count=None):
        """``fn`` timed as a span; ``count(args, kwargs, result)`` adds counters."""
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, t0 = self.open(name, site, aggregate)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid, t0)
            if count is not None:
                self.counters.update(count(args, kwargs, result))
            return result
        return traced

    def wrap_generator(self, fn, site: str):
        """Generator function whose span covers every ``next``, not only creation."""
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def consume():
                while True:
                    sid, t0 = self.open(name, site, aggregate=True)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(sid, t0)
                    yield item
            return consume()
        return traced

    def install(self, modules: dict) -> list[str]:
        """Patch ``PATCHES`` into the given site modules; returns names not found.

        A name a refactor removed is skipped, so its metrics read zero calls.
        """
        missing = []
        for site, names in PATCHES.items():
            mod = modules[site]
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn):
                    missing.append(f"{site}.{name}")
                    continue
                if name in GENERATORS:
                    wrapped = self.wrap_generator(fn, site)
                else:
                    wrapped = self.wrap(fn, site, aggregate=name in AGGREGATED,
                                        count=COUNTERS.get(name))
                setattr(mod, name, wrapped)
        return missing


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> busy time minus the busy time of its direct children."""
    child_busy: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] += s["busy"]
    return {s["id"]: s["busy"] - child_busy[s["id"]] for s in spans}


def run_traced(argv: list[str], out_path: str) -> int:
    t0 = time.perf_counter()
    import gf2lab.cli
    import_s = time.perf_counter() - t0
    from gf2lab import catalog, spectra, theorems

    tracer = Tracer()
    missing = tracer.install({"cli": gf2lab.cli, "catalog": catalog,
                              "spectra": spectra, "theorems": theorems})
    rc = 2
    sid, t0 = tracer.open("cli", "cli")
    try:
        rc = gf2lab.cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    finally:
        tracer.close(sid, t0)
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "missing": missing, "spans": tracer.spans,
                       "counters": dict(tracer.counters)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[2:], sys.argv[1]))
