"""Spans and counts at the program's layer boundaries, recorded from outside it.

A Tracer replaces chosen public functions of agnostic_control with wrappers
in every module namespace that holds them (modules import each other's
functions by name), and puts the originals back on uninstall.  Each wrapper
records a span (name, start, end) in an array of its own thread, 24 bytes a
span; a span's parent is worked out afterwards from how the spans of a
thread nest.  Spans stay in memory until the run ends, when dump() writes
them.
A few wrappers also count what the call did, read from its arguments or
its result.  Runs with tracing off install nothing.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

#: Wrapped functions, by module: the layer boundaries the per-layer metrics
#: name.  own_gains reaches model.gains through the module global, so
#: wrapping gains counts every gain evaluation.
TARGETS = {
    "model": ("gains",),
    "performance": ("perf_coeffs", "perf_coeffs_rk4"),
    "solvers": ("solve_sigma_mr", "solve_fueltax", "worst_case_mr", "sweep"),
    "simulate": ("monte_carlo_cost", "path_noise", "analytic_cost"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_perf_coeffs(tracer, args, kwargs, result):
    # the key of the program's coefficient cache
    key = (float(_arg(args, kwargs, 0, "t")), _arg(args, kwargs, 1, "prior").precision,
           _arg(args, kwargs, 2, "spec").horizon)
    with tracer.lock:
        if key not in tracer.seen_keys:
            tracer.seen_keys.add(key)
            tracer.counters["performance.perf_coeffs.distinct"] += 1


def _count_solve_sigma_mr(tracer, args, kwargs, result):
    with tracer.lock:
        tracer.counters["solvers.solve_sigma_mr.iterations"] += result.iterations


def _count_sweep(tracer, args, kwargs, result):
    with tracer.lock:
        tracer.counters["solvers.sweep.points"] += len(result.records)
        tracer.counters["solvers.sweep.points_failed"] += sum("error" in r for r in result.records)


def _count_monte_carlo(tracer, args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    with tracer.lock:
        tracer.counters["simulate.path_steps"] += config.n_paths * config.n_steps


COUNTERS = {
    "performance.perf_coeffs": _count_perf_coeffs,
    "solvers.solve_sigma_mr": _count_solve_sigma_mr,
    "solvers.sweep": _count_sweep,
    "simulate.monte_carlo_cost": _count_monte_carlo,
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{func}" for mod, funcs in TARGETS.items() for func in funcs]
        self.lock = threading.Lock()
        self.counters: Counter = Counter()
        self.seen_keys: set = set()
        # per thread: (thread label, flat array of (name id, start, end) triples)
        self._threads: list[tuple[str, array]] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _thread_spans(self) -> array:
        spans = array("d")
        with self.lock:
            self._threads.append((f"{len(self._threads)}:{threading.current_thread().name}", spans))
        self._local.spans = spans
        return spans

    def _wrap(self, name: str, func):
        nid = self.names.index(name)
        count = COUNTERS.get(name)
        local = self._local

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                try:
                    spans = local.spans
                except AttributeError:
                    spans = self._thread_spans()
                spans.extend((nid, start, end))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every TARGETS function wherever a module of the package binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        homes = {name: importlib.import_module(f"agnostic_control.{name}") for name in TARGETS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "agnostic_control" or n.startswith("agnostic_control."))]
        for mod_name, funcs in TARGETS.items():
            for fname in funcs:
                original = getattr(homes[mod_name], fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def spans(self):
        """Yield (thread, index, parent index or -1, name, start, end) per span.

        Spans of one thread nest, so the parent of a span is the innermost
        span of its thread that was open when it started."""
        for thread, flat in self._threads:
            triples = sorted(zip(flat[0::3], flat[1::3], flat[2::3]), key=lambda s: (s[1], -s[2]))
            open_spans: list[int] = []
            for i, (nid, start, end) in enumerate(triples):
                while open_spans and triples[open_spans[-1]][2] < start:
                    open_spans.pop()
                yield thread, i, open_spans[-1] if open_spans else -1, self.names[int(nid)], start, end
                open_spans.append(i)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus counters."""
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        rows = list(self.spans())
        in_children = {}
        for thread, _, parent, _, start, end in rows:
            if parent >= 0:
                in_children[thread, parent] = in_children.get((thread, parent), 0.0) + end - start
        for thread, i, _, name, start, end in rows:
            st = stats[name]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - in_children.get((thread, i), 0.0)
        return {"counters": dict(self.counters), "spans": stats}

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: thread, index, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("thread\tindex\tparent\tname\tstart\tend\n")
            for thread, i, parent, name, start, end in self.spans():
                fh.write(f"{thread}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")

