"""Span tracing from outside the program.

``Tracer.install`` wraps each layer's public functions in every module
namespace of the package that binds them (``rendezvous.tables.explore`` and
``rendezvous.semigroup.explore`` alike), plus ``BoolMatrix.__matmul__``.
Each call records a span: name, start, end, parent span, job id, and the
work counts read off its arguments or result.  Spans stay in memory until
the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _cells(args, kwargs, result) -> dict[str, int]:
    # Grid cells of the lift DP: one per (h, p) with 2 <= h < k_max, p <= min(h, n-h).
    n, k_max = args[0], args[1]
    return {"cells": sum(min(h, n - h) for h in range(2, k_max))}


def _edges(args, kwargs, result) -> dict[str, int]:
    return {"edges": sum(len(out) for out in result.adjacency.values())}


# (module, attribute, span name, work counts read off the call)
LAYERS = (
    ("rendezvous.semigroup", "explore", "semigroup.explore",
     lambda a, kw, r: {"products": r.explored, "depth": r.depth_reached}),
    ("rendezvous.automata", "associated_automaton", "automata.construct",
     lambda a, kw, r: {"letters": r.m}),
    ("rendezvous.automata", "subset_bfs", "automata.subset_bfs",
     lambda a, kw, r: {"subsets": r.explored}),
    ("rendezvous.pairgraph", "check_primitivity", "pairgraph.check", None),
    ("rendezvous.pairgraph", "build_pair_digraph", "pairgraph.build", _edges),
    ("rendezvous.pairgraph", "singleton_distances", "pairgraph.distances", None),
    ("rendezvous.bounds", "bound_f_table", "bounds.f_table", _cells),
    ("rendezvous.bounds", "bound_b_recursive", "bounds.b_recursive", None),
    ("rendezvous.bounds", "lift_bound", "bounds.lift", None),
    ("rendezvous.bounds", "scan_conjectures", "bounds.scan", None),
    ("rendezvous.heuristic", "run_heuristic", "heuristic.run",
     lambda a, kw, r: {"letters": r.length, "iterations": r.iterations}),
    ("rendezvous.setfile", "parse_set_file", "setfile.parse", None),
    ("rendezvous.cli", "main", "cli.main", None),
)
ROWS_MODULE = "rendezvous.tables"  # every public ``*_rows`` function is a tables.rows span
MAX_COUNTS = ("depth",)  # aggregated by max over calls; all other counts are summed

SPAN_NAMES = tuple(name for _, _, name, _ in LAYERS) + ("tables.rows", "boolmat.matmul")
COUNTS = {
    "semigroup.explore": ("products", "depth"),
    "automata.construct": ("letters",),
    "automata.subset_bfs": ("subsets",),
    "pairgraph.build": ("edges",),
    "bounds.f_table": ("cells",),
    "heuristic.run": ("letters", "iterations"),
}


class Tracer:
    def __init__(self):
        # One list per span: [name, start, end, parent index, job id, counts].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                record[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each layer function by its traced wrapper."""
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "rendezvous" or key.startswith("rendezvous.")
        ]
        targets = [(getattr(sys.modules[m], attr), name, count) for m, attr, name, count in LAYERS]
        tables = sys.modules[ROWS_MODULE]
        targets += [
            (fn, "tables.rows", None)
            for attr, fn in vars(tables).items()
            if attr.endswith("_rows") and not attr.startswith("_") and callable(fn)
        ]
        for fn, name, count in targets:
            wrapper = self.wrap(name, fn, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
        boolmat = sys.modules["rendezvous.boolmat"].BoolMatrix
        boolmat.__matmul__ = self.wrap("boolmat.matmul", boolmat.__matmul__)

    def layer_metrics(self, wall_s: float) -> dict[str, float | int]:
        """Per span name: calls, self seconds and work counts; the rest of
        ``wall_s`` (time outside every span) is ``trace.unattributed_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job, counts in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float | int] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            for key in COUNTS.get(name, ()):
                out[f"{name}.{key}"] = 0
        attributed = 0.0
        for (name, start, end, parent, job, counts), children in zip(self.spans, child_time):
            own = end - start - children
            attributed += own
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            for key, value in (counts or {}).items():
                metric = f"{name}.{key}"
                out[metric] = max(out[metric], value) if key in MAX_COUNTS else out[metric] + value
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - attributed
        return out
