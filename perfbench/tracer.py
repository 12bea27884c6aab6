"""Layer tracing from outside the program: wrap module attributes, record spans.

The tracer never edits the library.  It replaces the names each caller looks
up at call time (``graphings.execution.solve_affine`` and so on) with thin
wrappers, records one span per call and a few counts at the same boundary,
and puts every original back on ``uninstall``.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# (module, attribute, layer name): every name the traced run replaces.  One
# function reached through several modules gets one layer name.
TRACED_NAMES = (
    ("compiler", "compile_automaton", "compiler.compile_automaton"),
    ("compiler", "prune_reachable", "compiler.prune_reachable"),
    ("automata", "accept_probability", "automata.accept_probability"),
    ("automata", "solve_affine", "linsolve.solve_affine"),
    ("execution", "solve_affine", "linsolve.solve_affine"),
    ("linsolve", "strongly_connected", "linsolve.strongly_connected"),
    ("execution", "accept_path_sum", "execution.accept_path_sum"),
    ("measurement", "accept_path_sum", "execution.accept_path_sum"),
    ("execution", "plug", "execution.plug"),
    ("execution", "refine_regions", "space.refine_regions"),
    ("space", "refine_regions", "space.refine_regions"),
    ("graphing", "refine_regions", "space.refine_regions"),
    ("measurement", "membership", "measurement.membership"),
    ("words", "canonical_representation", "words.canonical_representation"),
    ("graphing", "is_deterministic", "graphing.checks"),
    ("graphing", "is_subprobabilistic", "graphing.checks"),
    ("graphing", "is_refinement", "graphing.checks"),
    ("graphing", "equivalent", "graphing.checks"),
)

REQUEST = "bench.request"


def _count_solve(counts, args, kwargs, result):
    rows = args[0]
    counts["linsolve.unknowns"] += len(rows)
    counts["linsolve.nonzeros"] += sum(len(r) for r in rows)
    counts["linsolve.largest_system"] = max(counts["linsolve.largest_system"],
                                            len(rows))


def _count_sccs(counts, args, kwargs, result):
    counts["linsolve.sccs"] += len(result)
    for comp in result:
        counts["linsolve.largest_scc"] = max(counts["linsolve.largest_scc"],
                                             len(comp))
        counts["linsolve.dense_entries"] += len(comp) ** 2


def _count_cells(counts, args, kwargs, result):
    counts["space.cells"] += len(result[0])


_COUNTERS = {
    "linsolve.solve_affine": _count_solve,
    "linsolve.strongly_connected": _count_sccs,
    "space.refine_regions": _count_cells,
}

COUNT_NAMES = ("linsolve.unknowns", "linsolve.nonzeros", "linsolve.largest_system",
               "linsolve.sccs", "linsolve.largest_scc", "linsolve.dense_entries",
               "space.cells")


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.originals = {(m, attr): getattr(modules[m], attr)
                          for m, attr, _ in TRACED_NAMES}
        self.spans: list = []    # (layer, start, end, parent index, request id)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.request_id = -1
        self._stack: list[int] = []

    def assert_clean(self):
        """Raise unless every traced name is the library's own function."""
        for (m, attr), fn in self.originals.items():
            current = getattr(self.modules[m], attr)
            if current is not fn or hasattr(current, "__wrapped__"):
                raise RuntimeError(f"graphings.{m}.{attr} is wrapped")

    def span(self, layer: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, start, end, parent, self.request_id)

    def _wrap(self, layer: str, fn):
        counter = _COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        self.assert_clean()
        for m, attr, layer in TRACED_NAMES:
            setattr(self.modules[m], attr,
                    self._wrap(layer, self.originals[(m, attr)]))

    def uninstall(self):
        for (m, attr), fn in self.originals.items():
            setattr(self.modules[m], attr, fn)
        self.assert_clean()

    def totals(self) -> dict:
        """Per layer: calls, inclusive seconds, self seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans of one thread never overlap, so children do not either.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(layer, (0, 0.0, 0.0))
            out[layer] = (calls + 1, total + end - start,
                          own + end - start - child[i])
        return out

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, start, end, parent, req in self.spans:
                fh.write(json.dumps({"name": layer, "start": start, "end": end,
                                     "parent": parent, "request": req}) + "\n")
