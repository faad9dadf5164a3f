"""In-memory spans around the library calls that one cell makes.

``Tracer.installed()`` swaps the module attributes that
``harness.run_cell_full`` looks up for wrappers that record a span per call,
and puts the originals back on exit, so nothing under ``src/`` changes and
untraced passes run the unwrapped functions. The benchmark opens the root
spans itself (``harness.run_cell_full`` per cell, ``harness.results_to_csv``
per pass). A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

from circlematch import harness, netgen

# (module, attribute) that run_cell_full resolves at call time -> span name.
PATCH_POINTS = (
    (harness, "build_market", "market.build_market"),
    (netgen, "generate", "netgen.generate"),
    (harness, "all_pairs_shortest", "topology.all_pairs_shortest"),
    (harness, "restricted_deferred_acceptance", "market.restricted_deferred_acceptance"),
    (harness, "average_utility", "market.average_utility"),
    (harness, "average_path_length", "topology.average_path_length"),
    (harness, "connectivity", "topology.connectivity"),
)
CELL_SPAN = "harness.run_cell_full"
CSV_SPAN = "harness.results_to_csv"

# Span name -> layer metric prefix. The cell span's self time is the harness
# layer's own work; the layers' shares of traced cell time sum to 1.
LAYER_OF = {
    "market.build_market": "market.draw",
    "market.restricted_deferred_acceptance": "market.match",
    "market.average_utility": "market.utility",
    "topology.all_pairs_shortest": "topology.distances",
    "topology.average_path_length": "topology.summary",
    "topology.connectivity": "topology.summary",
    "netgen.generate": "netgen.generate",
    CELL_SPAN: "harness.self",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Span recorder for one single-threaded benchmark process."""

    def __init__(self):
        # [span id, parent id, cell id, name, start ns, end ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cell: int | None = None

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  self.cell, name, perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Route the library calls of every cell through span wrappers."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCH_POINTS]
        try:
            for (module, attr, name), (_, _, fn) in zip(PATCH_POINTS, originals):
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def write(self, path) -> None:
        fields = ("id", "parent", "cell", "name", "start_ns", "end_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-cell median self time and share of traced cell time per layer,
        plus the median ``results_to_csv`` time."""
        child_ns: dict[int, int] = {}
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        per_cell: dict[int, dict[str, int]] = {}
        cell_ns: dict[int, int] = {}
        csv_ns = []
        for sid, parent, cell, name, start, end in self.spans:
            self_ns = end - start - child_ns.get(sid, 0)
            if name == CSV_SPAN:
                csv_ns.append(self_ns)
                continue
            layer = LAYER_OF[name]
            bucket = per_cell.setdefault(cell, dict.fromkeys(LAYERS, 0))
            bucket[layer] += self_ns
            if name == CELL_SPAN:
                cell_ns[cell] = end - start
        if not per_cell or not csv_ns:
            raise ValueError("no traced cells or CSV writes to summarize")
        total_ns = sum(cell_ns.values())
        metrics = {}
        for layer in LAYERS:
            values = [bucket[layer] for bucket in per_cell.values()]
            metrics[f"{layer}_ms"] = statistics.median(values) / 1e6
            metrics[f"{layer}_share"] = sum(values) / total_ns
        metrics["harness.csv_ms"] = statistics.median(csv_ns) / 1e6
        return metrics
