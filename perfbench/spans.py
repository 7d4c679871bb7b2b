"""In-memory span recorder for the traced benchmark runs.

A span is one call into a layer: its name, its layer (one of the
``src/repro`` packages, or ``bench`` for the benchmark's own glue), start
and end on the ``perf_counter`` clock, the span that caused it and the
trace (pass or request) it belongs to.  Spans are kept in a list and
written out once, when the run ends.

A layer's self time is the summed duration of its spans minus the part
of those intervals that child spans cover, so the self times of all
layers add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

#: Layers named after the ``src/repro`` packages the workloads call into.
#: ``core``, ``topology`` and ``graphs`` are reached through them and are
#: charged to the layer that called them.
LAYERS = ("analysis", "shm", "universe", "decision", "sweep", "serve")
BENCH = "bench"


#: Field order of a recorded span.
FIELDS = ("id", "parent", "trace", "name", "layer", "attrs", "start", "end")
ID, PARENT, TRACE, NAME, LAYER, ATTRS, START, END = range(len(FIELDS))


class Tracer:
    """Records spans when ``enabled``; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._trace = 0

    def new_trace(self) -> int:
        """Start a new trace id (one per pass or per replayed request)."""
        self._trace += 1
        return self._trace

    def span(self, name: str, layer: str, **attrs):
        """Context manager timing one call into ``layer``; it yields the
        span's attribute dict, where counts seen at the boundary go."""
        if not self.enabled:
            return contextlib.nullcontext(attrs)
        return _Span(self, name, layer, attrs)

    def rows(self, traces: set[int] | None = None) -> list[list]:
        """The recorded spans of ``traces`` (default all)."""
        return [row for row in self.spans if traces is None or row[TRACE] in traces]

    def self_times(self, traces: set[int] | None = None) -> dict[str, float]:
        """Self seconds per layer over the spans of ``traces`` (default all)."""
        spans = self.rows(traces)
        covered: dict[int, float] = defaultdict(float)
        for row in spans:
            if row[PARENT] is not None:
                covered[row[PARENT]] += row[END] - row[START]
        totals: dict[str, float] = defaultdict(float)
        for row in spans:
            totals[row[LAYER]] += row[END] - row[START] - covered[row[ID]]
        return dict(totals)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(row[END] - row[START] for row in self.spans if row[NAME] == name)

    def count(self, name: str) -> int:
        return sum(1 for row in self.spans if row[NAME] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": [dict(zip(FIELDS, row)) for row in self.spans]}, handle
            )


class _Span:
    """One open span; a plain class because a generator-based context
    manager would cost several times more per call."""

    __slots__ = ("tracer", "row")

    def __init__(self, tracer: Tracer, name: str, layer: str, attrs: dict) -> None:
        self.tracer = tracer
        self.row = [0, None, tracer._trace, name, layer, attrs, 0.0, 0.0]

    def __enter__(self) -> dict:
        tracer, row = self.tracer, self.row
        row[ID] = tracer._next_id
        tracer._next_id += 1
        if tracer._stack:
            row[PARENT] = tracer._stack[-1]
        tracer._stack.append(row[ID])
        row[START] = time.perf_counter()
        return row[ATTRS]

    def __exit__(self, *exc_info) -> None:
        self.row[END] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(self.row)


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one recorded span costs over a disabled one, measured in
    this process (median of ``repeats`` rounds of ``calls`` spans)."""

    def timed(tracer: Tracer) -> float:
        started = time.perf_counter()
        for _ in range(calls):
            with tracer.span("probe", BENCH):
                pass
        return time.perf_counter() - started

    costs = [timed(Tracer(True)) - timed(Tracer(False)) for _ in range(repeats)]
    return max(0.0, statistics.median(costs)) / calls


def layer_breakdown(
    tracer: Tracer,
    overhead_s: float,
    traces: set[int] | None = None,
) -> dict:
    """Per-layer self seconds, the unaccounted share and the overhead.

    All three come from the traced process alone.  The root spans
    (those without a parent) are the traced wall time; the unaccounted
    share is the part of it that no layer's self time covers, which is
    the benchmark's own glue.  ``overhead_s`` is the tracing overhead the
    caller measured in the same process.
    """
    spans = tracer.rows(traces)
    root = sum(row[END] - row[START] for row in spans if row[PARENT] is None)
    selfs = tracer.self_times(traces)
    metrics = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    metrics["bench.self_s"] = selfs.get(BENCH, 0.0)
    layered = sum(selfs.get(layer, 0.0) for layer in LAYERS)
    metrics["unaccounted_frac"] = (root - layered) / root if root > 0 else 0.0
    metrics["trace_overhead_s"] = overhead_s
    return metrics


def pass_breakdown(tracer: Tracer, traces: set[int] | None = None) -> dict:
    """``layer_breakdown`` of one traced pass.

    A pass records a few dozen coarse spans, so its tracing overhead is
    their number times the cost of one span, both measured in this
    process; the wall times of an untraced and a traced pass run in two
    processes differ by far more than that from process to process.
    """
    cost = span_cost()
    count = len(tracer.rows(traces))
    metrics = layer_breakdown(tracer, count * cost, traces)
    metrics["trace.spans"] = count
    metrics["trace.span_cost_us"] = 1e6 * cost
    return metrics
