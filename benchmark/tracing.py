"""Spans recorded around the benchmark's own calls into shorcost.

A span is one call into one module: its name, start and end, the span that
was open when it began, the repetition it belongs to and the workload.
Counts (gates, states, bytes) ride on the span that did the work.  Spans
stay in memory and are written out once, when the run ends.

``NullTracer`` is what the timed runs use: the same call sites, no
clock reads and no records.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

MODULES = ("arithmetic", "oracle", "architecture", "scheduler", "circuit", "cli")


class NullTracer:
    def span(self, module: str, name: str, **counts):
        return nullcontext({})

    def spec(self, fn, counts: dict):
        return fn


class Tracer:
    """Records spans.  With ``alloc``, which only the separate allocation
    pass sets, each oracle span also runs under tracemalloc and notes the
    peak of what it allocated."""

    def __init__(self, workload: str, *, alloc: bool = False) -> None:
        self.workload = workload
        self.alloc = alloc
        self.rep = 0
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, module: str, name: str, **counts):
        rec = {
            "name": f"{module}.{name}",
            "module": module,
            "workload": self.workload,
            "rep": self.rep,
            "parent": self._open[-1] if self._open else None,
            "counts": dict(counts),
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        alloc = self.alloc and module == "oracle"
        if alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            end = time.perf_counter()
            if alloc:
                rec["counts"]["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            rec["start"] = start - self._t0
            rec["end"] = end - self._t0
            self._open.pop()

    def spec(self, fn, counts: dict):
        """Wrap the benchmark's reference function so that the time the
        oracle spends inside it is counted on the oracle span, not as
        oracle self time.  One span per call would be 10^4 spans a check."""
        counts.setdefault("spec_calls", 0)
        counts.setdefault("spec_s", 0.0)
        clock = time.perf_counter

        def timed(values):
            t = clock()
            out = fn(values)
            counts["spec_s"] += clock() - t
            counts["spec_calls"] += 1
            return out

        return timed


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds each module ran with none of its child spans open.

    Time inside the benchmark's own reference function is charged to
    ``bench``, not to the oracle that called it.
    """
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        spec_s = s["counts"].get("spec_s", 0.0)
        out[s["module"]] += s["end"] - s["start"] - child_s[i] - spec_s
        out["bench"] += spec_s
    return dict(out)


def write_spans(path: Path, spans: list[dict], summary: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"summary": summary, "spans": spans}) + "\n")
