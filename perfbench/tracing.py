"""In-memory spans recorded by the benchmark around its calls into relbc.

A span has a name, the relbc layer (module) it belongs to, start and end
times (``perf_counter_ns``), the span that encloses it and the id of the
benchmark operation it serves. Spans stay in memory until the run ends and
are then written out as JSON lines. With tracing off, ``span`` hands back
one shared no-op context manager, so the untraced loop pays one method call
per public call and records nothing.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter_ns

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    def next_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def span(self, layer: str, name: str):
        if not self.enabled:
            return _NULL
        return _Span(self, layer, name)

    def self_time_ns(self, ops: set[int]) -> dict[str, int]:
        """Per layer, over the spans of `ops`: span durations minus the time
        their child spans cover."""
        spans = [s for s in self.spans if s["op"] in ops]
        child_ns: dict[int, int] = {}
        for s in spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
        out: dict[str, int] = {}
        for s in spans:
            own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
            out[s["layer"]] = out.get(s["layer"], 0) + own
        return out

    def write(self, path: Path, summary: dict) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
            f.write(json.dumps({"summary": summary}) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, layer: str, name: str):
        self.tracer = tracer
        self.record = {
            "id": len(tracer.spans),
            "op": tracer.op_id,
            "parent": tracer._stack[-1] if tracer._stack else None,
            "layer": layer,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
        }

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer._stack.append(self.record["id"])
        self.record["start_ns"] = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record["end_ns"] = perf_counter_ns()
        self.tracer._stack.pop()
        return False
