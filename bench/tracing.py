"""In-memory spans and counts recorded around calls into svalgebra.

A span is one timed call into a layer's public function, made by the
benchmark: name, start, end, the enclosing span and the operation it
belongs to.  Spans stay in memory until the run ends and are then written
out with the result.  A span's self time is its duration minus the time
its direct children cover.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List


class Tracer:
    def __init__(self) -> None:
        self.ops: List[Dict[str, str]] = []  # op id -> {"name", "parity"}
        self.spans: List[Dict[str, object]] = []
        self.counts: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def begin_op(self, name: str, parity: str) -> int:
        self.ops.append({"name": name, "parity": parity})
        return len(self.ops) - 1

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[Dict[str, object]]:
        rec: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float, op: int) -> None:
        self.counts.append({"name": name, "op": op, "value": value})

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like ``spans``."""
        out = [duration(s) for s in self.spans]
        for s in self.spans:
            parent = s["parent"]
            if parent is not None:
                out[parent] -= duration(s)
        return out

    def layer_values(self) -> Dict[str, float]:
        """Per-layer metrics: the median over operations of each span's
        self time (name + ``_s``) and of each count, suffixed with the
        operation's parity when it has one.  Values from the same operation
        are summed first."""
        per_op: Dict[str, Dict[int, float]] = {}

        def add(metric: str, op: int, value: float) -> None:
            parity = self.ops[op]["parity"]
            key = f"{metric}.{parity}" if parity else metric
            by_op = per_op.setdefault(key, {})
            by_op[op] = by_op.get(op, 0) + value

        for s, self_time in zip(self.spans, self.self_times()):
            add(f"{s['name']}_s", s["op"], self_time)
        for c in self.counts:
            add(c["name"], c["op"], c["value"])
        return {k: statistics.median(v.values()) for k, v in per_op.items()}

    def dump(self) -> Dict[str, object]:
        self_times = self.self_times()
        spans = [dict(s, self=t) for s, t in zip(self.spans, self_times)]
        return {"ops": self.ops, "spans": spans, "counts": self.counts}


def duration(span: Dict[str, object]) -> float:
    return span["end"] - span["start"]  # type: ignore[operator]

