"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a layer's public function, made from the
benchmark's own code: name, wall start/end (``perf_counter``), thread CPU
start/end (``thread_time``), the span that caused it and the trace (one per
workload run) it belongs to.  Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of the run.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    trace_id: str
    name: str
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    count: int = 0  # tuples (or keys) the call handled

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    """Records nested spans of one thread; ``enabled=False`` records nothing."""

    def __init__(self, trace_id: str, *, enabled: bool = True) -> None:
        self.trace_id = trace_id
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, count: int = 0) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        record = Span(
            span_id=len(self.spans),
            parent_id=self._stack[-1] if self._stack else None,
            trace_id=self.trace_id,
            name=name,
            start=time.perf_counter(),
            cpu_start=time.thread_time(),
            count=count,
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.cpu_end = time.thread_time()
            record.end = time.perf_counter()

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """``{span_id: {"wall": s, "cpu": s}}`` with child coverage removed."""
        selves = {span.span_id: {"wall": span.wall, "cpu": span.cpu} for span in self.spans}
        for span in self.spans:
            if span.parent_id is not None:
                selves[span.parent_id]["wall"] -= span.wall
                selves[span.parent_id]["cpu"] -= span.cpu
        return selves

    def totals(self, name: str) -> Dict[str, float]:
        """Summed wall, CPU, self wall, self CPU and count of spans ``name``."""
        selves = self.self_times()
        spans = self.named(name)
        return {
            "calls": float(len(spans)),
            "wall": sum(span.wall for span in spans),
            "cpu": sum(span.cpu for span in spans),
            "self_wall": sum(selves[span.span_id]["wall"] for span in spans),
            "self_cpu": sum(selves[span.span_id]["cpu"] for span in spans),
            "count": float(sum(span.count for span in spans)),
        }

    def dump(self, path: Path) -> None:
        selves = self.self_times()
        rows = [
            {**asdict(span), "self_wall": selves[span.span_id]["wall"],
             "self_cpu": selves[span.span_id]["cpu"]}
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"trace_id": self.trace_id, "spans": rows}))
