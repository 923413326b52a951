"""In-memory spans recorded around the benchmark's own calls into qchan.

A span has a name, a start, an end, a parent span and the id of the
operation it belongs to. Spans are kept in memory and written out once,
when the run ends. A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]


class Tracer:
    """Records nested spans; with enabled=False every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op: Optional[str] = None

    @contextlib.contextmanager
    def operation(self, op_id: str):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self._op)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (count, total duration, total self time)."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Dict[str, Tuple[int, float, float]] = {}
        for s in self.spans:
            count, total, own = out.get(s.name, (0, 0.0, 0.0))
            duration = s.end - s.start
            out[s.name] = (count + 1, total + duration, own + duration - child_time[s.sid])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
