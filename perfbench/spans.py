"""In-memory spans recorded around the calls into each layer.

A span has a name, a start, an end, a parent (the index of the enclosing
span, ``-1`` at the top) and the epoch it belongs to, with
``perf_counter`` times in seconds.  Spans are kept in flat arrays while
the benchmark runs -- so recording them adds no objects for the garbage
collector to track, and the runtime layer's heap counts stay the
program's own -- and are written out once at the end as Chrome
``trace_event`` JSON, which Perfetto and ``chrome://tracing`` open.

A layer's *self time* is the time its spans cover minus the time their
child spans cover, so the self times of all layers in an epoch add up to
the epoch's wall time.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

_clock = time.perf_counter


class SpanRecorder:
    """Collects nested spans for the epochs that are traced."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._epoch = array("l")
        self._stack: List[int] = []
        self.epoch = 0

    def _append(self, name: str, start: float, end: float) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._start.append(start)
        self._end.append(end)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._epoch.append(self.epoch)
        return index

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = self._append(name, _clock(), math.nan)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost open span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        self._end[index] = _clock()

    def inside(self) -> bool:
        """Whether any span is open."""
        return bool(self._stack)

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the innermost open one."""
        self._append(name, start, end)

    def span(self, index: int) -> Tuple[str, float, float, int, int]:
        """``(name, start, end, parent, epoch)`` of one span."""
        return (
            self.names[self._name[index]],
            self._start[index],
            self._end[index],
            self._parent[index],
            self._epoch[index],
        )

    # ------------------------------------------------------------------

    def _closed(self) -> Iterator[int]:
        for index in range(len(self._start)):
            if not math.isnan(self._end[index]):
                yield index

    def self_times(self) -> Dict[Tuple[int, str], float]:
        """``(epoch, name) -> self seconds`` over every closed span."""
        child_time = [0.0] * len(self._start)
        for index in self._closed():
            parent = self._parent[index]
            if parent >= 0:
                child_time[parent] += self._end[index] - self._start[index]
        totals: Dict[Tuple[int, str], float] = defaultdict(float)
        for index in self._closed():
            name = self.names[self._name[index]]
            duration = self._end[index] - self._start[index]
            totals[(self._epoch[index], name)] += duration - child_time[index]
        return totals

    def totals(self, name: str) -> Dict[int, float]:
        """``epoch -> summed duration`` of the spans called ``name``."""
        out: Dict[int, float] = defaultdict(float)
        name_id = self._name_ids.get(name)
        for index in self._closed():
            if self._name[index] == name_id:
                out[self._epoch[index]] += self._end[index] - self._start[index]
        return out

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as a Chrome ``trace_event`` document.

        Every span is a complete (``X``) event on one track, in start
        order with a parent before its children, times in integer
        microseconds from the first span's start.
        """
        events: List[Dict[str, object]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "ts": 0,
                "args": {"name": "rekey epochs"},
            }
        ]
        closed = list(self._closed())
        if not closed:
            return {"traceEvents": events, "displayTimeUnit": "ms"}
        origin = min(self._start[index] for index in closed)
        spans = []
        for index in closed:
            name, start, end, parent, epoch = self.span(index)
            ts = round((start - origin) * 1e6)
            spans.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": ts,
                    "dur": max(0, round((end - origin) * 1e6) - ts),
                    "pid": 1,
                    "tid": 1,
                    "args": {"span": index, "parent": parent, "epoch": epoch},
                }
            )
        spans.sort(key=lambda event: (event["ts"], -event["dur"]))
        events.extend(spans)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> Dict[str, object]:
        """Write :meth:`chrome_trace` to ``path``; returns the document."""
        doc = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
        return doc


class _NullRecorder:
    """Stands in for a :class:`SpanRecorder` in untraced epochs."""

    def open(self, name: str) -> int:
        return -1

    def close(self, index: int) -> None:
        pass


NULL_RECORDER = _NullRecorder()
