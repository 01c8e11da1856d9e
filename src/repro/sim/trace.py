"""Structured tracing for simulations: one bounded ring of records.

Components emit ``trace.emit(kind, **fields)``; post-mortems filter the
records by kind afterwards. A trace records every kind it is handed and
keeps the newest ``capacity`` records, counting the evicted ones in
:attr:`dropped`. A capacity-0 trace is silent: :data:`SILENT` is the one
every component shares while telemetry is not installed, and its
``emit`` returns after one attribute check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace event: virtual time, a kind tag, and free-form fields."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None


class Trace:
    """The newest ``capacity`` :class:`TraceRecord` objects, stamped by
    ``clock``."""

    def __init__(self, clock: Callable[[], float], capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must not be negative")
        self._clock = clock
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, kind: str, **fields: Any) -> None:
        if not self.capacity:
            return
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(TraceRecord(self._clock(), kind, fields))

    def records(self, kind: Optional[str] = None) -> List[TraceRecord]:
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind == kind]


#: The trace components hold while telemetry is not installed.
SILENT = Trace(lambda: 0.0, 0)
