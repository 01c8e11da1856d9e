"""Lightweight structured tracing for simulations.

Components emit ``trace.emit(kind, **fields)`` records; experiments filter
and aggregate them afterwards. Tracing defaults to *disabled per kind* until
a kind is subscribed, so hot paths pay one dict lookup when idle.

Long soaks can emit millions of records; pass ``capacity`` to keep only
the most recent N (a ring buffer) and count the rest in :attr:`dropped`.
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
    """Collects :class:`TraceRecord` objects for subscribed kinds."""

    def __init__(self, clock: Callable[[], float],
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self._clock = clock
        self.capacity = capacity
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._enabled: Dict[str, bool] = {}
        self._default = False
        self._callbacks: Dict[str, List[Callable[[TraceRecord], None]]] = {}
        self.dropped = 0

    def enable(self, *kinds: str) -> None:
        """Start recording the given kinds (e.g. ``"pkt.drop"``)."""
        for kind in kinds:
            self._enabled[kind] = True

    def enable_all(self) -> None:
        """Record every kind not explicitly disabled."""
        self._default = True

    def disable(self, *kinds: str) -> None:
        """Stop recording the given kinds and detach their callbacks.

        Callbacks must go too: ``on()`` re-enables the kind, so a stale
        callback list would silently resurrect a disabled kind (and leak
        closures) the next time anyone subscribes to it.
        """
        for kind in kinds:
            self._enabled[kind] = False
            self._callbacks.pop(kind, None)

    def on(self, kind: str, callback: Callable[[TraceRecord], None]) -> None:
        """Invoke ``callback`` for each emitted record of ``kind``."""
        self._enabled[kind] = True
        self._callbacks.setdefault(kind, []).append(callback)

    def emit(self, kind: str, **fields: Any) -> None:
        if not self._enabled.get(kind, self._default):
            return
        record = TraceRecord(self._clock(), kind, fields)
        if self.capacity is not None and len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)
        for callback in self._callbacks.get(kind, ()):
            callback(record)

    def records(self, kind: Optional[str] = None) -> List[TraceRecord]:
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for r in self._records if r.kind == kind)

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
