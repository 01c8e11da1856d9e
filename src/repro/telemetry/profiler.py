"""Engine profiler: attribute events and wall-clock time to owners.

The engine's dispatch loop checks ``self.profiler is None`` (cached in a
local at the top of ``run``), so a profiler-less run pays one ``is``
test per event and a profiled run routes every callback through
:meth:`EngineProfiler.dispatch`, which times it with ``perf_counter`` and
buckets it by owner.

Attribution: bound methods bucket under ``TypeName.method`` — and when
the receiver has a ``name`` (``Process``, ``Event``), under that name —
so "which process is hot" falls straight out of :meth:`top`. A CPU
completion is one event on its real owner (``Engine.call_settled``); the
one genuine ``engine.call_soon`` still scheduled as a callback itself
(``Vm._dispatch_conn``'s lock-ends-last hop) is billed to the callback
it relays, never to the engine.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple


class ProfileBucket:
    """Accumulated cost for one owner key."""

    __slots__ = ("events", "wall_s")

    def __init__(self) -> None:
        self.events = 0
        self.wall_s = 0.0


class EngineProfiler:
    """Per-owner event counts and real elapsed time for one engine run."""

    def __init__(self) -> None:
        self.buckets: Dict[str, ProfileBucket] = {}
        self.total_events = 0
        self.total_wall_s = 0.0
        self.started_at: float = time.perf_counter()

    def _owner_of(self, fn: Callable[..., Any],
                  args: Tuple[Any, ...] = ()) -> str:
        # ``call_settled(end, engine.call_soon, fn, *args)`` hands the
        # profiler the bound ``Engine.call_soon`` with the real callback
        # in ``args[0]``: the hop belongs to that callback's owner.
        while (getattr(fn, "__name__", None) == "call_soon"
               and getattr(fn, "__self__", None) is not None
               and args and callable(args[0])):
            fn, args = args[0], args[1:]
        receiver = getattr(fn, "__self__", None)
        fn_name = getattr(fn, "__name__", repr(fn))
        if receiver is None:
            return fn_name
        label = type(receiver).__name__
        name = getattr(receiver, "name", None)
        if isinstance(name, str) and name:
            return f"{label}:{name}"
        return f"{label}.{fn_name}"

    def dispatch(self, fn: Callable[..., Any], args: Tuple[Any, ...],
                 now: float) -> None:
        """Run one engine callback under the clock. ``now`` is virtual
        time (reserved for future virtual-time attribution; wall time is
        the cost that matters for 'where do my seconds go')."""
        started = time.perf_counter()
        try:
            fn(*args)
        finally:
            elapsed = time.perf_counter() - started
            key = self._owner_of(fn, args)
            bucket = self.buckets.get(key)
            if bucket is None:
                bucket = self.buckets[key] = ProfileBucket()
            bucket.events += 1
            bucket.wall_s += elapsed
            self.total_events += 1
            self.total_wall_s += elapsed

    # -- reporting ---------------------------------------------------------

    def events_per_sec(self) -> float:
        elapsed = time.perf_counter() - self.started_at
        return self.total_events / elapsed if elapsed > 0 else 0.0

    def top(self, n: int = 10) -> List[Dict[str, Any]]:
        """Hottest owners by wall-clock time."""
        ranked = sorted(self.buckets.items(),
                        key=lambda item: item[1].wall_s, reverse=True)
        total = self.total_wall_s or 1.0
        return [{"owner": key, "events": bucket.events,
                 "wall_s": bucket.wall_s,
                 "share": bucket.wall_s / total}
                for key, bucket in ranked[:n]]

    def to_dict(self, top_n: int = 20) -> Dict[str, Any]:
        return {
            "total_events": self.total_events,
            "total_wall_s": self.total_wall_s,
            "events_per_sec": self.events_per_sec(),
            "owners": len(self.buckets),
            "top": self.top(top_n),
        }

    def reset(self) -> None:
        self.buckets.clear()
        self.total_events = 0
        self.total_wall_s = 0.0
        self.started_at = time.perf_counter()
