"""Simulated resources: CPU budgets, memory budgets, and FIFO queues.

These model the scarce quantities the paper's analysis revolves around:

* :class:`CpuResource` — a pool of cores, each with a cycles/second rating.
  Work is submitted as a cycle count; the resource serializes work per core
  and exposes a utilization estimate over a sliding window. This is how the
  vSwitch's "CPU limits CPS" behaviour arises.
* :class:`MemoryBudget` — a byte-accounted allocator with named reservations.
  This is how "memory limits #concurrent flows / #vNICs" arises.
* :class:`FifoQueue` — a bounded producer/consumer queue with drop-tail
  semantics, used for NIC rx queues.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Dict, Generator, List, Optional,
                    Tuple)

from repro.errors import ResourceExhausted, SimulationError
from repro.sim.engine import Engine, Event


class CpuResource:
    """A multi-core CPU with per-core FIFO service.

    Jobs are submitted with :meth:`execute` (a process-style generator you
    ``yield from``) or fire-and-forget :meth:`submit`. Each job costs a
    number of cycles; service time is ``cycles / hz``. Jobs are dispatched
    to the least-loaded core (shortest backlog), which models the
    run-to-completion, flow-pinned polling threads of a real vSwitch
    closely enough for capacity analysis.

    Utilization is measured as busy-time over a sliding window so the
    controller can poll "current" utilization the way production telemetry
    does.
    """

    def __init__(
        self,
        engine: Engine,
        cores: int,
        hz: float,
        name: str = "cpu",
        util_window: float = 1.0,
    ) -> None:
        if cores <= 0:
            raise SimulationError("cores must be positive")
        if hz <= 0:
            raise SimulationError("hz must be positive")
        self.engine = engine
        self.cores = cores
        self.hz = float(hz)
        self.name = name
        self.util_window = float(util_window)
        # Per-core time at which the core becomes free.
        self._free_at: List[float] = [0.0] * cores
        # (start, end) busy intervals, pruned outside the window.
        self._busy: Deque[Tuple[float, float]] = deque()
        self.total_cycles = 0.0
        self.jobs_done = 0
        self.jobs_rejected = 0

    # -- job submission -----------------------------------------------------

    def service_time(self, cycles: float) -> float:
        """Seconds one core needs for ``cycles`` cycles."""
        return cycles / self.hz

    def _admit(self, cycles: float,
               max_backlog: Optional[float] = None) -> Optional[float]:
        """Reserve the least-loaded core for ``cycles``; returns the
        completion time, or None — counting a rejection — when that
        core's backlog exceeds ``max_backlog`` seconds (drop-tail; None
        admits unconditionally). The one admit-and-book step behind
        every submission method: the argmin runs once, through C-level
        ``min`` + ``list.index`` — the single hottest expression in a
        CPS sweep."""
        free = self._free_at
        if len(free) == 1:
            core = 0
            start = free[0]
        else:
            start = min(free)
            core = free.index(start)
        now = self.engine.now
        if max_backlog is not None and start - now > max_backlog:
            self.jobs_rejected += 1
            return None
        if start < now:
            start = now
        end = start + cycles / self.hz
        free[core] = end
        busy = self._busy
        busy.append((start, end))
        # Amortised prune (the interval just booked ends >= now, so the
        # deque never empties): ``utilization`` would drop the same
        # intervals, and they contribute 0 to it.
        lo = now - self.util_window
        while busy[0][1] < lo:
            busy.popleft()
        self.total_cycles += cycles
        self.jobs_done += 1
        return end

    def _event_at(self, end: Optional[float]) -> Optional[Event]:
        """An Event fired at a booked job's completion time."""
        if end is None:
            return None
        done = self.engine.event(name=f"{self.name}.job")
        self.engine.call_at(end, done.succeed, None)
        return done

    def submit(self, cycles: float) -> Event:
        """Enqueue a job; returns an Event fired at its completion time."""
        return self._event_at(self._admit(cycles))

    def execute(self, cycles: float) -> Generator[Any, Any, None]:
        """Process-style helper: ``yield from cpu.execute(cycles)``."""
        yield self.submit(cycles)

    def try_submit(self, cycles: float, max_backlog: float) -> Optional[Event]:
        """Submit unless the least-loaded core's backlog exceeds
        ``max_backlog`` seconds; returns None (and counts a rejection) when
        the job is dropped. This models drop-tail under overload.
        """
        return self._event_at(self._admit(cycles, max_backlog))

    def try_book(self, cycles: float, max_backlog: float) -> Optional[float]:
        """Drop-tail admission returning the bare completion time: the
        caller schedules its own completion callback, so no Event is
        built."""
        return self._admit(cycles, max_backlog)

    def try_submit_call(self, cycles: float, max_backlog: float,
                        fn: Callable[..., None], *args: Any) -> bool:
        """Book a job and run ``fn(*args)`` at its completion (drop-tail).

        The callback runs one micro-queue hop after the completion
        instant's heap pop (:meth:`Engine.call_settled`, one event) — the
        exact position a process resumed by the job's Event would run
        at — so schedules are indistinguishable from a process that
        yields :meth:`try_submit`'s Event (the reference oracle charges
        that way, timestamps compared).
        """
        end = self._admit(cycles, max_backlog)
        if end is None:
            return False
        self.engine.call_settled(end, fn, *args)
        return True

    # -- telemetry ----------------------------------------------------------

    def backlog(self) -> float:
        """Seconds of queued work on the least-loaded core."""
        now = self.engine.now
        return max(0.0, min(self._free_at) - now)

    def utilization(self) -> float:
        """Fraction of capacity busy over the trailing window, in [0, 1]."""
        now = self.engine.now
        lo = now - self.util_window
        while self._busy and self._busy[0][1] < lo:
            self._busy.popleft()
        busy = 0.0
        for start, end in self._busy:
            # Booked intervals may lie (partly) in the future when the core
            # has a backlog; only the portion inside [lo, now] counts.
            busy += max(0.0, min(end, now) - max(start, lo))
        return min(1.0, busy / (self.util_window * self.cores))


class MemoryBudget:
    """Byte-accounted memory with named reservations.

    ``alloc(tag, nbytes)`` either succeeds or raises
    :class:`ResourceExhausted`; ``free(tag, nbytes)`` releases. Per-tag
    accounting lets experiments report where memory went (session table vs
    rule tables vs BE metadata), mirroring the paper's breakdowns.
    """

    def __init__(self, capacity: int, name: str = "mem") -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.capacity = int(capacity)
        self.name = name
        self.used = 0
        self.by_tag: Dict[str, int] = {}
        self.failed_allocs = 0
        self.peak = 0

    def alloc(self, tag: str, nbytes: int) -> None:
        if nbytes < 0:
            raise SimulationError("cannot alloc negative bytes")
        if self.used + nbytes > self.capacity:
            self.failed_allocs += 1
            raise ResourceExhausted(
                f"{self.name}: alloc {nbytes}B for {tag!r} exceeds capacity "
                f"({self.used}/{self.capacity} used)"
            )
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        self.by_tag[tag] = self.by_tag.get(tag, 0) + nbytes

    def try_alloc(self, tag: str, nbytes: int) -> bool:
        """Like :meth:`alloc` but returns False instead of raising."""
        try:
            self.alloc(tag, nbytes)
        except ResourceExhausted:
            return False
        return True

    def free(self, tag: str, nbytes: int) -> None:
        have = self.by_tag.get(tag, 0)
        if nbytes > have:
            raise SimulationError(
                f"{self.name}: freeing {nbytes}B from {tag!r} but only "
                f"{have}B allocated"
            )
        self.by_tag[tag] = have - nbytes
        if self.by_tag[tag] == 0:
            del self.by_tag[tag]
        self.used -= nbytes

    def free_all(self, tag: str) -> int:
        """Release everything under ``tag``; returns the bytes freed."""
        nbytes = self.by_tag.pop(tag, 0)
        self.used -= nbytes
        return nbytes

    def utilization(self) -> float:
        return self.used / self.capacity

    def available(self) -> int:
        return self.capacity - self.used


class FifoQueue:
    """Bounded FIFO with drop-tail, for NIC queues and inter-stage buffers.

    Consumers wait via ``yield queue.get()``; producers call :meth:`put`,
    which returns False (and counts a drop) when the queue is full.
    """

    def __init__(self, engine: Engine, capacity: int = 0, name: str = "queue") -> None:
        self.engine = engine
        self.capacity = int(capacity)  # 0 means unbounded
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.drops = 0
        self.puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> bool:
        if self.capacity and len(self._items) >= self.capacity:
            self.drops += 1
            return False
        self.puts += 1
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)
        return True

    def get(self) -> Event:
        """Return an Event that fires with the next item."""
        done = self.engine.event(name=f"{self.name}.get")
        if self._items:
            done.succeed(self._items.popleft())
        else:
            self._getters.append(done)
        return done
