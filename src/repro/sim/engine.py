"""Core discrete-event engine.

The engine keeps a heap of ``(time, seq, callback)`` entries. Two programming
models are supported and freely mixed:

* **callbacks** — ``engine.call_at(t, fn)`` / ``engine.call_after(dt, fn)``;
* **processes** — generator functions that yield :class:`Timeout`,
  :class:`Event`, or another :class:`Process`; the engine resumes them when
  the yielded thing completes.

The process model is what most of the library uses: a vSwitch worker loop,
a TCP client, the controller's reconciliation loop are all processes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (Any, Callable, Deque, Generator, Iterable, List, Optional,
                    Tuple)

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) fires it,
    resuming every waiting process with the given value (or exception).
    Waiting on an already-fired event resumes the waiter immediately.
    """

    __slots__ = ("engine", "_value", "_exc", "_fired", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._fired = False
        self._waiters: List["Process"] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, waking all waiters."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        self._schedule_waiters()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception; waiters see it raised."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._exc = exc
        self._schedule_waiters()
        return self

    def _schedule_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.engine.call_soon(proc._resume, self._value, self._exc)

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self.engine.call_soon(proc._resume, self._value, self._exc)
        else:
            self._waiters.append(proc)


class Timeout:
    """Yielded by a process to sleep for ``delay`` seconds of virtual time."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = float(delay)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


ProcessGen = Generator[Any, Any, Any]


class Process:
    """A running generator coroutine driven by the engine.

    Yield targets:

    * ``Timeout(dt)``   — resume after ``dt`` virtual seconds;
    * ``Event``         — resume when the event fires (with its value);
    * ``Process``       — resume when that process terminates;
    * ``None``          — resume on the next engine tick (a cooperative yield).

    A process is itself awaitable by other processes and exposes a
    :attr:`done` flag plus its return :attr:`value`.
    """

    __slots__ = ("engine", "gen", "name", "_done", "_value", "_exc",
                 "_completion", "_interrupts", "_begun")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._completion = Event(engine, name=f"{self.name}.done")
        self._interrupts: List[Interrupt] = []
        self._begun = False
        engine.call_soon(self._resume, None, None)

    # -- public API ---------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"process {self.name!r} still running")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def completion(self) -> Event:
        """Event fired when this process terminates."""
        return self._completion

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume point."""
        if self._done:
            return
        self._interrupts.append(Interrupt(cause))
        self.engine.call_soon(self._resume, None, None)

    # -- engine plumbing ----------------------------------------------------

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._done:
            return
        try:
            if self._interrupts:
                intr = self._interrupts.pop(0)
                if not self._begun:
                    # Interrupted before the generator ever ran: throwing
                    # would raise at its first line, outside any try block.
                    # Treat it as a clean cancellation instead.
                    self.gen.close()
                    self._finish(None, None)
                    return
                target = self.gen.throw(intr)
            elif exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
            self._begun = True
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via event
            self._finish(None, err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if target is None:
            self.engine.call_soon(self._resume, None, None)
        elif isinstance(target, Timeout):
            self.engine.call_after(target.delay, self._resume, target.value, None)
        elif isinstance(target, Event):
            target._add_waiter(self)
        elif isinstance(target, Process):
            target._completion._add_waiter(self)
        else:
            self._finish(
                None,
                SimulationError(
                    f"process {self.name!r} yielded unsupported {target!r}"
                ),
            )

    def _finish(self, value: Any, exc: Optional[BaseException]) -> None:
        self._done = True
        self._value = value
        self._exc = exc
        if exc is not None:
            if self._completion._waiters:
                self._completion.fail(exc)
            else:
                # Nobody is waiting; surface the crash through the engine so
                # it is not silently swallowed.
                self._completion._fired = True
                self._completion._exc = exc
                self.engine._report_crash(self, exc)
        else:
            self._completion.succeed(value)


class Engine:
    """The event loop: a time-ordered heap plus a same-time micro-queue.

    ``run(until=...)`` executes callbacks in time order until nothing is
    queued or virtual time would pass ``until``. The engine is
    deterministic: simultaneous callbacks run in scheduling order (FIFO).

    Callbacks scheduled *at the current instant* — ``call_soon``, a
    ``call_after(0, ...)``, an event waking its waiters — are the dominant
    case (process resumes, event waiters), so they bypass the heap through
    a FIFO micro-queue instead of paying ``heappush``/``heappop`` churn.
    Ordering is unchanged: heap entries for the current instant were
    necessarily scheduled at an earlier time (lower sequence numbers than
    anything enqueued now), so draining the heap's current-time entries
    before the micro-queue reproduces the exact ``(time, seq)`` total
    order of a pure-heap engine (``tests/test_perf_caches.py`` keeps a
    ten-line pure-heap engine and requires identical traces).
    """

    def __init__(self) -> None:
        #: Current virtual time in seconds (read-only outside the engine).
        self.now = 0.0
        self._heap: List[Tuple[float, int, Optional[Callable[..., None]],
                               tuple]] = []
        self._ready: Deque[Tuple[Callable[..., None], tuple]] = deque()
        self._seq = 0
        self._run_until: Optional[float] = None
        self._crashes: List[Tuple[Process, BaseException]] = []
        self.strict = True
        # Optional telemetry hook (repro.telemetry.profiler). None keeps
        # dispatch on the direct ``fn(*args)`` path — one ``is None``
        # check per event, cached in a local by the run loop.
        self.profiler = None

    # -- scheduling ---------------------------------------------------------

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self.now}"
            )
        if when == self.now:
            self._ready.append((fn, args))
            return
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        self.call_at(self.now + delay, fn, *args)

    def call_settled(self, when: float, fn: Callable[..., None],
                     *args: Any) -> None:
        """Schedule ``fn(*args)`` one micro-queue hop after ``when``'s
        heap pop — *defined as* ``call_at(when, self.call_soon, fn,
        *args)``, the position a process resumed by an Event fired at
        ``when`` runs at — as one event instead of two.

        The entry (``fn`` slot None) settles inside its own pop: the hop
        would put ``fn`` behind whatever the micro-queue already holds
        and behind every heap entry due at the same instant, so when
        there is neither, ``fn`` is the very next callback and runs in
        place; otherwise it is appended exactly as the relay would.
        """
        if when <= self.now:
            self.call_at(when, self.call_soon, fn, *args)
            return
        heapq.heappush(self._heap, (when, self._seq, None, (fn, args)))
        self._seq += 1

    def call_at_batch(
        self,
        items: Iterable[Tuple[float, Callable[..., None], tuple]],
    ) -> None:
        """Schedule many ``(when, fn, args)`` callbacks as one heap entry.

        ``items`` must be sorted by non-decreasing ``when`` with every
        time >= now — the shape a burst of back-to-back link deliveries
        naturally has. Items due *now* drain through the micro-queue
        (no heap traffic at all); the remainder becomes a single heap
        entry that unfolds in place, re-entering the heap only when an
        unrelated callback must run in between.

        Ordering is indistinguishable from calling :meth:`call_at` once
        per item: the whole batch shares one sequence number, so against
        any competitor the batch orders exactly as N consecutive pushes
        would (earlier pushes carry lower seqs, later pushes higher
        ones). :meth:`pending` counts an unfinished batch as one entry.
        """
        items = tuple(items)
        if not items:
            return
        now = self.now
        prev = now
        for when, _fn, _args in items:
            if when < prev:
                raise SimulationError(
                    f"batch items must be time-sorted and >= now={now}")
            prev = when
        index = 0
        ready = self._ready
        while index < len(items) and items[index][0] == now:
            ready.append((items[index][1], items[index][2]))
            index += 1
        if index == len(items):
            return
        heapq.heappush(self._heap,
                       (items[index][0], self._seq, self._run_batch,
                        (items, index, self._seq)))
        self._seq += 1

    def _run_batch(self, items: tuple, index: int, seq: int) -> None:
        """Execute a batch entry's items in place.

        Runs consecutive items without touching the heap until a
        competitor must interleave: a ready-queue callback before the
        clock may advance, a heap entry that is earlier (or same-time
        with a lower seq, i.e. scheduled before this batch), or an item
        beyond the active ``run(until=...)`` bound. The remainder is
        then re-pushed under the batch's *original* seq, preserving its
        order against entries scheduled before/after the batch.
        """
        heap = self._heap
        ready = self._ready
        bound = self._run_until
        profiler = self.profiler
        last = len(items) - 1
        while True:
            when, fn, args = items[index]
            self.now = when
            if profiler is None:
                fn(*args)
            else:
                profiler.dispatch(fn, args, when)
            if index == last:
                return
            index += 1
            next_when = items[index][0]
            if bound is not None and next_when > bound:
                break
            if ready and next_when > self.now:
                break
            if heap:
                head = heap[0]
                if head[0] < next_when or (head[0] == next_when
                                           and head[1] < seq):
                    break
        heapq.heappush(heap, (next_when, seq, self._run_batch,
                              (items, index, seq)))

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        self._ready.append((fn, args))

    # -- process / event construction ---------------------------------------

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(delay, value)

    def all_of(self, waitables: Iterable[Any], name: str = "all_of") -> Event:
        """Event fired once every given event/process has completed."""
        items = list(waitables)
        done_event = self.event(name)
        remaining = len(items)
        if remaining == 0:
            done_event.succeed([])
            return done_event
        results: List[Any] = [None] * remaining

        def waiter(index: int, item: Any) -> ProcessGen:
            value = yield item
            results[index] = value
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done_event.succeed(list(results))

        for i, item in enumerate(items):
            self.process(waiter(i, item), name=f"{name}[{i}]")
        return done_event

    # -- running ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap is empty or virtual time reaches ``until``.

        Returns the virtual time at which execution stopped. Crashed
        processes with no waiters raise at the end of the run when the
        engine is ``strict`` (the default).
        """
        heap = self._heap
        ready = self._ready
        profiler = self.profiler
        heappop = heapq.heappop
        # Published so batch entries (call_at_batch) stop unfolding at the
        # bound instead of running items past ``until``.
        self._run_until = until
        try:
            while heap or ready:
                # Heap entries for the current instant carry lower sequence
                # numbers than anything in the micro-queue (they predate the
                # clock reaching this instant), so they go first.
                if heap and (not ready or heap[0][0] == self.now):
                    if until is not None and heap[0][0] > until:
                        self.now = until
                        break
                    when, _seq, fn, args = heappop(heap)
                    self.now = when
                    if fn is None:      # call_settled: run in place or hop
                        fn, args = args
                        if ready or (heap and heap[0][0] == when):
                            ready.append((fn, args))
                            continue
                elif until is not None and self.now > until:
                    self.now = until
                    break
                else:
                    fn, args = ready.popleft()
                if profiler is None:
                    fn(*args)
                else:
                    profiler.dispatch(fn, args, self.now)
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._run_until = None
        if self._crashes and self.strict:
            proc, exc = self._crashes[0]
            raise SimulationError(
                f"process {proc.name!r} crashed at t={self.now:.6f}: {exc!r}"
            ) from exc
        return self.now

    def step(self) -> bool:
        """Execute exactly one pending callback. Returns False if none left.

        A settled entry that must hop (see :meth:`call_settled`) is
        moved to the micro-queue and the step goes on to the callback
        that runs before it; a batch entry unfolds one item per step."""
        heap = self._heap
        ready = self._ready
        while True:
            if heap and (not ready or heap[0][0] == self.now):
                when, _seq, fn, args = heapq.heappop(heap)
                self.now = when
                if fn is None:
                    fn, args = args
                    if ready or (heap and heap[0][0] == when):
                        ready.append((fn, args))
                        continue
            elif ready:
                fn, args = ready.popleft()
            else:
                return False
            break
        self._run_until = float("-inf")     # stops a batch after one item
        try:
            if self.profiler is None:
                fn(*args)
            else:
                self.profiler.dispatch(fn, args, self.now)
        finally:
            self._run_until = None
        return True

    @property
    def pending(self) -> int:
        """Number of callbacks still queued."""
        return len(self._heap) + len(self._ready)

    # -- crash bookkeeping ---------------------------------------------------

    def _report_crash(self, proc: Process, exc: BaseException) -> None:
        self._crashes.append((proc, exc))

    @property
    def crashed_processes(self) -> List[Tuple[Process, BaseException]]:
        return list(self._crashes)
