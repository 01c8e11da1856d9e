"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Interrupt, Timeout


def test_time_starts_at_zero():
    assert Engine().now == 0.0


def test_call_at_runs_in_time_order():
    engine = Engine()
    order = []
    engine.call_at(2.0, order.append, "b")
    engine.call_at(1.0, order.append, "a")
    engine.call_at(3.0, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 3.0


def test_simultaneous_callbacks_fifo():
    engine = Engine()
    order = []
    for tag in "abc":
        engine.call_at(1.0, order.append, tag)
    engine.run()
    assert order == ["a", "b", "c"]


def test_call_in_past_rejected():
    engine = Engine()
    engine.call_at(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.call_at(1.0, lambda: None)


def test_run_until_stops_clock():
    engine = Engine()
    fired = []
    engine.call_at(10.0, fired.append, True)
    assert engine.run(until=5.0) == 5.0
    assert not fired
    assert engine.pending == 1
    engine.run()
    assert fired == [True]


def test_run_until_advances_clock_past_empty_heap():
    engine = Engine()
    assert engine.run(until=7.0) == 7.0
    assert engine.now == 7.0


def test_process_timeout_sleeps():
    engine = Engine()
    wakeups = []

    def proc():
        yield Timeout(1.5)
        wakeups.append(engine.now)
        yield Timeout(0.5)
        wakeups.append(engine.now)

    engine.process(proc())
    engine.run()
    assert wakeups == [1.5, 2.0]


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_process_return_value():
    engine = Engine()

    def proc():
        yield Timeout(1.0)
        return 42

    p = engine.process(proc())
    engine.run()
    assert p.done
    assert p.value == 42


def test_value_before_done_raises():
    engine = Engine()

    def proc():
        yield Timeout(1.0)

    p = engine.process(proc())
    with pytest.raises(SimulationError):
        _ = p.value


def test_process_waits_on_event_value():
    engine = Engine()
    evt = engine.event("e")
    seen = []

    def waiter():
        value = yield evt
        seen.append((engine.now, value))

    engine.process(waiter())
    engine.call_at(3.0, evt.succeed, "hello")
    engine.run()
    assert seen == [(3.0, "hello")]


def test_waiting_on_fired_event_resumes_immediately():
    engine = Engine()
    evt = engine.event()
    evt.succeed("x")
    got = []

    def waiter():
        got.append((yield evt))

    engine.process(waiter())
    engine.run()
    assert got == ["x"]


def test_event_fires_once_only():
    engine = Engine()
    evt = engine.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_raises_in_waiter():
    engine = Engine()
    evt = engine.event()
    caught = []

    def waiter():
        try:
            yield evt
        except ValueError as err:
            caught.append(str(err))

    engine.process(waiter())
    engine.call_at(1.0, evt.fail, ValueError("boom"))
    engine.run()
    assert caught == ["boom"]


def test_process_waits_on_process():
    engine = Engine()
    log = []

    def child():
        yield Timeout(2.0)
        return "child-result"

    def parent():
        result = yield engine.process(child())
        log.append((engine.now, result))

    engine.process(parent())
    engine.run()
    assert log == [(2.0, "child-result")]


def test_interrupt_raises_in_process():
    engine = Engine()
    log = []

    def sleeper():
        try:
            yield Timeout(100.0)
        except Interrupt as intr:
            log.append((engine.now, intr.cause))

    p = engine.process(sleeper())
    engine.call_at(1.0, p.interrupt, "wake-up")
    engine.run()
    assert log == [(1.0, "wake-up")]


def test_interrupt_after_done_is_noop():
    engine = Engine()

    def quick():
        yield Timeout(0.1)

    p = engine.process(quick())
    engine.run()
    p.interrupt("late")  # should not raise
    assert p.done


def test_unwaited_crash_surfaces_at_run_end():
    engine = Engine()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("oops")

    engine.process(bad())
    with pytest.raises(SimulationError, match="oops"):
        engine.run()


def test_crash_seen_by_waiter_does_not_raise_globally():
    engine = Engine()
    caught = []

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("oops")

    def parent():
        try:
            yield engine.process(bad())
        except RuntimeError as err:
            caught.append(str(err))

    engine.process(parent())
    engine.run()
    assert caught == ["oops"]


def test_yield_none_cooperative_tick():
    engine = Engine()
    steps = []

    def proc():
        steps.append("a")
        yield None
        steps.append("b")

    engine.process(proc())
    engine.run()
    assert steps == ["a", "b"]
    assert engine.now == 0.0


def test_yield_garbage_crashes_process():
    engine = Engine()

    def proc():
        yield object()

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_all_of_collects_results():
    engine = Engine()
    results = []

    def worker(delay, value):
        yield Timeout(delay)
        return value

    def parent():
        procs = [engine.process(worker(d, d * 10)) for d in (3.0, 1.0, 2.0)]
        values = yield engine.all_of(procs)
        results.append((engine.now, values))

    engine.process(parent())
    engine.run()
    assert results == [(3.0, [30.0, 10.0, 20.0])]


def test_all_of_empty_fires_immediately():
    engine = Engine()
    evt = engine.all_of([])
    assert evt.fired
    assert evt.value == []


def test_step_executes_single_callback():
    engine = Engine()
    order = []
    engine.call_at(1.0, order.append, "a")
    engine.call_at(2.0, order.append, "b")
    assert engine.step()
    assert order == ["a"]
    assert engine.step()
    assert order == ["a", "b"]
    assert not engine.step()


# -- call_at_batch ---------------------------------------------------------------

def test_batch_runs_in_time_order():
    engine = Engine()
    order = []
    engine.call_at_batch([(t, order.append, (t,)) for t in (1.0, 2.0, 3.0)])
    engine.run()
    assert order == [1.0, 2.0, 3.0]
    assert engine.now == 3.0


def test_batch_interleaves_exactly_like_per_item_calls():
    """A batch must be indistinguishable from N call_at pushes against
    every competitor class: earlier-pushed same-time entries win, later-
    pushed same-time entries lose, strictly-earlier entries preempt."""
    def trace(batched):
        engine = Engine()
        order = []
        engine.call_at(1.0, order.append, "before@1")  # pushed first: wins ties
        items = [(t, order.append, (f"batch@{t}",)) for t in (1.0, 1.5, 2.0)]
        if batched:
            engine.call_at_batch(items)
        else:
            for when, fn, args in items:
                engine.call_at(when, fn, *args)
        engine.call_at(1.5, order.append, "after@1.5")  # pushed last: loses tie
        engine.call_at(1.2, order.append, "mid@1.2")    # strictly earlier: preempts
        engine.run()
        return order

    assert trace(batched=True) == trace(batched=False) == [
        "before@1", "batch@1.0", "mid@1.2", "batch@1.5", "after@1.5",
        "batch@2.0"]


def test_batch_callback_scheduling_during_batch_matches_per_item():
    """Callbacks scheduled *by* a batch item at the same instant go to
    the micro-queue and must still run after the remaining same-instant
    batch items — just as they would with per-item pushes."""
    def trace(batched):
        engine = Engine()
        order = []

        def first():
            order.append("first")
            engine.call_at(1.0, order.append, "spawned@1")

        items = [(1.0, first, ()), (1.0, order.append, ("second",))]
        if batched:
            engine.call_at_batch(items)
        else:
            for when, fn, args in items:
                engine.call_at(when, fn, *args)
        engine.run()
        return order

    assert trace(batched=True) == trace(batched=False) == [
        "first", "second", "spawned@1"]


def test_batch_items_due_now_drain_through_micro_queue():
    engine = Engine()
    order = []
    engine.call_at_batch([(0.0, order.append, ("a",)),
                          (0.0, order.append, ("b",)),
                          (1.0, order.append, ("c",))])
    assert engine.pending == 3  # two ready + one heap entry for the rest
    engine.run()
    assert order == ["a", "b", "c"]


def test_batch_respects_run_until_bound():
    engine = Engine()
    order = []
    engine.call_at_batch([(t, order.append, (t,)) for t in (1.0, 2.0, 3.0)])
    engine.run(until=2.0)
    assert order == [1.0, 2.0]
    assert engine.now == 2.0
    engine.run()  # re-pushed remainder resumes where it stopped
    assert order == [1.0, 2.0, 3.0]


def test_batch_rejects_unsorted_and_past_times():
    engine = Engine()
    engine.call_at(1.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.call_at_batch([(2.0, print, ()), (1.5, print, ())])
    with pytest.raises(SimulationError):
        engine.call_at_batch([(0.5, print, ())])  # now is 1.0


def test_batch_empty_is_noop():
    engine = Engine()
    engine.call_at_batch([])
    assert engine.pending == 0
