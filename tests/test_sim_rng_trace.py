"""Unit tests for SeededRng and Trace."""

import pytest

from repro.sim import Engine, SeededRng, Trace


# -- SeededRng ------------------------------------------------------------------

def test_same_seed_same_stream():
    a = SeededRng(7, "x")
    b = SeededRng(7, "x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_labels_different_streams():
    a = SeededRng(7, "x")
    b = SeededRng(7, "y")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_child_streams_are_deterministic():
    parent = SeededRng(3)
    c1 = parent.child("flow")
    c2 = SeededRng(3).child("flow")
    assert [c1.randint(0, 100) for _ in range(5)] == [c2.randint(0, 100) for _ in range(5)]


# -- Trace -----------------------------------------------------------------------

def _mk_trace():
    engine = Engine()
    return engine, Trace(lambda: engine.now)


def test_trace_disabled_by_default():
    _engine, trace = _mk_trace()
    trace.emit("pkt.drop", reason="full")
    assert trace.records() == []


def test_trace_records_enabled_kind_with_time():
    engine, trace = _mk_trace()
    trace.enable("pkt.drop")
    engine.call_at(2.5, trace.emit, "pkt.drop")
    engine.run()
    records = trace.records("pkt.drop")
    assert len(records) == 1
    assert records[0].time == 2.5


def test_trace_field_attribute_access():
    _engine, trace = _mk_trace()
    trace.enable("x")
    trace.emit("x", value=9)
    assert trace.records("x")[0].value == 9
    with pytest.raises(AttributeError):
        _ = trace.records("x")[0].missing


def test_trace_callback_invoked():
    _engine, trace = _mk_trace()
    seen = []
    trace.on("alert", seen.append)
    trace.emit("alert", level="high")
    assert len(seen) == 1
    assert seen[0].level == "high"


def test_trace_count_and_clear():
    _engine, trace = _mk_trace()
    trace.enable("a", "b")
    trace.emit("a")
    trace.emit("a")
    trace.emit("b")
    assert trace.count("a") == 2
    assert trace.count("b") == 1
    trace.clear()
    assert trace.count("a") == 0


def test_trace_disable_stops_recording():
    _engine, trace = _mk_trace()
    trace.enable("k")
    trace.emit("k")
    trace.disable("k")
    trace.emit("k")
    assert trace.count("k") == 1


def test_trace_enable_all_records_everything():
    _engine, trace = _mk_trace()
    trace.enable_all()
    trace.emit("never.enabled.explicitly", x=1)
    assert trace.count("never.enabled.explicitly") == 1
    # Explicit disable wins over the record-everything default.
    trace.disable("noisy")
    trace.emit("noisy")
    assert trace.count("noisy") == 0


def test_trace_ring_buffer_caps_memory():
    engine = Engine()
    trace = Trace(lambda: engine.now, capacity=3)
    trace.enable("k")
    for i in range(5):
        trace.emit("k", i=i)
    records = trace.records("k")
    assert len(records) == 3
    assert [r.i for r in records] == [2, 3, 4]  # oldest evicted first
    assert trace.dropped == 2


def test_trace_clear_resets_dropped():
    engine = Engine()
    trace = Trace(lambda: engine.now, capacity=1)
    trace.enable("k")
    trace.emit("k")
    trace.emit("k")
    assert trace.dropped == 1
    trace.clear()
    assert trace.dropped == 0
    assert trace.records() == []


def test_trace_capacity_validation():
    with pytest.raises(ValueError):
        Trace(lambda: 0.0, capacity=0)


def test_trace_disable_detaches_callbacks():
    _engine, trace = _mk_trace()
    seen = []
    trace.on("alert", seen.append)
    trace.emit("alert")
    trace.disable("alert")
    trace.emit("alert")
    assert len(seen) == 1  # callback detached, not just recording stopped
