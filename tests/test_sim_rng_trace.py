"""Unit tests for SeededRng and Trace."""

import pytest

from repro.sim import Engine, SeededRng, Trace
from repro.sim.trace import SILENT


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

def _mk_trace(capacity=8):
    engine = Engine()
    return engine, Trace(lambda: engine.now, capacity)


def test_trace_disabled_by_default():
    """What a component holds while telemetry is not installed is the
    shared capacity-0 trace, and a silent trace keeps nothing."""
    _engine, trace = _mk_trace(capacity=0)
    trace.emit("pkt.drop", reason="full")
    assert trace.records() == [] and trace.dropped == 0
    SILENT.emit("pkt.drop")
    assert SILENT.records() == [] and SILENT.dropped == 0


def test_trace_records_enabled_kind_with_time():
    """A recording trace records every kind it is handed, stamped with
    its clock's time; no kind needs enabling first."""
    engine, trace = _mk_trace()
    engine.call_at(2.5, trace.emit, "pkt.drop")
    engine.call_at(3.0, trace.emit, "never.named.before")
    engine.run()
    records = trace.records("pkt.drop")
    assert len(records) == 1
    assert records[0].time == 2.5
    assert [r.kind for r in trace.records()] == ["pkt.drop",
                                                 "never.named.before"]


def test_trace_field_attribute_access():
    _engine, trace = _mk_trace()
    trace.emit("x", value=9)
    assert trace.records("x")[0].value == 9
    with pytest.raises(AttributeError):
        _ = trace.records("x")[0].missing


def test_trace_ring_buffer_caps_memory():
    _engine, trace = _mk_trace(capacity=3)
    for i in range(5):
        trace.emit("k", i=i)
    records = trace.records("k")
    assert len(records) == 3
    assert [r.i for r in records] == [2, 3, 4]  # oldest evicted first
    assert trace.dropped == 2


def test_trace_capacity_validation():
    with pytest.raises(ValueError):
        Trace(lambda: 0.0, -1)
