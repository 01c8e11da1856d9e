"""Unit tests for the telemetry layer: registry, spans, profiler, export.

Integration coverage (component wiring, fig12 reconciliation, trace
emission kinds) lives in test_telemetry_integration.py and
test_trace_emissions.py.
"""

import json

import pytest

from repro import telemetry
from repro.sim import Engine
from repro.sim.trace import SILENT
from repro.telemetry import spans
from repro.telemetry.export import (SCHEMA, load, validate_report,
                                    write_jsonl)
from repro.telemetry.profiler import EngineProfiler
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.spans import Span, SpanRecorder


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Never leak an installed telemetry between tests."""
    yield
    telemetry.uninstall()


# -- MetricRegistry ----------------------------------------------------------


def test_gauge_basics():
    reg = MetricRegistry()
    depth = [0.75]
    gauge = reg.gauge("cpu.util", probe=lambda: depth[0])
    assert gauge.value() == 0.75
    depth[0] = 1.0  # probes read the component's state when asked
    assert gauge.value() == 1.0
    reg.gauge("vswitch.be0.cpu.drops", probe=lambda: 3)
    assert reg.names("vswitch.*") == ["vswitch.be0.cpu.drops"]
    assert reg.get("cpu.util") is gauge and reg.get("nope") is None


def test_gauge_probe_failure_is_nan_not_crash():
    reg = MetricRegistry()
    reg.gauge("dead", probe=lambda: 1 / 0)
    value = reg.get("dead").value()
    assert value != value  # NaN


def test_registration_is_idempotent_and_rebinds_probes():
    reg = MetricRegistry()
    gauge = reg.gauge("g", probe=lambda: 1)
    # A sweep rebuild re-binds the same gauge to the live component.
    assert reg.gauge("g", probe=lambda: 2) is gauge
    assert gauge.value() == 2.0
    assert len(reg) == 1


# -- spans -------------------------------------------------------------------


def test_span_segments_and_total():
    span = Span("probe", t0=1.0)
    span.hops = [("a", 1.5), ("b", 1.7)]
    assert span.total() == pytest.approx(0.7)
    assert span.segments() == [("start->a", pytest.approx(0.5)),
                               ("a->b", pytest.approx(0.2))]


def test_span_lifecycle_through_module_hooks():
    class Pkt:
        meta = {}

    recorder = SpanRecorder()
    recorder.install()
    try:
        pkt = Pkt()
        pkt.meta = {}
        spans.begin(pkt, "probe", 0.0)
        spans.hop(pkt, "vswitch_in", 0.1)
        spans.finish(pkt, "vm_rx", 0.3)
        # Finishing twice must not double-record.
        spans.finish(pkt, "vm_rx", 0.4)
        assert len(recorder.spans) == 1
        assert recorder.spans[0].total() == pytest.approx(0.3)
    finally:
        recorder.uninstall()
    assert spans.ACTIVE is False


def test_hop_without_span_is_noop():
    class Pkt:
        meta = {}

    pkt = Pkt()
    pkt.meta = {}
    spans.hop(pkt, "anywhere", 1.0)  # background traffic, no span attached
    assert pkt.meta == {}


def test_recorder_capacity_and_clear_label():
    recorder = SpanRecorder(capacity=2)
    for i, label in enumerate(["a", "b", "a"]):
        span = Span(label, float(i))
        span.hops = [("end", float(i) + 0.1)]
        recorder.add(span)
    assert recorder.dropped == 1
    assert list(recorder.aggregate()) == ["b", "a"]
    recorder.clear("a")
    assert list(recorder.aggregate()) == ["b"]


def test_aggregate_keeps_labels_separate():
    recorder = SpanRecorder()
    for label, dt in (("local", 0.1), ("local", 0.3), ("offloaded", 0.5)):
        span = Span(label, 0.0)
        span.hops = [("mid", dt / 2), ("end", dt)]
        recorder.add(span)
    agg = recorder.aggregate()
    assert agg["local"]["count"] == 2
    assert agg["offloaded"]["latency"]["P50"] == pytest.approx(0.5)
    assert set(agg["local"]["segments"]) == {"start->mid", "mid->end"}


# -- profiler ----------------------------------------------------------------


def test_profiler_attributes_events_to_owners():
    engine = Engine()
    engine.profiler = EngineProfiler()
    hits = []
    engine.call_at(0.1, hits.append, 1)
    engine.call_at(0.2, hits.append, 2)

    def proc():
        yield engine.timeout(0.05)

    engine.process(proc(), name="worker")
    engine.run()
    assert hits == [1, 2]
    profiler = engine.profiler
    assert profiler.total_events >= 3
    owners = set(profiler.buckets)
    assert any("append" in key for key in owners)  # list.append bucket
    assert any("worker" in key for key in owners)
    top = profiler.top(2)
    assert len(top) == 2
    assert top[0]["wall_s"] >= top[1]["wall_s"]
    doc = profiler.to_dict()
    assert doc["total_events"] == profiler.total_events
    assert doc["events_per_sec"] > 0


def test_profiler_none_is_default_and_run_matches():
    """Profiling must not change what executes or when."""
    def drive(profiled):
        engine = Engine()
        if profiled:
            engine.profiler = EngineProfiler()
        seen = []
        engine.call_at(0.1, lambda: seen.append(engine.now))

        def proc():
            yield engine.timeout(0.25)
            seen.append(engine.now)

        engine.process(proc())
        engine.run()
        return seen

    assert Engine().profiler is None
    assert drive(False) == drive(True)


def test_profiler_survives_crashing_callback():
    engine = Engine()
    engine.profiler = EngineProfiler()

    def boom():
        raise RuntimeError("crash")

    engine.call_at(0.1, boom)
    with pytest.raises(RuntimeError):
        engine.run()
    assert engine.profiler.total_events == 1  # still counted via finally


# -- install / uninstall -----------------------------------------------------


def test_install_activates_spans_and_uninstall_detaches():
    assert telemetry.current() is None
    tel = telemetry.install()
    assert telemetry.current() is tel
    assert spans.ACTIVE is True
    engine = Engine()
    assert telemetry.active_trace(engine) is tel.trace
    telemetry.uninstall()
    assert telemetry.current() is None
    assert spans.ACTIVE is False
    assert telemetry.active_trace(engine) is SILENT


def test_install_with_profile_attaches_engine_profiler():
    tel = telemetry.install(profile=True)
    engine = Engine()
    tel.bind_engine(engine)
    assert engine.profiler is tel.profiler
    telemetry.uninstall()
    assert engine.profiler is None


def test_reinstall_replaces_previous():
    first = telemetry.install()
    second = telemetry.install()
    assert first is not second
    assert telemetry.current() is second


# -- export ------------------------------------------------------------------


def test_export_roundtrip_and_validation(tmp_path):
    tel = telemetry.install(profile=True)
    engine = Engine()
    tel.bind_engine(engine)
    tel.registry.gauge("demo.count", probe=lambda: 5)
    tel.trace.emit("demo.event", detail="x")
    engine.call_at(0.1, lambda: None)
    engine.run()
    path = tmp_path / "run.jsonl"
    lines = tel.export(path)
    assert lines >= 4  # header + metric + trace + profile

    records = load(path)
    assert validate_report(records) == []
    assert records[0]["schema"] == SCHEMA
    metric = next(r for r in records if r["type"] == "metric")
    assert metric == {"type": "metric", "name": "demo.count",
                      "kind": "gauge", "value": 5.0}
    trace_line = next(r for r in records if r["type"] == "trace")
    assert trace_line["fields"] == {"detail": "x"}


def test_export_coerces_unjsonable_fields(tmp_path):
    tel = telemetry.install()
    tel.trace.emit("weird", obj=object())
    path = tmp_path / "run.jsonl"
    tel.export(path)
    records = load(path)  # must parse — repr() fallback kept it JSON
    trace_line = next(r for r in records if r["type"] == "trace")
    assert "object" in trace_line["fields"]["obj"]


def test_validate_rejects_garbage(tmp_path):
    assert validate_report([]) == ["file is empty"]
    assert any("header" in p for p in
               validate_report([{"type": "metric", "name": "x",
                                 "kind": "counter", "value": 1}]))
    assert any("unknown schema" in p for p in
               validate_report([{"type": "header", "schema": "nope/v9"}]))
    assert any("missing" in p for p in
               validate_report([{"type": "header", "schema": SCHEMA},
                                {"type": "span", "label": "x"}]))
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "header"\n')
    with pytest.raises(ValueError):
        load(bad)


def test_write_jsonl_counts_lines(tmp_path):
    path = tmp_path / "x.jsonl"
    assert write_jsonl(path, [{"a": 1}, {"b": (1, 2)}]) == 2
    assert json.loads(path.read_text().splitlines()[1]) == {"b": [1, 2]}
