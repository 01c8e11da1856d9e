"""Telemetry wired into the real stack: component self-registration,
fig12 span reconciliation, the experiment/chaos CLI export paths, the
post-mortem CLI, and the telemetry-off cost contract."""

import cProfile
import importlib.util
import os
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from repro import telemetry
from repro.experiments import fig9, fig12, fleet
from repro.telemetry.export import load, validate_report

REPO_ROOT = Path(__file__).resolve().parent.parent
TELEMETRY_DIR = os.path.join("repro", "telemetry") + os.sep
CONSTRUCTOR_LOOKUPS = {"current", "active_trace"}


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.uninstall()


def _offloaded_fig9(duration=0.2):
    """A small fig9 point on 2 FEs: every packet takes the BE<->FE hop."""
    return fig9.run_point((2, duration, 0.1, 8, 3))


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "telemetry_cli", REPO_ROOT / "tools" / "telemetry.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- component self-registration ---------------------------------------------


def test_components_register_metrics_when_installed():
    from tests.conftest import build_nezha_env

    tel = telemetry.install()
    env = build_nezha_env(n_servers=3)
    names = tel.registry.names()
    assert any(name.startswith("vswitch.") for name in names)
    assert "gateway.version" in names
    snap = tel.registry.snapshot("vswitch.*.cpu.utilization")
    assert len(snap) == 3
    assert all(value == 0.0 for value in snap.values())
    assert tel.registry.snapshot("gateway.*")["gateway.entries"] == 2
    # The shared trace is what the env's components emit into.
    assert env.vswitch_a.trace is tel.trace


def test_no_registration_without_install():
    from tests.conftest import build_cloud

    assert telemetry.current() is None
    cloud = build_cloud()  # must not blow up, must not create a registry
    assert telemetry.current() is None
    assert cloud.vswitch_a.trace is not None  # private per-component trace


# -- fig12 reconciliation (the headline acceptance criterion) ----------------


def test_fig12_span_p50_matches_experiment_exactly():
    """The span recorder's aggregate must reproduce fig12's own latency
    numbers — identically, because ``finish()`` stamps the same instant
    the experiment's listener reads."""
    tel = telemetry.install()
    _util, p50 = fig12._measure(0, nezha=True, seed=0, duration=0.3)
    agg = tel.spans.aggregate()
    entry = agg["offloaded/load0"]
    assert entry["count"] > 0
    assert entry["latency"]["P50"] == p50  # float-identical, not approx
    # The offloaded path shows the BE->FE detour; per-segment times sum
    # to the total.
    assert "vswitch_rx->fe_relay" in entry["segments"]
    seg_sum = sum(summary["P50"] for summary in entry["segments"].values())
    assert seg_sum == pytest.approx(entry["latency"]["P50"], rel=1e-9)


def test_fig12_local_path_has_no_fe_segments():
    tel = telemetry.install()
    _util, p50 = fig12._measure(0, nezha=False, seed=0, duration=0.3)
    entry = tel.spans.aggregate()["local/load0"]
    assert entry["latency"]["P50"] == p50
    assert not any("fe" in name for name in entry["segments"])


def test_telemetry_on_does_not_change_results():
    """Observation purity: installing the full stack (spans + registry +
    trace + profiler) must leave the simulation's numbers untouched."""
    for measure in (
            lambda: fig12._measure(0, nezha=False, seed=0, duration=0.2),
            _offloaded_fig9):
        bare = measure()
        telemetry.install(profile=True)
        observed = measure()
        telemetry.uninstall()
        assert observed == bare


# -- CLI export paths --------------------------------------------------------


def test_runner_cli_telemetry_export(tmp_path, capsys):
    from repro.experiments.runner import main

    out = tmp_path / "run.jsonl"
    assert main(["tablea1", "--telemetry", str(out), "--jobs", "2"]) == 0
    assert "[telemetry:" in capsys.readouterr().out
    assert validate_report(load(out)) == []
    assert telemetry.current() is None  # uninstalled even on success


def test_runner_cli_fast_single_experiment_uses_quick_kwargs(monkeypatch):
    from repro.experiments.runner import QUICK_KWARGS, run_experiment

    captured = {}
    fake = types.ModuleType("repro.experiments.fig9")

    def run(seed=0, jobs=1, **kwargs):
        captured.update(kwargs)

        class R:
            rows = []

            def to_text(self):
                return "fake"

        return R()

    fake.run = run
    monkeypatch.setitem(sys.modules, "repro.experiments.fig9", fake)
    run_experiment("fig9", fast=True)
    assert captured == QUICK_KWARGS["fig9"]
    captured.clear()
    run_experiment("fig9", fast=False)
    assert captured == {}


def test_chaos_cli_telemetry_postmortem(tmp_path, capsys):
    from repro.experiments.chaos import main

    out = tmp_path / "soak.jsonl"
    rc = main(["--horizon", "1.5", "--settle", "1.5", "--min-faults", "1",
               "--telemetry", str(out)])
    assert rc == 0, capsys.readouterr().out
    records = load(out)
    assert validate_report(records) == []
    kinds = {r["kind"] for r in records if r["type"] == "trace"}
    # The unified stream interleaves sabotage with the control plane's
    # reactions — that is the post-mortem timeline.
    assert any(kind.startswith("fault.") for kind in kinds)
    assert any(kind.startswith("controller.") or kind.startswith("nezha.")
               for kind in kinds)
    metric_names = {r["name"] for r in records if r["type"] == "metric"}
    assert "monitor.targets" in metric_names
    assert "controller.decisions" in metric_names


# -- post-mortem CLI ---------------------------------------------------------


@pytest.fixture
def capture(tmp_path):
    """A small real capture: metrics, two span labels, trace, profile."""
    from repro.sim import Engine
    from repro.telemetry import spans as span_hooks

    tel = telemetry.install(profile=True)
    engine = Engine()
    tel.bind_engine(engine)
    tel.registry.counter("demo.count").inc(3)

    class Pkt:
        def __init__(self):
            self.meta = {}

    for label, detour in (("local", 0.0), ("offloaded", 0.2)):
        for start in (1.0, 2.0):
            pkt = Pkt()
            span_hooks.begin(pkt, label, start)
            span_hooks.hop(pkt, "vswitch_in", start + 0.1)
            if detour:
                span_hooks.hop(pkt, "fe_relay", start + 0.1 + detour)
            span_hooks.finish(pkt, "vm_rx", start + 0.3 + detour)
    tel.trace.emit("fault.injected", fault="crash_vswitch", target="be0")
    engine.call_at(
        1.0, lambda: tel.trace.emit("controller.failover", target="be0"))
    engine.run()
    path = tmp_path / "capture.jsonl"
    tel.export(path)
    telemetry.uninstall()
    return path


def test_cli_report(capture, capsys):
    cli = _load_cli()
    assert cli.main(["report", str(capture)]) == 0
    out = capsys.readouterr().out
    assert "demo.count" in out
    assert "local" in out and "offloaded" in out
    assert "engine profile" in out


def test_cli_spans_label_filter(capture, capsys):
    cli = _load_cli()
    assert cli.main(["spans", str(capture), "--label", "offloaded"]) == 0
    out = capsys.readouterr().out
    assert "vswitch_in->fe_relay" in out
    assert "local" not in out


def test_cli_timeline_orders_and_filters(capture, capsys):
    cli = _load_cli()
    assert cli.main(["timeline", str(capture)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "fault.injected" in out[0] and "target=be0" in out[0]
    assert "controller.failover" in out[1]  # later virtual time prints after
    assert cli.main(["timeline", str(capture), "--kind", "fault.*"]) == 0
    filtered = capsys.readouterr().out
    assert "controller.failover" not in filtered


def test_cli_validate(capture, tmp_path, capsys):
    cli = _load_cli()
    assert cli.main(["validate", str(capture)]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "metric", "name": "x"}\n')
    assert cli.main(["validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_cli_aggregate_matches_recorder(capture):
    """The CLI's from-JSONL aggregation mirrors SpanRecorder.aggregate."""
    cli = _load_cli()
    spans = [r for r in load(capture) if r["type"] == "span"]
    agg = cli.aggregate_spans(spans)
    assert agg["local"]["count"] == 2
    assert agg["local"]["latency"]["P50"] == pytest.approx(0.3)
    assert agg["offloaded"]["latency"]["P50"] == pytest.approx(0.5)
    assert set(agg["offloaded"]["segments"]) == {
        "start->vswitch_in", "vswitch_in->fe_relay", "fe_relay->vm_rx"}


# -- telemetry-off cost ------------------------------------------------------


def _telemetry_calls(fn) -> Counter:
    """Python calls into ``repro/telemetry/`` while ``fn`` runs, by
    function name."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    calls = Counter()
    for entry in profile.getstats():
        code = entry.code
        if not isinstance(code, str) and TELEMETRY_DIR in code.co_filename:
            calls[code.co_name] += entry.callcount
    return calls


def test_telemetry_off_cost_is_per_object_not_per_packet():
    """With nothing installed a hook is an attribute read, never a call:
    the only calls into the telemetry package are the constructors'
    ``current()`` / ``active_trace()`` lookups, so simulating twice as
    long (1.7x the calls overall) adds none. A hook that calls in per
    packet shows up as a new name or a count that grows."""
    short = _telemetry_calls(_offloaded_fig9)
    longer = _telemetry_calls(lambda: _offloaded_fig9(duration=0.4))
    assert short and set(short) <= CONSTRUCTOR_LOOKUPS
    assert longer == short


def test_telemetry_off_fleet_calls_only_constructor_lookups():
    """The fleet instance: metric collection, the fold and the decision
    journal stay uncalled unless telemetry is installed."""
    calls = _telemetry_calls(lambda: fleet.run(
        n_vswitches=400, epochs=2, seed=0, shards=1, jobs=1))
    assert calls and set(calls) <= CONSTRUCTOR_LOOKUPS
