"""Telemetry wired into the real stack: component self-registration,
fig12 span reconciliation, the experiment/chaos CLI export paths, the
post-mortem CLI, the telemetry-off cost contract, and the telemetry-on
one: an installed recorder observes the datapath, it never selects it."""

import cProfile
import gc
import importlib.util
import os
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import telemetry
from repro.experiments import fig9, fig12, fleet
from repro.sim.trace import SILENT
from repro.telemetry.export import load, validate_report

REPO_ROOT = Path(__file__).resolve().parent.parent
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
TELEMETRY_DIR = os.path.join("repro", "telemetry") + os.sep
CONSTRUCTOR_LOOKUPS = {"current", "active_trace"}
# The only functions of the package outside ``repro/telemetry/`` whose
# call counts may depend on whether telemetry is installed — construction
# and per-epoch plumbing, none per packet.
CONSTRUCTOR_TIME = {
    ("link.py", "Link.name"),             # gauge names, at registration
    ("fleet.py", "run.<locals>.<genexpr>"),   # per-epoch snapshot fold
}


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.uninstall()


def _offloaded_fig9(duration=0.2):
    """A small fig9 point on 2 FEs: every packet takes the BE<->FE hop."""
    return fig9.run_point((2, duration, 0.1, 8, 3))


def _quick_fleet():
    return fleet.run(n_vswitches=400, epochs=2, seed=0, shards=1, jobs=1)


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
    utils = [tel.registry.get(name).value()
             for name in tel.registry.names("vswitch.*.cpu.utilization")]
    assert utils == [0.0, 0.0, 0.0]
    assert tel.registry.get("gateway.entries").value() == 2
    # The shared trace is what the env's components emit into.
    assert env.vswitch_a.trace is tel.trace


def test_no_registration_without_install():
    from tests.conftest import build_cloud

    assert telemetry.current() is None
    cloud = build_cloud()  # must not blow up, must not create a registry
    assert telemetry.current() is None
    assert cloud.vswitch_a.trace is SILENT  # shared, keeps nothing


# -- fig12 reads its latency from spans (the headline acceptance criterion) --


def test_fig12_span_p50_matches_experiment_exactly():
    """fig12's P50 is the installed span recorder's aggregate for its
    label — identically, since the experiment reads that aggregate."""
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


def test_fig12_latency_is_the_capture_span_p50(tmp_path, capsys):
    """fig12 has one latency instrument, the span layer: both latency
    cells of its table equal the P50 the post-mortem CLI reads from the
    exported capture, float for float, and the CLI prints that number."""
    tel = telemetry.install()
    result = fig12.run(load_levels=(0,), duration=0.3)
    path = tmp_path / "fig12.jsonl"
    tel.export(path)
    telemetry.uninstall()

    cli = _load_cli()
    agg = cli.aggregate(cli.Span.from_dict(record) for record in load(path)
                        if record["type"] == "span")
    assert list(agg) == ["local/load0", "offloaded/load0"]
    row = result.rows[0]
    assert row["latency_without_us"] == \
        agg["local/load0"]["latency"]["P50"] * 1e6
    assert row["latency_with_us"] == \
        agg["offloaded/load0"]["latency"]["P50"] * 1e6

    assert cli.main(["spans", str(path), "--label", "offloaded/*"]) == 0
    out = capsys.readouterr().out
    assert f"p50 {row['latency_with_us']:.2f}" in out
    assert "local/load0" not in out


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
    metrics = [r for r in records if r["type"] == "metric"]
    assert "monitor.targets" in {r["name"] for r in metrics}
    # Each controller decision is written once to the timeline and once
    # to the journal, and to no third place.
    decisions = [r for r in records if r["type"] == "trace"
                 and r["kind"].startswith("controller.")]
    journal = [r for r in records if r["type"] == "decision"
               and r["source"] == "controller"]
    assert decisions and len(decisions) == len(journal)
    assert not {r["kind"] for r in metrics} & {"events", "histogram"}


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
    """The CLI aggregates a capture's span lines with the recorder's own
    aggregation, so from-JSONL numbers are the in-process ones."""
    cli = _load_cli()
    agg = cli.aggregate(cli.Span.from_dict(r) for r in load(capture)
                        if r["type"] == "span")
    assert agg["local"]["count"] == 2
    assert agg["local"]["latency"]["P50"] == pytest.approx(0.3)
    assert agg["offloaded"]["latency"]["P50"] == pytest.approx(0.5)
    assert set(agg["offloaded"]["segments"]) == {
        "start->vswitch_in", "vswitch_in->fe_relay", "fe_relay->vm_rx"}


# -- telemetry-off cost ------------------------------------------------------


def _python_calls(fn):
    """Calls into the ``repro`` package while ``fn`` runs, split ``(into
    repro/telemetry/ by function name, the rest by (file, qualified
    name))``. The collector is parked meanwhile: a suspended generator
    counts one more call when it is collected, whenever that is."""
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profile.runcall(fn)
    finally:
        gc.enable()
    inside, outside = Counter(), Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str) or REPRO_DIR not in code.co_filename:
            continue
        if TELEMETRY_DIR in code.co_filename:
            inside[code.co_name] += entry.callcount
        else:
            outside[os.path.basename(code.co_filename),
                    code.co_qualname] += entry.callcount
    return inside, outside


def _telemetry_calls(fn) -> Counter:
    return _python_calls(fn)[0]


_off_profiles = {}


def _off_calls(workload):
    """``_python_calls`` of a workload with nothing installed, after one
    warm-up pass (lazy imports, interned decodes); taken once and shared
    by the off-cost and on-cost tests."""
    if workload not in _off_profiles:
        workload()
        _off_profiles[workload] = _python_calls(workload)
    return _off_profiles[workload]


def test_telemetry_off_cost_is_per_object_not_per_packet():
    """With nothing installed a hook is an attribute read, never a call:
    the only calls into the telemetry package are the constructors'
    ``current()`` / ``active_trace()`` lookups, so simulating twice as
    long (1.7x the calls overall) adds none. A hook that calls in per
    packet shows up as a new name or a count that grows."""
    short = _off_calls(_offloaded_fig9)[0]
    longer = _telemetry_calls(lambda: _offloaded_fig9(duration=0.4))
    assert short and set(short) <= CONSTRUCTOR_LOOKUPS
    assert longer == short


def test_telemetry_off_fleet_calls_only_constructor_lookups():
    """The fleet instance: metric collection, the fold and the decision
    journal stay uncalled unless telemetry is installed."""
    calls = _off_calls(_quick_fleet)[0]
    assert calls and set(calls) <= CONSTRUCTOR_LOOKUPS


# -- telemetry-on cost: one datapath, observed or not ------------------------


@pytest.mark.parametrize("workload", [_quick_fleet, _offloaded_fig9],
                         ids=["fleet", "fig9"])
def test_telemetry_on_runs_the_program_users_run(workload):
    """The on-budget, clock-free: with the stack installed and no probe
    in flight, every function of the package outside ``repro/telemetry/``
    is called exactly as often as with it off (construction aside), so
    a profile taken with telemetry on is a profile of the unobserved
    program. At PR 21 an installed recorder turned every run back into
    packets: the fleet read 54 300 -> 495 887 calls here."""
    _, off = _off_calls(workload)
    telemetry.install()
    inside, on = _python_calls(workload)
    assert inside                   # the instruments did run
    moved = {name: (off[name], on[name])
             for name in set(off) | set(on) if off[name] != on[name]}
    assert set(moved) <= CONSTRUCTOR_TIME, moved


def _established_cloud():
    """The conftest cloud with a run-aware guest on B and one A->B UDP
    flow already through the slow path on both vSwitches."""
    from repro.net.packet import Packet
    from tests.conftest import build_cloud

    cloud = build_cloud()
    got, runs = [], []
    cloud.vnic_b.attach_guest(
        lambda pkt: got.append((cloud.engine.now, pkt)),
        lambda pkt, n: runs.append(n))

    def make():
        return Packet.udp(cloud.vnic_a.tenant_ip, cloud.vnic_b.tenant_ip,
                          5000, 9, payload=b"x" * 64)

    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, make())
    cloud.engine.run()
    assert len(got) == 1
    del got[:]
    return cloud, make, got, runs


def test_span_carrying_burst_records_every_hop_on_the_run_path():
    """A burst on an established flow completes as a run; the packets in
    it that carry a span still collect the per-packet loop's hops, at
    the instants the run is processed."""
    from repro.telemetry import spans as span_hooks

    cloud, make, got, _runs = _established_cloud()
    with telemetry.span_session():
        packets = [make() for _ in range(4)]
        sent = cloud.engine.now
        spans = [span_hooks.begin(pkt, "probe", sent) for pkt in packets]
        cloud.vswitch_a.send_from_vnic_burst(cloud.vnic_a, packets)
        cloud.engine.run()
    assert len(got) == 4
    for span, (delivered_at, pkt) in zip(spans, got):
        assert pkt.meta["span"] is span
        assert [name for name, _ in span.hops] == [
            "vswitch_in", "fabric_tx", "vswitch_rx", "deliver"]
        times = [t for _, t in span.hops]
        assert times == sorted(times) and times[0] == sent
        assert times[-1] == delivered_at
    # One TX run: the four left the vSwitch at one instant, after its CPU.
    assert len({span.hops[1][1] for span in spans}) == 1
    assert spans[0].hops[1][1] > sent


def test_only_a_span_carrying_template_materializes(monkeypatch):
    """A fluid run stays a run with a recorder installed; it becomes
    ``count`` distinct packets only when its template carries a span."""
    from repro.net.packet import Packet
    from repro.telemetry import spans as span_hooks

    cloud, make, got, runs = _established_cloud()
    copies = []
    real_copy = Packet.copy
    monkeypatch.setattr(
        Packet, "copy", lambda self: copies.append(1) or real_copy(self))
    with telemetry.span_session():
        cloud.vswitch_a.send_from_vnic_run(cloud.vnic_a, make(), 5)
        cloud.engine.run()
        assert (got, runs, copies) == ([], [5], [])
        assert cloud.vnic_b.rx_delivered == 6
        template = make()
        span_hooks.begin(template, "probe", cloud.engine.now)
        cloud.vswitch_a.send_from_vnic_run(cloud.vnic_a, template, 5)
        cloud.engine.run()
    assert runs == [5] and cloud.vnic_b.rx_delivered == 11
    assert len({id(pkt) for _, pkt in got}) == 5
    assert all("span" in pkt.meta for _, pkt in got)
    # The same gate at the far end of a run, vNIC delivery itself.
    cloud.vnic_b.deliver_run(template, 3)
    cloud.vnic_b.deliver_run(make(), 3)
    assert runs == [5, 3] and len(got) == 8
