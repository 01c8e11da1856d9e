"""Guarantee the operational trace kinds actually fire.

Dashboards and the post-mortem CLI key off these kind strings; a silent
rename or a dropped emit would only surface as an empty timeline. Each
test drives the real component to the condition and asserts the record
appears in the unified telemetry trace (components pick it up via
``active_trace`` because telemetry is installed around construction).
"""

import pytest

from repro import telemetry
from repro.faults.events import FaultEvent, FaultKind
from repro.faults.injector import FaultInjector
from repro.net import IPv4Address, Packet, TcpFlags

from tests.conftest import TENANT_A, TENANT_B, build_cloud


@pytest.fixture
def traced_cloud():
    """A two-server cloud whose components share the telemetry trace."""
    tel = telemetry.install()
    cloud = build_cloud()
    yield cloud, tel.trace
    telemetry.uninstall()


def syn(sport=1000, dst=TENANT_B):
    return Packet.tcp(TENANT_A, dst, sport, 80, TcpFlags.of("syn"))


def test_pkt_cpu_drop_fires(traced_cloud):
    cloud, trace = traced_cloud
    cloud.vnic_b.attach_guest(lambda pkt: None)
    for sport in range(3000):
        cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn(sport=1024 + sport))
    cloud.engine.run(until=2.0)
    assert cloud.vswitch_a.stats.cpu_drops > 0
    assert len(trace.records("pkt.cpu_drop")) == \
        cloud.vswitch_a.stats.cpu_drops
    assert trace.records("pkt.cpu_drop")[0].vswitch == cloud.vswitch_a.name


def test_pkt_no_route_fires(traced_cloud):
    cloud, trace = traced_cloud
    from repro.vswitch.actions import ActionKind, FinalAction
    action = FinalAction(kind=ActionKind.FORWARD)  # resolved, but no next hop
    cloud.vswitch_a.forward_overlay(syn(), action)
    assert cloud.vswitch_a.stats.no_route_drops == 1
    assert len(trace.records("pkt.no_route")) == 1


def test_pkt_unknown_vnic_fires(traced_cloud):
    cloud, trace = traced_cloud
    cloud.vswitch_b.remove_vnic(cloud.vnic_b.vnic_id)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    cloud.engine.run(until=0.1)
    assert cloud.vswitch_b.stats.unknown_vnic_drops == 1
    records = trace.records("pkt.unknown_vnic")
    assert len(records) == 1
    assert records[0].vswitch == cloud.vswitch_b.name


def test_fault_injected_and_healed_fire(traced_cloud):
    cloud, trace = traced_cloud
    injector = FaultInjector(cloud.engine,
                             vswitches=[cloud.vswitch_a, cloud.vswitch_b],
                             topo=cloud.topo)
    event = FaultEvent(at=0.0, kind=FaultKind.CRASH_VSWITCH,
                       target=cloud.vswitch_a.name, duration=0.2)
    injector.apply(event)
    assert cloud.vswitch_a.crashed
    injected = trace.records("fault.injected")
    assert len(injected) == 1
    assert injected[0].fault == "crash_vswitch"
    assert injected[0].target == cloud.vswitch_a.name

    cloud.engine.run(until=0.5)
    assert not cloud.vswitch_a.crashed
    healed = trace.records("fault.healed")
    assert len(healed) == 1
    assert healed[0].target == cloud.vswitch_a.name


def test_monitor_target_down_fires(traced_cloud):
    cloud, trace = traced_cloud
    from repro.controller.monitor import HealthMonitor
    monitor = HealthMonitor(cloud.engine, cloud.topo.servers[0],
                            interval=0.1, miss_threshold=3)
    monitor.add_target(cloud.topo.servers[1])
    cloud.vswitch_b.crash()  # probes to B's vSwitch go unanswered
    monitor.start()
    cloud.engine.run(until=1.0)
    downs = trace.records("monitor.target_down")
    assert len(downs) == 1
    assert downs[0].target == cloud.topo.servers[1].name


def test_unrelated_tenant_traffic_emits_nothing_spurious(traced_cloud):
    """A clean delivery should add no drop/fault records to the stream."""
    cloud, trace = traced_cloud
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    cloud.engine.run(until=0.1)
    for kind in ("pkt.cpu_drop", "pkt.no_route", "pkt.unknown_vnic",
                 "fault.injected", "monitor.target_down"):
        assert trace.records(kind) == []
