"""Tests for packet-level workload generators."""

import pytest

from repro.host import GuestTcp, Vm
from repro.metrics import percentile_summary
from repro.sim import SeededRng
from repro.workloads import (ConcurrentFlowHolder, CrrLoadGenerator,
                             ElephantFlow, SynFlood)

from tests.conftest import TENANT_A, TENANT_B, build_cloud


def crr_setup(rate_cps=50, client_vcpus=8):
    cloud = build_cloud()
    client_vm = Vm(cloud.engine, "client", vcpus=client_vcpus)
    server_vm = Vm(cloud.engine, "server", vcpus=8)
    client_vm.attach_vnic(cloud.vnic_a)
    server_vm.attach_vnic(cloud.vnic_b)
    client = GuestTcp(client_vm, cloud.vnic_a)
    server = GuestTcp(server_vm, cloud.vnic_b)
    server.serve(80)
    gen = CrrLoadGenerator(cloud.engine, client, TENANT_B, 80,
                           rate_cps=rate_cps, rng=SeededRng(1, "gen"))
    return cloud, gen


# -- CRR generator -------------------------------------------------------------

def test_crr_achieves_offered_rate_under_capacity():
    cloud, gen = crr_setup(rate_cps=50)
    gen.run(duration=2.0)
    cloud.engine.run(until=4.0)
    result = gen.result
    assert result.offered == pytest.approx(100, rel=0.4)
    assert result.completed == result.offered  # no drops at light load
    assert result.failed == 0
    assert 0 < result.completed <= result.offered


def test_crr_saturates_at_vswitch_capacity():
    cloud, gen = crr_setup(rate_cps=20000)
    gen.run(duration=1.0)
    cloud.engine.run(until=3.0)
    result = gen.result
    # Offered far above the scaled vSwitch's CPS capability: completions
    # saturate well below offered, with failures.
    assert result.completed < result.offered * 0.7
    assert result.failed > 0


def test_crr_latency_summary():
    cloud, gen = crr_setup(rate_cps=30)
    gen.run(duration=1.0)
    cloud.engine.run(until=3.0)
    summary = percentile_summary(gen.result.latencies)
    assert 0 < summary["avg"] < 0.1
    assert summary["P99"] >= summary["P50"]


# -- concurrent flow holder ------------------------------------------------------------

def test_flow_holder_establishes_target_flows():
    cloud = build_cloud()
    vm = Vm(cloud.engine, "holder", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    cloud.vnic_b.attach_guest(lambda pkt: None)
    holder = ConcurrentFlowHolder(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                                  target=100, ramp_rate=500.0).start()
    cloud.engine.run(until=1.0)
    holder.stop()
    assert holder.opened == 100
    assert holder.established() == 100


def test_flow_holder_keepalive_prevents_aging():
    cloud = build_cloud()
    vm = Vm(cloud.engine, "holder", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.start_aging(interval=0.25)
    holder = ConcurrentFlowHolder(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                                  target=20, keepalive=0.4).start()
    cloud.engine.run(until=4.0)
    assert holder.established() == 20  # kept alive past SYN aging
    holder.stop()


# -- SYN flood ----------------------------------------------------------------------------

def test_syn_flood_creates_embryonic_state_reclaimed_by_aging():
    cloud = build_cloud()
    vm = Vm(cloud.engine, "attacker", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.start_aging(interval=0.25)
    flood = SynFlood(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                     rate_pps=200, rng=SeededRng(2, "f")).run(duration=1.0)
    cloud.engine.run(until=1.0)
    assert flood.sent > 100
    during = len(cloud.vswitch_a.session_table)
    assert during > 50
    # After the flood stops, the short embryonic aging reclaims the states.
    cloud.engine.run(until=4.0)
    assert len(cloud.vswitch_a.session_table) < during / 5


# -- elephant flow -----------------------------------------------------------------------------

def test_elephant_is_one_flow_many_packets():
    cloud = build_cloud()
    vm = Vm(cloud.engine, "pump", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    got = []
    cloud.vnic_b.attach_guest(got.append)
    elephant = ElephantFlow(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                            rate_pps=500).run(duration=0.5)
    cloud.engine.run(until=1.0)
    assert elephant.sent > 200
    assert len(got) > 200
    # One session despite hundreds of packets.
    assert cloud.vswitch_a.stats.slow_path_lookups == 1
    assert all(pkt.five_tuple() == elephant.five_tuple for pkt in got)


# -- burst emission ----------------------------------------------------------------------

def test_elephant_burst_is_still_one_flow():
    cloud = build_cloud()
    vm = Vm(cloud.engine, "pump", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    got = []
    cloud.vnic_b.attach_guest(got.append)
    elephant = ElephantFlow(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                            rate_pps=500, burst=8).run(duration=0.5)
    cloud.engine.run(until=1.0)
    assert elephant.sent > 200
    assert len(got) > 200
    # Bursting changes the emission pattern, not the flow structure.
    assert cloud.vswitch_a.stats.slow_path_lookups == 1
    assert all(pkt.five_tuple() == elephant.five_tuple for pkt in got)


def test_syn_flood_burst_creates_same_sessions():
    def flood_sessions(burst):
        cloud = build_cloud()
        vm = Vm(cloud.engine, "attacker", vcpus=8)
        vm.attach_vnic(cloud.vnic_a)
        cloud.vnic_b.attach_guest(lambda pkt: None)
        SynFlood(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                 rate_pps=200, rng=SeededRng(2, "f"),
                 burst=burst).run(duration=1.0)
        cloud.engine.run(until=1.0)
        return sorted((e.five_tuple.src_port, e.five_tuple.dst_port)
                      for e in cloud.vswitch_a.session_table)

    per_packet = flood_sessions(burst=1)
    bursty = flood_sessions(burst=8)
    assert len(per_packet) > 100
    # Same sport rotation, so the same session population (modulo the
    # tail truncated at the duration boundary).
    shorter = min(len(per_packet), len(bursty))
    assert shorter > 100
    assert set(bursty[:shorter]) <= set(per_packet) or \
        set(per_packet[:shorter]) <= set(bursty)


def test_flow_holder_burst_keepalive_prevents_aging():
    cloud = build_cloud()
    vm = Vm(cloud.engine, "holder", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.start_aging(interval=0.25)
    holder = ConcurrentFlowHolder(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                                  target=20, keepalive=0.4,
                                  burst=8).start()
    cloud.engine.run(until=4.0)
    assert holder.established() == 20  # burst keepalives still refresh all
    holder.stop()
