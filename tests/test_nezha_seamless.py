"""Seamlessness and multi-tenant scenarios.

The paper's §4.2 claim: offload activation completes "with no service
interruptions" — the dual-running stage absorbs in-flight and
stale-mapping traffic. These tests run live workloads *through* the
transitions and assert zero transaction loss.
"""

import pytest

from repro.controller.latency import ControlLatencyModel
from repro.core.offload import OffloadState
from repro.errors import OffloadError
from repro.experiments.testbed import build_testbed
from repro.net import IPv4Address, MacAddress, Packet, TcpFlags
from repro.vswitch import Vnic
from repro.vswitch.rule_tables import Location
from repro.vswitch.vswitch import make_standard_chain

from tests.conftest import TENANT_A, TENANT_B, VNI, build_nezha_env


def test_no_transaction_loss_during_offload_activation():
    """Steady CRR traffic across the entire offload window: every
    transaction completes (dual-running catches direct arrivals)."""
    testbed = build_testbed(n_clients=2, n_idle=4, seed=3)
    loops = testbed.start_closed_loop(8)
    testbed.run(0.5)
    handle = testbed.orchestrator.offload(testbed.server_vnic,
                                          testbed.idle_vswitches[:4])
    testbed.run(2.0)
    assert handle.state is OffloadState.ACTIVE
    testbed.run(0.5)
    for loop in loops:
        loop.stop()
    testbed.run(1.5)
    completed = sum(loop.completed for loop in loops)
    failed = sum(loop.failed for loop in loops)
    assert completed > 100
    # The mapping switch invalidates sender-side cached flows, causing a
    # brief burst of slow-path lookups; the handful of packets dropped in
    # that burst would be retransmitted by real TCP (our CRR does not
    # retransmit, so they surface as failures). Bound: <1%.
    assert failed <= max(3, 0.01 * completed), \
        f"{failed}/{completed} transactions lost during activation"


def test_no_transaction_loss_during_fallback():
    testbed = build_testbed(n_clients=2, n_idle=4, seed=4)
    handle = testbed.orchestrator.offload(testbed.server_vnic,
                                          testbed.idle_vswitches[:4])
    testbed.run(1.0)
    assert handle.state is OffloadState.ACTIVE
    loops = testbed.start_closed_loop(8)
    testbed.run(0.5)
    done = testbed.orchestrator.fallback(handle)
    testbed.run(2.0)
    assert done.fired and handle.state is OffloadState.INACTIVE
    testbed.run(0.5)
    for loop in loops:
        loop.stop()
    testbed.run(1.5)
    failed = sum(loop.failed for loop in loops)
    completed = sum(loop.completed for loop in loops)
    assert completed > 100
    assert failed <= max(3, 0.01 * completed), \
        f"{failed}/{completed} transactions lost during fallback"


def test_no_loss_during_scale_out():
    testbed = build_testbed(n_clients=2, n_idle=8, seed=5)
    handle = testbed.offload_server()
    loops = testbed.start_closed_loop(8)
    testbed.run(0.5)
    testbed.orchestrator.scale_out(handle, testbed.idle_vswitches[4:8])
    testbed.run(1.5)
    assert len(handle.frontends) == 8
    for loop in loops:
        loop.stop()
    testbed.run(1.5)
    completed = sum(loop.completed for loop in loops)
    assert sum(loop.failed for loop in loops) <= max(3, 0.01 * completed)


def test_no_loss_during_graceful_scale_in():
    """§4.3: configs are retained for learning-interval + RTT after a
    scale-in, so in-flight and stale-mapped packets still process."""
    testbed = build_testbed(n_clients=2, n_idle=6, seed=6)
    handle = testbed.offload_server(6)
    loops = testbed.start_closed_loop(8)
    testbed.run(0.5)
    victim = handle.fe_vswitches[0]
    testbed.orchestrator.scale_in_vswitch(victim)
    testbed.run(1.5)
    assert len(handle.frontends) == 5
    for loop in loops:
        loop.stop()
    testbed.run(1.5)
    completed = sum(loop.completed for loop in loops)
    assert sum(loop.failed for loop in loops) <= max(3, 0.01 * completed)


def test_offload_server_raises_when_no_fe_survives():
    """Every idle vSwitch crashed before the offload: each FE target is
    refused, the flow aborts, and the testbed says so instead of
    returning a handle that never reached the final stage."""
    testbed = build_testbed(n_clients=2, n_idle=4, seed=7)
    for vswitch in testbed.idle_vswitches:
        vswitch.crash()
    with pytest.raises(OffloadError, match="final stage"):
        testbed.offload_server()
    assert testbed.orchestrator.aborted_offloads == 1


# -- multiple offloaded vNICs sharing the infrastructure ------------------------------

def test_two_hot_vnics_one_be_vswitch():
    """Two high-demand vNICs on the same SmartNIC offload independently,
    sharing no FE state."""
    env = build_nezha_env(n_servers=8)
    cost_model = env.cost_model
    # A second hot vNIC on vswitch_b, different VPC.
    vni2 = 300
    ip2 = IPv4Address("192.168.9.9")
    chain2 = make_standard_chain(cost_model)
    vnic2 = Vnic(77, vni2, ip2, MacAddress(0x77), chain2)
    env.vswitch_b.add_vnic(vnic2)
    server_b = env.topo.servers[1]
    env.gateway.set_locations(vni2, ip2, [Location(server_b.underlay_ip,
                                                   server_b.mac)])
    # A peer for vni2 on vswitch_a so return routing exists.
    ip2_peer = IPv4Address("192.168.9.1")
    chain_peer = make_standard_chain(cost_model)
    vnic_peer = Vnic(78, vni2, ip2_peer, MacAddress(0x78), chain_peer)
    env.vswitch_a.add_vnic(vnic_peer)
    server_a = env.topo.servers[0]
    env.gateway.set_locations(vni2, ip2_peer,
                              [Location(server_a.underlay_ip, server_a.mac)])
    for learner in env.learners[:2]:
        learner.refresh()

    h1 = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:2])
    h2 = env.orchestrator.offload(vnic2, env.idle_vswitches[2:4])
    env.engine.run(until=env.engine.now + 2.0)
    assert h1.state is OffloadState.ACTIVE
    assert h2.state is OffloadState.ACTIVE

    got1, got2 = [], []
    env.vnic_b.attach_guest(got1.append)
    vnic2.attach_guest(got2.append)
    env.vswitch_a.send_from_vnic(
        env.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                               TcpFlags.of("syn")))
    env.vswitch_a.send_from_vnic(
        vnic_peer, Packet.tcp(ip2_peer, ip2, 2000, 80, TcpFlags.of("syn")))
    env.engine.run(until=env.engine.now + 0.2)
    assert len(got1) == 1 and len(got2) == 1
    # Each vNIC's traffic went through its own FE set.
    assert h1.backend.stats.rx_from_fe == 1
    assert h2.backend.stats.rx_from_fe == 1
    assert not set(h1.fe_vswitches) & set(h2.fe_vswitches)


def test_one_vswitch_backs_and_fronts_simultaneously():
    """A vSwitch can be a BE for its own hot vNIC while fronting another
    server's vNIC — the whole point of reuse (Fig 6)."""
    env = build_nezha_env(n_servers=6)
    # Offload B's vNIC onto vswitch_a (among others): vswitch_a now fronts
    # B's vNIC while still locally serving its own vnic_a.
    handle = env.orchestrator.offload(env.vnic_b,
                                      [env.vswitches[0]]
                                      + env.idle_vswitches[:1])
    env.engine.run(until=env.engine.now + 2.0)
    assert handle.state is OffloadState.ACTIVE
    agent = env.orchestrator.agents[env.vswitch_a.name]
    assert env.vnic_b.vnic_id in agent.frontends
    got = []
    env.vnic_b.attach_guest(got.append)
    env.vswitch_a.send_from_vnic(
        env.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                               TcpFlags.of("syn")))
    env.engine.run(until=env.engine.now + 0.2)
    assert len(got) == 1
    # vnic_a still processes locally on the same vSwitch.
    assert env.vswitch_a.datapath_for(env.vnic_a) \
        is env.vswitch_a._local_datapath


def test_cross_tor_fes_work():
    """FEs under a different ToR than the BE (App B.1's fallback tier)."""
    from repro.controller.gateway import Gateway, MappingLearner
    from repro.core.offload import NezhaOrchestrator, OffloadConfig
    from repro.fabric import Topology
    from repro.sim import Engine, SeededRng
    from repro.vswitch import CostModel, VSwitch

    engine = Engine()
    rng = SeededRng(9, "xtor")
    cost_model = CostModel.testbed()
    topo = Topology.leaf_spine(engine, n_tors=2, servers_per_tor=3)
    vswitches = [VSwitch(engine, s, cost_model) for s in topo.servers]
    gateway = Gateway(engine)
    chain_a = make_standard_chain(cost_model)
    chain_b = make_standard_chain(cost_model)
    vnic_a = Vnic(1, VNI, TENANT_A, MacAddress(0xA1), chain_a)
    vnic_b = Vnic(2, VNI, TENANT_B, MacAddress(0xB1), chain_b)
    vswitches[0].add_vnic(vnic_a)
    vswitches[1].add_vnic(vnic_b)
    for vnic, server in ((vnic_a, topo.servers[0]),
                         (vnic_b, topo.servers[1])):
        gateway.set_locations(VNI, vnic.tenant_ip,
                              [Location(server.underlay_ip, server.mac)])
    for i, vs in enumerate(vswitches):
        learner = MappingLearner(engine, vs, gateway, interval=0.05,
                                 rng=rng.child(f"l{i}"))
        learner.refresh()
        learner.start()
    orch = NezhaOrchestrator(
        engine, gateway, rng=rng.child("o"),
        config=OffloadConfig(learning_interval=0.05, inflight_margin=0.01,
                             latency=ControlLatencyModel.fast()))
    # FEs entirely on the *other* ToR (servers 3..5).
    handle = orch.offload(vnic_b, vswitches[3:5])
    engine.run(until=engine.now + 2.0)
    assert handle.state is OffloadState.ACTIVE
    got = []
    vnic_b.attach_guest(got.append)
    vswitches[0].send_from_vnic(
        vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                           TcpFlags.of("syn")))
    engine.run(until=engine.now + 0.2)
    assert len(got) == 1
