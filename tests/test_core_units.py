"""Unit tests for Nezha core internals: agent demux, orchestrator edge
paths, frontend memory pressure, backend guards."""

import pytest

from repro.errors import ConfigError, OffloadError
from repro.net import IPv4Address, MacAddress, Packet, TcpFlags
from repro.vswitch.rule_tables import Location
from repro.vswitch.session_table import EntryMode
from repro.core import FeSelector, NezhaAgent
from repro.core.header import (KIND_NOTIFY, KIND_RX, KIND_TX, NezhaMeta,
                               build_nezha_hop)
from repro.core.offload import OffloadState
from repro.vswitch.state import SessionState, StatsPolicy

from tests.conftest import TENANT_A, TENANT_B, VNI, build_nezha_env


def active_env(n_fes=2):
    env = build_nezha_env()
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:n_fes])
    env.engine.run(until=env.engine.now + 2.0)
    assert handle.state is OffloadState.ACTIVE
    return env, handle


# -- NezhaAgent demux -------------------------------------------------------------

def test_agent_rejects_duplicate_registrations():
    env, handle = active_env()
    agent = env.orchestrator.agents[env.vswitch_b.name]
    with pytest.raises(ConfigError):
        agent.register_backend(handle.backend)
    fe_agent = env.orchestrator.agents[env.idle_vswitches[0].name]
    frontend = next(iter(handle.frontends.values()))
    with pytest.raises(ConfigError):
        fe_agent.register_frontend(frontend)


def test_agent_counts_unknown_nsh():
    env, handle = active_env()
    agent = env.orchestrator.agents[env.vswitch_b.name]
    # An RX hop for a vNIC this agent does not back.
    from repro.vswitch.actions import PreActions
    meta = NezhaMeta(kind=KIND_RX, vnic_id=999, pre_actions=PreActions())
    inner = Packet.tcp(TENANT_A, TENANT_B, 1, 2, TcpFlags.of("syn"))
    hop = build_nezha_hop(IPv4Address("10.0.0.9"), MacAddress(9),
                          Location(env.vswitch_b.server.underlay_ip,
                                   env.vswitch_b.server.mac),
                          meta, inner=inner)
    agent._on_nsh(hop)
    assert agent.unknown_nsh_drops == 1
    # A TX hop for an unknown frontend.
    meta2 = NezhaMeta(kind=KIND_TX, vnic_id=999, state=SessionState())
    hop2 = build_nezha_hop(IPv4Address("10.0.0.9"), MacAddress(9),
                           Location(env.vswitch_b.server.underlay_ip,
                                    env.vswitch_b.server.mac),
                           meta2, inner=inner.copy())
    agent._on_nsh(hop2)
    assert agent.unknown_nsh_drops == 2
    # An unknown notify.
    from repro.net.five_tuple import FiveTuple, PROTO_TCP
    meta3 = NezhaMeta(kind=KIND_NOTIFY, vnic_id=999,
                      notify_five_tuple=FiveTuple(TENANT_A, TENANT_B,
                                                  PROTO_TCP, 1, 2),
                      notify_policy=StatsPolicy.NONE)
    hop3 = build_nezha_hop(IPv4Address("10.0.0.9"), MacAddress(9),
                           Location(env.vswitch_b.server.underlay_ip,
                                    env.vswitch_b.server.mac), meta3)
    agent._on_nsh(hop3)
    assert agent.unknown_nsh_drops == 3


def test_agent_fe_load_heuristic():
    env, handle = active_env()
    fe_vswitch = handle.fe_vswitches[0]
    agent = env.orchestrator.agents[fe_vswitch.name]
    # No sessions yet but FEs hosted: remote share is 1.0.
    assert agent.fe_load() == 1.0
    env.vnic_b.attach_guest(lambda pkt: None)
    env.vswitch_a.send_from_vnic(
        env.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                               TcpFlags.of("syn")))
    env.engine.run(until=env.engine.now + 0.1)
    loads = [env.orchestrator.agents[fe.name].fe_load()
             for fe in handle.fe_vswitches]
    assert any(load == 1.0 for load in loads)
    # A vSwitch with no Nezha involvement reports zero.
    plain_agent = NezhaAgent(env.vswitches[-1])
    assert plain_agent.fe_load() == 0.0


# -- orchestrator edge paths ----------------------------------------------------------

def test_fallback_requires_active_state():
    env, handle = active_env()
    done = env.orchestrator.fallback(handle)
    with pytest.raises(OffloadError):
        env.orchestrator.fallback(handle)  # already falling back
    env.engine.run(until=env.engine.now + 2.0)
    assert done.fired


def test_fallback_aborts_without_be_memory():
    env, handle = active_env()
    # Exhaust the BE's memory so the tables cannot be restored.
    free = env.vswitch_b.mem.available()
    env.vswitch_b.mem.alloc("hog", free - 100)
    done = env.orchestrator.fallback(handle)
    env.engine.run(until=env.engine.now + 2.0)
    assert done.fired
    with pytest.raises(OffloadError):
        _ = done.value
    assert handle.state is OffloadState.ACTIVE  # still offloaded, intact


def test_scale_in_unknown_vswitch_is_noop():
    env, handle = active_env()
    untouched = env.vswitches[-1]
    assert env.orchestrator.scale_in_vswitch(untouched) == 0
    assert len(handle.frontends) == 2


def test_fail_fe_without_fes_is_noop():
    env, _handle = active_env()
    assert env.orchestrator.fail_fe(env.vswitches[-1]) == 0


# -- frontend memory pressure -----------------------------------------------------------

def test_fe_degrades_gracefully_when_flow_cache_full():
    env, handle = active_env(n_fes=1)
    frontend = next(iter(handle.frontends.values()))
    fe_vswitch = frontend.vswitch
    # Exhaust the FE's memory: inserts fail but packets still process.
    fe_vswitch.mem.alloc("hog", fe_vswitch.mem.available())
    got = []
    env.vnic_b.attach_guest(got.append)
    env.vswitch_a.send_from_vnic(
        env.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                               TcpFlags.of("syn")))
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got) == 1                       # still delivered
    assert frontend.stats.flow_insert_failures == 1
    # Next packet of the same flow misses again (nothing was cached).
    env.vswitch_a.send_from_vnic(
        env.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                               TcpFlags.of("ack")))
    env.engine.run(until=env.engine.now + 0.1)
    assert frontend.stats.flow_cache_misses == 2


def test_fe_teardown_is_idempotent_and_scoped():
    env, handle = active_env(n_fes=2)
    env.vnic_b.attach_guest(lambda pkt: None)
    env.vswitch_a.send_from_vnic(
        env.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                               TcpFlags.of("syn")))
    env.engine.run(until=env.engine.now + 0.1)
    frontend = next(iter(handle.frontends.values()))
    fe_vswitch = frontend.vswitch
    flows_before = sum(1 for e in fe_vswitch.session_table
                       if e.mode is EntryMode.FLOWS_ONLY)
    frontend.teardown()
    assert not frontend.active
    assert sum(1 for e in fe_vswitch.session_table
               if e.mode is EntryMode.FLOWS_ONLY) == 0 or flows_before == 0
    assert frontend.mem_tag not in fe_vswitch.mem.by_tag


# -- backend guards ------------------------------------------------------------------------

def test_backend_drops_tx_when_all_fes_gone():
    env, handle = active_env(n_fes=1)
    env.orchestrator.fail_fe(handle.fe_vswitches[0])
    assert len(handle.frontends) == 0
    before = handle.backend.stats.rx_direct_dropped
    env.vswitch_b.send_from_vnic(
        env.vnic_b, Packet.tcp(TENANT_B, TENANT_A, 80, 1000,
                               TcpFlags.of("syn")))
    env.engine.run(until=env.engine.now + 0.1)
    assert handle.backend.stats.rx_direct_dropped == before + 1


def test_backend_ignores_notify_for_unknown_session():
    env, handle = active_env()
    from repro.net.five_tuple import FiveTuple, PROTO_TCP
    meta = NezhaMeta(kind=KIND_NOTIFY, vnic_id=env.vnic_b.vnic_id,
                     notify_five_tuple=FiveTuple(TENANT_A, TENANT_B,
                                                 PROTO_TCP, 55555, 80),
                     notify_policy=StatsPolicy.FULL)
    handle.backend.handle_notify(meta)
    env.engine.run(until=env.engine.now + 0.05)
    assert handle.backend.stats.notifies_applied == 0
