"""Integration tests: the full Nezha BE/FE split over the simulated fabric.

These drive real packets through offload, dual-running, the final stage,
notify generation, stateful ACL/decap on the split pipeline, fallback,
scaling, and FE failure.
"""

import pytest

from repro.net import Packet, TcpFlags
from repro.vswitch import (
    AclRule, AclTable, Direction, RuleTable, SlowPath, StatsPolicy, Verdict,
)
from repro.vswitch.session_table import EntryMode
from repro.vswitch.state import SessionState
from repro.core.offload import OffloadState

from tests.conftest import TENANT_A, TENANT_B, VNI, build_nezha_env


def offload_b(env, n_fes=4):
    """Offload vNIC B onto the idle vSwitches; run until active."""
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:n_fes])
    env.engine.run(until=env.engine.now + 2.0)
    assert handle.state is OffloadState.ACTIVE, handle.state
    return handle


def send_tx(env, vswitch, vnic, src, dst, sport, dport, flags="syn",
            payload=b""):
    pkt = Packet.tcp(src, dst, sport, dport, TcpFlags.of(*flags.split("|")),
                     payload)
    vswitch.send_from_vnic(vnic, pkt)
    return pkt


def send_many(env, vswitch, vnic, src, dst, base_sport, count, dport=80,
              spacing=0.002):
    """Pace new-flow sends so the scaled-down CPUs absorb them all."""
    for i in range(count):
        pkt = Packet.tcp(src, dst, base_sport + i, dport,
                         TcpFlags.of("syn"))
        env.engine.call_after(i * spacing, vswitch.send_from_vnic, vnic, pkt)


# -- offload lifecycle ------------------------------------------------------------

def test_offload_reaches_final_stage(nezha_env):
    env = nezha_env
    handle = offload_b(env)
    assert handle.activation_time is not None
    assert 0 < handle.activation_time < 2.0
    assert len(handle.frontends) == 4
    assert env.vnic_b.offloaded
    # BE memory: rule tables replaced by 2KB BE metadata.
    assert f"be_meta:{env.vnic_b.vnic_id}" in env.vswitch_b.mem.by_tag
    assert f"rules:{env.vnic_b.vnic_id}" not in env.vswitch_b.mem.by_tag


def test_offload_rejects_bad_requests(nezha_env):
    env = nezha_env
    from repro.errors import OffloadError
    with pytest.raises(OffloadError):
        env.orchestrator.offload(env.vnic_b, [])
    with pytest.raises(OffloadError):
        env.orchestrator.offload(env.vnic_b, [env.vswitch_b])
    offload_b(env)
    with pytest.raises(OffloadError):
        env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:1])


def test_traffic_flows_end_to_end_after_offload(nezha_env):
    env = nezha_env
    handle = offload_b(env)
    got_b, got_a = [], []
    env.vnic_b.attach_guest(got_b.append)
    env.vnic_a.attach_guest(got_a.append)

    # A -> B: sender vswitch_a has learned the FE locations, so the packet
    # goes to an FE, then (NSH) to the BE, then to the guest.
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80)
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got_b) == 1
    assert handle.backend.stats.rx_from_fe == 1
    fe_rx = sum(fe.stats.rx_relayed for fe in handle.frontends.values())
    assert fe_rx == 1

    # B -> A: the BE relays TX through an FE which forwards to A.
    send_tx(env, env.vswitch_b, env.vnic_b, TENANT_B, TENANT_A, 80, 1000,
            flags="syn|ack")
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got_a) == 1
    assert handle.backend.stats.tx_relayed == 1
    fe_tx = sum(fe.stats.tx_processed for fe in handle.frontends.values())
    assert fe_tx == 1


def test_slow_path_moved_to_fe(nezha_env):
    env = nezha_env
    handle = offload_b(env)
    env.vnic_b.attach_guest(lambda pkt: None)
    before_be = env.vswitch_b.stats.slow_path_lookups
    send_many(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 2000, 20)
    env.engine.run(until=env.engine.now + 0.3)
    # All 20 rule lookups happened on FEs, none on the BE.
    assert env.vswitch_b.stats.slow_path_lookups == before_be
    fe_lookups = sum(fe.stats.flow_cache_misses
                     for fe in handle.frontends.values())
    assert fe_lookups == 20


def test_flows_balanced_across_fes(nezha_env):
    env = nezha_env
    handle = offload_b(env, n_fes=4)
    env.vnic_b.attach_guest(lambda pkt: None)
    send_many(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 3000, 200)
    env.engine.run(until=env.engine.now + 1.0)
    shares = [fe.stats.rx_relayed for fe in handle.frontends.values()]
    assert sum(shares) == 200
    assert all(share > 20 for share in shares)


def test_fe_caches_flows_statelessly(nezha_env):
    env = nezha_env
    handle = offload_b(env)
    env.vnic_b.attach_guest(lambda pkt: None)
    for _ in range(5):
        send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80,
                flags="ack")
        env.engine.run(until=env.engine.now + 0.05)
    misses = sum(fe.stats.flow_cache_misses for fe in handle.frontends.values())
    hits = sum(fe.stats.flow_cache_hits for fe in handle.frontends.values())
    assert misses == 1
    assert hits == 4
    # The FE entry holds no state; the BE entry holds no pre-actions.
    ft = Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                    TcpFlags.of("ack")).five_tuple()
    be_entry = env.vswitch_b.session_table.lookup(VNI, ft)
    assert be_entry.mode is EntryMode.STATE_ONLY
    assert be_entry.state is not None and be_entry.pre_actions is None
    fe_entries = [fe.vswitch.session_table.lookup(VNI, ft)
                  for fe in handle.frontends.values()]
    cached = [e for e in fe_entries if e is not None]
    assert len(cached) == 1
    assert cached[0].mode is EntryMode.FLOWS_ONLY
    assert cached[0].state is None


# -- dual-running stage -----------------------------------------------------------------

def test_dual_running_processes_direct_rx(nezha_env):
    """Senders that have not learned yet still reach the BE directly and
    are served from the retained rule tables (§4.2.1)."""
    env = build_nezha_env(start_learners=False)
    # Prime only the BE/sender once; no periodic learning -> the sender
    # never learns the FE locations.
    got = []
    env.vnic_b.attach_guest(got.append)
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:2])
    env.engine.run(until=env.engine.now + 0.05)  # dual-running, not final
    assert handle.state is OffloadState.DUAL_RUNNING
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80)
    env.engine.run(until=env.engine.now + 0.05)
    assert len(got) == 1
    assert handle.backend.stats.rx_direct_dual_running == 1


def test_final_stage_drops_direct_rx(nezha_env):
    env = nezha_env
    handle = offload_b(env)
    got = []
    env.vnic_b.attach_guest(got.append)
    # Force a stale mapping at the sender: point it back at the BE.
    from repro.vswitch.rule_tables import Location, MappingEntry
    stale = MappingEntry(vni=VNI, locations=[Location(
        env.vswitch_b.server.underlay_ip, env.vswitch_b.server.mac)])
    env.vnic_a.slow_path.table("vnic_server_mapping").set_entry(
        VNI, TENANT_B, stale)
    env.vswitch_a.session_table.clear()  # drop A's cached flow
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 5000, 80)
    env.engine.run(until=env.engine.now + 0.02)
    assert got == []
    assert handle.backend.stats.rx_direct_dropped == 1


# -- stateful ACL on the split pipeline (§5.1) ----------------------------------------------

def test_stateful_acl_across_split():
    acl_b = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                              direction=Direction.RX)])
    env = build_nezha_env(acl_b=acl_b)
    handle = offload_b(env)
    got_b, got_a = [], []
    env.vnic_b.attach_guest(got_b.append)
    env.vnic_a.attach_guest(got_a.append)

    # Unsolicited A->B: FE stamps the drop pre-action; the BE sees state
    # RX-first and enforces the drop.
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80)
    env.engine.run(until=env.engine.now + 0.1)
    assert got_b == []
    assert handle.backend.stats.acl_drops == 1

    # B-initiated conversation: B's SYN goes out via an FE; A's reply is an
    # RX of a TX-first session at the BE -> accepted despite the rule.
    send_tx(env, env.vswitch_b, env.vnic_b, TENANT_B, TENANT_A, 2000, 8080)
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got_a) == 1
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 8080, 2000,
            flags="syn|ack")
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got_b) == 1


def test_fe_tx_drop_leaves_be_state_for_aging(nezha_env):
    """§5.1: if the FE drops a TX packet the BE keeps its state; the short
    embryonic aging reclaims it."""
    acl_b = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                              direction=Direction.TX)])
    env = build_nezha_env(acl_b=acl_b)
    handle = offload_b(env)
    env.vswitch_b.start_aging(interval=0.2)
    send_tx(env, env.vswitch_b, env.vnic_b, TENANT_B, TENANT_A, 2000, 8080)
    env.engine.run(until=env.engine.now + 0.1)
    fe_drops = sum(fe.stats.acl_drops for fe in handle.frontends.values())
    assert fe_drops == 1
    assert len(env.vswitch_b.session_table) == 1  # orphaned state
    env.engine.run(until=env.engine.now + 2.0)
    assert len(env.vswitch_b.session_table) == 0  # aged out


# -- notify packets (§3.2.2) ---------------------------------------------------------------------

class FullStatsTable(RuleTable):
    """A flow-log stage that logs every flow in full (§3.2.2)."""

    name = "flow_log"

    def apply(self, ctx, pre):
        pre.tx.stats_policy = pre.rx.stats_policy = StatsPolicy.FULL

    def memory_bytes(self):
        return 0


def test_notify_updates_rule_involved_state():
    env = build_nezha_env()
    # TX lookups discover a stats policy the BE's carried state lacks ->
    # notify.
    chain = env.vnic_b.slow_path
    env.vnic_b.slow_path = SlowPath(chain.tables + (FullStatsTable(),),
                                    chain.cost_model)
    handle = offload_b(env)
    env.vnic_a.attach_guest(lambda pkt: None)
    send_tx(env, env.vswitch_b, env.vnic_b, TENANT_B, TENANT_A, 2000, 8080)
    env.engine.run(until=env.engine.now + 0.2)
    notifies = sum(fe.stats.notifies_sent for fe in handle.frontends.values())
    assert notifies == 1
    assert handle.backend.stats.notifies_applied == 1
    ft = Packet.tcp(TENANT_B, TENANT_A, 2000, 8080,
                    TcpFlags.of("syn")).five_tuple()
    entry = env.vswitch_b.session_table.lookup(VNI, ft)
    assert entry.state.stats_policy is StatsPolicy.FULL


def test_notify_suppressed_when_state_matches(nezha_env):
    """No flow-log policy: lookup state equals carried state -> no notify."""
    env = nezha_env
    handle = offload_b(env)
    env.vnic_a.attach_guest(lambda pkt: None)
    send_tx(env, env.vswitch_b, env.vnic_b, TENANT_B, TENANT_A, 2000, 8080)
    env.engine.run(until=env.engine.now + 0.2)
    assert sum(fe.stats.notifies_sent for fe in handle.frontends.values()) == 0


# -- fallback (§4.2.2) ------------------------------------------------------------------------------

def test_fallback_restores_local_processing(nezha_env):
    env = nezha_env
    handle = offload_b(env)
    got = []
    env.vnic_b.attach_guest(got.append)
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80)
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got) == 1

    done = env.orchestrator.fallback(handle)
    env.engine.run(until=env.engine.now + 2.0)
    assert done.fired
    assert handle.state is OffloadState.INACTIVE
    assert not env.vnic_b.offloaded
    assert env.vnic_b.vnic_id not in env.orchestrator.handles
    # FE-side residues cleaned up.
    for vswitch in env.idle_vswitches[:4]:
        assert not any(tag.startswith("fe_rules:")
                       for tag in vswitch.mem.by_tag)

    # Traffic flows again, now processed locally (session state survived:
    # the same session's next packet is RX of an existing entry).
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80,
            flags="ack")
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got) == 2
    assert env.vswitch_b.stats.delivered >= 1


def test_fallback_preserves_session_state(nezha_env):
    env = nezha_env
    handle = offload_b(env)
    env.vnic_b.attach_guest(lambda pkt: None)
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80)
    env.engine.run(until=env.engine.now + 0.1)
    ft = Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                    TcpFlags.of("syn")).five_tuple()
    state_before = env.vswitch_b.session_table.lookup(VNI, ft).state
    env.orchestrator.fallback(handle)
    env.engine.run(until=env.engine.now + 2.0)
    entry = env.vswitch_b.session_table.lookup(VNI, ft)
    assert entry is not None
    assert entry.state is state_before
    # Next packet promotes the entry to FULL via a local lookup.
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 1000, 80,
            flags="ack")
    env.engine.run(until=env.engine.now + 0.1)
    assert entry.mode is EntryMode.FULL


# -- scaling (§4.3) -----------------------------------------------------------------------------------

def test_scale_out_adds_fes_and_spreads_flows(nezha_env):
    env = nezha_env
    handle = offload_b(env, n_fes=2)
    env.vnic_b.attach_guest(lambda pkt: None)
    done = env.orchestrator.scale_out(handle, env.idle_vswitches[2:4])
    env.engine.run(until=env.engine.now + 1.0)
    assert done.fired
    assert len(handle.frontends) == 4
    send_many(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 4000, 100)
    env.engine.run(until=env.engine.now + 1.0)
    shares = [fe.stats.rx_relayed for fe in handle.frontends.values()]
    assert all(share > 0 for share in shares)


def test_scale_in_vswitch_removes_its_fes(nezha_env):
    env = nezha_env
    handle = offload_b(env, n_fes=4)
    victim = env.idle_vswitches[0]
    removed = env.orchestrator.scale_in_vswitch(victim)
    assert removed == 1
    assert len(handle.frontends) == 3
    # Grace period: the instance lingers, then tears down.
    env.engine.run(until=env.engine.now + 1.0)
    assert not any(tag.startswith("fe_rules:") for tag in victim.mem.by_tag)


# -- failover (§4.4) -----------------------------------------------------------------------------------

def test_fe_crash_failover_keeps_service(nezha_env):
    env = nezha_env
    handle = offload_b(env, n_fes=4)
    got = []
    env.vnic_b.attach_guest(got.append)
    victim = env.idle_vswitches[0]
    victim.crash()
    env.orchestrator.fail_fe(victim)
    assert len(handle.frontends) == 3
    # Wait for the gateway update to propagate to the sender.
    env.engine.run(until=env.engine.now + 0.2)
    send_many(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 6000, 50)
    env.engine.run(until=env.engine.now + 1.0)
    assert len(got) == 50


def test_fe_failover_requests_replacement(nezha_env):
    env = nezha_env
    handle = offload_b(env, n_fes=4)
    requests = []
    env.orchestrator.need_fe_callback = lambda h, n: requests.append((h, n))
    victim = env.idle_vswitches[1]
    victim.crash()
    env.orchestrator.fail_fe(victim)
    assert requests == [(handle, 1)]


# -- stateful decapsulation (§5.2) ---------------------------------------------------

def test_stateful_decap_across_split():
    """An RS vNIC behind an LB: the FE records the overlay source on RX,
    the BE stores it, and the TX response is steered back to the LB."""
    env = build_nezha_env()
    from repro.core.nf import enable_stateful_decap
    enable_stateful_decap(env.vnic_b)
    handle = offload_b(env)
    got = []
    env.vnic_b.attach_guest(got.append)

    # A plays the LB: its vSwitch encapsulates toward B's FEs with outer
    # source = A's server underlay IP.
    send_tx(env, env.vswitch_a, env.vnic_a, TENANT_A, TENANT_B, 7000, 80)
    env.engine.run(until=env.engine.now + 0.1)
    assert len(got) == 1
    ft = got[0].five_tuple()
    entry = env.vswitch_b.session_table.lookup(VNI, ft)
    lb_underlay = env.vswitch_a.server.underlay_ip
    assert entry.state.decap_overlay_src == lb_underlay

    # The RS responds; the FE must steer the response to the LB's underlay
    # address, not to the mapping-table location of TENANT_A.
    arrived_at_a = []
    env.vswitch_a.server.attach_sink(lambda pkt: arrived_at_a.append(pkt))
    send_tx(env, env.vswitch_b, env.vnic_b, TENANT_B, TENANT_A, 80, 7000,
            flags="syn|ack")
    env.engine.run(until=env.engine.now + 0.1)
    assert len(arrived_at_a) >= 1


def test_stateful_decap_local_baseline(cloud):
    """The same NF on the traditional local pipeline."""
    from repro.core.nf import enable_stateful_decap
    from repro.net.ipv4 import IPv4Header
    enable_stateful_decap(cloud.vnic_b)
    got = []
    cloud.vnic_b.attach_guest(got.append)
    cloud.vswitch_a.send_from_vnic(
        cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 7000, 80,
                                 TcpFlags.of("syn")))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    assert len(got) == 1
    entry = cloud.vswitch_b.session_table.lookup(VNI, got[0].five_tuple())
    assert entry.state.decap_overlay_src == \
        cloud.vswitch_a.server.underlay_ip


# -- VM-level rate limiting at the BE (§2.3.3 contrast with Sirius) --------------------

def test_vm_level_rate_limit_enforced_at_be_single_point():
    """All of the vNIC's TX converges at the BE, so one token bucket
    enforces the VM-level limit — no cross-FE coordination, unlike a
    Sirius-style pool where each card sees only a fraction."""
    from repro.vswitch.qos import QosEnforcer
    env = build_nezha_env()
    env.vnic_b.rate_limit_bps = 8_000
    handle = offload_b(env)
    env.vswitch_b.qos = QosEnforcer(burst_bytes=100)
    env.vnic_a.attach_guest(lambda pkt: None)
    # Many flows -> spread over all 4 FEs, but the BE polices the total.
    t = 0.0
    for flow in range(10):
        for i in range(10):
            pkt = Packet.tcp(TENANT_B, TENANT_A, 40_000 + flow, 9999,
                             TcpFlags.of("syn" if i == 0 else "ack"))
            env.engine.call_after(t, env.vswitch_b.send_from_vnic,
                                  env.vnic_b, pkt)
            t += 0.01
    env.engine.run(until=env.engine.now + t + 0.5)
    assert env.vswitch_b.stats.qos_drops > 40
    assert handle.backend.stats.tx_relayed < 60
