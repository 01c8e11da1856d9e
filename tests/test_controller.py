"""Tests for the control plane: gateway learning, health monitor,
placement, and the reconciliation controller."""

import pytest

from repro.controller import (ControllerConfig, FePlacement, Gateway,
                              HealthMonitor, NezhaController)
from repro.controller.monitor import MutualPing
from repro.core.offload import OffloadState
from repro.fabric import Topology
from repro.net import IPv4Address, MacAddress, Packet, TcpFlags
from repro.sim import Engine
from repro.vswitch import CostModel, VSwitch
from repro.vswitch.rule_tables import Location

from tests.conftest import TENANT_A, TENANT_B, VNI, build_nezha_env


# -- Gateway + learning ----------------------------------------------------------

def test_gateway_versioning_and_lookup():
    gw = Gateway(Engine())
    loc = Location(IPv4Address("10.0.0.1"), MacAddress(1))
    v1 = gw.set_locations(7, IPv4Address("192.168.1.1"), [loc])
    v2 = gw.set_locations(7, IPv4Address("192.168.1.2"), [loc])
    assert v2 == v1 + 1
    entry = gw.lookup(7, IPv4Address("192.168.1.1"))
    assert entry.version == v1
    assert len(gw.snapshot(7)) == 2
    gw.remove(7, IPv4Address("192.168.1.1"))
    assert gw.lookup(7, IPv4Address("192.168.1.1")) is None


def test_learner_pulls_entries_on_interval():
    env = build_nezha_env(start_learners=False)
    # Mutate the gateway; only a refresh propagates it.
    new_loc = Location(IPv4Address("10.0.0.9"), MacAddress(9))
    version = env.gateway.set_locations(VNI, TENANT_B, [new_loc])
    learner = env.learners[0]
    assert learner.synced_version(VNI) < version
    learner.start()
    env.engine.run(until=0.2)
    assert learner.synced_version(VNI) >= version
    table = env.vnic_a.slow_path.table("vnic_server_mapping")
    assert table.lookup(VNI, TENANT_B).locations == [new_loc]


def test_learner_skips_crashed_vswitch():
    env = build_nezha_env(start_learners=False)
    env.vswitch_a.crash()
    env.gateway.set_locations(VNI, TENANT_B,
                              [Location(IPv4Address("10.0.0.9"),
                                        MacAddress(9))])
    env.learners[0].refresh()
    assert env.learners[0].synced_version(VNI) < env.gateway.version


def test_all_learners_synced_ignores_uninterested():
    env = build_nezha_env(start_learners=False)
    version = env.gateway.set_locations(VNI, TENANT_B, [Location(
        IPv4Address("10.0.0.9"), MacAddress(9))])
    env.learners[0].refresh()
    env.learners[1].refresh()
    # Learners 2..5 host no vNICs in this VNI: they do not gate sync.
    assert env.gateway.all_learners_synced(VNI, version)


# -- HealthMonitor ---------------------------------------------------------------------

def monitor_setup(n_targets=4):
    engine = Engine()
    topo = Topology.leaf_spine(engine, 1, n_targets + 1)
    cm = CostModel.testbed()
    vswitches = [VSwitch(engine, s, cm) for s in topo.servers[:-1]]
    monitor = HealthMonitor(engine, topo.servers[-1], interval=0.1,
                            miss_threshold=3)
    for vs in vswitches:
        monitor.add_target(vs.server)
    return engine, vswitches, monitor


def test_monitor_healthy_targets_never_reported():
    engine, _vswitches, monitor = monitor_setup()
    down = []
    monitor.on_down = down.append
    monitor.start()
    engine.run(until=2.0)
    assert down == []
    for state in monitor.targets.values():
        assert state.replies_seen > 10
        assert state.consecutive_misses == 0


def test_monitor_detects_single_crash_within_threshold():
    engine, vswitches, monitor = monitor_setup()
    down = []
    monitor.on_down = down.append
    monitor.start()
    engine.call_at(0.5, vswitches[0].crash)
    engine.run(until=2.0)
    assert [server.name for server in down] == [vswitches[0].server.name]
    # Detection needs miss_threshold sweeps: ~0.3-0.4s after the crash.


def test_monitor_detection_latency_about_threshold():
    engine, vswitches, monitor = monitor_setup()
    detected = []
    monitor.on_down = lambda s: detected.append(engine.now)
    monitor.start()
    engine.call_at(1.0, vswitches[0].crash)
    engine.run(until=3.0)
    assert detected
    # 3 misses at 0.1s interval: detected within ~0.5s of the crash —
    # production Nezha completes failover within 2s (§6.3.4).
    assert detected[0] - 1.0 < 0.6


def test_monitor_recovery_clears_down_state():
    engine, vswitches, monitor = monitor_setup()
    monitor.on_down = lambda s: None
    monitor.start()
    engine.call_at(0.5, vswitches[0].crash)
    engine.call_at(1.5, vswitches[0].recover)
    engine.run(until=3.0)
    state = monitor.targets[vswitches[0].server.name]
    assert not state.down_reported
    assert state.consecutive_misses == 0


def test_monitor_mass_failure_suspends_removal():
    """Appendix C.2: most targets 'down' at once looks like a monitoring
    bug — suspend automatic removal."""
    engine, vswitches, monitor = monitor_setup(n_targets=6)
    down = []
    monitor.on_down = down.append
    monitor.start()
    for vs in vswitches[:5]:
        engine.call_at(0.5, vs.crash)
    engine.run(until=3.0)
    assert monitor.suspended
    assert down == []  # nothing auto-removed
    monitor.reset_suspension()
    assert not monitor.suspended


def test_monitor_validation():
    engine, _v, _m = monitor_setup()
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        HealthMonitor(engine, _v[0].server, miss_threshold=0)


# -- MutualPing (Appendix C.1) -------------------------------------------------------------

def test_mutual_ping_silent_when_link_up():
    engine, vswitches, _monitor = monitor_setup()
    ping = MutualPing(engine, vswitches[0], vswitches[1], interval=0.2)
    unreachable = []
    ping.on_unreachable = lambda: unreachable.append(engine.now)
    ping.start()
    engine.run(until=2.0)
    assert unreachable == []
    assert ping.misses == 0


def test_mutual_ping_detects_dark_link():
    engine = Engine()
    topo = Topology.leaf_spine(engine, 1, 3)
    cm = CostModel.testbed()
    vswitches = [VSwitch(engine, s, cm) for s in topo.servers]
    ping = MutualPing(engine, vswitches[0], vswitches[1], interval=0.2,
                      miss_threshold=2)
    unreachable = []
    ping.on_unreachable = lambda: unreachable.append(engine.now)
    ping.start()
    engine.call_at(0.5, lambda: topo.fail_server_links(topo.servers[1]))
    engine.run(until=3.0)
    assert unreachable
    ping.stop()


# -- FePlacement ------------------------------------------------------------------------------

def placement_setup():
    env = build_nezha_env(n_servers=6)
    placement = FePlacement(env.topo,
                            {vs.server.name: vs for vs in env.vswitches})
    return env, placement


def test_placement_prefers_same_tor_and_excludes_be():
    env, placement = placement_setup()
    chosen = placement.select(env.vswitch_b, count=4)
    assert len(chosen) == 4
    assert env.vswitch_b not in chosen


def test_placement_skips_crashed_and_excluded():
    env, placement = placement_setup()
    env.vswitches[2].crash()
    placement.exclude(env.vswitches[3])
    chosen = placement.select(env.vswitch_b, count=10)
    assert env.vswitches[2] not in chosen
    assert env.vswitches[3] not in chosen
    placement.readmit(env.vswitches[3])
    chosen2 = placement.select(env.vswitch_b, count=10)
    assert env.vswitches[3] in chosen2


def test_placement_cross_tor_when_local_insufficient():
    from repro.fabric import Topology as T
    engine = Engine()
    topo = T.leaf_spine(engine, n_tors=2, servers_per_tor=3)
    cm = CostModel.testbed()
    vswitches = {s.name: VSwitch(engine, s, cm) for s in topo.servers}
    placement = FePlacement(topo, vswitches)
    be = vswitches[topo.servers[0].name]
    chosen = placement.select(be, count=4)
    assert len(chosen) == 4
    same_tor = [vs for vs in chosen
                if topo.same_tor(vs.server, be.server)]
    # The two same-ToR candidates come first; the rest cross-ToR.
    assert len(same_tor) == 2


# -- NezhaController end to end ------------------------------------------------------------------

def controller_env():
    from repro.core.offload import NezhaOrchestrator, OffloadConfig
    from repro.controller.latency import ControlLatencyModel
    env = build_nezha_env(n_servers=8)
    placement = FePlacement(env.topo, {})
    config = ControllerConfig(poll_interval=0.05, initial_fes=4)
    controller = NezhaController(env.engine, env.gateway, env.orchestrator,
                                 placement, config=config)
    for vs in env.vswitches:
        controller.register(vs)
    return env, controller


def test_controller_offloads_hot_vswitch():
    env, controller = controller_env()
    env.vnic_b.attach_guest(lambda pkt: None)
    controller.start()
    # Saturate vswitch_b's CPU with local vNIC traffic (TX new flows).
    from repro.net import Packet, TcpFlags

    def blast():
        sport = 1024
        while True:
            pkt = Packet.tcp(TENANT_B, TENANT_A, sport, 80,
                             TcpFlags.of("syn"))
            sport += 1
            env.vswitch_b.send_from_vnic(env.vnic_b, pkt)
            yield env.engine.timeout(0.00022)

    env.vnic_a.attach_guest(lambda pkt: None)
    env.engine.process(blast(), name="blast")
    env.engine.run(until=6.0)
    assert controller.offloads_triggered >= 1
    handle = env.orchestrator.handles.get(env.vnic_b.vnic_id)
    assert handle is not None
    assert handle.state in (OffloadState.ACTIVE, OffloadState.DUAL_RUNNING)


def test_controller_failover_path():
    env, controller = controller_env()
    monitor = HealthMonitor(env.engine, env.topo.servers[-1], interval=0.1)
    controller.monitor = monitor
    monitor.on_down = controller._on_target_down
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    for fe_vs in handle.fe_vswitches:
        monitor.add_target(fe_vs.server)
    monitor.start()
    victim = handle.fe_vswitches[0]
    env.engine.call_at(env.engine.now + 0.5, victim.crash)
    env.engine.run(until=env.engine.now + 3.0)
    assert controller.failovers == 1
    # min_fes=4: a replacement was scaled out.
    assert len(handle.frontends) == 4
    assert victim not in handle.fe_vswitches


def test_controller_never_places_fes_on_its_monitor_host():
    """Fig 14's wiring: every vSwitch registered, monitor on the last
    server. The monitor owns that host's fabric sink, so a replacement
    FE placed there black-holes its share of the flows for good."""
    from repro.experiments.testbed import build_testbed
    testbed = build_testbed(n_clients=4, n_idle=6)
    monitor = HealthMonitor(testbed.engine, testbed.topo.servers[-1])
    controller = testbed.attach_controller(monitor=monitor)
    placement = controller.placement
    be, deaf = testbed.server_vswitch, testbed.vswitches[-1]
    everyone = len(testbed.vswitches)
    assert deaf not in placement.select(be, everyone)
    controller._on_target_down(testbed.idle_vswitches[0].server)
    controller._on_target_up(testbed.idle_vswitches[0].server)
    picked = placement.select(be, everyone)
    assert testbed.idle_vswitches[0] in picked      # readmitted
    assert deaf not in picked


# -- BE-FE link watching (Appendix C.1) ----------------------------------------------

def test_watch_links_removes_unreachable_fe():
    """A dark BE->FE link (not a crash: the FE still answers the central
    monitor) is caught by mutual pinging and the FE is failed over."""
    env, controller = controller_env()
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=env.engine.now + 2.0)
    pingers = controller.watch_links(handle, interval=0.3)
    assert len(pingers) == 4
    victim = handle.fe_vswitches[0]
    env.engine.call_at(env.engine.now + 0.5,
                       lambda: env.topo.fail_server_links(victim.server))
    env.engine.run(until=env.engine.now + 3.0)
    assert victim not in handle.fe_vswitches
    assert victim.server.name in controller.placement.excluded
    # The controller scaled a replacement back to the 4-FE minimum.
    assert len(handle.frontends) == 4
    for ping in pingers:
        ping.stop()


# -- regression: failover-path bugfix sweep ---------------------------------------


def test_monitor_remove_target_purges_outstanding_seq():
    """An in-flight probe's seq mapping must die with its target: before
    the fix ``remove_target`` left the entry in ``_seq_to_target``, where
    it leaked forever if the reply never came (crashed target — the
    common removal reason)."""
    engine, vswitches, monitor = monitor_setup()
    monitor._sweep()  # probes sent, seqs outstanding; replies not yet run
    state = monitor.targets[vswitches[0].server.name]
    seq = state.outstanding_seq
    assert seq is not None and seq in monitor._seq_to_target
    monitor.remove_target(vswitches[0].server)
    assert seq not in monitor._seq_to_target
    assert vswitches[0].server.name not in monitor.targets


def test_reset_suspension_reports_targets_that_died_meanwhile():
    """Targets that genuinely died while removal was suspended must be
    reported when the operator resets the suspension — before the fix
    they were never reported: each later sweep re-entered the
    mass-failure branch and re-suspended first."""
    engine, vswitches, monitor = monitor_setup(n_targets=6)
    down = []
    monitor.on_down = down.append
    monitor.start()
    for vs in vswitches[:5]:
        engine.call_at(0.5, vs.crash)
    engine.run(until=3.0)
    assert monitor.suspended and down == []
    monitor.reset_suspension()
    assert (sorted(server.name for server in down)
            == sorted(vs.server.name for vs in vswitches[:5]))


def test_gateway_remove_propagates_deletion_to_learners():
    """A removed gateway entry must leave learner tables on the next
    refresh — before the fix ``refresh`` only copied live entries, so
    vSwitches forwarded to the deleted location forever."""
    env = build_nezha_env(start_learners=False)
    table = env.vnic_a.slow_path.table("vnic_server_mapping")
    assert table.lookup(VNI, TENANT_B) is not None  # primed at build time
    env.gateway.remove(VNI, TENANT_B)
    env.learners[0].refresh()
    assert table.lookup(VNI, TENANT_B) is None


def test_fallback_streak_pruned_when_handle_leaves_active():
    """An idle-poll streak must die with its handle: before the fix the
    entry survived fallback/abort/failover, so a re-offloaded vNIC (same
    id, fresh handle) inherited the stale streak and fell back almost
    immediately after activating."""
    env, controller = controller_env()
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    assert handle.state is OffloadState.ACTIVE
    vnic_id = env.vnic_b.vnic_id
    controller._fallback_idle_polls[vnic_id] = 15  # idle for 15 polls
    env.orchestrator.fallback(handle)
    env.engine.run(until=env.engine.now + 2.0)
    assert vnic_id not in env.orchestrator.handles
    # Re-offload: the fresh handle is DUAL_RUNNING during the same tick
    # the prune runs, so "not in handles" alone would not catch this.
    handle2 = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    assert handle2.state is not OffloadState.ACTIVE
    controller._consider_fallbacks()
    assert vnic_id not in controller._fallback_idle_polls
    env.engine.run(until=env.engine.now + 2.0)
    assert handle2.state is OffloadState.ACTIVE
    controller._consider_fallbacks()
    # The new incarnation starts its streak from scratch, not from 15.
    assert controller._fallback_idle_polls.get(vnic_id, 0) <= 1
    assert controller.fallbacks == 0


def test_fallback_skips_vnic_with_inflight_scale_out():
    """A fallback must not race an in-flight scale-out for the same
    vNIC: before the fix the fallback tore the handle down while the
    flow was still adding an FE, orphaning the new instance."""
    env, controller = controller_env()
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    assert handle.state is OffloadState.ACTIVE
    vnic_id = env.vnic_b.vnic_id
    controller._on_need_fes(handle, 1)  # scale-out flow now in flight
    assert vnic_id in controller._inflight_vnics
    # Idle streak already over the threshold: without the in-flight
    # check the very next pass triggers the fallback.
    controller._fallback_idle_polls[vnic_id] = \
        controller.config.fallback_polls
    controller._consider_fallbacks()
    assert controller.fallbacks == 0
    assert handle.state is OffloadState.ACTIVE
    env.engine.run(until=env.engine.now + 2.0)
    # The in-flight FE landed on the still-live handle, not an orphan.
    assert len(handle.frontends) == 5


def test_link_pingers_stopped_on_fallback():
    """Fallback must stop the vNIC's BE-FE pingers: a leaked pinger
    keeps probing and, after the FE host stops answering for unrelated
    reasons, excludes and fails over a vSwitch that no longer hosts
    this FE."""
    env, controller = controller_env()
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    pingers = controller.watch_links(handle, interval=0.3)
    vnic_id = env.vnic_b.vnic_id
    assert controller._link_pingers[vnic_id] == pingers
    controller._fallback_idle_polls[vnic_id] = \
        controller.config.fallback_polls
    controller._consider_fallbacks()
    assert controller.fallbacks == 1
    assert all(ping._stopped for ping in pingers)
    assert vnic_id not in controller._link_pingers
    env.engine.run(until=env.engine.now + 2.0)
    # A dark link on the former FE host must go unnoticed now.
    former = pingers[0].fe_vswitch
    env.topo.fail_server_links(former.server)
    env.engine.run(until=env.engine.now + 3.0)
    assert former.server.name not in controller.placement.excluded
    assert controller.failovers == 0


def test_link_pingers_pruned_after_fe_failover():
    """When an FE is removed underneath its pinger (failover here;
    scale-in and preemption take the same path) the reconcile tail must
    stop that pinger while leaving the surviving FEs watched."""
    env, controller = controller_env()
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    pingers = controller.watch_links(handle, interval=0.3)
    victim = handle.fe_vswitches[0]
    env.orchestrator.fail_fe(victim)
    controller._prune_link_pingers()
    victim_pings = [p for p in pingers if p.fe_vswitch is victim]
    live_pings = [p for p in pingers if p.fe_vswitch is not victim]
    assert victim_pings and all(p._stopped for p in victim_pings)
    assert live_pings and not any(p._stopped for p in live_pings)
    assert [p for p in controller._link_pingers[env.vnic_b.vnic_id]] \
        == live_pings


def test_placement_tie_break_independent_of_registration_order():
    """Equal-utilization candidates must sort by server name, not by
    dict insertion order — otherwise two controllers registering the
    same fleet in different orders place FEs differently and policy
    comparisons diverge on identical clusters."""
    env = build_nezha_env(n_servers=6)
    by_name = {vs.server.name: vs for vs in env.vswitches}
    forward = FePlacement(env.topo, by_name)
    backward = FePlacement(env.topo, dict(reversed(list(by_name.items()))))
    expect = [vs.server.name for vs in forward.select(env.vswitch_b, 4)]
    got = [vs.server.name for vs in backward.select(env.vswitch_b, 4)]
    assert expect == got
    # All candidates idle (utilization 0.0): the pick is pure name order.
    assert expect == sorted(expect)


def test_controller_does_not_double_scale_inflight_vnic():
    """Two shortfall signals for the same vNIC in one tick must trigger
    one scale-out flow: before the per-vNIC in-flight tracking the
    second signal started a second flow for the same handle while the
    first's FEs were not yet visible, serially over-scaling the vNIC."""
    env, controller = controller_env()
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    assert handle.state is OffloadState.ACTIVE
    calls = []
    orig = env.orchestrator.scale_out

    def spy(h, fes):
        calls.append([vs.name for vs in fes])
        return orig(h, fes)

    env.orchestrator.scale_out = spy
    controller._on_need_fes(handle, 1)
    controller._on_need_fes(handle, 1)  # same tick: flow still in flight
    assert len(calls) == 1
    env.engine.run(until=env.engine.now + 2.0)
    assert len(handle.frontends) == 5
