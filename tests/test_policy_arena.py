"""Tests for the load-sharing policy seam (repro.controller.policy),
the fleet coordinator's pluggable allocation, and the policy_arena
experiment plumbing."""

import pytest

from repro.controller import ControllerConfig, FePlacement, NezhaController
from repro.controller.controller import _NodeBook
from repro.controller.policy import (POLICY_NAMES, NezhaPolicy, make_policy)
from repro.core.offload import OffloadState
from repro.fleet import FleetCoordinator
from repro.net import IPv4Address, MacAddress
from repro.vswitch import Vnic
from repro.vswitch.vswitch import make_standard_chain
from repro.workloads.fleet import HotspotKind

from tests.conftest import VNI, build_nezha_env


def policy_env(policy_name):
    env = build_nezha_env(n_servers=8)
    placement = FePlacement(env.topo, {})
    config = ControllerConfig(poll_interval=0.05, initial_fes=4)
    controller = NezhaController(env.engine, env.gateway, env.orchestrator,
                                 placement, config=config,
                                 policy=make_policy(policy_name))
    for vs in env.vswitches:
        controller.register(vs)
    return env, controller


# -- registry ---------------------------------------------------------------------


def test_policy_registry():
    assert POLICY_NAMES == ("nezha", "pam", "supernic", "sirius")
    for name in POLICY_NAMES:
        assert make_policy(name).name == name
    with pytest.raises(ValueError):
        make_policy("bogus")
    with pytest.raises(ValueError):
        FleetCoordinator(seed=0, pool_units=4, policy="bogus")


def test_controller_default_policy_is_nezha():
    env = build_nezha_env()
    controller = NezhaController(env.engine, env.gateway, env.orchestrator,
                                 FePlacement(env.topo, {}))
    assert isinstance(controller.policy, NezhaPolicy)
    assert controller.policy.controller is controller


# -- NezhaPolicy: projection by the triggering resource (bugfix) ------------------


def test_nezha_projection_matches_triggering_resource():
    """The memory-triggered offload path must project by rule-table
    share, not packet-rate share: a hot-rate/low-memory vNIC used to
    look like it freed memory it never held, stopping memory-triggered
    offloading after one vNIC."""
    env = build_nezha_env()
    chain = make_standard_chain(env.cost_model)
    vnic_c = Vnic(3, VNI, IPv4Address("10.1.0.77"), MacAddress(0xC1), chain)
    env.vswitch_a.add_vnic(vnic_c)
    # vnic_a: 10% of the packet rate but the bulk of the rule memory.
    book = _NodeBook(env.vswitch_a)
    book.vnic_rates = {env.vnic_a.vnic_id: 100.0, vnic_c.vnic_id: 900.0}
    env.vnic_a.table_memory_extra = 10 * vnic_c.table_memory_bytes()
    mem_a = env.vnic_a.table_memory_bytes()
    mem_total = mem_a + vnic_c.table_memory_bytes()
    policy = NezhaPolicy()

    projected_mem = policy.project(0.8, env.vnic_a, book, by_memory=True)
    assert projected_mem == pytest.approx(0.8 * (1.0 - mem_a / mem_total))
    projected_cpu = policy.project(0.8, env.vnic_a, book, by_memory=False)
    assert projected_cpu == pytest.approx(0.8 * (1.0 - 100.0 / 1000.0))
    # The shares genuinely differ, so the two paths cannot be conflated.
    assert projected_mem < 0.2 < 0.7 < projected_cpu

    # Ranking follows the same per-resource shares.
    assert policy.offload_order(book, [env.vnic_a, vnic_c],
                                by_memory=True)[0] is env.vnic_a
    assert policy.offload_order(book, [env.vnic_a, vnic_c],
                                by_memory=False)[0] is vnic_c


# -- SiriusPolicy: the do-nothing baseline ----------------------------------------


def test_sirius_policy_never_offloads():
    env, controller = policy_env("sirius")
    env.vnic_a.attach_guest(lambda pkt: None)
    env.vnic_b.attach_guest(lambda pkt: None)
    controller.start()
    from repro.net import Packet, TcpFlags
    from tests.conftest import TENANT_A, TENANT_B

    def blast():
        sport = 1024
        while True:
            pkt = Packet.tcp(TENANT_B, TENANT_A, sport, 80,
                             TcpFlags.of("syn"))
            sport += 1
            env.vswitch_b.send_from_vnic(env.vnic_b, pkt)
            yield env.engine.timeout(0.00022)

    env.engine.process(blast(), name="blast")
    env.engine.run(until=4.0)
    # Same load as test_controller_offloads_hot_vswitch, which asserts
    # the Nezha policy *does* offload under it.
    assert controller.offloads_triggered == 0
    assert not env.orchestrator.handles
    # No handle, so the scale and fallback hooks it inherits from Nezha
    # never act.
    assert controller.scale_ins == 0 and controller.scale_outs == 0
    assert controller.fallbacks == 0


# -- PamPolicy: push-neighbor-aside migration -------------------------------------


def test_pam_scale_migrates_fe_sideways():
    env, controller = policy_env("pam")
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    assert handle.state is OffloadState.ACTIVE
    src = handle.fe_vswitches[0]
    before = {vs.server.name for vs in handle.fe_vswitches}
    controller.policy.scale(controller.nodes[src.name], cpu=0.5)
    env.engine.run(until=env.engine.now + 3.0)
    assert controller.policy.migrations == 1
    # The FE moved sideways: same count, src replaced by a neighbor.
    assert src not in handle.fe_vswitches
    assert len(handle.frontends) == 4
    assert {vs.server.name for vs in handle.fe_vswitches} != before
    # Unlike Nezha's scale-in, PAM withdraws no capacity from the pool.
    assert src.server.name not in controller.placement.excluded
    assert controller.scale_ins == 0


# -- SuperNicPolicy: tenant quotas and preemption ---------------------------------


def test_supernic_select_fes_caps_at_quota():
    env, controller = policy_env("supernic")
    policy = controller.policy
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    assert len(handle.frontends) == 4
    # Budget 4, one tenant: quota 4, fully used -> grant denied.
    policy.fe_budget = 4
    assert policy.select_fes(env.vswitch_b, 2, vnic=env.vnic_b) == []
    # Budget 8: headroom 4, the request fits.
    policy.fe_budget = 8
    assert len(policy.select_fes(env.vswitch_b, 2, vnic=env.vnic_b)) == 2


def test_supernic_reconcile_tail_preempts_over_quota():
    env, controller = policy_env("supernic")
    handle = env.orchestrator.offload(env.vnic_b, env.idle_vswitches[:4])
    env.engine.run(until=2.0)
    assert handle.state is OffloadState.ACTIVE
    controller.policy.fe_budget = 2  # budget shrank under the holding
    controller.policy.reconcile_tail()
    assert controller.policy.preemptions == 2
    assert len(handle.frontends) == 2
    env.engine.run(until=env.engine.now + 2.0)
    # Preemption is graceful and never below one FE: still offloaded.
    assert handle.state is OffloadState.ACTIVE
    assert len(handle.frontends) == 2


# -- FleetCoordinator allocation policies -----------------------------------------


def test_coordinator_nezha_policy_matches_default():
    reports = [{"hot": [
        {"index": 5, "units": 2, "kinds": ["cps"]},
        {"index": 9, "units": 3, "kinds": ["flows"]},
        {"index": 11, "units": 4, "kinds": ["cps"]},
    ]}]
    default = FleetCoordinator(seed=3, pool_units=6)
    explicit = FleetCoordinator(seed=3, pool_units=6, policy="nezha")
    for epoch in range(2):
        assert (default.settle(epoch, reports)
                == explicit.settle(epoch, reports))
    assert default.denied_requests == explicit.denied_requests
    assert default.overloads == explicit.overloads
    assert default.utilization == explicit.utilization


def test_coordinator_pam_grants_single_units():
    coordinator = FleetCoordinator(seed=0, pool_units=4, policy="pam")
    reports = [{"hot": [{"index": 0, "units": 3, "kinds": ["cps"]}]}]
    grants = coordinator.settle(0, reports)
    assert grants == {0: 1}  # one neighbor's worth, not all-or-nothing
    # The partial grant leaves the capacity overload residual.
    assert coordinator.overloads[HotspotKind.CPS] == [1, 1]
    # A renewal still holding less than it needs stays residual too.
    assert coordinator.settle(1, reports) == {0: 1}
    assert coordinator.overloads[HotspotKind.CPS] == [2, 2]


def test_coordinator_supernic_enforces_tenant_quota():
    coordinator = FleetCoordinator(seed=0, pool_units=16, policy="supernic")
    # tenant = index % 8; quota = 16 // 8 = 2 units per tenant.
    reports = [{"hot": [
        {"index": 0, "units": 2, "kinds": ["cps"]},
        {"index": 8, "units": 2, "kinds": ["cps"]},  # tenant 0 over quota
        {"index": 1, "units": 2, "kinds": ["cps"]},  # tenant 1: fits
    ]}]
    grants = coordinator.settle(0, reports)
    assert grants == {0: 2, 1: 2}
    assert coordinator.denied_requests == 1


def test_coordinator_sirius_denies_everything():
    coordinator = FleetCoordinator(seed=0, pool_units=4, policy="sirius")
    reports = [{"hot": [{"index": 0, "units": 1,
                         "kinds": ["cps", "vnics"]}]}]
    assert coordinator.settle(0, reports) == {}
    assert coordinator.denied_requests == 1
    assert coordinator.overloads[HotspotKind.CPS] == [1, 1]
    assert coordinator.overloads[HotspotKind.VNICS] == [1, 1]
    assert coordinator.utilization == [0.0]


# -- experiment plumbing ----------------------------------------------------------


def test_fleet_run_policy_nezha_is_byte_identical():
    """policy="nezha" must be inert: same allocation loop, same
    activation RNG draws, no extra table rows."""
    from repro.experiments import fleet
    kwargs = dict(n_vswitches=120, epochs=2, seed=0)
    assert (fleet.run(**kwargs).to_text()
            == fleet.run(policy="nezha", **kwargs).to_text())


def test_runner_forwards_policy_only_where_accepted():
    from repro.experiments import fig9, fleet, policy_arena
    from repro.experiments.runner import _run_kwargs
    assert _run_kwargs(fleet.run, 0, 1, policy="pam")["policy"] == "pam"
    assert (_run_kwargs(policy_arena.run, 0, 1, policy="supernic")["policy"]
            == "supernic")
    assert "policy" not in _run_kwargs(fig9.run, 0, 1, policy="pam")
    assert "policy" not in _run_kwargs(fleet.run, 0, 1)


def test_policy_arena_single_policy_smoke():
    from repro.experiments import policy_arena
    result = policy_arena.run(policy="sirius", duration=0.3, warmup=0.15,
                              concurrency_per_client=8,
                              fleet_vswitches=300, fleet_epochs=2)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["policy"] == "sirius"
    assert row["cps"] > 0
    assert row["fe_units"] == 0  # sirius never deploys an FE
    assert row["denials"] >= 1
    assert row["mitigated_pct"] == 0.0
