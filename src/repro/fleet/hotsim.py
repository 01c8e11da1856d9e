"""Per-packet micro-simulation of one hot vSwitch epoch.

A vSwitch whose sampled demand crosses a hotspot threshold leaves the
fluid path: its epoch is simulated packet-by-packet on a private
two-server overlay (the burst datapath with array-backed flow records —
the real machinery, not a model), driven by an elephant-flow packet
train whose rate scales with the demand-to-capacity ratio. The
simulation measures what the fluid path cannot: achieved throughput
under CPU contention, drop counts, and the trailing-window CPU
utilization the controller would see.

When the coordinator has granted the vSwitch FE capacity, the BE keeps
only its capacity's worth of the packet train — the offloaded excess is
advanced fluidly and charged to the shared pool — so a granted hotspot
measurably de-saturates the next epoch, closing the shard↔coordinator
feedback loop.

Each micro-sim is seeded from ``derive_seed`` on the global vSwitch
index and epoch, so results are reproducible and independent of shard
layout.
"""

from __future__ import annotations

from typing import Dict

from repro import telemetry
from repro.fabric import Topology
from repro.host.vm import Vm
from repro.net.addr import IPv4Address, MacAddress
from repro.sim.engine import Engine
from repro.vswitch import CostModel, Vnic, VSwitch
from repro.vswitch.rule_tables import MappingEntry
from repro.vswitch.vswitch import make_standard_chain
from repro.workloads.elephant import ElephantFlow

VNI = 400
BE_IP = IPv4Address("10.40.0.1")
PEER_IP = IPv4Address("10.40.0.2")

#: Packet rate that represents a vSwitch running exactly at capacity
#: (demand ratio 1.0). Calibrated against the single-core micro-sim
#: slice below so a ratio of ~1 runs warm and the heavy-tail ratios
#: (2-10x) saturate the CPU and drop packets.
BASE_PPS = 2000.0
#: Per-sim rate ceiling: demand ratios are unbounded (the P9999 user is
#: ~10x capacity) but the micro-sim slice stays affordable.
MAX_PPS = 8000.0
#: Cost-model scale for the micro-sim slice: one core at ~1/600 the
#: production frequency puts saturation near ``BASE_PPS * 2``, so a
#: per-packet run of a few hundred packets resolves overload behavior.
SLICE_SCALE = 600.0


def _slice_cost_model() -> CostModel:
    model = CostModel.testbed(SLICE_SCALE)
    model.cores = 1
    # At 1/600 frequency the one-off session setup (flow + state insert)
    # would busy the core for ~38ms — longer than the drop-tail backlog —
    # so a single opening SYN would shadow the steady-state measurement.
    # The micro-sim measures steady-state overload, not setup storms:
    # keep setup proportionally cheap.
    model.flow_insert_cycles /= 20.0
    model.state_insert_cycles /= 20.0
    return model


def _build_pair(engine: Engine):
    """A minimal two-server overlay: BE vSwitch + peer, mappings
    prewired both ways (the conftest ``build_cloud`` shape, rebuilt here
    because src cannot import test fixtures)."""
    cost_model = _slice_cost_model()
    topo = Topology.leaf_spine(engine, n_tors=1, servers_per_tor=2)
    server_a, server_b = topo.servers[0], topo.servers[1]
    vswitch_a = VSwitch(engine, server_a, cost_model)
    vswitch_b = VSwitch(engine, server_b, cost_model)
    chain_a = make_standard_chain(cost_model)
    chain_b = make_standard_chain(cost_model)
    for chain in (chain_a, chain_b):
        mapping = chain.table("vnic_server_mapping")
        mapping.set_entry(VNI, BE_IP, MappingEntry(
            underlay_ip=server_a.underlay_ip, underlay_mac=server_a.mac,
            vni=VNI))
        mapping.set_entry(VNI, PEER_IP, MappingEntry(
            underlay_ip=server_b.underlay_ip, underlay_mac=server_b.mac,
            vni=VNI))
    vnic_a = Vnic(1, VNI, BE_IP, MacAddress(0x41), chain_a)
    vnic_b = Vnic(2, VNI, PEER_IP, MacAddress(0x42), chain_b)
    vswitch_a.add_vnic(vnic_a)
    vswitch_b.add_vnic(vnic_b)
    return vswitch_a, vswitch_b, vnic_a, vnic_b


def _discard(packet, count: int = 1) -> None:
    """The count-only guest, per packet and per ``(template, count)``
    run alike: the vNIC has already added to ``rx_delivered``."""


def simulate_hot_epoch(seed: int, demand_ratio: float, granted: bool,
                       duration: float = 0.2, burst: int = 16,
                       payload_bytes: int = 200,
                       fluid: bool = True) -> Dict[str, object]:
    """Run one hot vSwitch's epoch packet-by-packet; returns plain data.

    ``demand_ratio`` is peak demand over capacity (>= 1 for a hotspot).
    ``granted`` models an active FE grant: the BE retains a ratio of 1.0
    worth of traffic, the rest is offloaded (handled fluidly by the
    pool), so the measured utilization falls back under control.

    ``fluid`` (default on) runs the elephant train under the §5.5 fluid
    fast-forward — eligible packet runs advance analytically, anything
    ineligible re-materializes through the burst path — which is proven
    output-identical to the burst form (a hotsim-level regression pins
    ``fluid=True`` == ``fluid=False`` here). The ~95 hot micro-sims per
    epoch at 10K are the fleet's dominant wall-clock cost; the peer
    vNIC's guest is run-aware and only counts, so a fluid run stays one
    descriptor from the sender's kernel to the sink — telemetry
    installed or not: no template here carries a span.
    """
    retained = 1.0 if granted else demand_ratio
    rate_pps = min(BASE_PPS * retained, MAX_PPS)
    engine = Engine()
    vswitch_a, _vswitch_b, vnic_a, vnic_b = _build_pair(engine)
    vnic_b.attach_guest(_discard, _discard)
    vm = Vm(engine, f"hot-{seed & 0xffff}", vcpus=8)
    vm.attach_vnic(vnic_a)
    flow = ElephantFlow(engine, vm, vnic_a, PEER_IP, rate_pps=rate_pps,
                        payload_bytes=payload_bytes,
                        sport=5000 + (seed % 1000), burst=burst, fluid=fluid)
    flow.run(duration=duration)
    engine.run(until=duration + 0.05)  # drain the pipeline tail
    stats = vswitch_a.stats
    tel = telemetry.current()
    if tel is not None:
        # Observation only (counts, no RNG/clock reads): how much
        # per-packet work the fleet's hot path did. Populated when the
        # micro-sims run in-process (jobs=1); worker processes carry no
        # installed telemetry, and the per-epoch hot *outcomes* travel
        # in the shard snapshot instead.
        tel.registry.counter("fleet.hotsim.runs").inc()
        tel.registry.counter("fleet.hotsim.granted").inc(int(granted))
        tel.registry.counter("fleet.hotsim.pkts").inc(flow.sent)
    return {
        "sim_sent": flow.sent,
        "sim_delivered": vnic_b.rx_delivered,
        "sim_drops": stats.cpu_drops + vm.kernel_drops,
        "sim_cpu": vswitch_a.cpu_utilization(),
    }
