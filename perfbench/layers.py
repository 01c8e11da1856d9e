"""Turn one traced pass + one census pass into the per-layer metric rows.

Every name in ``spec.layer_metrics()`` gets a value on every workload
(0 where the layer does no work there), so "zero off its workload" is a
row a reader can see, not an absence.
"""

from __future__ import annotations

from typing import Dict

from perfbench import spec
from perfbench.trace import LAYERS


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _calls(trace: dict, *labels: str) -> int:
    return sum(trace["calls"][label] for label in labels)


def derive(trace: dict, census: Dict[str, float],
           counters: Dict[str, float], warm_wall_s: float) -> Dict[str, float]:
    """``trace`` is ``Tracer.result()``; ``census``/``counters`` are the
    exact values of the untraced warm pass (``Census.counters()`` and
    ``Outcome.counters``); ``warm_wall_s`` is that pass's wall."""
    values: Dict[str, float] = {name: 0.0 for name in
                                (m["name"] for m in spec.layer_metrics())}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["self_s"][layer]
    values.update(census)
    values.update({name: value for name, value in counters.items()
                   if name in values})

    pkts = census["vswitch.pkts"]
    hits = census["vswitch.fast_path.hits"]
    lookups = census["vswitch.slow_path.lookups"]
    transmits = _calls(trace, "Link.transmit", "Link.transmit_burst",
                       "Link.transmit_run")
    datapath_calls = sum(
        trace["outer_calls"][f"LocalDatapath.handle_{direction}{shape}"]
        for direction in ("tx", "rx") for shape in ("", "_burst", "_run"))
    copies = _calls(trace, "Packet.copy", "EncapTemplate.wrap")

    values.update({
        "sim.engine.events": trace["events"],
        "sim.engine.events_per_pkt": _ratio(trace["events"], pkts),
        "sim.resources.submits": _calls(
            trace, "CpuResource.submit", "CpuResource.try_submit",
            "CpuResource.try_book", "CpuResource.try_submit_call"),
        "net.packet.calls": _calls(
            trace, "Packet.encode", "Packet.decode", "Packet.copy",
            "Packet.five_tuple", "Packet.encap", "Packet.decap",
            "EncapTemplate.wrap"),
        "net.packet.copies_per_pkt": _ratio(copies, pkts),
        "net.nsh.calls": _calls(
            trace, "NshHeader.encode", "NshHeader.decode",
            "NshContext.encode", "NshContext.decode"),
        "fabric.link.transmits": transmits,
        "fabric.link.pkts_per_transmit": _ratio(
            census["fabric.link.pkts"], transmits),
        "vswitch.datapath.calls": datapath_calls,
        "vswitch.datapath.pkts_per_call": _ratio(pkts, datapath_calls),
        "vswitch.fast_path.ratio": _ratio(hits, hits + lookups),
        "vswitch.session_table.ops": _calls(
            trace, "SessionTable.lookup", "SessionTable.insert",
            "SessionTable.remove", "SessionTable.sweep"),
        "vswitch.host_us_per_pkt": _ratio(warm_wall_s * 1e6, pkts),
        "core.header.calls": _calls(trace, "build_nezha_hop",
                                    "unwrap_nezha_hop"),
        "host.vm.sends": _calls(trace, "Vm.send", "Vm.send_burst",
                                "Vm.send_run"),
        "controller.learner.refreshes": _calls(trace,
                                               "MappingLearner.refresh"),
        "workloads.fleet.invert_n.values": trace["items"]["invert_n.values"],
        "fleet.hotsim.ms_per_run": _ratio(
            trace["total_s"]["simulate_hot_epoch"] * 1e3,
            _calls(trace, "simulate_hot_epoch")),
        "fleet.shard.epochs": _calls(trace, "run_shard_epoch"),
        "fleet.flyweight.allocs": _calls(trace, "FleetFlowStore.alloc_block"),
        "fleet.flyweight.folds": _calls(trace, "FleetFlowStore.fold"),
        "fleet.coordinator.grant_ratio": _ratio(
            trace["items"]["settle.grants"],
            trace["items"]["settle.requests"]),
        "trace.wall_s": trace["wall_s"],
        "trace.overhead_ratio": _ratio(trace["wall_s"], warm_wall_s),
        "trace.attributed_share": trace["attributed_share"],
        "unattributed_s": trace["unattributed_s"],
    })
    return values
