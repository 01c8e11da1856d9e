#!/usr/bin/env python3
"""Rate limiting at one point (§2.3.3): why Nezha polices a VM at its BE.

One sender vNIC carries a VM-level egress limit L and is offloaded with
Nezha to N FEs; sixteen UDP flows offer 16·L to a receiver. Two ways to
enforce the limit after the offload:

* **at the BE (Nezha)** — the limit is the vNIC's ``rate_limit_bps``.
  Every packet of the vNIC crosses its BE, so one token bucket sees all of
  them and the aggregate stays at L whatever N is;
* **cloned per FE (the straw man)** — the same L as a catch-all QoS rule
  in the vNIC's rule tables, which every FE holds a copy of. Each FE sees
  only the flows hashed to it and polices them with its own bucket, so the
  vNIC sends about N·L: a VM-level limit spread over N cards needs
  distributed rate limiting, which Nezha avoids by construction.

Run:  python examples/rate_limit_one_point.py
"""

from repro.controller.gateway import Gateway, MappingLearner
from repro.controller.latency import ControlLatencyModel
from repro.core.offload import NezhaOrchestrator, OffloadConfig
from repro.fabric import Topology
from repro.net import IPv4Address, MacAddress, Packet
from repro.sim import Engine, SeededRng
from repro.vswitch import CostModel, Vnic, VSwitch
from repro.vswitch.rule_tables import Location, QosRule
from repro.vswitch.vswitch import make_standard_chain

VNI = 300
SENDER_IP = IPv4Address("192.168.3.1")
RECEIVER_IP = IPv4Address("192.168.3.2")
LIMIT_BPS = 400_000.0       # L, the VM-level egress limit
BURST_BYTES = 1500          # every bucket's depth: one packet
WINDOW_S = 0.5              # T, how long the flows send
N_FLOWS = 16                # each offered at L, so any FE holding one saturates
PACKET_BYTES = 1500         # IPv4 + UDP + 1472 B of payload
FE_COUNTS = (1, 2, 4)


def sender_chain(cost_model: CostModel, at_be: bool):
    """The sender vNIC's rule tables: the straw man adds the limit as a
    catch-all QoS rule, which every FE's copy of the tables polices."""
    chain = make_standard_chain(cost_model)
    if not at_be:
        chain.table("qos").add_rule(
            QosRule(priority=1, qos_class=1, rate_limit_bps=LIMIT_BPS))
    return chain


def measure(n_fes: int, at_be: bool) -> float:
    """Aggregate egress (bps) of the sender vNIC offloaded to ``n_fes``
    FEs, with L enforced at the BE or cloned onto every FE."""
    engine = Engine()
    rng = SeededRng(11, "rate-limit")
    cost_model = CostModel.testbed()
    topo = Topology.leaf_spine(engine, n_tors=1,
                               servers_per_tor=2 + max(FE_COUNTS))
    vswitches = [VSwitch(engine, server, cost_model)
                 for server in topo.servers]
    for vswitch in vswitches:
        vswitch.qos.burst_bytes = BURST_BYTES
    gateway = Gateway(engine)
    sender = Vnic(1, VNI, SENDER_IP, MacAddress(0xC1),
                  sender_chain(cost_model, at_be))
    receiver = Vnic(2, VNI, RECEIVER_IP, MacAddress(0xC2),
                    make_standard_chain(cost_model))
    if at_be:
        sender.rate_limit_bps = LIMIT_BPS
    for index, vnic in enumerate((sender, receiver)):
        vswitches[index].add_vnic(vnic)
        server = topo.servers[index]
        gateway.set_locations(VNI, vnic.tenant_ip,
                              [Location(server.underlay_ip, server.mac)])
    for index, vswitch in enumerate(vswitches):
        learner = MappingLearner(engine, vswitch, gateway, interval=0.05,
                                 rng=rng.child(f"l{index}"))
        learner.refresh()
        learner.start()
    received = []
    receiver.attach_guest(lambda packet: received.append(packet.wire_length))

    orchestrator = NezhaOrchestrator(
        engine, gateway, rng=rng.child("orch"),
        config=OffloadConfig(learning_interval=0.05, inflight_margin=0.01,
                             latency=ControlLatencyModel.fast()))
    orchestrator.offload(sender, vswitches[2:2 + n_fes])
    engine.run(until=1.0)

    # Sixteen flows, each paced at L, staggered across one interval.
    start = engine.now
    interval = PACKET_BYTES * 8 / LIMIT_BPS
    payload = b"x" * (PACKET_BYTES - 28)
    for flow in range(N_FLOWS):
        at = start + flow * interval / N_FLOWS
        while at < start + WINDOW_S:
            engine.call_at(at, vswitches[0].send_from_vnic, sender,
                           Packet.udp(SENDER_IP, RECEIVER_IP, 5000 + flow,
                                      9000, payload))
            at += interval
    engine.run(until=start + WINDOW_S + 0.1)
    return sum(received) * 8 / WINDOW_S


def main() -> None:
    cost_model = CostModel.testbed()
    print(f"§2.3.3 — one VM-level limit L = {LIMIT_BPS / 1e3:.0f} kb/s, "
          f"{N_FLOWS} UDP flows offering {N_FLOWS}·L for {WINDOW_S} s")
    print(f"  QoS rules in each FE's copy of the tables: at the BE "
          f"{sender_chain(cost_model, True).table('qos').rule_count()}, "
          f"cloned {sender_chain(cost_model, False).table('qos').rule_count()}")
    print("  FEs   at the BE (Nezha)   cloned per FE")
    for n_fes in FE_COUNTS:
        at_be = measure(n_fes, at_be=True) / LIMIT_BPS
        cloned = measure(n_fes, at_be=False) / LIMIT_BPS
        print(f"  {n_fes:>3}   {at_be:>14.2f}·L   {cloned:>12.2f}·L")
    print("\nThe BE sees every packet of the vNIC, so its one bucket holds "
          "the VM to L;\nN cloned buckets each see 1/N of the flows and "
          "let N·L through.")


if __name__ == "__main__":
    main()
