"""Underlay switch with ECMP forwarding.

Routes are installed per destination /32 (the topology builder computes
them via BFS); equal-cost next hops are chosen by hashing the **outer**
IP pair and L4 ports, which keeps a flow on one path but spreads flows —
the behaviour the paper leans on for BE↔FE traffic.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.errors import TopologyError
from repro.fabric.device import Device
from repro.fabric.link import Port
from repro.net.ipv4 import IPv4Header
from repro.net.packet import Packet
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader
from repro.sim.engine import Engine


class UnderlaySwitch(Device):
    """A store-and-forward switch with per-/32 ECMP routes."""

    def __init__(self, engine: Engine, name: str, num_ports: int,
                 forwarding_delay: float = 1e-6) -> None:
        super().__init__(engine, name, num_ports)
        self.forwarding_delay = forwarding_delay
        # dst ip value -> list of egress port indices (equal cost)
        self.routes: Dict[int, List[int]] = {}
        self.forwarded = 0
        self.no_route_drops = 0
        self.ttl_drops = 0

    def install_route(self, dst_ip_value: int, port_indices: List[int]) -> None:
        if not port_indices:
            raise TopologyError(f"{self.name}: empty next-hop set")
        for index in port_indices:
            if not 0 <= index < len(self.ports):
                raise TopologyError(f"{self.name}: bad port {index}")
        self.routes[dst_ip_value] = list(port_indices)

    @staticmethod
    def _ecmp_hash(packet: Packet) -> int:
        """Hash the outermost IP pair + L4 ports (5-tuple of the underlay)."""
        ip = packet.expect(IPv4Header)
        sport = dport = 0
        for layer in packet.layers:
            if isinstance(layer, (TcpHeader, UdpHeader)):
                sport, dport = layer.src_port, layer.dst_port
                break
        blob = (ip.src.to_bytes() + ip.dst.to_bytes()
                + bytes([ip.proto])
                + sport.to_bytes(2, "big") + dport.to_bytes(2, "big"))
        return int.from_bytes(hashlib.blake2b(blob, digest_size=4).digest(), "big")

    def receive(self, packet: Packet, in_port: Port) -> None:
        ip = packet.find(IPv4Header)
        if ip is None:
            self.no_route_drops += 1
            return
        next_hops = self.routes.get(ip.dst.value)
        if not next_hops:
            self.no_route_drops += 1
            return
        if not ip.decrement_ttl():
            self.ttl_drops += 1
            return
        if len(next_hops) == 1:
            egress = next_hops[0]
        else:
            egress = next_hops[self._ecmp_hash(packet) % len(next_hops)]
        self.forwarded += 1
        # Book the egress link now for ``now + forwarding_delay``: this
        # switch is the only sender on its egress directions and the
        # delay is one constant, so booking order = arrival order = the
        # order a timed relay per packet would send in.
        port = self.ports[egress]
        if port.link is not None:
            port.link.transmit(port, packet, self.forwarding_delay)

    def receive_run(self, packet: Packet, count: int, in_port: Port) -> None:
        """Fluid arrival: route once for the whole run (identical
        packets hash identically). The shared template's TTL is
        decremented once per switch hop — exactly what each materialized
        packet's own header would experience."""
        ip = packet.find(IPv4Header)
        if ip is None:
            self.no_route_drops += count
            return
        next_hops = self.routes.get(ip.dst.value)
        if not next_hops:
            self.no_route_drops += count
            return
        if not ip.decrement_ttl():
            self.ttl_drops += count
            return
        if len(next_hops) == 1:
            egress = next_hops[0]
        else:
            egress = next_hops[self._ecmp_hash(packet) % len(next_hops)]
        self.forwarded += count
        port = self.ports[egress]
        if port.link is not None:
            port.link.transmit_run(port, packet, count,
                                   self.forwarding_delay)
