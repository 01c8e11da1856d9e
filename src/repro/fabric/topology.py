"""Topology builder: leaf-spine fabrics with computed ECMP routes.

``Topology.leaf_spine`` builds the testbed-shaped fabric: ``n_tors`` ToR
switches each with ``servers_per_tor`` servers, fully meshed to ``n_spines``
spine switches. Underlay addressing is ``10.<tor>.<0>.<host+1>`` for
servers, and routes to every server /32 are computed by BFS with all
equal-cost next hops installed (ECMP).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.fabric.device import Device, ServerNode
from repro.fabric.link import Link
from repro.fabric.switch import UnderlaySwitch
from repro.net.addr import IPv4Address, MacAddress
from repro.sim.engine import Engine


def connect(engine: Engine, a: Device, b: Device,
            latency: float = 5e-6, gbps: float = 100.0) -> Link:
    """Join two devices with a fresh link on their first free ports."""
    return Link(engine, a.free_port(), b.free_port(), latency=latency, gbps=gbps)


class Topology:
    """A built fabric: servers, switches, links, address maps, and routes."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.servers: List[ServerNode] = []
        self.tors: List[UnderlaySwitch] = []
        self.spines: List[UnderlaySwitch] = []
        self.links: List[Link] = []
        self.server_by_ip: Dict[int, ServerNode] = {}
        self._tor_of: Dict[str, UnderlaySwitch] = {}

    # -- builders ---------------------------------------------------------------

    @classmethod
    def leaf_spine(
        cls,
        engine: Engine,
        n_tors: int,
        servers_per_tor: int,
        n_spines: int = 2,
        link_latency: float = 5e-6,
        link_gbps: float = 100.0,
    ) -> "Topology":
        if n_tors < 1 or servers_per_tor < 1 or n_spines < 1:
            raise TopologyError("leaf_spine needs >=1 of each element")
        if n_tors > 250 or servers_per_tor > 250:
            raise TopologyError("addressing supports at most 250x250")
        topo = cls(engine)
        for spine_idx in range(n_spines):
            spine = UnderlaySwitch(engine, f"spine{spine_idx}",
                                   num_ports=n_tors)
            topo.spines.append(spine)
        for tor_idx in range(n_tors):
            tor = UnderlaySwitch(engine, f"tor{tor_idx}",
                                 num_ports=servers_per_tor + n_spines)
            topo.tors.append(tor)
            for host_idx in range(servers_per_tor):
                ip = IPv4Address(f"10.{tor_idx}.0.{host_idx + 1}")
                mac = MacAddress((0x02 << 40) | (tor_idx << 8) | (host_idx + 1))
                server = ServerNode(engine, f"s{tor_idx}-{host_idx}", ip, mac)
                topo.servers.append(server)
                topo.server_by_ip[ip.value] = server
                topo._tor_of[server.name] = tor
                topo.links.append(connect(engine, server, tor,
                                          latency=link_latency, gbps=link_gbps))
            for spine in topo.spines:
                topo.links.append(connect(engine, tor, spine,
                                          latency=link_latency, gbps=link_gbps))
        topo.compute_routes()
        return topo

    # -- routing -----------------------------------------------------------------

    def _adjacency(self) -> Dict[Device, List[Tuple[Device, int]]]:
        """device -> [(neighbor, egress port index on device)]"""
        adj: Dict[Device, List[Tuple[Device, int]]] = {}
        for link in self.links:
            a_port, b_port = link.a, link.b
            adj.setdefault(a_port.device, []).append((b_port.device, a_port.index))
            adj.setdefault(b_port.device, []).append((a_port.device, b_port.index))
        return adj

    def compute_routes(self) -> None:
        """Install per-server /32 ECMP routes on every switch via BFS."""
        adj = self._adjacency()
        for server in self.servers:
            # BFS distances from the destination server.
            dist: Dict[Device, int] = {server: 0}
            frontier = deque([server])
            while frontier:
                node = frontier.popleft()
                for neighbor, _port in adj.get(node, ()):
                    if neighbor not in dist:
                        dist[neighbor] = dist[node] + 1
                        frontier.append(neighbor)
            # Every switch forwards toward any neighbor one step closer.
            for device in adj:
                if not isinstance(device, UnderlaySwitch):
                    continue
                if device not in dist:
                    continue
                next_hops = [port for neighbor, port in adj[device]
                             if dist.get(neighbor, 1 << 30) == dist[device] - 1]
                if next_hops:
                    device.install_route(server.underlay_ip.value, next_hops)

    # -- queries ------------------------------------------------------------------

    def same_tor(self, a: ServerNode, b: ServerNode) -> bool:
        return self._tor_of[a.name] is self._tor_of[b.name]

    def hop_distance(self, a: ServerNode, b: ServerNode) -> int:
        """Link hops between two servers (0 for the same server)."""
        if a is b:
            return 0
        return 2 if self.same_tor(a, b) else 4

    def server_at(self, ip: IPv4Address) -> Optional[ServerNode]:
        return self.server_by_ip.get(IPv4Address(ip).value)

    def fail_server_links(self, server: ServerNode, up: bool = False) -> None:
        """Take a server's access link down (or back up)."""
        for link in self.links:
            if server in (link.a.device, link.b.device):
                link.set_up(up)
