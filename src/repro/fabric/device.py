"""Fabric device base classes."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import Packet
from repro.fabric.link import Port
from repro.sim.engine import Engine


class Device:
    """Anything with ports: switches and servers derive from this."""

    def __init__(self, engine: Engine, name: str, num_ports: int) -> None:
        self.engine = engine
        self.name = name
        self.ports: List[Port] = [Port(self, i) for i in range(num_ports)]

    def free_port(self) -> Port:
        """The first unconnected port, growing the port list if needed."""
        for port in self.ports:
            if not port.connected:
                return port
        port = Port(self, len(self.ports))
        self.ports.append(port)
        return port

    def receive(self, packet: Packet, in_port: Port) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ServerNode(Device):
    """A physical server: one fabric-facing NIC port, an underlay address,
    and a pluggable packet sink (the SmartNIC vSwitch registers here).
    """

    def __init__(self, engine: Engine, name: str,
                 underlay_ip: IPv4Address, mac: MacAddress) -> None:
        super().__init__(engine, name, num_ports=1)
        self.underlay_ip = IPv4Address(underlay_ip)
        self.mac = MacAddress(mac)
        self._sink: Optional[Callable[[Packet], None]] = None
        self._run_sink: Optional[Callable[[Packet, int], None]] = None
        self.rx_packets = 0
        self.tx_packets = 0
        self.uplink: Port = self.ports[0]

    def attach_sink(self, sink: Callable[[Packet], None]) -> None:
        """Register the function that consumes packets arriving from the
        fabric (the SmartNIC's ingress)."""
        self._sink = sink

    def attach_run_sink(self, sink: Callable[[Packet, int], None]) -> None:
        """Register the fluid-run ingress (template packet + count);
        without one, arriving runs materialize through the plain sink."""
        self._run_sink = sink

    def receive(self, packet: Packet, in_port: Port) -> None:
        self.rx_packets += 1
        if self._sink is not None:
            self._sink(packet)

    def receive_run(self, packet: Packet, count: int, in_port: Port) -> None:
        self.rx_packets += count
        if self._run_sink is not None:
            self._run_sink(packet, count)
        elif self._sink is not None:
            for _ in range(count):
                self._sink(packet.copy())

    def send_to_fabric(self, packet: Packet) -> bool:
        """Emit a packet onto the underlay; False when disconnected."""
        self.tx_packets += 1
        port = self.uplink
        if port.link is None:
            return False
        port.link.transmit(port, packet)
        return True

    def send_to_fabric_burst(self, packets: List[Packet]) -> bool:
        """Emit a burst onto the underlay as one back-to-back train."""
        self.tx_packets += len(packets)
        port = self.uplink
        if port.link is None:
            return False
        port.link.transmit_burst(port, packets)
        return True

    def send_to_fabric_run(self, packet: Packet, count: int) -> bool:
        """Emit a fluid run onto the underlay as one descriptor."""
        self.tx_packets += count
        port = self.uplink
        if port.link is None:
            return False
        port.link.transmit_run(port, packet, count)
        return True
