"""Full-duplex point-to-point links with latency and serialization delay."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import TopologyError
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.device import Device
    from repro.net.packet import Packet


class Port:
    """One end of a link, attached to a device."""

    __slots__ = ("device", "index", "link", "peer", "busy_until")

    def __init__(self, device: "Device", index: int) -> None:
        self.device = device
        self.index = index
        self.link: Optional[Link] = None
        self.peer: Optional[Port] = None
        # When this end's transmit direction finishes serializing what
        # has been booked on it so far.
        self.busy_until = 0.0

    @property
    def connected(self) -> bool:
        return self.link is not None

    def __repr__(self) -> str:
        return f"Port({self.device.name}[{self.index}])"


class Link:
    """A full-duplex link: per-direction serialization plus propagation.

    Delivery time for a packet entering at ``t`` is::

        start = max(t + delay, from_port.busy_until)
        arrive = start + wire_length*8/bps + latency

    ``delay`` is the sender's own fixed latency before the packet
    reaches the wire (a switch's forwarding delay; 0 for a server NIC),
    booked at arrival instead of through a timed relay of its own.

    ``up`` (True) lets experiments take a link down to exercise the
    BE↔FE mutual-ping path (Appendix C.1): transmissions on a downed link
    are silently dropped, exactly like a dark fiber.
    """

    def __init__(self, engine: Engine, a: Port, b: Port,
                 latency: float = 5e-6, gbps: float = 100.0) -> None:
        if a.connected or b.connected:
            raise TopologyError("port already connected")
        if latency < 0 or gbps <= 0:
            raise TopologyError("bad link parameters")
        self.engine = engine
        self.a = a
        self.b = b
        self.latency = latency
        self.bits_per_second = gbps * 1e9
        self.up = True
        self.packets_carried = 0
        self.bytes_carried = 0
        self.drops_down = 0
        self._created_at = engine.now
        a.link = b.link = self
        a.peer, b.peer = b, a
        from repro import telemetry
        tel = telemetry.current()
        if tel is not None:
            tel.register_link(self)

    @property
    def name(self) -> str:
        return f"{self.a.device.name}--{self.b.device.name}"

    def queue_depth(self) -> float:
        """Worst-direction backlog (seconds of queued serialization)."""
        return max(0.0, max(self.a.busy_until, self.b.busy_until)
                   - self.engine.now)

    def utilization(self) -> float:
        """Lifetime carried bits over the link's one-direction capacity."""
        elapsed = self.engine.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return (self.bytes_carried * 8) / (self.bits_per_second * elapsed)

    def transmit(self, from_port: Port, packet: "Packet",
                 delay: float = 0.0) -> None:
        if not self.up:
            self.drops_down += 1
            return
        engine = self.engine
        start = engine.now + delay
        if from_port.busy_until > start:
            start = from_port.busy_until
        wire = packet.wire_length
        tx_time = wire * 8 / self.bits_per_second
        from_port.busy_until = start + tx_time
        self.packets_carried += 1
        self.bytes_carried += wire
        to_port = from_port.peer
        engine.call_at(start + tx_time + self.latency,
                       to_port.device.receive, packet, to_port)

    def transmit_burst(self, from_port: Port,
                       packets: Sequence["Packet"]) -> None:
        """Transmit ``packets`` back-to-back out of ``from_port``.

        Serialization stays exact — every packet's arrival time is what
        N consecutive :meth:`transmit` calls would compute — but delivery
        coalesces into one engine heap entry carrying the whole burst
        (:meth:`Engine.call_at_batch`). A downed link drops the entire
        burst: ``drops_down`` counts each packet, ``bytes_carried`` and
        ``packets_carried`` stay untouched.
        """
        if not packets:
            return
        if not self.up:
            self.drops_down += len(packets)
            return
        engine = self.engine
        start = max(engine.now, from_port.busy_until)
        to_port = from_port.peer
        receive = to_port.device.receive
        bps = self.bits_per_second
        latency = self.latency
        items = []
        nbytes = 0
        for packet in packets:
            wire = packet.wire_length
            start += wire * 8 / bps
            nbytes += wire
            items.append((start + latency, receive, (packet, to_port)))
        from_port.busy_until = start
        self.packets_carried += len(packets)
        self.bytes_carried += nbytes
        engine.call_at_batch(items)

    def transmit_run(self, from_port: Port, packet: "Packet",
                     count: int, delay: float = 0.0) -> None:
        """Fluid transmit: ``count`` identical packets back-to-back.

        The direction's busy time and the byte/packet counters are
        exactly what ``count`` :meth:`transmit` calls would produce;
        delivery coalesces into ONE engine event at the *last* packet's
        arrival, carrying the run descriptor onward. Mid-run arrival
        timestamps are the deliberate fluid-mode approximation
        (aggregates exact, per-packet timing collapsed).
        """
        if not self.up:
            self.drops_down += count
            return
        engine = self.engine
        start = max(engine.now + delay, from_port.busy_until)
        tx_time = packet.wire_length * 8 / self.bits_per_second
        end = start + count * tx_time
        from_port.busy_until = end
        self.packets_carried += count
        self.bytes_carried += count * packet.wire_length
        to_port = from_port.peer
        engine.call_at(end + self.latency,
                       to_port.device.receive_run, packet, count, to_port)

    def set_up(self, up: bool) -> None:
        self.up = up
