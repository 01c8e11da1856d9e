"""A single elephant flow: one 5-tuple at high packet rate (§7.5)."""

from __future__ import annotations

from functools import cached_property

from repro.host.vm import Vm
from repro.net.addr import IPv4Address
from repro.net.five_tuple import FiveTuple, PROTO_TCP
from repro.net.packet import Packet
from repro.net.tcp import TcpFlags
from repro.sim.engine import Engine
from repro.vswitch.vnic import Vnic


class ElephantFlow:
    """Pumps data packets of one flow at ``rate_pps``.

    ``burst > 1`` emits the data packets ``burst`` at a time through the
    vectorized datapath (one kernel transaction, one vSwitch lookup per
    burst) while keeping the average rate: each burst is followed by
    ``burst`` inter-packet gaps. The opening SYN always travels alone —
    it has to take the slow path and create the session.

    ``fluid=True`` sends each burst as one run descriptor — a template
    packet plus a count, advanced analytically, copies materialized only
    at event boundaries. Every aggregate (counts, bytes, CPU cycles, link
    busy time) equals the burst form's; mid-burst timestamps collapse,
    which is why a caller has to ask for it. Every run carries the one
    template the flow builds, so nothing downstream may mutate it in
    place (a span and a moved FSM copy first).
    """

    def __init__(self, engine: Engine, vm: Vm, vnic: Vnic,
                 dst_ip: IPv4Address, rate_pps: float,
                 payload_bytes: int = 1400, sport: int = 5001,
                 dport: int = 5201, burst: int = 1,
                 fluid: bool = False) -> None:
        self.engine = engine
        self.vm = vm
        self.vnic = vnic
        self.dst_ip = IPv4Address(dst_ip)
        self.rate_pps = rate_pps
        self.payload = b"e" * payload_bytes
        self.sport = sport
        self.dport = dport
        self.burst = max(1, int(burst))
        self.fluid = fluid
        self.sent = 0
        self._stop_at = None

    @property
    def five_tuple(self) -> FiveTuple:
        return FiveTuple(self.vnic.tenant_ip, self.dst_ip, PROTO_TCP,
                         self.sport, self.dport)

    def run(self, duration: float) -> "ElephantFlow":
        self._stop_at = self.engine.now + duration
        self.engine.process(self._loop(), name="elephant")
        return self

    def _data_packet(self) -> Packet:
        return Packet.tcp(self.vnic.tenant_ip, self.dst_ip, self.sport,
                          self.dport, TcpFlags.of("psh", "ack"),
                          self.payload)

    @cached_property
    def _template(self) -> Packet:
        return self._data_packet()

    def _loop(self):
        gap = 1.0 / self.rate_pps
        if self.engine.now < self._stop_at:
            syn = Packet.tcp(self.vnic.tenant_ip, self.dst_ip, self.sport,
                             self.dport, TcpFlags.of("syn"))
            self.vm.send(self.vnic, syn, new_connection=True)
            self.sent += 1
            yield self.engine.timeout(gap)
        while self.engine.now < self._stop_at:
            if self.burst == 1:
                self.vm.send(self.vnic, self._data_packet())
                self.sent += 1
                yield self.engine.timeout(gap)
            elif self.fluid:
                self.vm.send_run(self.vnic, self._template, self.burst)
                self.sent += self.burst
                yield self.engine.timeout(gap * self.burst)
            else:
                pkts = [self._data_packet() for _ in range(self.burst)]
                self.vm.send_burst(self.vnic, pkts)
                self.sent += self.burst
                yield self.engine.timeout(gap * self.burst)
