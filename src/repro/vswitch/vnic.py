"""The vNIC: a tenant's virtual NIC, hosted by exactly one vSwitch.

Each vNIC owns a rule-table chain (its slow path) whose memory is charged
to the hosting SmartNIC until Nezha offloads it. ``deliver`` hands RX
packets to whatever guest endpoint is attached (a VM TCP stack, a
middlebox loop, or a test callback).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import Packet
from repro.telemetry import spans as _spans
from repro.vswitch.slow_path import SlowPath

if TYPE_CHECKING:  # pragma: no cover
    from repro.vswitch.vswitch import VSwitch


class Vnic:
    """A tenant vNIC descriptor plus its attached guest."""

    def __init__(
        self,
        vnic_id: int,
        vni: int,
        tenant_ip: IPv4Address,
        mac: MacAddress,
        slow_path: SlowPath,
        table_memory_extra: int = 0,
        parent: Optional["Vnic"] = None,
    ) -> None:
        self.vnic_id = vnic_id
        self.vni = vni
        self.tenant_ip = IPv4Address(tenant_ip)
        self.mac = MacAddress(mac)
        self.slow_path = slow_path
        # Child vNICs (§7.4): share the parent's I/O adapter (one BDF
        # number for the whole family); traffic is distinguished by tag.
        self.parent = parent
        self.children: list = []
        if parent is not None:
            parent.children.append(self)
        # Models rule tables whose bulk is not individually populated in the
        # simulation (e.g. a middlebox's O(100MB) config): raw extra bytes.
        self.table_memory_extra = int(table_memory_extra)
        # Stateful decapsulation (§5.2): record the overlay source on RX and
        # return TX responses to it — enabled for LB real-server vNICs.
        self.stateful_decap = False
        # vNIC-level egress rate limit (bps). Enforced at the single point
        # all the vNIC's traffic traverses: the local vSwitch, or under
        # Nezha the BE — no distributed rate limiting needed (§2.3.3).
        self.rate_limit_bps = None
        self.host: Optional["VSwitch"] = None
        self._guest_rx: Optional[Callable[[Packet], None]] = None
        self._guest_rx_run: Optional[Callable[[Packet, int], None]] = None
        self.offloaded = False          # Nezha: rule tables live on FEs
        self.rx_delivered = 0
        self.tx_sent = 0

    # -- guest attachment -----------------------------------------------------

    def attach_guest(self, on_rx: Callable[[Packet], None],
                     on_rx_run: Optional[Callable[[Packet, int],
                                                  None]] = None) -> None:
        """``on_rx_run`` lets a guest accept fluid runs (template packet
        + count) without materialization — a VM kernel and the fleet
        micro-sim's count-only sink register one; bare callbacks
        (middleboxes, tests) leave it None and runs become copies."""
        self._guest_rx = on_rx
        self._guest_rx_run = on_rx_run

    def deliver(self, packet: Packet) -> None:
        """Hand an RX packet to the guest behind this vNIC.

        A child vNIC tags the packet and delivers through its parent's
        I/O adapter (§7.4) unless an app registered on the child directly.
        """
        self.rx_delivered += 1
        if _spans.ACTIVE and self.host is not None:
            _spans.hop(packet, "deliver", self.host.engine.now)
        if self.parent is not None and self._guest_rx is None:
            packet.meta["child_vnic"] = self.vnic_id
            self.parent.deliver(packet)
            return
        if self._guest_rx is not None:
            self._guest_rx(packet)

    def deliver_burst(self, packets) -> None:
        """Burst delivery: per-packet semantics of :meth:`deliver`, kept
        as the one loop the aggregated RX completion drives. With a
        guest attached directly, the per-packet branchwork collapses to
        one counter add and the callback loop."""
        rx = self._guest_rx
        if rx is None:
            for packet in packets:
                self.deliver(packet)
            return
        self.rx_delivered += len(packets)
        if _spans.ACTIVE and self.host is not None:
            now = self.host.engine.now
            for packet in packets:
                _spans.hop(packet, "deliver", now)
        for packet in packets:
            rx(packet)

    def deliver_run(self, packet: Packet, count: int) -> None:
        """Fluid delivery: one call, no copies, when the guest is
        run-aware; ``count`` materialized copies otherwise (a template
        carrying a span, a bare callback, a child vNIC delivering
        through its parent)."""
        if (self._guest_rx_run is None or self._guest_rx is None
                or _spans.META_KEY in packet.meta):
            for _ in range(count):
                self.deliver(packet.copy())
            return
        self.rx_delivered += count
        self._guest_rx_run(packet, count)

    # -- sizing ------------------------------------------------------------------

    def table_memory_bytes(self) -> int:
        """Rule-table bytes this vNIC pins on whichever node hosts them."""
        return self.slow_path.memory_bytes() + self.table_memory_extra

    def __repr__(self) -> str:
        return (f"Vnic(id={self.vnic_id}, vni={self.vni}, "
                f"ip={self.tenant_ip}, offloaded={self.offloaded})")
