"""Tenant VM model: the kernel stack that becomes Nezha's new bottleneck.

The paper observes that once Nezha removes the vSwitch bottleneck, CPS is
limited by "processing bottlenecks in the VM kernel (such as kernel locks
and the limits on manageable connections)" (§6.2.2, Fig 10). We model each
new connection as

* a **serial** slice on a single kernel-lock resource (accept queue,
  ehash/bind locks), and
* a **parallel** slice schedulable on any vCPU;

so connection throughput is ``min(1/serial, n_vcpu/(serial+parallel))`` —
near-linear scaling at small vCPU counts, a hard plateau once the lock
saturates. Per-packet costs ride on the vCPU pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.resources import CpuResource
from repro.telemetry import spans as _spans
from repro.vswitch.vnic import Vnic


@dataclass
class VmCostModel:
    """Per-vCPU frequency and kernel-path cycle costs."""

    hz: float = 2.5e9
    conn_serial_cycles: float = 8300.0     # under the global kernel lock
    conn_parallel_cycles: float = 300000.0  # socket setup, app wakeups, TLS...
    pkt_cycles: float = 3000.0              # per-packet kernel processing
    max_backlog: float = 0.02               # accept-queue bound (seconds)

    @classmethod
    def testbed(cls, scale: float = 50.0) -> "VmCostModel":
        """Match the vSwitch testbed scaling so ratios are preserved."""
        model = cls()
        model.hz = model.hz / scale
        return model

    def serial_cap(self) -> float:
        """Theoretical lock-bound CPS ceiling."""
        return self.hz / self.conn_serial_cycles

    def parallel_cap(self, vcpus: int) -> float:
        """Theoretical core-bound CPS ceiling."""
        return vcpus * self.hz / (self.conn_serial_cycles
                                  + self.conn_parallel_cycles)


# PCI BDF space available to vNICs (§7.4): without SR-IOV/SIOV a VM has
# 256 bus numbers, most consumed by storage/compute/crypto functions,
# leaving "only a few dozen" for vNICs. SR-IOV/SIOV adds 256 more.
BDF_FOR_VNICS_DEFAULT = 48
BDF_FOR_VNICS_SRIOV = 48 + 256


class Vm:
    """A tenant VM: vCPUs, a kernel lock, attached vNICs, and apps."""

    def __init__(self, engine: Engine, name: str, vcpus: int,
                 cost_model: Optional[VmCostModel] = None,
                 sriov: bool = False) -> None:
        if vcpus < 1:
            raise ConfigError("a VM needs at least one vCPU")
        self.bdf_budget = (BDF_FOR_VNICS_SRIOV if sriov
                           else BDF_FOR_VNICS_DEFAULT)
        self.engine = engine
        self.name = name
        self.vcpus = vcpus
        self.cost_model = cost_model or VmCostModel.testbed()
        self.cpu = CpuResource(engine, vcpus, self.cost_model.hz,
                               name=f"{name}.cpu", util_window=0.1)
        self.kernel_lock = CpuResource(engine, 1, self.cost_model.hz,
                                       name=f"{name}.lock", util_window=0.1)
        self.vnics: List[Vnic] = []
        # (vnic_id, local_port) -> app callback(packet)
        self._listeners: Dict[tuple, Callable[[Packet], None]] = {}
        self.kernel_drops = 0
        self.conns_opened = 0

    # -- vNIC plumbing -----------------------------------------------------------

    def bdf_used(self) -> int:
        """BDF numbers consumed: one per parent vNIC; child vNICs share
        the parent's I/O adapter (§7.4)."""
        return sum(1 for vnic in self.vnics if vnic.parent is None)

    def attach_vnic(self, vnic: Vnic) -> None:
        if vnic.parent is None and self.bdf_used() >= self.bdf_budget:
            raise ConfigError(
                f"{self.name}: out of BDF numbers ({self.bdf_budget}); "
                "enable SR-IOV/SIOV or use child vNICs (§7.4)")
        self.vnics.append(vnic)
        vnic.attach_guest(lambda pkt, v=vnic: self._rx(v, pkt),
                          lambda pkt, n, v=vnic: self._rx_run(v, pkt, n))

    def listen(self, vnic: Vnic, port: int,
               handler: Callable[[Packet], None]) -> None:
        """Register an app handler for packets to (vnic, local port)."""
        self._listeners[(vnic.vnic_id, port)] = handler

    def unlisten(self, vnic: Vnic, port: int) -> None:
        self._listeners.pop((vnic.vnic_id, port), None)

    def _rx_complete(self, vnic: Vnic, packet: Packet) -> None:
        # Terminal span hop, recorded at the same instant a listener's
        # own latency math runs — span totals match experiment numbers
        # exactly, not just within rounding.
        if _spans.ACTIVE:
            _spans.finish(packet, "vm_rx", self.engine.now)
        l4 = packet.inner_l4()
        dst_port = getattr(l4, "dst_port", 0)
        handler = self._listeners.get((vnic.vnic_id, dst_port))
        if handler is not None:
            handler(packet)

    def _rx(self, vnic: Vnic, packet: Packet) -> None:
        """Kernel receive: charge per-packet cost, then demux to the app."""
        if not self.cpu.try_submit_call(self.cost_model.pkt_cycles,
                                        self.cost_model.max_backlog,
                                        self._rx_complete, vnic, packet):
            self.kernel_drops += 1

    def _rx_run(self, vnic: Vnic, packet: Packet, count: int) -> None:
        """Fluid kernel receive: one job covers the whole run; listener
        delivery (absent for elephant sinks) materializes copies."""
        cm = self.cost_model

        def complete():
            l4 = packet.inner_l4()
            dst_port = getattr(l4, "dst_port", 0)
            handler = self._listeners.get((vnic.vnic_id, dst_port))
            if handler is not None:
                for _ in range(count):
                    handler(packet.copy())

        if not self.cpu.try_submit_call(cm.pkt_cycles * count,
                                        cm.max_backlog, complete):
            self.kernel_drops += count

    # -- transmission -----------------------------------------------------------------

    def _tx_complete(self, vnic: Vnic, packet: Packet,
                     on_sent: Optional[Callable[[], None]]) -> None:
        vnic.host.send_from_vnic(vnic, packet)
        if on_sent is not None:
            on_sent()

    def _dispatch_conn(self, serial_cycles: float, parallel_cycles: float,
                       fn, *args) -> bool:
        """Book the lock + vCPU slices of a connection burst and run
        ``fn`` when both are done; False = drop-tail.

        A connection waits for the lock slice, then for the vCPU slice
        (a process doing ``yield lock_job; yield par_job``): when the
        vCPU slice ends last its completion runs ``fn`` one micro-queue
        hop later (a settled entry, one event); when the lock slice ends
        last the wait on the already-finished vCPU slice costs one more
        hop — a genuine ``call_soon``, two hops in all.
        The lock slice is booked before the vCPU admission check, so a
        backlogged vCPU still consumes lock time.
        """
        cm = self.cost_model
        engine = self.engine
        end_lock = self.kernel_lock.try_book(serial_cycles, cm.max_backlog)
        if end_lock is None:
            return False
        end_par = self.cpu.try_book(parallel_cycles, cm.max_backlog)
        if end_par is None:
            return False
        if end_par > end_lock:
            engine.call_settled(end_par, fn, *args)
        else:
            engine.call_settled(end_lock, engine.call_soon, fn, *args)
        return True

    def send(self, vnic: Vnic, packet: Packet,
             new_connection: bool = False,
             on_sent: Optional[Callable[[], None]] = None) -> None:
        """Charge the kernel cost, then hand the packet to the vSwitch.

        ``new_connection=True`` adds the connection-establishment cost,
        including the serial kernel-lock slice.
        """
        if vnic.host is None:
            raise ConfigError(f"{vnic!r} is not hosted by any vSwitch")
        cm = self.cost_model
        if new_connection:
            self.conns_opened += 1
            if not self._dispatch_conn(cm.conn_serial_cycles,
                                       cm.conn_parallel_cycles,
                                       self._tx_complete,
                                       vnic, packet, on_sent):
                self.kernel_drops += 1
        elif not self.cpu.try_submit_call(cm.pkt_cycles, cm.max_backlog,
                                          self._tx_complete,
                                          vnic, packet, on_sent):
            self.kernel_drops += 1

    def send_burst(self, vnic: Vnic, packets: List[Packet],
                   new_connection: bool = False,
                   on_sent: Optional[Callable[[], None]] = None) -> None:
        """Burst transmit: the kernel cost for the whole burst is charged
        as one transaction (n× the per-packet — or per-connection —
        cycles of :meth:`send`), then every packet is handed to the
        vSwitch datapath together. Drop-tail rejects the whole burst.
        """
        if vnic.host is None:
            raise ConfigError(f"{vnic!r} is not hosted by any vSwitch")
        packets = list(packets)
        if not packets:
            return
        n = len(packets)
        cm = self.cost_model
        if new_connection:
            self.conns_opened += n
            if not self._dispatch_conn(cm.conn_serial_cycles * n,
                                       cm.conn_parallel_cycles * n,
                                       self._tx_burst_complete,
                                       vnic, packets, on_sent):
                self.kernel_drops += n
        elif not self.cpu.try_submit_call(cm.pkt_cycles * n, cm.max_backlog,
                                          self._tx_burst_complete,
                                          vnic, packets, on_sent):
            self.kernel_drops += n

    def _tx_burst_complete(self, vnic: Vnic, packets: List[Packet],
                           on_sent: Optional[Callable[[], None]]) -> None:
        vnic.host.send_from_vnic_burst(vnic, packets)
        if on_sent is not None:
            on_sent()

    def send_run(self, vnic: Vnic, packet: Packet, count: int,
                 on_sent: Optional[Callable[[], None]] = None) -> None:
        """Fluid transmit: ``count`` identical data packets charged as one
        kernel transaction and handed to the vSwitch as a run descriptor
        — no per-packet objects anywhere on the hot path."""
        if vnic.host is None:
            raise ConfigError(f"{vnic!r} is not hosted by any vSwitch")
        cm = self.cost_model

        def complete():
            vnic.host.send_from_vnic_run(vnic, packet, count)
            if on_sent is not None:
                on_sent()

        if not self.cpu.try_submit_call(cm.pkt_cycles * count,
                                        cm.max_backlog, complete):
            self.kernel_drops += count

    # -- telemetry ------------------------------------------------------------------------

    def cpu_utilization(self) -> float:
        return self.cpu.utilization()

    def __repr__(self) -> str:
        return f"Vm({self.name}, vcpus={self.vcpus})"
