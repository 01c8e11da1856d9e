"""The SmartNIC vSwitch: dispatch, local datapath, telemetry.

A :class:`VSwitch` attaches to a :class:`~repro.fabric.device.ServerNode`
and processes packets under explicit CPU and memory budgets. Per-vNIC
*datapaths* are pluggable: the default :class:`LocalDatapath` implements
the traditional architecture (Fig 1); the Nezha package swaps in BE and FE
datapaths without touching this module — mirroring the paper's "<5 % of
vSwitch code modified" claim.

Entry points:

* :meth:`VSwitch.send_from_vnic` — a guest transmitted a packet (TX);
* the fabric sink (wired in ``__init__``) — underlay arrivals: VXLAN
  overlay traffic (RX), Nezha NSH traffic (handed to a registered
  handler), and health probes (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, PacketError, TableFull
from repro.fabric.device import ServerNode
from repro.net.addr import IPv4Address, MacAddress
from repro.net.ethernet import EthernetHeader
from repro.net.five_tuple import PROTO_TCP, FiveTuple
from repro.net.ipv4 import IPv4Header
from repro.net.nsh import NshHeader
from repro.net.packet import (EncapTemplate, NSH_PORT, Packet,
                              make_underlay_transport)
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader
from repro.net.vxlan import VXLAN_PORT, VxlanHeader
from repro.sim.engine import Engine
from repro.sim.resources import CpuResource, MemoryBudget
from repro import telemetry as _telemetry
from repro.telemetry import spans as _spans
from repro.vswitch.actions import (ActionKind, Direction, FinalAction,
                                   PreActions, Verdict, process_pkt,
                                   resolve_verdict)
from repro.vswitch.costs import CostModel
from repro.vswitch.rule_tables import (AclTable, LookupContext, MappingTable,
                                       QosTable, RouteTable, StageTable)
from repro.vswitch.session_table import EntryMode, SessionTable
from repro.vswitch.slow_path import SlowPath
from repro.vswitch.state import SessionState
from repro.vswitch.tcp_fsm import TCP_STEP
from repro.vswitch.vnic import Vnic

PROBE_PORT = 9527  # "flow direct" health-probe port (§4.4)


@dataclass
class VSwitchStats:
    """Datapath counters, all monotonic."""

    tx_packets: int = 0
    rx_packets: int = 0
    forwarded: int = 0
    delivered: int = 0
    acl_drops: int = 0
    no_route_drops: int = 0
    cpu_drops: int = 0
    session_full_drops: int = 0
    unknown_vnic_drops: int = 0
    crashed_drops: int = 0
    slow_path_lookups: int = 0
    fast_path_hits: int = 0
    mirrored: int = 0           # always 0; perfbench's sim_digest hashes it
    qos_drops: int = 0
    probes_answered: int = 0
    nsh_received: int = 0

    def total_drops(self) -> int:
        return (self.acl_drops + self.no_route_drops + self.cpu_drops
                + self.session_full_drops + self.unknown_vnic_drops
                + self.crashed_drops + self.qos_drops)


class Datapath:
    """Per-vNIC packet-processing strategy (local / Nezha BE / Nezha FE)."""

    def handle_tx(self, vnic: Vnic, packet: Packet) -> None:
        raise NotImplementedError

    def handle_rx(self, vnic: Vnic, packet: Packet,
                  overlay_src: Optional[IPv4Address] = None) -> None:
        raise NotImplementedError

    # Burst entry points: the default unrolls to the per-packet handlers,
    # so every datapath (Nezha BE/FE included) accepts bursts; strategies
    # with a real vectorized path override these.

    def handle_tx_burst(self, vnic: Vnic, packets: List[Packet]) -> None:
        for packet in packets:
            self.handle_tx(vnic, packet)

    def handle_rx_burst(self, vnic: Vnic, packets: List[Packet],
                        overlay_src: Optional[IPv4Address] = None) -> None:
        for packet in packets:
            self.handle_rx(vnic, packet, overlay_src)

    # Fluid entry points: one template packet standing for ``count``
    # identical packets. The default materializes copies and
    # takes the burst path, so every datapath accepts runs; strategies
    # with a real analytic path override these.

    def handle_tx_run(self, vnic: Vnic, packet: Packet, count: int) -> None:
        self.handle_tx_burst(vnic, [packet.copy() for _ in range(count)])

    def handle_rx_run(self, vnic: Vnic, packet: Packet, count: int,
                      overlay_src: Optional[IPv4Address] = None) -> None:
        self.handle_rx_burst(vnic, [packet.copy() for _ in range(count)],
                             overlay_src)


class VSwitch:
    """One SmartNIC vSwitch instance."""

    def __init__(self, engine: Engine, server: ServerNode,
                 cost_model: CostModel, name: Optional[str] = None) -> None:
        self.engine = engine
        self.server = server
        self.cost_model = cost_model
        self.name = name or f"vs-{server.name}"
        self.trace = _telemetry.active_trace(engine)
        self.cpu = CpuResource(engine, cost_model.cores, cost_model.hz,
                               name=f"{self.name}.cpu",
                               util_window=cost_model.util_window)
        self.mem = MemoryBudget(cost_model.memory_bytes, name=f"{self.name}.mem")
        self.mem.alloc("packet_buffers", cost_model.packet_buffer_bytes)
        self.session_table = SessionTable(self.mem, cost_model)
        from repro.vswitch.qos import QosEnforcer
        self.qos = QosEnforcer()
        self.stats = VSwitchStats()
        self.vnics: Dict[int, Vnic] = {}
        self._vnic_by_addr: Dict[Tuple[int, int], Vnic] = {}
        self._datapaths: Dict[int, Datapath] = {}
        self._local_datapath = LocalDatapath(self)
        self.nsh_handler: Optional[Callable[[Packet], None]] = None
        # Nezha FE hook: consulted for (already decapped) overlay arrivals
        # targeting vNICs not hosted here but *fronted* here. Receives the
        # packet, the VNI, and the outer source IP (needed by stateful
        # decap, §5.2); returns True when consumed.
        self.overlay_fallback: Optional[
            Callable[[Packet, int, Optional[IPv4Address]], bool]] = None
        self.crashed = False
        self._aging_started = False
        self._probe_reply_cbs: List[Callable[[Packet], None]] = []
        server.attach_sink(self._fabric_sink)
        server.attach_run_sink(self._fabric_sink_run)
        tel = _telemetry.current()
        if tel is not None:
            tel.register_vswitch(self)

    # -- vNIC management --------------------------------------------------------

    def add_vnic(self, vnic: Vnic) -> None:
        """Host a vNIC, charging its rule-table memory to this SmartNIC."""
        if vnic.vnic_id in self.vnics:
            raise ConfigError(f"vNIC {vnic.vnic_id} already hosted")
        self.mem.alloc(f"rules:{vnic.vnic_id}", vnic.table_memory_bytes())
        self.vnics[vnic.vnic_id] = vnic
        self._vnic_by_addr[(vnic.vni, vnic.tenant_ip.value)] = vnic
        vnic.host = self

    def remove_vnic(self, vnic_id: int) -> Vnic:
        vnic = self.vnics.pop(vnic_id, None)
        if vnic is None:
            raise ConfigError(f"vNIC {vnic_id} not hosted here")
        self._vnic_by_addr.pop((vnic.vni, vnic.tenant_ip.value), None)
        self.mem.free_all(f"rules:{vnic_id}")
        self._datapaths.pop(vnic_id, None)
        vnic.host = None
        return vnic

    def recharge_vnic(self, vnic_id: int) -> None:
        """Re-sync a vNIC's rule-table memory charge after its tables
        changed (controller config pushes, gateway learning)."""
        vnic = self.vnics[vnic_id]
        if vnic.offloaded:
            return  # tables live on FEs; nothing charged locally
        self.mem.free_all(f"rules:{vnic_id}")
        self.mem.alloc(f"rules:{vnic_id}", vnic.table_memory_bytes())

    def release_vnic_tables(self, vnic_id: int) -> int:
        """Free a vNIC's rule-table memory locally (Nezha offload), keeping
        only BE metadata (§6.2.1); returns the bytes released."""
        vnic = self.vnics[vnic_id]
        freed = self.mem.free_all(f"rules:{vnic_id}")
        self.mem.alloc(f"be_meta:{vnic_id}",
                       self.cost_model.vnic_be_metadata_bytes)
        vnic.offloaded = True
        return freed - self.cost_model.vnic_be_metadata_bytes

    def restore_vnic_tables(self, vnic_id: int) -> None:
        """Re-pin a vNIC's rule tables locally (Nezha fallback)."""
        vnic = self.vnics[vnic_id]
        self.mem.free_all(f"be_meta:{vnic_id}")
        self.mem.alloc(f"rules:{vnic_id}", vnic.table_memory_bytes())
        vnic.offloaded = False

    def vnic_for(self, vni: int, tenant_ip: IPv4Address) -> Optional[Vnic]:
        return self._vnic_by_addr.get((vni, tenant_ip.value))

    def set_datapath(self, vnic_id: int, datapath: Optional[Datapath]) -> None:
        """Override the datapath for one vNIC (None restores local)."""
        if datapath is None:
            self._datapaths.pop(vnic_id, None)
        else:
            self._datapaths[vnic_id] = datapath

    def datapath_for(self, vnic: Vnic) -> Datapath:
        return self._datapaths.get(vnic.vnic_id, self._local_datapath)

    # -- telemetry ------------------------------------------------------------------

    def cpu_utilization(self) -> float:
        return self.cpu.utilization()

    def memory_utilization(self) -> float:
        return self.mem.utilization()

    # -- aging ------------------------------------------------------------------------

    def start_aging(self, interval: float = 0.5) -> None:
        """Begin periodic session-table sweeps (idempotent)."""
        if self._aging_started:
            return
        self._aging_started = True

        def loop():
            while True:
                yield self.engine.timeout(interval)
                self.session_table.sweep(self.engine.now)

        self.engine.process(loop(), name=f"{self.name}.aging")

    # -- crash injection -----------------------------------------------------------------

    def crash(self) -> None:
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    # -- CPU-charged execution helper -------------------------------------------------------

    def charge(self, cycles: float, fn: Callable[..., None],
               *args) -> bool:
        """Run ``fn(*args)`` after ``cycles`` of CPU time; False =
        drop-tail."""
        if self.cpu.try_submit_call(cycles, self.cost_model.max_cpu_backlog,
                                    fn, *args):
            return True
        self.stats.cpu_drops += 1
        self.trace.emit("pkt.cpu_drop", vswitch=self.name)
        return False

    def charge_batch(self, cycles: float, n_packets: int,
                     fn: Callable[[], None]) -> bool:
        """Run ``fn`` after ``cycles`` of CPU time charged as *one* job
        covering a burst of ``n_packets``; drop-tail rejects the whole
        burst (``cpu_drops`` still counts every packet)."""
        if self.cpu.try_submit_call(cycles, self.cost_model.max_cpu_backlog,
                                    fn):
            return True
        self.stats.cpu_drops += n_packets
        for _ in range(n_packets):
            self.trace.emit("pkt.cpu_drop", vswitch=self.name)
        return False

    # -- packet entry points ---------------------------------------------------------------

    def send_from_vnic(self, vnic: Vnic, packet: Packet) -> None:
        """Guest egress (TX)."""
        if self.crashed:
            self.stats.crashed_drops += 1
            return
        if vnic.host is not self:
            raise ConfigError(f"{vnic!r} is not hosted by {self.name}")
        self.stats.tx_packets += 1
        vnic.tx_sent += 1
        if _spans.ACTIVE:
            _spans.hop(packet, "vswitch_in", self.engine.now)
        self.datapath_for(vnic).handle_tx(vnic, packet)

    def send_from_vnic_burst(self, vnic: Vnic, packets: List[Packet]) -> None:
        """Guest egress (TX), burst variant: the whole per-flow burst
        enters the datapath together."""
        if self.crashed:
            self.stats.crashed_drops += len(packets)
            return
        if vnic.host is not self:
            raise ConfigError(f"{vnic!r} is not hosted by {self.name}")
        self.stats.tx_packets += len(packets)
        vnic.tx_sent += len(packets)
        if _spans.ACTIVE:
            now = self.engine.now
            for packet in packets:
                _spans.hop(packet, "vswitch_in", now)
        self.datapath_for(vnic).handle_tx_burst(vnic, packets)

    def send_from_vnic_run(self, vnic: Vnic, packet: Packet,
                           count: int) -> None:
        """Guest egress (TX), fluid variant: ``packet`` is a template
        standing for ``count`` identical packets. A template that
        carries a span re-materializes here — a span annotates one
        packet's journey; any other run stays a run, recorder installed
        or not."""
        if self.crashed:
            self.stats.crashed_drops += count
            return
        if vnic.host is not self:
            raise ConfigError(f"{vnic!r} is not hosted by {self.name}")
        if _spans.META_KEY in packet.meta:
            self.send_from_vnic_burst(
                vnic, [packet.copy() for _ in range(count)])
            return
        self.stats.tx_packets += count
        vnic.tx_sent += count
        self.datapath_for(vnic).handle_tx_run(vnic, packet, count)

    def _fabric_sink(self, packet: Packet) -> None:
        """Underlay arrival: classify by outer headers."""
        if self.crashed:
            self.stats.crashed_drops += 1
            return
        udp, after = _underlay_frame(packet)
        if udp is not None and udp.dst_port == NSH_PORT:
            self.stats.nsh_received += 1
            if self.nsh_handler is not None:
                self.nsh_handler(packet)
            return
        if udp is not None and udp.dst_port == PROBE_PORT:
            self._answer_probe(packet)
            return
        if type(after) is VxlanHeader:
            self._handle_overlay_rx(packet, after.vni, _strip_overlay(packet))
            return
        # Probe replies and unknown traffic terminate here.
        reply_port = packet.meta.get("probe_reply_port")
        if reply_port is not None:
            for callback in self._probe_reply_cbs:
                callback(packet)

    def on_probe_reply(self, callback: Callable[[Packet], None]) -> None:
        """Register a callback for probe replies (several pingers may
        share one vSwitch; each filters by its own sequence space)."""
        self._probe_reply_cbs.append(callback)

    def _answer_probe(self, packet: Packet) -> None:
        """Health probe (§4.4): flow-direct to the vSwitch VF, so a live
        vSwitch answers even under load — crash means silence."""
        outer_ip = packet.expect(IPv4Header)
        udp = packet.expect(UdpHeader)

        def reply():
            self.stats.probes_answered += 1
            resp = Packet.udp(outer_ip.dst, outer_ip.src,
                              PROBE_PORT, udp.src_port, payload=packet.payload)
            resp.meta["probe_reply_port"] = udp.src_port
            wrapped = Packet(
                [EthernetHeader(MacAddress.broadcast(), self.server.mac)]
                + resp.layers, resp.payload, dict(resp.meta))
            self.server.send_to_fabric(wrapped)

        self.charge(self.cost_model.fast_path_cycles, reply)

    def _handle_overlay_rx(self, packet: Packet, vni: int,
                           outer_src: IPv4Address) -> None:
        """One overlay arrival, stripped by the caller (``outer_src``)."""
        self.stats.rx_packets += 1
        if _spans.ACTIVE:
            _spans.hop(packet, "vswitch_rx", self.engine.now)
        vnic = self.vnic_for(vni, packet.layers[0].dst)
        if vnic is None:
            if (self.overlay_fallback is not None
                    and self.overlay_fallback(packet, vni, outer_src)):
                return
            self.stats.unknown_vnic_drops += 1
            self.trace.emit("pkt.unknown_vnic", vswitch=self.name, vni=vni)
            return
        self.datapath_for(vnic).handle_rx(vnic, packet, outer_src)

    def _fabric_sink_run(self, packet: Packet, count: int) -> None:
        """Fluid underlay arrival: one template for ``count`` packets.

        Only VXLAN overlay traffic rides runs (the fluid TX path emits
        nothing else); a span-carrying or non-overlay template falls
        back to per-packet sinking of copies. Only a hosted vNIC keeps
        the run: for an unknown or fronted vNIC, ``count`` copies of the
        stripped template take the per-packet path."""
        if self.crashed:
            self.stats.crashed_drops += count
            return
        _udp, vxlan = _underlay_frame(packet)
        if type(vxlan) is not VxlanHeader or _spans.META_KEY in packet.meta:
            for _ in range(count):
                self._fabric_sink(packet.copy())
            return
        outer_src = _strip_overlay(packet)
        vni = vxlan.vni
        vnic = self.vnic_for(vni, packet.layers[0].dst)
        if vnic is None:
            for _ in range(count):
                self._handle_overlay_rx(packet.copy(), vni, outer_src)
            return
        self.stats.rx_packets += count
        self.datapath_for(vnic).handle_rx_run(vnic, packet, count, outer_src)

    # -- underlay transmission helper ----------------------------------------------------------

    def forward_overlay(self, packet: Packet, action: FinalAction) -> None:
        """Encapsulate per the final action and emit to the fabric."""
        if action.next_hop_ip is None:
            self.stats.no_route_drops += 1
            self.trace.emit("pkt.no_route", vswitch=self.name)
            return
        if _spans.ACTIVE:
            _spans.hop(packet, "fabric_tx", self.engine.now)
        entropy = 49152 + (packet.five_tuple().hash() & 0x3FFF)
        wrapped = make_underlay_transport(
            self.server.mac, action.next_hop_mac or MacAddress.broadcast(),
            self.server.underlay_ip, action.next_hop_ip,
            packet, vni=action.vni, src_port=entropy)
        self.stats.forwarded += 1
        self.server.send_to_fabric(wrapped)

    def encap_template(self, entry, next_hop_ip: IPv4Address,
                       next_hop_mac: MacAddress, vni: int,
                       src_port: int) -> EncapTemplate:
        """The entry's cached :class:`EncapTemplate`, (re)built when the
        route key changed since it was cached."""
        tmpl = entry.encap if entry is not None else None
        if tmpl is None or not tmpl.matches(
                self.server.mac, next_hop_mac, self.server.underlay_ip,
                next_hop_ip, vni, src_port):
            tmpl = EncapTemplate(self.server.mac, next_hop_mac,
                                 self.server.underlay_ip, next_hop_ip,
                                 vni, src_port)
            if entry is not None:
                entry.encap = tmpl
        return tmpl

    def forward_overlay_burst(
            self, routed: List[Tuple[Packet, FinalAction]],
            entry=None) -> None:
        """Encapsulate a burst of (packet, action) pairs and emit them to
        the fabric as one serialized train. Per-packet encapsulation and
        entropy match :meth:`forward_overlay` exactly; only the uplink
        scheduling is coalesced. The constant outer headers come from the
        session ``entry``'s cached :class:`EncapTemplate` (a one-off
        template without an entry)."""
        out: List[Packet] = []
        for packet, action in routed:
            if action.next_hop_ip is None:
                self.stats.no_route_drops += 1
                self.trace.emit("pkt.no_route", vswitch=self.name)
                continue
            if _spans.ACTIVE:
                _spans.hop(packet, "fabric_tx", self.engine.now)
            entropy = 49152 + (packet.five_tuple().hash() & 0x3FFF)
            tmpl = self.encap_template(
                entry, action.next_hop_ip,
                action.next_hop_mac or MacAddress.broadcast(),
                action.vni, entropy)
            self.stats.forwarded += 1
            out.append(tmpl.wrap(packet))
        if out:
            self.server.send_to_fabric_burst(out)

    def forward_overlay_run(self, entry, packet: Packet, count: int,
                            next_hop_ip: Optional[IPv4Address],
                            next_hop_mac: Optional[MacAddress],
                            vni: int) -> None:
        """Fluid forward: wrap the template once and emit one run
        descriptor; the fabric advances it analytically."""
        if next_hop_ip is None:
            self.stats.no_route_drops += count
            for _ in range(count):
                self.trace.emit("pkt.no_route", vswitch=self.name)
            return
        entropy = 49152 + (packet.five_tuple().hash() & 0x3FFF)
        tmpl = self.encap_template(entry, next_hop_ip,
                                   next_hop_mac or MacAddress.broadcast(),
                                   vni, entropy)
        wrapped = tmpl.wrap(packet)
        self.stats.forwarded += count
        self.server.send_to_fabric_run(wrapped, count)


def _underlay_frame(packet: Packet):
    """``(outer UDP, the layer after it or None)`` read from the fixed
    slots of an ``Eth / IPv4 / UDP [/ X]`` underlay frame — the one shape
    the fabric carries; ``(None, None)`` for anything else, which the
    sink treats as unknown traffic."""
    layers = packet.layers
    if (len(layers) > 2 and type(layers[2]) is UdpHeader
            and type(layers[1]) is IPv4Header
            and type(layers[0]) is EthernetHeader):
        return layers[2], layers[3] if len(layers) > 3 else None
    return None, None


def _strip_overlay(packet: Packet):
    """Pop the VXLAN transport off an overlay arrival the sink classified
    (``Eth / IPv4 / UDP / VXLAN`` in slots 0-3) with one ``decap``,
    leaving the inner IPv4 in slot 0; returns the outer source IP."""
    layers = packet.layers
    if (len(layers) < 6 or type(layers[4]) is not EthernetHeader
            or type(layers[5]) is not IPv4Header):
        raise PacketError("overlay frame lacks the inner Ethernet / IPv4")
    packet.decap(5)
    return layers[1].src


class LocalDatapath(Datapath):
    """The traditional architecture: everything processed on this vSwitch."""

    def __init__(self, vswitch: VSwitch) -> None:
        self.vswitch = vswitch

    # -- shared machinery ---------------------------------------------------------

    def _lookup_or_create(self, vnic: Vnic, packet: Packet,
                          direction: Direction, entry):
        """Fast-path hit on ``entry`` — the session-table probe
        :meth:`_classify_run` already made for ``packet`` — falling back
        to the slow path + session insert on a miss (``entry`` None).

        Returns (entry, cycles) or (None, cycles) when the session table
        rejected the insert.
        """
        vs = self.vswitch
        ft = packet.five_tuple()
        nbytes = packet.wire_length
        if entry is not None and entry.pre_actions is None:
            # A STATE_ONLY residue from a Nezha fallback: re-derive the
            # cached flow locally so the session survives un-offloading.
            ctx = LookupContext(
                ft if direction is Direction.TX else ft.reversed(),
                vni=vnic.vni, packet_bytes=nbytes)
            pre, lookup_cycles = vnic.slow_path.lookup(ctx)
            vs.stats.slow_path_lookups += 1
            if not vs.session_table.promote(entry, pre):
                vs.stats.session_full_drops += 1
                return None, lookup_cycles
            cycles = lookup_cycles + vs.cost_model.flow_insert_cycles + \
                nbytes * vs.cost_model.cycles_per_byte
            return entry, cycles
        if entry is not None:
            vs.stats.fast_path_hits += 1
            cycles = vs.cost_model.fast_path_cycles + \
                nbytes * vs.cost_model.cycles_per_byte
            return entry, cycles
        vs.stats.slow_path_lookups += 1
        ctx = LookupContext(ft if direction is Direction.TX else ft.reversed(),
                            vni=vnic.vni, packet_bytes=nbytes)
        pre, lookup_cycles = vnic.slow_path.lookup(ctx)
        state = SessionState(first_direction=direction)
        try:
            entry = vs.session_table.insert(
                vnic.vni, ft, pre, state, vs.engine.now, EntryMode.FULL)
        except TableFull:
            vs.stats.session_full_drops += 1
            vs.trace.emit("pkt.session_full", vswitch=vs.name)
            return None, lookup_cycles
        cycles = lookup_cycles + vs.cost_model.session_setup_cycles + \
            nbytes * vs.cost_model.cycles_per_byte
        return entry, cycles

    @staticmethod
    def _advance_tcp(entry, direction: Direction, packet: Packet) -> None:
        tcp = packet.find(TcpHeader)
        state = entry.state
        if tcp is None or state is None:
            return
        state.tcp_state = TCP_STEP[state.tcp_state,
                                   state.first_direction is direction,
                                   tcp.flags.bits]

    # -- burst classification ------------------------------------------------------

    def _fsm_quiet(self, entry, direction: Direction,
                   packet: Packet) -> bool:
        """True when ``packet`` leaves the session's TCP FSM untouched
        (non-TCP always does). Only such packets may ride a batch: the
        state they are processed against is then provably the state the
        per-packet path would have seen."""
        tcp = packet.find(TcpHeader)
        if tcp is None:
            return True
        state = entry.state
        current = state.tcp_state
        return TCP_STEP[current, state.first_direction is direction,
                        tcp.flags.bits] is current

    def _classify_run(self, vnic: Vnic, packets: List[Packet], index: int,
                      direction: Direction):
        """Longest batchable run of ``packets[index:]``: consecutive
        packets of one flow whose session entry is a FULL-mode hit and
        whose TCP FSM no packet advances.

        One session lookup covers the whole run. Returns
        ``(entry, run, cycles, next_index, fsm_snap, run_bytes)``;
        ``run is None`` means ``packets[index]`` must take the per-packet
        path (miss, STATE_ONLY residue, or an FSM-advancing packet), and
        ``entry`` is then what its probe found (None on a miss), handed
        on so the single probes its session once. ``fsm_snap`` is the
        TCP FSM state the run was classified against: the CPU queue can
        delay completion past an FSM-advancing packet of the same
        session, so completion replays the run per packet when the live
        state differs and moves one of its packets.
        """
        vs = self.vswitch
        first = packets[index]
        entry = vs.session_table.lookup(vnic.vni, first.five_tuple())
        if (entry is None or entry.pre_actions is None
                or entry.state is None
                or not self._fsm_quiet(entry, direction, first)):
            return entry, None, 0.0, index + 1, None, 0
        ft = first.five_tuple()
        # Same flow key => same inner proto, so one check covers the run:
        # non-TCP flows carry no FSM and every packet is trivially quiet.
        tcp_flow = ft.proto == PROTO_TCP
        per_byte = vs.cost_model.cycles_per_byte
        base = vs.cost_model.fast_path_cycles
        run = [first]
        nbytes = first.wire_length
        cycles = base + nbytes * per_byte
        j = index + 1
        n = len(packets)
        while j < n:
            packet = packets[j]
            pft = packet.five_tuple()
            if pft is not ft and pft != ft:
                break
            if tcp_flow and not self._fsm_quiet(entry, direction, packet):
                break
            run.append(packet)
            wire = packet.wire_length
            nbytes += wire
            cycles += base + wire * per_byte
            j += 1
        vs.stats.fast_path_hits += len(run)
        return entry, run, cycles, j, entry.state.tcp_state, nbytes

    def _account_run(self, entry, direction: Direction, pre, n: int,
                     nbytes: int) -> bool:
        """Verdict and flow-record accounting of one run, shared by both
        run completions: an ACL drop counts and traces all ``n``
        packets and only touches the record; otherwise ``n`` packets /
        ``nbytes`` land in the entry's record columns. False = dropped."""
        vs = self.vswitch
        state = entry.state
        now = vs.engine.now
        records = vs.session_table.records
        if resolve_verdict(direction, pre, state) is Verdict.DROP:
            vs.stats.acl_drops += n
            name = direction.value
            for _ in range(n):
                vs.trace.emit("pkt.acl_drop", vswitch=vs.name,
                              direction=name)
            records.touch(entry.slot, now)
            return False
        records.charge(entry.slot, direction is Direction.TX, n, nbytes,
                       state.stats_policy.value, now)
        return True

    # -- TX ------------------------------------------------------------------------

    def handle_tx(self, vnic: Vnic, packet: Packet) -> None:
        self.handle_tx_burst(vnic, [packet])

    def handle_tx_burst(self, vnic: Vnic, packets: List[Packet]) -> None:
        """Vectorized TX: batchable runs pay one lookup and one CPU
        transaction; everything else falls back to the per-packet slow
        path at its position in the burst."""
        vs = self.vswitch
        encap = vs.cost_model.encap_cycles
        index = 0
        n = len(packets)
        while index < n:
            entry, run, cycles, index, snap, nbytes = self._classify_run(
                vnic, packets, index, Direction.TX)
            if run is None:
                self._tx_single(vnic, packets[index - 1], entry)
                continue
            k = len(run)
            vs.charge_batch(
                cycles + k * encap, k,
                lambda e=entry, r=run, k=k, s=snap, b=nbytes:
                    self._complete_tx(vnic, e, r, k, s, b))

    def handle_tx_run(self, vnic: Vnic, packet: Packet, count: int) -> None:
        """Fluid TX: one template packet stands for ``count`` identical
        packets of a long-lived flow. Eligibility mirrors
        :meth:`_classify_run` (FULL hit, FSM-quiet); anything else
        re-materializes into the burst path. A session opener goes
        alone, as in a burst."""
        vs = self.vswitch
        entry = vs.session_table.lookup(vnic.vni, packet.five_tuple())
        if entry is None and count > 1:
            Datapath.handle_tx_run(self, vnic, packet, 1)
            count -= 1
            entry = vs.session_table.lookup(vnic.vni, packet.five_tuple())
        if (entry is None or entry.pre_actions is None
                or entry.state is None
                or not self._fsm_quiet(entry, Direction.TX, packet)):
            Datapath.handle_tx_run(self, vnic, packet, count)
            return
        vs.stats.fast_path_hits += count
        cm = vs.cost_model
        wire = packet.wire_length
        cycles = count * (cm.fast_path_cycles + wire * cm.cycles_per_byte
                          + cm.encap_cycles)
        snap = entry.state.tcp_state
        vs.charge_batch(
            cycles, count,
            lambda: self._complete_tx(vnic, entry, packet, count, snap,
                                      count * wire))

    def _complete_tx(self, vnic: Vnic, entry, packets, count: int,
                     fsm_snap, nbytes: int) -> None:
        """Complete a charged TX run of ``count`` packets / ``nbytes``
        bytes: a burst's own ``packets`` list, or a fluid run's one
        template packet. It completes in aggregate (one verdict and
        record charge, QoS as a prefix, one train or run descriptor)
        unless its entry lost its record slot, or the FSM moved off
        ``fsm_snap`` while it sat in the CPU queue to a state one of its
        packets is not quiet in: then it replays through :meth:`_tx_one`
        (a fluid run on copies of its template) and leaves as one
        train."""
        vs = self.vswitch
        state = entry.state
        if entry.pre_actions is None or state is None:
            # Offloaded (entry demoted) while the job sat in the CPU
            # queue: lost like any in-flight packets of a reconfiguration.
            vs.stats.cpu_drops += count
            return
        fluid = type(packets) is Packet
        pre = entry.pre_actions.tx
        replay = entry.slot < 0
        if not replay and state.tcp_state is not fsm_snap:
            # n packets quiet in the live state leave it unchanged.
            for packet in ((packets,) if fluid else packets):
                if not self._fsm_quiet(entry, Direction.TX, packet):
                    replay = True
                    break
        if replay:
            if fluid:
                packets = [packets.copy() for _ in range(count)]
            routed: List[Tuple[Packet, FinalAction]] = []
            for packet in packets:
                self._tx_one(vnic, entry, packet, routed)
            vs.forward_overlay_burst(routed, entry)
            return
        if not self._account_run(entry, Direction.TX, pre, count, nbytes):
            return
        if (vnic.rate_limit_bps is not None
                or pre.rate_limit_bps is not None):
            if fluid:
                count = _qos_admits(vs, vnic, pre, packets.wire_length, count)
            else:
                packets = [p for p in packets
                           if _qos_admits(vs, vnic, pre, p.wire_length)]
                count = len(packets)
            if not count:
                return
        next_hop_ip, next_hop_mac = _tx_next_hop(vnic, state, pre)
        if fluid:
            vs.forward_overlay_run(entry, packets, count, next_hop_ip,
                                   next_hop_mac, pre.vni)
            return
        if next_hop_ip is None:
            vs.stats.no_route_drops += count
            for _ in range(count):
                vs.trace.emit("pkt.no_route", vswitch=vs.name)
            return
        if _spans.ACTIVE:
            now = vs.engine.now
            for packet in packets:
                _spans.hop(packet, "fabric_tx", now)
        entropy = 49152 + (packets[0].five_tuple().hash() & 0x3FFF)
        tmpl = vs.encap_template(entry, next_hop_ip,
                                 next_hop_mac or MacAddress.broadcast(),
                                 pre.vni, entropy)
        vs.stats.forwarded += count
        vs.server.send_to_fabric_burst([tmpl.wrap(p) for p in packets])

    def _tx_single(self, vnic: Vnic, packet: Packet, entry) -> None:
        vs = self.vswitch
        entry, cycles = self._lookup_or_create(vnic, packet, Direction.TX,
                                               entry)
        if entry is not None:
            vs.charge(cycles + vs.cost_model.encap_cycles, self._tx_one,
                      vnic, entry, packet)

    def _tx_one(self, vnic: Vnic, entry, packet: Packet,
                routed: Optional[list] = None) -> None:
        """The per-packet TX body a single is charged with and a replay
        runs: FSM, verdict, QoS and the stateful-decap route, then
        the forward — alone, or into the replay's ``routed`` train."""
        vs = self.vswitch
        state = entry.state
        if entry.pre_actions is None or state is None:
            # Offloaded (entry demoted) while the job sat in the CPU
            # queue: lost like any in-flight packet of a reconfiguration.
            vs.stats.cpu_drops += 1
            return
        self._advance_tcp(entry, Direction.TX, packet)
        state.touch(vs.engine.now)
        action = process_pkt(Direction.TX, entry.pre_actions, state,
                             packet.wire_length)
        if action.is_drop:
            vs.stats.acl_drops += 1
            vs.trace.emit("pkt.acl_drop", vswitch=vs.name, direction="tx")
            return
        pre = entry.pre_actions.tx
        if not _qos_admits(vs, vnic, pre, packet.wire_length):
            return
        if vnic.stateful_decap and state.decap_overlay_src is not None:
            action.next_hop_ip = state.decap_overlay_src
            action.next_hop_mac = None
        if routed is None:
            vs.forward_overlay(packet, action)
        else:
            routed.append((packet, action))

    # -- RX --------------------------------------------------------------------------

    def handle_rx(self, vnic: Vnic, packet: Packet,
                  overlay_src: Optional[IPv4Address] = None) -> None:
        self.handle_rx_burst(vnic, [packet], overlay_src)

    def handle_rx_burst(self, vnic: Vnic, packets: List[Packet],
                        overlay_src: Optional[IPv4Address] = None) -> None:
        """Vectorized RX: mirror of :meth:`handle_tx_burst`."""
        vs = self.vswitch
        index = 0
        n = len(packets)
        while index < n:
            entry, run, cycles, index, snap, nbytes = self._classify_run(
                vnic, packets, index, Direction.RX)
            if run is None:
                self._rx_single(vnic, packets[index - 1], overlay_src, entry)
                continue
            if vnic.stateful_decap and overlay_src is not None:
                entry.state.decap_overlay_src = IPv4Address(overlay_src)
            k = len(run)
            vs.charge_batch(
                cycles, k,
                lambda e=entry, r=run, k=k, s=snap, b=nbytes:
                    self._complete_rx(vnic, e, r, k, s, b))

    def handle_rx_run(self, vnic: Vnic, packet: Packet, count: int,
                      overlay_src: Optional[IPv4Address] = None) -> None:
        """Fluid RX: mirror of :meth:`handle_tx_run` (no QoS stage)."""
        vs = self.vswitch
        entry = vs.session_table.lookup(vnic.vni, packet.five_tuple())
        if (entry is None or entry.pre_actions is None
                or entry.state is None
                or not self._fsm_quiet(entry, Direction.RX, packet)):
            Datapath.handle_rx_run(self, vnic, packet, count, overlay_src)
            return
        if vnic.stateful_decap and overlay_src is not None:
            entry.state.decap_overlay_src = IPv4Address(overlay_src)
        vs.stats.fast_path_hits += count
        cm = vs.cost_model
        wire = packet.wire_length
        cycles = count * (cm.fast_path_cycles + wire * cm.cycles_per_byte)
        snap = entry.state.tcp_state
        vs.charge_batch(
            cycles, count,
            lambda: self._complete_rx(vnic, entry, packet, count, snap,
                                      count * wire))

    def _complete_rx(self, vnic: Vnic, entry, packets, count: int,
                     fsm_snap, nbytes: int) -> None:
        """Mirror of :meth:`_complete_tx` without QoS: delivers
        in aggregate, or replays through :meth:`_rx_one`."""
        vs = self.vswitch
        state = entry.state
        if entry.pre_actions is None or state is None:
            vs.stats.cpu_drops += count
            return
        fluid = type(packets) is Packet
        replay = entry.slot < 0
        if not replay and state.tcp_state is not fsm_snap:
            # n packets quiet in the live state leave it unchanged.
            for packet in ((packets,) if fluid else packets):
                if not self._fsm_quiet(entry, Direction.RX, packet):
                    replay = True
                    break
        if replay:
            if fluid:
                packets = [packets.copy() for _ in range(count)]
            for packet in packets:
                self._rx_one(vnic, entry, packet)
            return
        if self._account_run(entry, Direction.RX, entry.pre_actions.rx,
                             count, nbytes):
            vs.stats.delivered += count
            if fluid:
                vnic.deliver_run(packets, count)
            else:
                vnic.deliver_burst(packets)

    def _rx_single(self, vnic: Vnic, packet: Packet,
                   overlay_src: Optional[IPv4Address], entry) -> None:
        vs = self.vswitch
        entry, cycles = self._lookup_or_create(vnic, packet, Direction.RX,
                                               entry)
        if entry is None:
            return
        if vnic.stateful_decap and overlay_src is not None:
            # Stateful decap (§5.2): remember the overlay source so the
            # response returns through it (the LB), not to the client.
            entry.state.decap_overlay_src = IPv4Address(overlay_src)
        vs.charge(cycles, self._rx_one, vnic, entry, packet)

    def _rx_one(self, vnic: Vnic, entry, packet: Packet) -> None:
        """The per-packet RX body (see :meth:`_tx_one`)."""
        vs = self.vswitch
        state = entry.state
        if entry.pre_actions is None or state is None:
            vs.stats.cpu_drops += 1
            return
        self._advance_tcp(entry, Direction.RX, packet)
        state.touch(vs.engine.now)
        action = process_pkt(Direction.RX, entry.pre_actions, state,
                             packet.wire_length)
        if action.is_drop:
            vs.stats.acl_drops += 1
            vs.trace.emit("pkt.acl_drop", vswitch=vs.name, direction="rx")
            return
        vs.stats.delivered += 1
        vnic.deliver(packet)


def _tx_next_hop(vnic: Vnic, state, pre):
    """Where a TX run goes: back through the recorded overlay source
    under stateful decap (§5.2), else the pre-action's route."""
    if vnic.stateful_decap and state.decap_overlay_src is not None:
        return state.decap_overlay_src, None
    return pre.next_hop_ip, pre.next_hop_mac


def _qos_admits(vs: "VSwitch", vnic: Vnic, pre, nbytes: int, n: int = 1,
                vnic_level: bool = True) -> int:
    """Police ``n`` same-size packets at one instant through the
    vNIC-level and flow-level egress rate limits; returns the admitted
    prefix size, so one packet reads 1 (pass) or 0 (drop). Packets the
    vNIC-level bucket rejects never reach the flow-level one.

    ``vnic_level=False`` at an FE: a frontend sees only the flows hashed
    to it, so the vNIC-level (VM-level) limit must be enforced where all
    traffic converges — the BE (§2.3.3); the FE polices flow-level limits
    only.
    """
    now = vs.engine.now
    k = n
    if vnic_level and vnic.rate_limit_bps is not None:
        k = vs.qos.allow(vnic.vnic_id, -1, vnic.rate_limit_bps, nbytes,
                         now, n)
        vs.stats.qos_drops += n - k
    if k and pre is not None and pre.rate_limit_bps is not None:
        admitted = vs.qos.allow(vnic.vnic_id, pre.qos_class,
                                pre.rate_limit_bps, nbytes, now, k)
        vs.stats.qos_drops += k - admitted
        k = admitted
    return k


def make_standard_chain(cost_model: CostModel,
                        acl: Optional[AclTable] = None,
                        mapping: Optional[MappingTable] = None,
                        advanced: bool = False) -> SlowPath:
    """Build the basic 5-table chain (§2.2.2), optionally the 12-table
    advanced variant with policy-routing, mirroring and flow-logging
    stages (rule-less :class:`StageTable` lookups)."""
    tables: List = [
        acl or AclTable(),
        QosTable(),
        StageTable("policy_route"),
        RouteTable(),
        mapping or MappingTable(entry_bytes=cost_model.mapping_entry_bytes),
    ]
    route = tables[3]
    route.add_route(IPv4Address("0.0.0.0"), 0)  # default: route everything
    if advanced:
        tables.extend([StageTable("mirror"), StageTable("flow_log"),
                       StageTable("policy_route"), StageTable("mirror"),
                       StageTable("flow_log"), QosTable(),
                       StageTable("policy_route")])
    return SlowPath(tables, cost_model)
