"""The vNIC backend (BE): state keeper and VM-side endpoint.

Installed as the offloaded vNIC's datapath on its home vSwitch. The BE:

* **TX** — initializes/updates local state, stamps it into the packet, and
  relays to an FE chosen by 5-tuple hash (one extra hop);
* **RX via FE** — combines the carried pre-actions with local state and
  delivers to the VM (``process_pkt`` is the same code the local path runs);
* **RX direct** (dual-running stage) — senders that have not yet learned
  the FE locations still hit the BE; while the rule tables are retained the
  BE processes these locally, afterwards they are dropped and counted
  (§4.2.1);
* **notify** — applies rule-table-involved state updates sent by FEs
  (§3.2.2);
* hardware-accelerated per-flow TX logic keeps BE cycles tiny (§7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TableFull
from repro.net.packet import Packet
from repro.telemetry import spans as _spans
from repro.net.tcp import TcpHeader
from repro.vswitch.actions import Direction, process_pkt
from repro.vswitch.rule_tables import LookupContext
from repro.vswitch.session_table import EntryMode
from repro.vswitch.state import SessionState
from repro.vswitch.tcp_fsm import TCP_STEP
from repro.vswitch.vnic import Vnic
from repro.vswitch.vswitch import Datapath, VSwitch
from repro.core.header import NezhaMeta, KIND_TX, build_nezha_hop
from repro.core.load_balancer import FeSelector


@dataclass
class BackendStats:
    tx_relayed: int = 0
    rx_from_fe: int = 0
    rx_direct_dual_running: int = 0
    rx_direct_dropped: int = 0
    notifies_applied: int = 0
    acl_drops: int = 0
    state_full_drops: int = 0
    states_created: int = 0
    invalid_meta_drops: int = 0    # NSH hop arrived without pre-actions


class BackendInstance(Datapath):
    """Per-offloaded-vNIC BE logic on the home vSwitch."""

    def __init__(self, vswitch: VSwitch, vnic: Vnic,
                 selector: FeSelector,
                 packet_level_lb: bool = False) -> None:
        self.vswitch = vswitch
        self.vnic = vnic
        self.selector = selector
        self.stats = BackendStats()
        # Dual-running: rule tables are still present locally; direct RX is
        # processed with a slow-path lookup (no flow caching).
        self.tables_released = False
        # Ablation (§3.2.3): spraying packets of one flow across FEs would
        # share load better but destroys cache friendliness — duplicated
        # lookups and duplicated cached flows. Nezha rejects this; the
        # flag exists to quantify why.
        self.packet_level_lb = packet_level_lb
        self._pkt_counter = 0

    # -- shared state handling ---------------------------------------------------

    def _state_for(self, packet: Packet, direction: Direction,
                   create: bool) -> Optional[SessionState]:
        vs = self.vswitch
        ft = packet.five_tuple()
        entry = vs.session_table.lookup(self.vnic.vni, ft)
        if entry is not None and entry.state is not None:
            return entry.state
        if not create:
            return None
        state = SessionState(first_direction=direction)
        try:
            vs.session_table.insert(self.vnic.vni, ft, None, state,
                                    vs.engine.now, EntryMode.STATE_ONLY)
        except TableFull:
            self.stats.state_full_drops += 1
            return None
        self.stats.states_created += 1
        return state

    def _advance(self, state: SessionState, direction: Direction,
                 packet: Packet) -> None:
        tcp = packet.find(TcpHeader)
        if tcp is not None:
            state.tcp_state = TCP_STEP[state.tcp_state,
                                       state.first_direction is direction,
                                       tcp.flags.bits]
        state.touch(self.vswitch.engine.now)

    # -- TX: VM → BE → FE -----------------------------------------------------------

    def handle_tx(self, vnic: Vnic, packet: Packet) -> None:
        vs = self.vswitch
        cm = vs.cost_model
        ft = packet.five_tuple()
        if len(self.selector) == 0:
            # Every FE is gone (mass failure before replacement): the BE
            # cannot process TX alone once tables are released.
            self.stats.rx_direct_dropped += 1
            return
        state = self._state_for(packet, Direction.TX, create=True)
        if state is None:
            return
        new_state = state.packets_tx == 0 and state.created_at == vs.engine.now
        cycles = (cm.be_fastpath_cycles + cm.state_encode_cycles
                  + packet.wire_length * cm.cycles_per_byte)
        if new_state:
            cycles += cm.be_state_insert_cycles

        def complete():
            from repro.vswitch.vswitch import _qos_admits
            if not _qos_admits(vs, vnic, None, packet.wire_length):
                return
            self._advance(state, Direction.TX, packet)
            if self.packet_level_lb and len(self.selector.locations) > 0:
                self._pkt_counter += 1
                fe = self.selector.locations[
                    self._pkt_counter % len(self.selector.locations)]
            else:
                fe = self.selector.pick(ft)
            if _spans.ACTIVE:
                _spans.hop(packet, "be_tx", vs.engine.now)
            meta = NezhaMeta(kind=KIND_TX, vnic_id=self.vnic.vnic_id,
                             state=state)
            hop = build_nezha_hop(vs.server.underlay_ip, vs.server.mac,
                                  fe, meta, inner=packet,
                                  entropy=ft.hash())
            self.stats.tx_relayed += 1
            vs.server.send_to_fabric(hop)

        vs.charge(cycles, complete)

    # -- RX via FE: NSH-carried pre-actions -------------------------------------------

    def handle_from_fe(self, packet: Packet, meta: NezhaMeta) -> None:
        vs = self.vswitch
        cm = vs.cost_model
        if _spans.ACTIVE:
            _spans.hop(packet, "be_rx", vs.engine.now)
        pre_actions = meta.pre_actions
        if pre_actions is None:
            self.stats.invalid_meta_drops += 1
            return
        state = self._state_for(packet, Direction.RX, create=True)
        if state is None:
            return
        # §3.2.2: the FE cannot tell whether the BE's rule-table-involved
        # state differs, so the carried value is applied without verification.
        state.stats_policy = pre_actions.rx.stats_policy
        if meta.overlay_src is not None and self.vnic.stateful_decap:
            state.decap_overlay_src = meta.overlay_src
        new_state = state.packets_rx == 0 and state.created_at == vs.engine.now
        cycles = (cm.be_fastpath_cycles
                  + packet.wire_length * cm.cycles_per_byte)
        if new_state:
            cycles += cm.be_state_insert_cycles

        def complete():
            self._advance(state, Direction.RX, packet)
            action = process_pkt(Direction.RX, pre_actions, state,
                                 packet.wire_length)
            if action.is_drop:
                self.stats.acl_drops += 1
                return
            self.stats.rx_from_fe += 1
            vs.stats.delivered += 1
            self.vnic.deliver(packet)

        vs.charge(cycles, complete)

    # -- RX direct (dual-running / stragglers) -------------------------------------------

    def handle_rx(self, vnic: Vnic, packet: Packet,
                  overlay_src=None) -> None:
        vs = self.vswitch
        if self.tables_released:
            # Final stage: the BE no longer has rule tables; in-flight
            # packets sent directly here are lost (retransmission recovers).
            self.stats.rx_direct_dropped += 1
            vs.trace.emit("nezha.direct_rx_drop", vswitch=vs.name,
                          vnic=vnic.vnic_id)
            return
        # Dual-running: process with a fresh slow-path lookup (flows are no
        # longer cached locally), state handled exactly as the local path.
        cm = vs.cost_model
        ft = packet.five_tuple()
        ctx = LookupContext(ft.reversed(), vni=vnic.vni,
                            packet_bytes=packet.wire_length)
        pre_actions, lookup_cycles = vnic.slow_path.lookup(ctx)
        vs.stats.slow_path_lookups += 1
        state = self._state_for(packet, Direction.RX, create=True)
        if state is None:
            return
        state.stats_policy = pre_actions.rx.stats_policy
        if vnic.stateful_decap and overlay_src is not None:
            state.decap_overlay_src = overlay_src

        def complete():
            self._advance(state, Direction.RX, packet)
            action = process_pkt(Direction.RX, pre_actions, state,
                                 packet.wire_length)
            if action.is_drop:
                self.stats.acl_drops += 1
                return
            self.stats.rx_direct_dual_running += 1
            vs.stats.delivered += 1
            self.vnic.deliver(packet)

        vs.charge(lookup_cycles + packet.wire_length * cm.cycles_per_byte,
                  complete)

    # -- notify packets (§3.2.2) -------------------------------------------------------------

    def handle_notify(self, meta: NezhaMeta) -> None:
        vs = self.vswitch
        ft = meta.notify_five_tuple
        if ft is None or meta.notify_policy is None:
            return

        def complete():
            entry = vs.session_table.lookup(self.vnic.vni, ft)
            if entry is not None and entry.state is not None:
                entry.state.stats_policy = meta.notify_policy
                self.stats.notifies_applied += 1

        vs.charge(vs.cost_model.notify_cycles, complete)
