"""The vNIC frontend (FE): stateless rule tables + cached flows on an idle
SmartNIC.

One :class:`FrontendInstance` per (offloaded vNIC, hosting vSwitch). The
instance owns a *complete copy* of the vNIC's rule tables (§3.2.3 — no
cross-FE lookups) and caches flows in the host vSwitch's session table as
``FLOWS_ONLY`` entries. It is completely stateless: killing an FE loses
nothing but cache.

* **TX from BE** — combine the carried state with cached pre-actions, run
  the *same* ``process_pkt``, forward to the real destination. On a cache
  miss the rule lookup may reveal rule-table-involved state differing from
  the carried one → emit a designated notify packet to the BE (§3.2.2).
* **RX from anywhere** — look up (or compute) pre-actions, stamp them (and
  any state-init info, e.g. the overlay source for stateful decap §5.2)
  into the packet, relay to the BE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import TableFull
from repro.net.addr import IPv4Address
from repro.telemetry import spans as _spans
from repro.net.ipv4 import IPv4Header
from repro.net.packet import Packet
from repro.vswitch.actions import Direction, process_pkt
from repro.vswitch.rule_tables import Location, LookupContext
from repro.vswitch.session_table import EntryMode
from repro.vswitch.slow_path import SlowPath
from repro.vswitch.vnic import Vnic
from repro.vswitch.vswitch import VSwitch
from repro.core.header import (KIND_NOTIFY, KIND_RX, NezhaMeta,
                               build_nezha_hop)


@dataclass
class FrontendStats:
    tx_processed: int = 0
    rx_relayed: int = 0
    flow_cache_hits: int = 0
    flow_cache_misses: int = 0
    acl_drops: int = 0
    notifies_sent: int = 0
    flow_insert_failures: int = 0
    inactive_drops: int = 0        # arrivals after teardown began
    no_preaction_drops: int = 0    # lookup yielded nothing to apply


class FrontendInstance:
    """FE logic for one offloaded vNIC on one hosting vSwitch."""

    def __init__(self, vswitch: VSwitch, vnic: Vnic, slow_path: SlowPath,
                 be_location: Location,
                 suppress_redundant_notifies: bool = True) -> None:
        self.vswitch = vswitch
        self.vnic = vnic                # descriptor of the *offloaded* vNIC
        self.slow_path = slow_path      # this FE's complete table copy
        self.be_location = be_location
        self.suppress_redundant_notifies = suppress_redundant_notifies
        self.stats = FrontendStats()
        self.active = True
        # Set while a graceful retirement's grace period runs: the FE is
        # no longer in its handle's FE set but still serves in-flight
        # traffic (invariant checks exempt it from orphan detection).
        self.retiring = False
        # Charge the remote copy of the rule tables to this SmartNIC.
        self.mem_tag = f"fe_rules:{vnic.vnic_id}"
        vswitch.mem.alloc(self.mem_tag, vnic.table_memory_bytes())

    def location(self) -> Location:
        return Location(self.vswitch.server.underlay_ip,
                        self.vswitch.server.mac)

    def teardown(self) -> None:
        """Remove this FE: free table memory and drop its cached flows."""
        self.active = False
        self.vswitch.mem.free_all(self.mem_tag)
        self.vswitch.session_table.remove_vni(self.vnic.vni,
                                              EntryMode.FLOWS_ONLY)

    # -- flow cache -------------------------------------------------------------

    def _flows_for(self, packet: Packet, direction: Direction):
        """Cached pre-actions for this flow, computing them on a miss.

        Returns (pre_actions, cycles, was_miss) — pre_actions is None only
        when the host's memory rejected even a flows-only insert.
        """
        vs = self.vswitch
        cm = vs.cost_model
        ft = packet.five_tuple()
        nbytes = packet.wire_length
        entry = vs.session_table.lookup(self.vnic.vni, ft)
        if entry is not None and entry.pre_actions is not None:
            self.stats.flow_cache_hits += 1
            cycles = cm.fast_path_cycles + nbytes * cm.cycles_per_byte
            return entry.pre_actions, cycles, False
        self.stats.flow_cache_misses += 1
        ctx = LookupContext(ft if direction is Direction.TX else ft.reversed(),
                            vni=self.vnic.vni, packet_bytes=nbytes)
        pre_actions, lookup_cycles = self.slow_path.lookup(ctx)
        vs.stats.slow_path_lookups += 1
        try:
            vs.session_table.insert(self.vnic.vni, ft, pre_actions, None,
                                    vs.engine.now, EntryMode.FLOWS_ONLY)
        except TableFull:
            # Degrade gracefully: process this packet without caching.
            self.stats.flow_insert_failures += 1
        cycles = (lookup_cycles + cm.flow_insert_cycles
                  + nbytes * cm.cycles_per_byte)
        return pre_actions, cycles, True

    # -- TX from the BE --------------------------------------------------------------

    def handle_from_be(self, packet: Packet, meta: NezhaMeta) -> None:
        vs = self.vswitch
        cm = vs.cost_model
        if _spans.ACTIVE:
            _spans.hop(packet, "fe_rx", vs.engine.now)
        state = meta.state
        if state is None or not self.active:
            self.stats.inactive_drops += 1
            return
        pre_actions, cycles, was_miss = self._flows_for(packet, Direction.TX)
        if pre_actions is None:
            self.stats.no_preaction_drops += 1
            return

        def complete():
            from repro.vswitch.vswitch import _qos_admits
            if not _qos_admits(vs, self.vnic, pre_actions.tx,
                               packet.wire_length, vnic_level=False):
                return
            self.stats.tx_processed += 1
            # Notify the BE when the rule lookup revealed a different
            # rule-table-involved state than the packet carried (§3.2.2).
            if was_miss:
                lookup_policy = pre_actions.tx.stats_policy
                if (not self.suppress_redundant_notifies
                        or lookup_policy != state.stats_policy):
                    self._send_notify(packet, lookup_policy)
            action = process_pkt(Direction.TX, pre_actions, state,
                                 packet.wire_length)
            if action.is_drop:
                # The BE is unaware of the drop and keeps its state; short
                # aging for embryonic sessions reclaims it (§5.1, §7.3).
                self.stats.acl_drops += 1
                return
            if (self.vnic.stateful_decap
                    and state.decap_overlay_src is not None):
                # §5.2: the response must return to the recorded overlay
                # source (the LB), not to the mapping-table destination.
                action.next_hop_ip = state.decap_overlay_src
                action.next_hop_mac = None
            vs.forward_overlay(packet, action)

        vs.charge(cycles + cm.encap_cycles, complete)

    def _send_notify(self, packet: Packet, policy) -> None:
        vs = self.vswitch
        self.stats.notifies_sent += 1
        meta = NezhaMeta(kind=KIND_NOTIFY, vnic_id=self.vnic.vnic_id,
                         notify_five_tuple=packet.five_tuple(),
                         notify_policy=policy)
        hop = build_nezha_hop(vs.server.underlay_ip, vs.server.mac,
                              self.be_location, meta)
        vs.charge(vs.cost_model.notify_cycles,
                  lambda: vs.server.send_to_fabric(hop))

    # -- RX from remote senders ----------------------------------------------------------

    def handle_overlay_rx(self, packet: Packet, vni: int,
                          overlay_src: Optional[IPv4Address] = None) -> bool:
        """Consume a decapped overlay arrival addressed to the fronted vNIC.

        ``overlay_src`` is the outer source IP captured before decap
        (§3.2.2: "RX packets may lose information... after being processed
        by the FE"); it seeds the stateful-decap state. Returns False when
        this instance is not responsible (wrong VNI or wrong inner
        destination), letting the vSwitch count the drop.
        """
        if not self.active or vni != self.vnic.vni:
            return False
        if packet.expect(IPv4Header).dst.value != self.vnic.tenant_ip.value:
            return False
        vs = self.vswitch
        cm = vs.cost_model
        pre_actions, cycles, _was_miss = self._flows_for(packet, Direction.RX)
        if pre_actions is None:
            self.stats.no_preaction_drops += 1
            return True

        def complete():
            self.stats.rx_relayed += 1
            if _spans.ACTIVE:
                _spans.hop(packet, "fe_relay", vs.engine.now)
            meta = NezhaMeta(kind=KIND_RX, vnic_id=self.vnic.vnic_id,
                             pre_actions=pre_actions)
            if self.vnic.stateful_decap and overlay_src is not None:
                meta.overlay_src = IPv4Address(overlay_src)
            hop = build_nezha_hop(vs.server.underlay_ip, vs.server.mac,
                                  self.be_location, meta, inner=packet,
                                  entropy=packet.five_tuple().hash())
            vs.server.send_to_fabric(hop)

        vs.charge(cycles + cm.state_encode_cycles + cm.encap_cycles, complete)
        return True
