"""The per-packet reference datapath: Fig 1 written longhand.

One session lookup, one event-driven CPU job (``cpu.try_submit`` plus a
process that yields it), one boxed-``SessionState`` update and one
``forward_overlay`` / ``deliver`` per packet. No run classification, no
flow records, no encap template, no burst scheduling: bursts and runs
reach it through :class:`Datapath`'s defaults, which unroll them into
per-packet calls. Installed through ``VSwitch.set_datapath`` — ``src/``
does not know it exists — and compared with :class:`LocalDatapath` by
``tests/test_reference_oracle.py``. Slow and obvious on purpose; what it
shares with the pipeline is only what both must call: the session table,
the slow path, ``process_pkt``, the TCP FSM, the QoS police and the
vSwitch's forward / the vNIC's deliver.
"""

from repro.errors import TableFull
from repro.net.addr import IPv4Address
from repro.net.tcp import TcpHeader
from repro.vswitch.actions import Direction, process_pkt
from repro.vswitch.rule_tables import LookupContext
from repro.vswitch.session_table import EntryMode
from repro.vswitch.state import SessionState
from repro.vswitch.tcp_fsm import tcp_transition
from repro.vswitch.vswitch import Datapath, _qos_admits


class ReferenceDatapath(Datapath):

    def __init__(self, vswitch) -> None:
        self.vs = vswitch

    def handle_tx(self, vnic, packet) -> None:
        self._handle(vnic, packet, Direction.TX, None)

    def handle_rx(self, vnic, packet, overlay_src=None) -> None:
        self._handle(vnic, packet, Direction.RX, overlay_src)

    def _handle(self, vnic, packet, direction, overlay_src) -> None:
        vs, cm, table = self.vs, self.vs.cost_model, self.vs.session_table
        ft, nbytes = packet.five_tuple(), packet.wire_length
        entry = table.lookup(vnic.vni, ft)
        if entry is not None and entry.pre_actions is not None:
            vs.stats.fast_path_hits += 1
            cycles = cm.fast_path_cycles
        else:
            # Miss, or a STATE_ONLY residue whose flow must be re-derived.
            ctx = LookupContext(
                ft if direction is Direction.TX else ft.reversed(),
                vni=vnic.vni, packet_bytes=nbytes)
            pre, cycles = vnic.slow_path.lookup(ctx)
            vs.stats.slow_path_lookups += 1
            if entry is not None:
                if not table.promote(entry, pre):
                    vs.stats.session_full_drops += 1
                    return
                cycles += cm.flow_insert_cycles
            else:
                try:
                    entry = table.insert(
                        vnic.vni, ft, pre,
                        SessionState(first_direction=direction),
                        vs.engine.now, EntryMode.FULL)
                except TableFull:
                    vs.stats.session_full_drops += 1
                    vs.trace.emit("pkt.session_full", vswitch=vs.name)
                    return
                cycles += cm.session_setup_cycles
        cycles += nbytes * cm.cycles_per_byte
        if direction is Direction.TX:
            cycles += cm.encap_cycles
        elif vnic.stateful_decap and overlay_src is not None:
            entry.state.decap_overlay_src = IPv4Address(overlay_src)
        job = vs.cpu.try_submit(cycles, cm.max_cpu_backlog)
        if job is None:
            vs.stats.cpu_drops += 1
            vs.trace.emit("pkt.cpu_drop", vswitch=vs.name)
            return
        vs.engine.process(self._complete(job, vnic, entry, packet, direction))

    def _complete(self, job, vnic, entry, packet, direction):
        yield job
        vs, state = self.vs, entry.state
        if entry.pre_actions is None or state is None:
            vs.stats.cpu_drops += 1     # demoted while the job was queued
            return
        tcp = packet.find(TcpHeader)
        if tcp is not None:
            state.tcp_state = tcp_transition(
                state.tcp_state, state.first_direction == direction,
                tcp.flags)
        state.touch(vs.engine.now)
        action = process_pkt(direction, entry.pre_actions, state,
                             packet.wire_length)
        if action.is_drop:
            vs.stats.acl_drops += 1
            vs.trace.emit("pkt.acl_drop", vswitch=vs.name,
                          direction=direction.value)
            return
        if direction is Direction.RX:
            vs.stats.delivered += 1
            vnic.deliver(packet)
            return
        pre = entry.pre_actions.tx
        if not _qos_admits(vs, vnic, pre, packet.wire_length):
            return
        if vnic.stateful_decap and state.decap_overlay_src is not None:
            action.next_hop_ip, action.next_hop_mac = (
                state.decap_overlay_src, None)
        vs.forward_overlay(packet, action)


def install_reference(cloud):
    """Swap both of a test cloud's vNICs onto the reference datapath."""
    for vs, vnic in ((cloud.vswitch_a, cloud.vnic_a),
                     (cloud.vswitch_b, cloud.vnic_b)):
        vs.set_datapath(vnic.vnic_id, ReferenceDatapath(vs))
    return cloud
