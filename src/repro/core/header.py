"""Nezha metadata carried in NSH context TLVs (§3.2.1).

Three packet kinds cross the BE↔FE hop, distinguished by the DIRECTION TLV:

* ``T`` — a TX data packet, BE→FE, carrying the session STATE;
* ``R`` — an RX data packet, FE→BE, carrying PRE_ACTIONS and, when the NF
  needs it, STATE_INIT info (e.g. the overlay source for stateful decap);
* ``N`` — a designated notify packet, FE→BE, updating rule-table-involved
  state (§3.2.2).

:func:`build_nezha_hop` wraps an inner tenant packet in
``Eth / IPv4 / UDP(4790) / NSH(meta)`` addressed to the peer's underlay.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from repro.errors import DecodeError
from repro.net.addr import IPv4Address, MacAddress
from repro.net.ethernet import EthernetHeader
from repro.net.five_tuple import FiveTuple
from repro.net.ipv4 import IPv4Header
from repro.net.nsh import NshContext, NshHeader
from repro.net.packet import NSH_PORT, Packet
from repro.net.udp import UdpHeader
from repro.net.five_tuple import PROTO_UDP
from repro.vswitch.actions import PreAction, PreActions, Verdict
from repro.vswitch.rule_tables import Location
from repro.vswitch.state import (STATS_POLICY_BY_CODE, SessionState,
                                 StatsPolicy)

KIND_TX = b"T"
KIND_RX = b"R"
KIND_NOTIFY = b"N"

# One struct per TLV payload; enum members come from tables, not calls.
_PRE_ACTIONS = struct.Struct("!cc??BB2x")  # verdicts, stateful flags, policy, qos
_FIVE_TUPLE = struct.Struct("!IIBHH")
_VNIC = struct.Struct("!I")


def encode_pre_actions(pre: PreActions) -> bytes:
    """Pack the fields the BE needs to finish RX processing (8 bytes)."""
    tx, rx = pre.tx, pre.rx
    return _PRE_ACTIONS.pack(tx.verdict.to_wire(), rx.verdict.to_wire(),
                             tx.stateful_acl, rx.stateful_acl,
                             rx.stats_policy.value, rx.qos_class & 0xFF)


@lru_cache(maxsize=4096)
def decode_pre_actions(data: bytes) -> PreActions:
    """Interned by blob: a vNIC carries a handful of distinct values and
    nothing downstream mutates a decoded ``PreActions``, so every hop
    with the same 8 bytes shares one (read-only) object."""
    if len(data) < _PRE_ACTIONS.size:
        raise DecodeError(f"pre-actions blob needs 8B, got {len(data)}")
    tx_verdict, rx_verdict, tx_stateful, rx_stateful, policy, qos = (
        _PRE_ACTIONS.unpack_from(data))
    try:
        policy = STATS_POLICY_BY_CODE[policy]
    except KeyError:
        raise DecodeError(f"unknown stats policy {policy}") from None
    return PreActions(
        PreAction(verdict=Verdict.from_wire(tx_verdict),
                  stateful_acl=tx_stateful, stats_policy=policy),
        PreAction(verdict=Verdict.from_wire(rx_verdict),
                  stateful_acl=rx_stateful, stats_policy=policy,
                  qos_class=qos))


def encode_five_tuple(ft: FiveTuple) -> bytes:
    return _FIVE_TUPLE.pack(ft.src_ip.value, ft.dst_ip.value, ft.proto,
                            ft.src_port, ft.dst_port)


def decode_five_tuple(data: bytes) -> FiveTuple:
    if len(data) < _FIVE_TUPLE.size:
        raise DecodeError(f"five-tuple blob needs 13B, got {len(data)}")
    return FiveTuple(*_FIVE_TUPLE.unpack_from(data))


@dataclass
class NezhaMeta:
    """Decoded Nezha TLV bundle."""

    kind: bytes                     # KIND_TX / KIND_RX / KIND_NOTIFY
    vnic_id: int
    state: Optional[SessionState] = None        # TX-ward
    pre_actions: Optional[PreActions] = None    # RX-ward
    overlay_src: Optional[IPv4Address] = None   # STATE_INIT for decap (§5.2)
    notify_five_tuple: Optional[FiveTuple] = None
    notify_policy: Optional[StatsPolicy] = None

    def to_context(self) -> NshContext:
        entries = {NshContext.DIRECTION: self.kind,
                   NshContext.VNIC: _VNIC.pack(self.vnic_id)}
        if self.state is not None:
            entries[NshContext.STATE] = self.state.to_wire()
        if self.pre_actions is not None:
            entries[NshContext.PRE_ACTIONS] = encode_pre_actions(
                self.pre_actions)
        if self.overlay_src is not None:
            entries[NshContext.STATE_INIT] = self.overlay_src.to_bytes()
        if self.notify_five_tuple is not None:
            entries[NshContext.NOTIFY] = (
                encode_five_tuple(self.notify_five_tuple)
                + (self.notify_policy or StatsPolicy.NONE).to_wire())
        return NshContext(entries)

    @classmethod
    def from_context(cls, ctx: NshContext) -> "NezhaMeta":
        """A decoded *snapshot*: every field is rebuilt from the TLV
        bytes, so the FE never sees the BE's live ``SessionState``."""
        entries = ctx.entries
        (vnic_id,) = _VNIC.unpack(ctx.get(NshContext.VNIC))
        meta = cls(ctx.get(NshContext.DIRECTION), vnic_id)
        blob = entries.get(NshContext.STATE)
        if blob is not None:
            meta.state = SessionState.from_wire(blob)
        blob = entries.get(NshContext.PRE_ACTIONS)
        if blob is not None:
            meta.pre_actions = decode_pre_actions(blob)
        blob = entries.get(NshContext.STATE_INIT)
        if blob is not None:
            meta.overlay_src = IPv4Address.from_bytes(blob)
        blob = entries.get(NshContext.NOTIFY)
        if blob is not None:
            meta.notify_five_tuple = decode_five_tuple(blob)
            meta.notify_policy = StatsPolicy.from_wire(blob[13:14])
        return meta


def build_nezha_hop(src_ip: IPv4Address, src_mac: MacAddress,
                    dst: Location, meta: NezhaMeta,
                    inner: Optional[Packet] = None,
                    entropy: int = 0) -> Packet:
    """Wrap ``inner`` (or nothing, for a notify) for the BE↔FE hop.

    Reading ``nsh.wire_length`` seals the context: the hop's one TLV
    encode, and where an over-long context raises ``DecodeError``."""
    nsh = NshHeader(spi=meta.vnic_id & 0xFFFFFF, si=255,
                    context=meta.to_context())
    udp_len = UdpHeader.wire_length + nsh.wire_length
    if inner is not None:
        udp_len += inner.wire_length
    total = IPv4Header.wire_length + udp_len
    outer = [
        EthernetHeader(dst.underlay_mac, src_mac),
        IPv4Header(src_ip, dst.underlay_ip, PROTO_UDP, total_length=total),
        UdpHeader(49152 + (entropy & 0x3FFF), NSH_PORT, udp_len),
        nsh,
    ]
    if inner is None:
        return Packet(outer)
    return inner.wrapped(outer, EthernetHeader.wire_length + total)


def unwrap_nezha_hop(packet: Packet) -> NezhaMeta:
    """Strip the hop encapsulation in place; returns the decoded metadata.

    After this call the packet holds only the inner tenant layers (for a
    notify, a placeholder NSH layer remains — notify packets carry no
    tenant payload and are consumed by the BE).
    """
    layers = packet.layers
    # The hop's fixed shape: Eth / IPv4 / UDP / NSH [/ inner tenant layers].
    if len(layers) < 4 or type(layers[3]) is not NshHeader:
        raise DecodeError("not a Nezha hop packet (no NSH layer in slot 3)")
    meta = NezhaMeta.from_context(layers[3].context)
    # A notify's NSH layer is the last one: it stays as the placeholder.
    packet.decap(4 if len(layers) > 4 else 3)
    return meta
