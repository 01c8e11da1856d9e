"""Tests for Nezha hop metadata encoding (repro.core.header)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.net import FiveTuple, IPv4Address, MacAddress, Packet, TcpFlags
from repro.vswitch import Direction, PreActions, SessionState, StatsPolicy, Verdict
from repro.vswitch.rule_tables import Location
from repro.core.header import (
    KIND_NOTIFY, KIND_RX, KIND_TX, NezhaMeta, build_nezha_hop,
    decode_five_tuple, decode_pre_actions, encode_five_tuple,
    encode_pre_actions, unwrap_nezha_hop,
)

A = IPv4Address("10.0.0.1")
B = IPv4Address("10.0.0.2")
LOC = Location(IPv4Address("10.1.0.1"), MacAddress(0x42))


# -- pre-action blob ------------------------------------------------------------

def test_pre_actions_roundtrip():
    pre = PreActions()
    pre.tx.verdict = Verdict.DROP
    pre.rx.stats_policy = StatsPolicy.FULL
    pre.rx.qos_class = 7
    pre.rx.stateful_acl = False
    back = decode_pre_actions(encode_pre_actions(pre))
    assert back.tx.verdict is Verdict.DROP
    assert back.rx.verdict is Verdict.ACCEPT
    assert back.rx.stats_policy is StatsPolicy.FULL
    assert back.rx.qos_class == 7
    assert back.rx.stateful_acl is False
    assert back.tx.stateful_acl is True


def test_pre_actions_short_blob_rejected():
    with pytest.raises(DecodeError):
        decode_pre_actions(b"\x00")


def test_pre_actions_unknown_stats_policy_rejected():
    blob = bytearray(encode_pre_actions(PreActions()))
    blob[4] = 0xEE  # the stats-policy byte
    with pytest.raises(DecodeError):
        decode_pre_actions(bytes(blob))


@given(st.sampled_from(list(Verdict)), st.sampled_from(list(Verdict)),
       st.sampled_from(list(StatsPolicy)), st.integers(0, 255),
       st.booleans(), st.booleans())
def test_pre_actions_roundtrip_property(txv, rxv, policy, qos, sa_tx, sa_rx):
    pre = PreActions()
    pre.tx.verdict, pre.rx.verdict = txv, rxv
    pre.rx.stats_policy = policy
    pre.rx.qos_class = qos
    pre.tx.stateful_acl, pre.rx.stateful_acl = sa_tx, sa_rx
    back = decode_pre_actions(encode_pre_actions(pre))
    assert back.tx.verdict is txv and back.rx.verdict is rxv
    assert back.rx.stats_policy is policy
    assert back.rx.qos_class == qos


# -- five-tuple blob ---------------------------------------------------------------

@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 6, 17]), st.integers(0, 65535),
       st.integers(0, 65535))
def test_five_tuple_roundtrip_property(src, dst, proto, sport, dport):
    ft = FiveTuple(IPv4Address(src), IPv4Address(dst), proto, sport, dport)
    assert decode_five_tuple(encode_five_tuple(ft)) == ft


def test_five_tuple_short_blob_rejected():
    with pytest.raises(DecodeError):
        decode_five_tuple(b"\x00" * 12)


# -- NezhaMeta <-> NSH context ----------------------------------------------------------

def test_tx_meta_roundtrip():
    state = SessionState(first_direction=Direction.TX,
                         stats_policy=StatsPolicy.BYTES)
    meta = NezhaMeta(kind=KIND_TX, vnic_id=77, state=state)
    back = NezhaMeta.from_context(meta.to_context())
    assert back.kind == KIND_TX
    assert back.vnic_id == 77
    assert back.state.first_direction is Direction.TX
    assert back.state.stats_policy is StatsPolicy.BYTES
    assert back.pre_actions is None


def test_rx_meta_roundtrip_with_overlay_src():
    pre = PreActions()
    pre.rx.verdict = Verdict.DROP
    meta = NezhaMeta(kind=KIND_RX, vnic_id=5, pre_actions=pre,
                     overlay_src=IPv4Address("172.16.0.9"))
    back = NezhaMeta.from_context(meta.to_context())
    assert back.kind == KIND_RX
    assert back.pre_actions.rx.verdict is Verdict.DROP
    assert back.overlay_src == IPv4Address("172.16.0.9")


def test_notify_meta_roundtrip():
    ft = FiveTuple(A, B, 6, 1000, 80)
    meta = NezhaMeta(kind=KIND_NOTIFY, vnic_id=3, notify_five_tuple=ft,
                     notify_policy=StatsPolicy.PACKETS)
    back = NezhaMeta.from_context(meta.to_context())
    assert back.kind == KIND_NOTIFY
    assert back.notify_five_tuple == ft
    assert back.notify_policy is StatsPolicy.PACKETS


# -- hop build / unwrap ----------------------------------------------------------------------

def test_hop_wraps_inner_packet_and_unwraps():
    inner = Packet.tcp(A, B, 1000, 80, TcpFlags.of("syn"), b"data")
    state = SessionState(first_direction=Direction.TX)
    meta = NezhaMeta(kind=KIND_TX, vnic_id=9, state=state)
    hop = build_nezha_hop(IPv4Address("10.2.0.1"), MacAddress(1), LOC, meta,
                          inner=inner, entropy=1234)
    # The hop is routed by its outer IP toward the FE.
    from repro.net.ipv4 import IPv4Header
    assert hop.expect(IPv4Header).dst == LOC.underlay_ip
    back_meta = unwrap_nezha_hop(hop)
    assert back_meta.vnic_id == 9
    assert hop.five_tuple() == inner.five_tuple()
    assert hop.payload == b"data"


def test_hop_wire_roundtrip():
    """The whole BE→FE hop survives byte serialization."""
    inner = Packet.tcp(A, B, 1000, 80, TcpFlags.of("psh", "ack"), b"xyz")
    meta = NezhaMeta(kind=KIND_TX, vnic_id=2,
                     state=SessionState(first_direction=Direction.TX))
    hop = build_nezha_hop(IPv4Address("10.2.0.1"), MacAddress(1), LOC, meta,
                          inner=inner)
    decoded = Packet.decode(hop.encode(), first_layer="ethernet")
    assert decoded == hop
    assert unwrap_nezha_hop(decoded).vnic_id == 2


def test_notify_hop_has_no_inner():
    meta = NezhaMeta(kind=KIND_NOTIFY, vnic_id=4,
                     notify_five_tuple=FiveTuple(A, B, 6, 1, 2),
                     notify_policy=StatsPolicy.NONE)
    hop = build_nezha_hop(IPv4Address("10.2.0.1"), MacAddress(1), LOC, meta)
    back = unwrap_nezha_hop(hop)
    assert back.notify_five_tuple == FiveTuple(A, B, 6, 1, 2)


def test_unwrap_requires_nsh():
    pkt = Packet.tcp(A, B, 1, 2, TcpFlags.of("syn"))
    with pytest.raises(DecodeError):
        unwrap_nezha_hop(pkt)


# -- a header that cannot exist is refused where the hop is built ---------------------------

class _PaddedMeta(NezhaMeta):
    """A TX meta whose context is padded out to an exact number of words."""

    words = 0

    def to_context(self):
        ctx = super().to_context()
        have = len(ctx.encode()) // 4
        # One filler TLV: a 1-word header plus the remaining words of value.
        return ctx.put(0x7F, b"\xAA" * 4 * (self.words - have - 1))


def _padded_hop(words):
    meta = _PaddedMeta(kind=KIND_TX, vnic_id=1,
                       state=SessionState(first_direction=Direction.TX))
    meta.words = words
    inner = Packet.tcp(A, B, 1000, 80, TcpFlags.of("ack"), b"abc")
    return build_nezha_hop(IPv4Address("10.2.0.1"), MacAddress(1), LOC, meta,
                           inner=inner)


def test_longest_encodable_context_is_61_words():
    """The NSH length field is 6 bits of 4-byte words: 2 words of base
    header leave 61 for TLVs. The datapath never serializes a hop, so the
    limit is enforced where the context is sealed."""
    hop = _padded_hop(61)
    assert hop.nsh().wire_length == 8 + 61 * 4
    assert len(hop.encode()) == hop.wire_length
    assert Packet.decode(hop.encode(), first_layer="ethernet") == hop


def test_unencodable_context_fails_where_the_hop_is_built():
    with pytest.raises(DecodeError):
        _padded_hop(62)
