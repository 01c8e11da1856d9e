"""Tests for the Packet model: stacking, encap/decap, wire round-trips."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.header import (KIND_NOTIFY, KIND_RX, KIND_TX, NezhaMeta,
                               build_nezha_hop, unwrap_nezha_hop)
from repro.errors import PacketError
from repro.net import (
    EthernetHeader, FiveTuple, IPv4Address, IPv4Header, MacAddress,
    NshContext, NshHeader, Packet, TcpFlags, TcpHeader, UdpHeader,
    VxlanHeader, PROTO_TCP,
)
from repro.net.icmp import IcmpHeader
from repro.net.packet import (NSH_PORT, EncapTemplate,
                              make_underlay_transport)
from repro.vswitch.actions import Direction, PreActions, Verdict
from repro.vswitch.rule_tables import Location
from repro.vswitch.state import SessionState, StatsPolicy
from repro.vswitch.tcp_fsm import TcpState

A = IPv4Address("10.0.0.1")
B = IPv4Address("10.0.0.2")


def tcp_pkt(payload=b"hello"):
    return Packet.tcp(A, B, 1000, 80, TcpFlags.of("syn"), payload)


# -- five tuple -----------------------------------------------------------------

def test_five_tuple_extraction():
    ft = tcp_pkt().five_tuple()
    assert ft == FiveTuple(A, B, PROTO_TCP, 1000, 80)


def test_five_tuple_reverse_and_session_key():
    ft = FiveTuple(A, B, PROTO_TCP, 1000, 80)
    rev = ft.reversed()
    assert rev.src_ip == B and rev.dst_port == 1000
    assert ft.session_key() == rev.session_key()
    assert ft != rev


def test_five_tuple_hash_deterministic_and_seeded():
    ft = FiveTuple(A, B, PROTO_TCP, 1000, 80)
    assert ft.hash() == ft.hash()
    assert ft.hash(seed=1) != ft.hash(seed=2)


def test_five_tuple_hash_not_symmetric():
    # Nezha explicitly does NOT need symmetric hashing (§3.2.3); the state
    # is on the BE which both directions traverse.
    ft = FiveTuple(A, B, PROTO_TCP, 1000, 80)
    assert ft.hash() != ft.reversed().hash()


def test_five_tuple_usable_as_dict_key():
    ft = FiveTuple(A, B, PROTO_TCP, 1, 2)
    same = FiveTuple(A, B, PROTO_TCP, 1, 2)
    assert {ft: "x"}[same] == "x"


# -- constructors / accessors ------------------------------------------------------

def test_tcp_packet_lengths():
    pkt = tcp_pkt(b"12345")
    assert pkt.wire_length == 20 + 20 + 5
    assert pkt.expect(IPv4Header).total_length == 45


def test_udp_packet_lengths():
    pkt = Packet.udp(A, B, 53, 53, b"q" * 10)
    assert pkt.expect(UdpHeader).length == 18
    assert pkt.wire_length == 20 + 8 + 10


def test_icmp_echo_constructor():
    pkt = Packet.icmp_echo(A, B, identifier=3, sequence=9)
    ft = pkt.five_tuple()
    assert ft.proto == 1


def test_find_and_expect():
    pkt = tcp_pkt()
    assert pkt.find(TcpHeader) is pkt.layers[1]
    assert pkt.find(VxlanHeader) is None
    with pytest.raises(PacketError):
        pkt.expect(VxlanHeader)


def test_empty_packet_rejected():
    with pytest.raises(PacketError):
        Packet([])


# -- encap / decap ---------------------------------------------------------------------

def test_underlay_transport_wraps_and_unwraps():
    inner = tcp_pkt()
    wrapped = make_underlay_transport(
        MacAddress(1), MacAddress(2), IPv4Address("192.168.0.1"),
        IPv4Address("192.168.0.2"), inner, vni=77)
    assert wrapped.vni() == 77
    # Inner five-tuple is still the tenant's.
    assert wrapped.five_tuple() == inner.five_tuple()
    # Unwrap: drop Eth/IPv4/UDP/VXLAN/innerEth.
    wrapped.decap(5)
    assert wrapped.layers == inner.layers


def test_encap_returns_self_for_chaining():
    pkt = tcp_pkt()
    assert pkt.encap(VxlanHeader(1)) is pkt
    assert isinstance(pkt.outer, VxlanHeader)


def test_decap_cannot_empty_packet():
    pkt = tcp_pkt()
    with pytest.raises(PacketError):
        pkt.decap(2)


def test_decap_until():
    pkt = tcp_pkt()
    pkt.encap(VxlanHeader(1))
    removed = pkt.decap_until(IPv4Header)
    assert len(removed) == 1
    assert isinstance(pkt.outer, IPv4Header)


def test_decap_until_missing_layer_raises():
    pkt = Packet([IPv4Header(A, B, 6, total_length=40), TcpHeader(1, 2)])
    with pytest.raises(PacketError):
        pkt.decap_until(VxlanHeader)


def test_copy_is_independent():
    pkt = tcp_pkt()
    dup = pkt.copy()
    dup.meta["x"] = 1
    dup.expect(IPv4Header).ttl = 1
    assert "x" not in pkt.meta
    assert pkt.expect(IPv4Header).ttl == 64
    assert dup == pkt or dup.expect(IPv4Header).ttl != pkt.expect(IPv4Header).ttl


_EVERY_HEADER = [
    EthernetHeader(MacAddress(2), MacAddress(1), 0x0800),
    IPv4Header(A, B, PROTO_TCP, total_length=60, ttl=9, identification=7,
               dscp=3, flags=2, frag_offset=5),
    TcpHeader(1000, 80, seq=11, ack_num=12, flags=TcpFlags.of("syn"),
              window=100),
    UdpHeader(5000, 4789, length=30),
    IcmpHeader(8, 0, identifier=3, sequence=4),
    VxlanHeader(77),
    NshHeader(spi=5, si=200, context=NshContext({1: b"abcd"})),
]


@pytest.mark.parametrize("header", _EVERY_HEADER,
                         ids=lambda h: type(h).__name__)
def test_header_copy_equals_reduce_protocol_copy(header):
    """The generated slot-wise ``__copy__`` must build what ``copy.copy``
    built before the header classes had one: same class, every slot
    bound to the very same value object — and no shared instance."""
    cls = type(header)
    via_reduce = copy._reconstruct(header, None, *header.__reduce_ex__(4))
    dup = copy.copy(header)
    assert dup is not header and type(dup) is type(via_reduce) is cls
    assert dup == header == via_reduce
    for name in cls.__slots__:
        assert getattr(dup, name) is getattr(via_reduce, name) \
            is getattr(header, name)
    for name in cls.__slots__:               # rebinding never aliases
        before = getattr(header, name)
        setattr(dup, name, object())
        assert getattr(header, name) is before


# -- wire round-trips -----------------------------------------------------------------------

def test_plain_tcp_wire_roundtrip():
    pkt = tcp_pkt(b"payload!")
    decoded = Packet.decode(pkt.encode(), first_layer="ipv4")
    assert decoded == pkt


def test_vxlan_overlay_wire_roundtrip():
    inner = tcp_pkt(b"x" * 30)
    wrapped = make_underlay_transport(
        MacAddress(0xA), MacAddress(0xB), IPv4Address("1.1.1.1"),
        IPv4Address("2.2.2.2"), inner, vni=4242)
    decoded = Packet.decode(wrapped.encode(), first_layer="ethernet")
    assert decoded == wrapped
    assert decoded.vni() == 4242


def test_nezha_nsh_hop_wire_roundtrip():
    """The BE→FE wire format: Eth/IPv4/UDP(4790)/NSH(state)/IPv4/TCP."""
    inner = tcp_pkt(b"data")
    ctx = NshContext({NshContext.STATE: b"\x01", NshContext.DIRECTION: b"T"})
    nsh = NshHeader(spi=9, si=255, context=ctx)
    udp_len = UdpHeader.wire_length + nsh.wire_length + inner.wire_length
    outer_ip_len = IPv4Header.wire_length + udp_len
    pkt = Packet(
        [EthernetHeader(MacAddress(1), MacAddress(2)),
         IPv4Header(IPv4Address("172.16.0.1"), IPv4Address("172.16.0.2"),
                    17, total_length=outer_ip_len),
         UdpHeader(50000, NSH_PORT, udp_len),
         nsh] + inner.layers,
        inner.payload)
    decoded = Packet.decode(pkt.encode(), first_layer="ethernet")
    assert decoded == pkt
    assert decoded.nsh().context.get(NshContext.STATE) == b"\x01"
    assert decoded.five_tuple() == inner.five_tuple()


@given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1),
       st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
       st.binary(min_size=0, max_size=100))
def test_tcp_packet_wire_roundtrip_property(src, dst, sport, dport, payload):
    pkt = Packet.tcp(IPv4Address(src), IPv4Address(dst), sport, dport,
                     TcpFlags.of("ack"), payload)
    assert Packet.decode(pkt.encode(), first_layer="ipv4") == pkt


# -- the carried parse (DESIGN §3): an oracle over random layer surgery --------------

UNDERLAY = (MacAddress(1), MacAddress(2),
            IPv4Address("172.16.0.1"), IPv4Address("172.16.0.2"))
PEER = Location(IPv4Address("172.16.0.9"), MacAddress(9))

_OPS = st.one_of(
    st.tuples(st.just("encap"), st.sampled_from(["eth", "vxlan", "ip_udp"])),
    st.tuples(st.just("decap"), st.integers(0, 7)),
    st.tuples(st.just("decap_until"),
              st.sampled_from([IPv4Header, VxlanHeader, EthernetHeader,
                               TcpHeader, NshHeader])),
    st.tuples(st.just("underlay"), st.integers(0, 0xFFFFFF)),
    st.tuples(st.just("template"), st.integers(0, 0xFFFFFF)),
    st.tuples(st.just("hop"), st.integers(0, 0xFFFF)),
    st.tuples(st.just("copy"), st.none()),
    st.tuples(st.just("edit"), st.integers(0, (1 << 32) - 1)),
)


def _apply(pkt, op, arg):
    """One step of layer surgery; returns the packet to continue with."""
    if op == "encap":
        outer = {"eth": [EthernetHeader(MacAddress(3), MacAddress(4))],
                 "vxlan": [VxlanHeader(5)],
                 "ip_udp": [IPv4Header(A, B, 17, total_length=28),
                            UdpHeader(7, 8)]}[arg]
        return pkt.encap(*outer)
    if op == "decap":
        pkt.decap(arg)
    elif op == "decap_until":
        pkt.decap_until(arg)
    elif op == "underlay":
        return make_underlay_transport(*UNDERLAY, pkt, vni=arg)
    elif op == "template":
        return EncapTemplate(*UNDERLAY, vni=arg, src_port=50000).wrap(pkt)
    elif op == "hop":
        meta = NezhaMeta(kind=KIND_TX, vnic_id=arg,
                         state=SessionState(first_direction=Direction.TX))
        hop = build_nezha_hop(UNDERLAY[2], UNDERLAY[0], PEER, meta,
                              inner=pkt, entropy=arg)
        assert unwrap_nezha_hop(hop) == meta
        return hop
    elif op == "copy":
        return pkt.copy()
    elif op == "edit":
        pkt.inner_ipv4().src = IPv4Address(arg)
        pkt.invalidate_flow_cache()
    return pkt


def _observe(pkt):
    try:
        return pkt.wire_length, pkt.five_tuple()
    except PacketError:
        return pkt.wire_length, None


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=12))
def test_carried_parse_matches_fresh_parse_and_unmemoized_run(ops):
    pkt = tcp_pkt(b"payload")
    for op, arg in ops:
        try:
            pkt = _apply(pkt, op, arg)
        except PacketError:
            pass                       # a refused step changes nothing
        # The carried answers are those of a fresh, memo-less parse of
        # the layers.
        assert _observe(pkt) == _observe(Packet(pkt.layers, pkt.payload))
        assert pkt.wire_length == sum(
            layer.wire_length for layer in pkt.layers) + len(pkt.payload)


def _hop_metas():
    state = SessionState(first_direction=Direction.RX,
                         tcp_state=TcpState.ESTABLISHED,
                         stats_policy=StatsPolicy.FULL,
                         decap_overlay_src=IPv4Address("172.16.0.7"))
    pre = PreActions()
    pre.tx.verdict = Verdict.DROP
    pre.rx.stateful_acl = False
    pre.rx.qos_class = 3
    pre.tx.stats_policy = pre.rx.stats_policy = StatsPolicy.BYTES
    return [
        NezhaMeta(kind=KIND_TX, vnic_id=7, state=state),
        NezhaMeta(kind=KIND_TX, vnic_id=7, state=SessionState()),
        NezhaMeta(kind=KIND_RX, vnic_id=8, pre_actions=pre),
        NezhaMeta(kind=KIND_RX, vnic_id=8, pre_actions=pre,
                  overlay_src=IPv4Address("172.16.0.8")),
        NezhaMeta(kind=KIND_NOTIFY, vnic_id=9,
                  notify_five_tuple=FiveTuple(A, B, PROTO_TCP, 1, 2),
                  notify_policy=StatsPolicy.PACKETS),
    ]


@pytest.mark.parametrize("meta", _hop_metas(),
                         ids=["tx", "tx-blank", "rx", "rx-overlay", "notify"])
def test_hop_wire_roundtrip_decodes_the_meta_that_was_sent(meta):
    inner = None if meta.kind == KIND_NOTIFY else tcp_pkt(b"data")
    hop = build_nezha_hop(UNDERLAY[2], UNDERLAY[0], PEER, meta, inner=inner,
                          entropy=77)
    wire = hop.encode()
    assert len(wire) == hop.wire_length
    if inner is None:
        # A notify carries nothing after the NSH header, so there is no
        # next protocol to parse: decode the NSH layer where it starts.
        offset = sum(layer.wire_length for layer in hop.layers[:3])
        nsh, rest = NshHeader.decode(wire[offset:])
        assert rest == b""
    else:
        decoded = Packet.decode(wire, first_layer="ethernet")
        assert decoded == hop
        assert decoded.five_tuple() == inner.five_tuple()
        assert decoded.wire_length == hop.wire_length
        nsh = decoded.nsh()
    assert nsh == hop.nsh()
    assert NezhaMeta.from_context(nsh.context) == meta
