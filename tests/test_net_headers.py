"""Unit + property tests for individual header codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DecodeError
from repro.net import (
    EthernetHeader, IcmpHeader, IPv4Address, IPv4Header, MacAddress,
    NshContext, NshHeader, TcpFlags, TcpHeader, UdpHeader, VxlanHeader,
)
from repro.net.checksum import verify_checksum
from repro.net.icmp import ECHO_REPLY, ECHO_REQUEST

ips = st.integers(0, (1 << 32) - 1).map(IPv4Address)
macs = st.integers(0, (1 << 48) - 1).map(MacAddress)
ports = st.integers(0, 0xFFFF)


# -- Ethernet ------------------------------------------------------------------

def test_ethernet_roundtrip():
    eth = EthernetHeader(MacAddress(1), MacAddress(2), 0x0800)
    decoded, rest = EthernetHeader.decode(eth.encode() + b"tail")
    assert decoded == eth
    assert rest == b"tail"


def test_ethernet_too_short():
    with pytest.raises(DecodeError):
        EthernetHeader.decode(b"\x00" * 13)


@given(macs, macs, st.integers(0, 0xFFFF))
def test_ethernet_roundtrip_property(dst, src, ethertype):
    eth = EthernetHeader(dst, src, ethertype)
    decoded, rest = EthernetHeader.decode(eth.encode())
    assert decoded == eth and rest == b""


# -- IPv4 -------------------------------------------------------------------------

def test_ipv4_roundtrip():
    ip = IPv4Header(IPv4Address("1.2.3.4"), IPv4Address("5.6.7.8"), 6,
                    total_length=60, ttl=17, identification=99, dscp=10)
    decoded, rest = IPv4Header.decode(ip.encode() + b"x")
    assert decoded == ip
    assert rest == b"x"


def test_ipv4_checksum_valid_on_wire():
    ip = IPv4Header(IPv4Address("9.9.9.9"), IPv4Address("8.8.8.8"), 17)
    assert verify_checksum(ip.encode())


def test_ipv4_rejects_bad_fields():
    a, b = IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2")
    with pytest.raises(DecodeError):
        IPv4Header(a, b, 300)
    with pytest.raises(DecodeError):
        IPv4Header(a, b, 6, total_length=10)
    with pytest.raises(DecodeError):
        IPv4Header(a, b, 6, ttl=-1)


def test_ipv4_rejects_wrong_version():
    ip = IPv4Header(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), 6)
    data = bytearray(ip.encode())
    data[0] = (6 << 4) | 5
    with pytest.raises(DecodeError):
        IPv4Header.decode(bytes(data))


def test_ipv4_ttl_decrement():
    ip = IPv4Header(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"), 6, ttl=2)
    assert ip.decrement_ttl()
    assert ip.ttl == 1
    assert not ip.decrement_ttl()


@given(ips, ips, st.sampled_from([1, 6, 17]), st.integers(20, 1500),
       st.integers(1, 255))
def test_ipv4_roundtrip_property(src, dst, proto, total_length, ttl):
    ip = IPv4Header(src, dst, proto, total_length=total_length, ttl=ttl)
    decoded, rest = IPv4Header.decode(ip.encode())
    assert decoded == ip and rest == b""


# -- TCP -----------------------------------------------------------------------------

def test_tcp_flags_of_and_predicates():
    flags = TcpFlags.of("syn", "ack")
    assert flags.syn and flags.ack and not flags.fin


def test_tcp_roundtrip():
    tcp = TcpHeader(1234, 80, seq=7, ack_num=9, flags=TcpFlags.of("psh", "ack"),
                    window=1024)
    decoded, rest = TcpHeader.decode(tcp.encode() + b"d")
    assert decoded == tcp
    assert rest == b"d"


def test_tcp_rejects_bad_port():
    with pytest.raises(DecodeError):
        TcpHeader(70000, 80)


def test_tcp_rejects_options():
    tcp = TcpHeader(1, 2)
    data = bytearray(tcp.encode())
    data[12] = 6 << 4  # data offset 6 words
    with pytest.raises(DecodeError):
        TcpHeader.decode(bytes(data))


@given(ports, ports, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
       st.integers(0, 0x3F), st.integers(0, 0xFFFF))
def test_tcp_roundtrip_property(sp, dp, seq, ack, flagbits, window):
    tcp = TcpHeader(sp, dp, seq, ack, TcpFlags(flagbits), window)
    decoded, rest = TcpHeader.decode(tcp.encode())
    assert decoded == tcp and rest == b""


# -- UDP --------------------------------------------------------------------------------

def test_udp_roundtrip_and_payload_length():
    udp = UdpHeader(53, 5353, length=20)
    assert udp.payload_length == 12
    decoded, rest = UdpHeader.decode(udp.encode())
    assert decoded == udp and rest == b""


def test_udp_rejects_short_length():
    with pytest.raises(DecodeError):
        UdpHeader(1, 2, length=4)


# -- ICMP -------------------------------------------------------------------------------

def test_icmp_echo_roundtrip():
    icmp = IcmpHeader(ECHO_REQUEST, 0, identifier=7, sequence=3)
    decoded, rest = IcmpHeader.decode(icmp.encode())
    assert decoded == icmp and rest == b""
    assert decoded.is_echo_request


def test_icmp_reply_matches_request():
    req = IcmpHeader(ECHO_REQUEST, 0, identifier=7, sequence=3)
    rep = req.reply()
    assert rep.icmp_type == ECHO_REPLY
    assert (rep.identifier, rep.sequence) == (7, 3)
    assert rep.is_echo_reply


def test_icmp_reply_requires_request():
    with pytest.raises(DecodeError):
        IcmpHeader(ECHO_REPLY).reply()


# -- VXLAN ---------------------------------------------------------------------------------

def test_vxlan_roundtrip():
    vx = VxlanHeader(0xABCDEF)
    decoded, rest = VxlanHeader.decode(vx.encode())
    assert decoded == vx and rest == b""


def test_vxlan_rejects_oversized_vni():
    with pytest.raises(DecodeError):
        VxlanHeader(1 << 24)


def test_vxlan_requires_i_flag():
    data = bytearray(VxlanHeader(5).encode())
    data[0] = 0
    with pytest.raises(DecodeError):
        VxlanHeader.decode(bytes(data))


@given(st.integers(0, (1 << 24) - 1))
def test_vxlan_roundtrip_property(vni):
    vx = VxlanHeader(vni)
    decoded, _ = VxlanHeader.decode(vx.encode())
    assert decoded.vni == vni


# -- NSH ------------------------------------------------------------------------------------

def test_nsh_empty_context_roundtrip():
    nsh = NshHeader(spi=10, si=5)
    decoded, rest = NshHeader.decode(nsh.encode() + b"pp")
    assert decoded == nsh
    assert rest == b"pp"


def test_nsh_context_tlv_roundtrip():
    ctx = NshContext({NshContext.STATE: b"\x01\x02\x03",
                      NshContext.VNIC: b"\x00\x00\x00\x07"})
    nsh = NshHeader(spi=1, si=254, context=ctx)
    decoded, rest = NshHeader.decode(nsh.encode())
    assert decoded.context.get(NshContext.STATE) == b"\x01\x02\x03"
    assert decoded.context.get(NshContext.VNIC) == b"\x00\x00\x00\x07"
    assert rest == b""


def test_nsh_context_get_missing_raises():
    with pytest.raises(DecodeError):
        NshContext().get(NshContext.STATE)
    assert NshContext().get_or(NshContext.STATE, b"?") == b"?"


def test_nsh_context_len_and_contains():
    ctx = NshContext({1: b"a", 2: b"bb"})
    assert len(ctx) == 2
    assert 1 in ctx and 3 not in ctx


def test_nsh_rejects_giant_tlv():
    with pytest.raises(DecodeError):
        NshContext({1: b"x" * 256})


def test_nsh_rejects_bad_spi_si():
    with pytest.raises(DecodeError):
        NshHeader(spi=1 << 24)
    with pytest.raises(DecodeError):
        NshHeader(si=256)


@given(st.dictionaries(st.integers(0, 255), st.binary(min_size=0, max_size=40),
                       max_size=4),
       st.integers(0, (1 << 24) - 1), st.integers(0, 255))
def test_nsh_roundtrip_property(entries, spi, si):
    nsh = NshHeader(spi=spi, si=si, context=NshContext(entries))
    decoded, rest = NshHeader.decode(nsh.encode())
    assert decoded == nsh and rest == b""
