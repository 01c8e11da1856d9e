"""The packet: a stack of decoded headers plus a payload.

Packets traverse the simulation as structured objects (no per-hop
serialization cost), but :meth:`Packet.encode` / :meth:`Packet.decode`
produce and parse real bytes, so the wire formats stay honest — the
property tests round-trip random packets through both.

Header stacking conventions (outer → inner):

* plain overlay transport: ``Eth / IPv4 / UDP(4789) / VXLAN / Eth / IPv4 / L4``
* Nezha BE↔FE hop:        ``Eth / IPv4 / UDP(4790) / NSH(ctx) / IPv4 / L4``

``meta`` is a free-form dict for simulation bookkeeping (timestamps, ids);
it never hits the wire.
"""

from __future__ import annotations

from copy import copy as _shallow_copy
from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar, Union

from repro.errors import DecodeError, PacketError
from repro.net.addr import IPv4Address, MacAddress
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.net.five_tuple import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.icmp import IcmpHeader
from repro.net.ipv4 import IPv4Header
from repro.net.nsh import NEXT_PROTO_ETHERNET, NEXT_PROTO_IPV4, NshHeader
from repro.net.tcp import TcpFlags, TcpHeader
from repro.net.udp import UdpHeader
from repro.net.vxlan import VXLAN_PORT, VxlanHeader

NSH_PORT = 4790  # VXLAN-GPE port, next-protocol NSH

Header = Union[EthernetHeader, IPv4Header, TcpHeader, UdpHeader,
               IcmpHeader, VxlanHeader, NshHeader]
H = TypeVar("H")
_L4_HEADERS = (TcpHeader, UdpHeader, IcmpHeader)


class Packet:
    """An ordered header stack (outer first) and a payload.

    ``five_tuple()``, ``wire_length``, and :meth:`encode` are memoized:
    all three walk the layer stack, and the data path consults the first
    two several times per hop while the codec path re-serializes
    identical headers otherwise. The flow key and the wire length are
    *carried*: pushing or popping outer headers cannot touch the
    innermost ones, so :meth:`encap`/:meth:`decap`/:meth:`decap_until`
    keep the key and adjust the length by the layers moved, and
    :meth:`wrapped` hands both to the packet it builds around the same
    header objects (only the encoded bytes are dropped). Nothing in the
    datapath edits a header field in place; code that does must call
    :meth:`invalidate_flow_cache` afterwards (see DESIGN.md §3).
    """

    __slots__ = ("layers", "payload", "meta", "_ft", "_wire", "_enc")

    def __init__(self, layers: List[Header], payload: bytes = b"",
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if not layers:
            raise PacketError("a packet needs at least one header")
        self.layers: List[Header] = list(layers)
        self.payload = payload
        self.meta: Dict[str, Any] = meta if meta is not None else {}
        self._ft: Optional[FiveTuple] = None
        self._wire: Optional[int] = None
        self._enc: Optional[bytes] = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def tcp(cls, src_ip: IPv4Address, dst_ip: IPv4Address,
            src_port: int, dst_port: int, flags: TcpFlags = None,
            payload: bytes = b"", seq: int = 0, ack_num: int = 0) -> "Packet":
        """A bare IPv4/TCP packet (no Ethernet), as a VM's vNIC emits it."""
        total = IPv4Header.wire_length + TcpHeader.wire_length + len(payload)
        ip = IPv4Header(src_ip, dst_ip, PROTO_TCP, total_length=total)
        tcp = TcpHeader(src_port, dst_port, seq=seq, ack_num=ack_num, flags=flags)
        return cls([ip, tcp], payload)

    @classmethod
    def udp(cls, src_ip: IPv4Address, dst_ip: IPv4Address,
            src_port: int, dst_port: int, payload: bytes = b"") -> "Packet":
        total = IPv4Header.wire_length + UdpHeader.wire_length + len(payload)
        ip = IPv4Header(src_ip, dst_ip, PROTO_UDP, total_length=total)
        udp = UdpHeader(src_port, dst_port, UdpHeader.wire_length + len(payload))
        return cls([ip, udp], payload)

    @classmethod
    def icmp_echo(cls, src_ip: IPv4Address, dst_ip: IPv4Address,
                  identifier: int = 0, sequence: int = 0,
                  reply: bool = False) -> "Packet":
        from repro.net.icmp import ECHO_REPLY, ECHO_REQUEST
        total = IPv4Header.wire_length + IcmpHeader.wire_length
        ip = IPv4Header(src_ip, dst_ip, PROTO_ICMP, total_length=total)
        icmp = IcmpHeader(ECHO_REPLY if reply else ECHO_REQUEST, 0,
                          identifier, sequence)
        return cls([ip, icmp], b"")

    # -- header access --------------------------------------------------------

    def find(self, header_type: Type[H], nth: int = 0) -> Optional[H]:
        """The ``nth`` header of the given type, outermost first."""
        seen = 0
        for layer in self.layers:
            if isinstance(layer, header_type):
                if seen == nth:
                    return layer
                seen += 1
        return None

    def expect(self, header_type: Type[H], nth: int = 0) -> H:
        header = self.find(header_type, nth)
        if header is None:
            raise PacketError(f"packet lacks {header_type.__name__}[{nth}]")
        return header

    @property
    def outer(self) -> Header:
        return self.layers[0]

    def inner_ipv4(self) -> IPv4Header:
        """The innermost IPv4 header (the tenant packet's)."""
        for layer in reversed(self.layers):
            if isinstance(layer, IPv4Header):
                return layer
        raise PacketError("packet has no IPv4 header")

    def inner_l4(self) -> Union[TcpHeader, UdpHeader, IcmpHeader]:
        for layer in reversed(self.layers):
            if isinstance(layer, _L4_HEADERS):
                return layer
        raise PacketError("packet has no L4 header")

    def five_tuple(self) -> FiveTuple:
        """The innermost flow key (the tenant's 5-tuple); memoized."""
        ft = self._ft
        if ft is not None:
            return ft
        ip = self.inner_ipv4()
        l4 = self.inner_l4()
        if isinstance(l4, (TcpHeader, UdpHeader)):
            ft = FiveTuple(ip.src, ip.dst, ip.proto,
                           l4.src_port, l4.dst_port)
        else:
            ft = FiveTuple(ip.src, ip.dst, ip.proto,
                           l4.identifier, l4.identifier)
        self._ft = ft
        return ft

    def invalidate_flow_cache(self) -> None:
        """Drop the memoized flow key / wire length / encoded bytes after
        an in-place header mutation (an address rewrite, layer surgery)."""
        self._ft = None
        self._wire = None
        self._enc = None

    def vni(self) -> Optional[int]:
        vxlan = self.find(VxlanHeader)
        return vxlan.vni if vxlan else None

    def nsh(self) -> Optional[NshHeader]:
        return self.find(NshHeader)

    # -- encap / decap ---------------------------------------------------------

    def encap(self, *outer_layers: Header) -> "Packet":
        """Push extra outer headers (given outer-first); returns self."""
        self.layers[:0] = outer_layers
        if self._wire is not None:
            for layer in outer_layers:
                self._wire += layer.wire_length
        self._enc = None
        return self

    def wrapped(self, outer_layers: List[Header], wire_length: int) -> "Packet":
        """A new packet of ``wire_length`` bytes: ``outer_layers`` around
        this packet's own header objects, carrying its flow key."""
        new = Packet.__new__(Packet)
        new.layers = outer_layers + self.layers
        new.payload = self.payload
        new.meta = dict(self.meta)
        new._ft = self._ft
        new._wire = wire_length
        new._enc = None
        return new

    def _pop(self, count: int) -> List[Header]:
        """Front pop that carries the parse: the length shrinks by what
        left; the flow key survives while an IPv4 and an L4 header remain
        (the innermost of each is the last one, so a front pop cannot
        reach it without taking every other one first)."""
        removed, self.layers = self.layers[:count], self.layers[count:]
        if self._wire is not None:
            for layer in removed:
                self._wire -= layer.wire_length
        if self._ft is not None:
            has_ip = has_l4 = False
            for layer in reversed(self.layers):
                if isinstance(layer, IPv4Header):
                    has_ip = True
                elif isinstance(layer, _L4_HEADERS):
                    has_l4 = True
                if has_ip and has_l4:
                    break
            else:
                self._ft = None
        self._enc = None
        return removed

    def decap(self, count: int = 1) -> List[Header]:
        """Pop ``count`` outermost headers; returns them."""
        if count >= len(self.layers):
            raise PacketError("decap would remove every header")
        return self._pop(count)

    def decap_until(self, header_type: Type[Header]) -> List[Header]:
        """Pop outer headers until the outermost is ``header_type``; a
        packet without one is left untouched."""
        for count, layer in enumerate(self.layers):
            if isinstance(layer, header_type):
                return self._pop(count) if count else []
        raise PacketError(f"no {header_type.__name__} layer to decap to")

    def copy(self) -> "Packet":
        """A shallow-header copy (headers re-decoded from bytes would be
        equal); meta is copied so per-hop annotations do not alias.

        The copy is built through ``__new__`` and inherits the memoized
        ``five_tuple``/``wire_length``/encoded bytes: a FiveTuple is
        immutable and the copy's field values are identical by
        construction, so there is nothing to re-validate. A caller that
        mutates the copy's headers owes the same
        :meth:`invalidate_flow_cache` the original would."""
        new = Packet.__new__(Packet)
        new.layers = [_shallow_copy(layer) for layer in self.layers]
        new.payload = self.payload
        new.meta = dict(self.meta)
        new._ft = self._ft
        new._wire = self._wire
        new._enc = self._enc
        return new

    # -- wire form --------------------------------------------------------------

    @property
    def wire_length(self) -> int:
        wire = self._wire
        if wire is not None:
            return wire
        wire = sum(layer.wire_length
                   for layer in self.layers) + len(self.payload)
        self._wire = wire
        return wire

    def encode(self) -> bytes:
        enc = self._enc
        if enc is not None:
            return enc
        enc = b"".join(layer.encode() for layer in self.layers) + self.payload
        self._enc = enc
        return enc

    @classmethod
    def decode(cls, data: bytes, first_layer: str = "ipv4") -> "Packet":
        """Parse bytes using the stacking conventions above.

        ``first_layer`` is ``"ethernet"`` or ``"ipv4"`` depending on where
        the bytes were captured.
        """
        layers: List[Header] = []
        rest = data
        expected: Optional[str] = first_layer
        while expected is not None:
            if expected == "ethernet":
                eth, rest = EthernetHeader.decode(rest)
                layers.append(eth)
                if eth.ethertype == ETHERTYPE_IPV4:
                    expected = "ipv4"
                else:
                    raise DecodeError(f"unhandled ethertype {eth.ethertype:#06x}")
            elif expected == "ipv4":
                ip, rest = IPv4Header.decode(rest)
                layers.append(ip)
                if ip.proto == PROTO_TCP:
                    expected = "tcp"
                elif ip.proto == PROTO_UDP:
                    expected = "udp"
                elif ip.proto == PROTO_ICMP:
                    expected = "icmp"
                else:
                    raise DecodeError(f"unhandled IP proto {ip.proto}")
            elif expected == "tcp":
                tcp, rest = TcpHeader.decode(rest)
                layers.append(tcp)
                expected = None
            elif expected == "icmp":
                icmp, rest = IcmpHeader.decode(rest)
                layers.append(icmp)
                expected = None
            elif expected == "udp":
                udp, rest = UdpHeader.decode(rest)
                layers.append(udp)
                if udp.dst_port == VXLAN_PORT:
                    expected = "vxlan"
                elif udp.dst_port == NSH_PORT:
                    expected = "nsh"
                else:
                    expected = None
            elif expected == "vxlan":
                vxlan, rest = VxlanHeader.decode(rest)
                layers.append(vxlan)
                expected = "ethernet"
            elif expected == "nsh":
                nsh, rest = NshHeader.decode(rest)
                layers.append(nsh)
                if nsh.next_proto == NEXT_PROTO_IPV4:
                    expected = "ipv4"
                elif nsh.next_proto == NEXT_PROTO_ETHERNET:
                    expected = "ethernet"
                else:
                    raise DecodeError(f"unhandled NSH next proto {nsh.next_proto}")
            else:  # pragma: no cover - defensive
                raise DecodeError(f"unknown layer kind {expected!r}")
        pkt = cls(layers, rest)
        # The parse consumed every byte of ``data``, and header encodings
        # are canonical, so the input *is* the packet's wire form: a
        # decode→encode round trip returns it without re-serializing.
        pkt._enc = data
        return pkt

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Packet)
                and self.layers == other.layers
                and self.payload == other.payload)

    def __repr__(self) -> str:
        names = "/".join(type(layer).__name__.replace("Header", "")
                         for layer in self.layers)
        return f"Packet({names}, {self.wire_length}B)"


#: The synthetic inner Ethernet header of the VXLAN transport: the same
#: for every tenant packet and never mutated, so one object serves all.
_INNER_ETH = EthernetHeader(MacAddress(0x02_00_00_00_00_02),
                            MacAddress(0x02_00_00_00_00_01))


def make_underlay_transport(
    src_mac: MacAddress, dst_mac: MacAddress,
    src_ip: IPv4Address, dst_ip: IPv4Address,
    inner: Packet, vni: int, src_port: int = 49152,
) -> Packet:
    """Wrap a tenant packet in the standard VXLAN overlay transport."""
    udp_len = EncapTemplate.OVERHEAD + inner.wire_length
    total = IPv4Header.wire_length + udp_len
    outer = [
        EthernetHeader(dst_mac, src_mac),
        IPv4Header(src_ip, dst_ip, PROTO_UDP, total_length=total),
        UdpHeader(src_port, VXLAN_PORT, udp_len),
        VxlanHeader(vni),
        _INNER_ETH,
    ]
    return inner.wrapped(outer, EthernetHeader.wire_length + total)


class EncapTemplate:
    """Per-(flow, overlay) cache of the constant VXLAN transport headers.

    :func:`make_underlay_transport` builds four header objects per
    forwarded packet, but for a given session-and-route two of them —
    the outer Ethernet and the VXLAN header — are identical across every
    packet (as is the synthetic inner Ethernet, one shared constant), and
    nothing downstream mutates them in place (the underlay only
    decrements the outer IPv4 TTL, and :meth:`Packet.copy` shallow-copies
    layers before any header edit). They are built once here and shared
    across wraps.
    The outer IPv4 and UDP headers carry per-packet lengths and the TTL
    is mutated in flight, so they stay per-wrap.

    The template is cached on the :class:`SessionEntry` (``entry.encap``)
    and dropped whenever the route can change — demotion, promotion,
    peer invalidation — or when the wrap-time key (next hop, VNI, source
    port entropy) stops matching.
    """

    __slots__ = ("src_mac", "dst_mac", "src_ip", "dst_ip", "vni",
                 "src_port", "eth", "vxlan", "inner_eth")

    #: UDP-length overhead above the inner packet: UDP + VXLAN + inner Eth.
    OVERHEAD = (UdpHeader.wire_length + VxlanHeader.wire_length
                + EthernetHeader.wire_length)

    def __init__(self, src_mac: MacAddress, dst_mac: MacAddress,
                 src_ip: IPv4Address, dst_ip: IPv4Address,
                 vni: int, src_port: int) -> None:
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.vni = vni
        self.src_port = src_port
        self.eth = EthernetHeader(dst_mac, src_mac)
        self.vxlan = VxlanHeader(vni)
        self.inner_eth = _INNER_ETH

    def matches(self, src_mac: MacAddress, dst_mac: MacAddress,
                src_ip: IPv4Address, dst_ip: IPv4Address,
                vni: int, src_port: int) -> bool:
        return (self.src_port == src_port
                and self.vni == vni
                and self.dst_ip.value == dst_ip.value
                and self.dst_mac.value == dst_mac.value
                and self.src_ip.value == src_ip.value
                and self.src_mac.value == src_mac.value)

    def wrap(self, inner: Packet) -> Packet:
        """Encapsulate ``inner``; value-identical to
        :func:`make_underlay_transport` with the same parameters."""
        udp_len = self.OVERHEAD + inner.wire_length
        total = IPv4Header.wire_length + udp_len
        outer = [
            self.eth,
            IPv4Header(self.src_ip, self.dst_ip, PROTO_UDP,
                       total_length=total),
            UdpHeader(self.src_port, VXLAN_PORT, udp_len),
            self.vxlan,
            self.inner_eth,
        ]
        return inner.wrapped(outer, EthernetHeader.wire_length + total)
