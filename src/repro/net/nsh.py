"""NSH — Network Service Header (RFC 8300), MD Type 2.

Nezha uses data packets to carry the missing processing input across the
BE↔FE hop (paper §3.2.1): egress packets carry the BE's *state* to the FE,
ingress packets carry the FE's *pre-actions* to the BE, and RX packets may
additionally carry state-initialization info (e.g. the overlay source IP
for stateful decap, §5.2). All of it rides in NSH context TLVs.

Wire format implemented here:

* 4-byte base header (version, O bit, length in 4-byte words, MD type,
  next protocol),
* 4-byte service path header (SPI + SI),
* variable-length context TLVs: 2-byte class, 1-byte type, 1-byte length,
  then ``length`` bytes of value, padded to a 4-byte boundary.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

from repro.errors import DecodeError
from repro.net.slotcopy import slot_copy

BASE_LEN = 8
MAX_CONTEXT_LEN = 0x3F * 4 - BASE_LEN  # the length field is 6 bits of words
MD_TYPE_2 = 0x02
TLV_CLASS_NEZHA = 0x0103  # experimental class for Nezha metadata

NEXT_PROTO_IPV4 = 0x01
NEXT_PROTO_ETHERNET = 0x03

_TLV_HEAD = struct.Struct("!HBB").pack
_PAD = (b"", b"\x00" * 3, b"\x00" * 2, b"\x00")  # by value length mod 4


class NshContext:
    """The Nezha metadata carried in NSH context TLVs.

    A mapping from small integer TLV types to byte strings. Symbolic names
    for the types Nezha uses are provided as class attributes; the codec
    itself is type-agnostic.

    :meth:`encode` seals the context: the TLV bytes are built once and
    kept until the next :meth:`put`, and they are what
    :attr:`wire_length` measures — so a hop's length on a link is the
    length of bytes that exist, and a context no NSH header could carry
    fails where it is sealed (when the hop is built). ``entries`` is
    therefore read-only outside :meth:`put`: a direct write would leave
    the sealed bytes stale.
    """

    # TLV types used by Nezha (see repro.core.header for the payloads).
    STATE = 0x01        # BE session state carried TX-ward to the FE
    PRE_ACTIONS = 0x02  # FE rule-lookup result carried RX-ward to the BE
    STATE_INIT = 0x03   # info the BE needs to initialize state (RX, §5.2)
    NOTIFY = 0x04       # designated notify payload (§3.2.2)
    VNIC = 0x05         # vNIC id the metadata belongs to
    DIRECTION = 0x06    # TX/RX marker

    __slots__ = ("entries", "_enc")

    def __init__(self, entries: Dict[int, bytes] = None) -> None:
        self.entries = dict(entries or {})
        self._enc: Optional[bytes] = None
        for tlv_type, value in self.entries.items():
            self._validate(tlv_type, value)

    @staticmethod
    def _validate(tlv_type: int, value: bytes) -> None:
        if not 0 <= tlv_type <= 0xFF:
            raise DecodeError(f"TLV type out of range: {tlv_type}")
        if len(value) > 0xFF:
            raise DecodeError(f"TLV value too long: {len(value)}B")

    def put(self, tlv_type: int, value: bytes) -> "NshContext":
        self._validate(tlv_type, value)
        self.entries[tlv_type] = value
        self._enc = None
        return self

    def get(self, tlv_type: int) -> bytes:
        try:
            return self.entries[tlv_type]
        except KeyError:
            raise DecodeError(f"TLV {tlv_type:#x} absent") from None

    def get_or(self, tlv_type: int, default: bytes = b"") -> bytes:
        return self.entries.get(tlv_type, default)

    def __contains__(self, tlv_type: int) -> bool:
        return tlv_type in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def encode(self) -> bytes:
        enc = self._enc
        if enc is None:
            parts = []
            for tlv_type, value in sorted(self.entries.items()):
                length = len(value)
                parts += (_TLV_HEAD(TLV_CLASS_NEZHA, tlv_type, length),
                          value, _PAD[length & 3])
            enc = b"".join(parts)
            if len(enc) > MAX_CONTEXT_LEN:
                raise DecodeError(
                    f"NSH context too long: {len(enc)}B > {MAX_CONTEXT_LEN}B")
            self._enc = enc
        return enc

    @property
    def wire_length(self) -> int:
        """Length of the sealed TLV bytes (sealing them if need be)."""
        enc = self._enc
        return len(enc if enc is not None else self.encode())

    @classmethod
    def decode(cls, data: bytes) -> "NshContext":
        entries: Dict[int, bytes] = {}
        offset = 0
        while offset < len(data):
            if offset + 4 > len(data):
                raise DecodeError("truncated TLV header")
            tlv_class, tlv_type, length = struct.unpack(
                "!HBB", data[offset:offset + 4])
            if tlv_class != TLV_CLASS_NEZHA:
                raise DecodeError(f"unknown TLV class {tlv_class:#x}")
            offset += 4
            if offset + length > len(data):
                raise DecodeError("truncated TLV value")
            entries[tlv_type] = data[offset:offset + length]
            offset += length + ((-length) % 4)
        return cls(entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NshContext) and self.entries == other.entries

    def __repr__(self) -> str:
        kinds = ", ".join(f"{t:#x}[{len(v)}B]" for t, v in sorted(self.entries.items()))
        return f"NshContext({kinds})"


@slot_copy
class NshHeader:
    """NSH base + service-path headers with an MD-type-2 context."""

    __slots__ = ("spi", "si", "next_proto", "context")

    def __init__(self, spi: int = 0, si: int = 255,
                 next_proto: int = NEXT_PROTO_IPV4,
                 context: NshContext = None) -> None:
        if not 0 <= spi < (1 << 24):
            raise DecodeError(f"SPI out of range: {spi}")
        if not 0 <= si <= 255:
            raise DecodeError(f"SI out of range: {si}")
        self.spi = spi
        self.si = si
        self.next_proto = next_proto
        self.context = context if context is not None else NshContext()

    @property
    def wire_length(self) -> int:
        return BASE_LEN + self.context.wire_length

    def encode(self) -> bytes:
        ctx = self.context.encode()
        # 16 bits: version(2)=0 | O(1)=0 | U(1)=0 | TTL(6)=63 | length(6),
        # then MD-type byte and next-protocol byte.
        hword = (63 << 6) | (BASE_LEN + len(ctx)) // 4
        return struct.pack("!HBBI", hword, MD_TYPE_2, self.next_proto,
                           (self.spi << 8) | self.si) + ctx

    @classmethod
    def decode(cls, data: bytes) -> Tuple["NshHeader", bytes]:
        if len(data) < BASE_LEN:
            raise DecodeError(f"nsh header needs {BASE_LEN}B, got {len(data)}")
        hword, md_type, next_proto = struct.unpack("!HBB", data[:4])
        total_words = hword & 0x3F
        total_len = total_words * 4
        if md_type != MD_TYPE_2:
            raise DecodeError(f"unsupported NSH MD type {md_type}")
        if total_len < BASE_LEN or total_len > len(data):
            raise DecodeError(f"bad NSH length {total_len}")
        (sp,) = struct.unpack("!I", data[4:8])
        context = NshContext.decode(data[BASE_LEN:total_len])
        header = cls(spi=sp >> 8, si=sp & 0xFF,
                     next_proto=next_proto, context=context)
        return header, data[total_len:]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, NshHeader)
                and self.spi == other.spi and self.si == other.si
                and self.next_proto == other.next_proto
                and self.context == other.context)

    def __repr__(self) -> str:
        return f"NSH(spi={self.spi}, si={self.si}, ctx={self.context!r})"
