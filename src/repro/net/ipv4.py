"""IPv4 header codec (RFC 791, no options)."""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import DecodeError
from repro.net.addr import IPv4Address
from repro.net.checksum import internet_checksum
from repro.net.slotcopy import slot_copy

HEADER_LEN = 20


@slot_copy
class IPv4Header:
    """A 20-byte IPv4 header. ``total_length`` covers header + payload."""

    __slots__ = ("src", "dst", "proto", "ttl", "total_length",
                 "identification", "dscp", "flags", "frag_offset")

    wire_length = HEADER_LEN

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        proto: int,
        total_length: int = HEADER_LEN,
        ttl: int = 64,
        identification: int = 0,
        dscp: int = 0,
        flags: int = 0,
        frag_offset: int = 0,
    ) -> None:
        # An IPv4Address is an immutable value object: keep the one given,
        # coerce (and range-check) anything else.
        self.src = src if type(src) is IPv4Address else IPv4Address(src)
        self.dst = dst if type(dst) is IPv4Address else IPv4Address(dst)
        if not 0 <= proto <= 255:
            raise DecodeError(f"bad protocol: {proto}")
        if not HEADER_LEN <= total_length <= 0xFFFF:
            raise DecodeError(f"bad total_length: {total_length}")
        if not 0 <= ttl <= 255:
            raise DecodeError(f"bad ttl: {ttl}")
        self.proto = proto
        self.total_length = total_length
        self.ttl = ttl
        self.identification = identification & 0xFFFF
        self.dscp = dscp & 0x3F
        self.flags = flags & 0x7
        self.frag_offset = frag_offset & 0x1FFF

    @property
    def payload_length(self) -> int:
        return self.total_length - HEADER_LEN

    def encode(self) -> bytes:
        version_ihl = (4 << 4) | 5
        tos = self.dscp << 2
        flags_frag = (self.flags << 13) | self.frag_offset
        head = struct.pack(
            "!BBHHHBBH",
            version_ihl, tos, self.total_length,
            self.identification, flags_frag,
            self.ttl, self.proto, 0,
        ) + self.src.to_bytes() + self.dst.to_bytes()
        checksum = internet_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    @classmethod
    def decode(cls, data: bytes) -> Tuple["IPv4Header", bytes]:
        if len(data) < HEADER_LEN:
            raise DecodeError(f"ipv4 header needs {HEADER_LEN}B, got {len(data)}")
        version_ihl, tos, total_length, ident, flags_frag, ttl, proto, _cksum = (
            struct.unpack("!BBHHHBBH", data[:12]))
        version = version_ihl >> 4
        ihl = version_ihl & 0xF
        if version != 4:
            raise DecodeError(f"not IPv4: version={version}")
        if ihl != 5:
            raise DecodeError(f"IPv4 options unsupported: ihl={ihl}")
        src = IPv4Address.from_bytes(data[12:16])
        dst = IPv4Address.from_bytes(data[16:20])
        header = cls(
            src, dst, proto,
            total_length=total_length,
            ttl=ttl,
            identification=ident,
            dscp=tos >> 2,
            flags=flags_frag >> 13,
            frag_offset=flags_frag & 0x1FFF,
        )
        return header, data[HEADER_LEN:]

    def decrement_ttl(self) -> bool:
        """Decrement TTL; returns False when the packet must be dropped."""
        if self.ttl <= 1:
            return False
        self.ttl -= 1
        return True

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IPv4Header)
                and self.src == other.src and self.dst == other.dst
                and self.proto == other.proto and self.ttl == other.ttl
                and self.total_length == other.total_length
                and self.identification == other.identification
                and self.dscp == other.dscp)

    def __repr__(self) -> str:
        return (f"IPv4({self.src} -> {self.dst}, proto={self.proto}, "
                f"len={self.total_length}, ttl={self.ttl})")
