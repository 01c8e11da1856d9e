"""UDP header codec (RFC 768)."""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import DecodeError
from repro.net.slotcopy import slot_copy

HEADER_LEN = 8


@slot_copy
class UdpHeader:
    """An 8-byte UDP header; ``length`` covers header + payload."""

    __slots__ = ("src_port", "dst_port", "length")

    wire_length = HEADER_LEN

    def __init__(self, src_port: int, dst_port: int, length: int = HEADER_LEN) -> None:
        for port in (src_port, dst_port):
            if not 0 <= port <= 0xFFFF:
                raise DecodeError(f"bad port: {port}")
        if not HEADER_LEN <= length <= 0xFFFF:
            raise DecodeError(f"bad udp length: {length}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length

    @property
    def payload_length(self) -> int:
        return self.length - HEADER_LEN

    def encode(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, 0)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["UdpHeader", bytes]:
        if len(data) < HEADER_LEN:
            raise DecodeError(f"udp header needs {HEADER_LEN}B, got {len(data)}")
        src, dst, length, _cksum = struct.unpack("!HHHH", data[:HEADER_LEN])
        return cls(src, dst, length), data[HEADER_LEN:]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UdpHeader)
                and self.src_port == other.src_port
                and self.dst_port == other.dst_port
                and self.length == other.length)

    def __repr__(self) -> str:
        return f"UDP({self.src_port} -> {self.dst_port}, len={self.length})"
