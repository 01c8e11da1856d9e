"""TCP header codec (RFC 793, no options)."""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import DecodeError
from repro.net.slotcopy import slot_copy

HEADER_LEN = 20


class TcpFlags:
    """TCP flag bits as a tiny value object with the usual predicates."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0) -> None:
        self.bits = bits & 0x3F

    @classmethod
    def of(cls, *names: str) -> "TcpFlags":
        """``TcpFlags.of("syn", "ack")``."""
        bits = 0
        for name in names:
            bits |= getattr(cls, name.upper())
        return cls(bits)

    @property
    def syn(self) -> bool:
        return bool(self.bits & self.SYN)

    @property
    def ack(self) -> bool:
        return bool(self.bits & self.ACK)

    @property
    def fin(self) -> bool:
        return bool(self.bits & self.FIN)

    @property
    def rst(self) -> bool:
        return bool(self.bits & self.RST)

    @property
    def psh(self) -> bool:
        return bool(self.bits & self.PSH)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TcpFlags) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("tcpflags", self.bits))

    def __repr__(self) -> str:
        names = [n for n in ("SYN", "ACK", "FIN", "RST", "PSH", "URG")
                 if self.bits & getattr(self, n)]
        return f"TcpFlags({'|'.join(names) or '0'})"


@slot_copy
class TcpHeader:
    """A 20-byte TCP header (data offset fixed at 5 words)."""

    __slots__ = ("src_port", "dst_port", "seq", "ack_num", "flags", "window")

    wire_length = HEADER_LEN

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack_num: int = 0,
        flags: TcpFlags = None,
        window: int = 65535,
    ) -> None:
        for port in (src_port, dst_port):
            if not 0 <= port <= 0xFFFF:
                raise DecodeError(f"bad port: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack_num = ack_num & 0xFFFFFFFF
        self.flags = flags if flags is not None else TcpFlags()
        self.window = window & 0xFFFF

    def encode(self) -> bytes:
        offset_flags = (5 << 12) | self.flags.bits
        return struct.pack(
            "!HHIIHHHH",
            self.src_port, self.dst_port, self.seq, self.ack_num,
            offset_flags, self.window, 0, 0,
        )

    @classmethod
    def decode(cls, data: bytes) -> Tuple["TcpHeader", bytes]:
        if len(data) < HEADER_LEN:
            raise DecodeError(f"tcp header needs {HEADER_LEN}B, got {len(data)}")
        src, dst, seq, ack, offset_flags, window, _cksum, _urg = struct.unpack(
            "!HHIIHHHH", data[:HEADER_LEN])
        offset = offset_flags >> 12
        if offset != 5:
            raise DecodeError(f"tcp options unsupported: offset={offset}")
        header = cls(src, dst, seq, ack, TcpFlags(offset_flags & 0x3F), window)
        return header, data[HEADER_LEN:]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TcpHeader)
                and self.src_port == other.src_port
                and self.dst_port == other.dst_port
                and self.seq == other.seq
                and self.ack_num == other.ack_num
                and self.flags == other.flags
                and self.window == other.window)

    def __repr__(self) -> str:
        return (f"TCP({self.src_port} -> {self.dst_port}, {self.flags!r}, "
                f"seq={self.seq})")
