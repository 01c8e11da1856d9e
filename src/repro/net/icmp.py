"""ICMP echo header codec — used by the health monitor's ping probes."""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import DecodeError
from repro.net.slotcopy import slot_copy

HEADER_LEN = 8

ECHO_REQUEST = 8
ECHO_REPLY = 0


@slot_copy
class IcmpHeader:
    """An 8-byte ICMP echo request/reply header."""

    __slots__ = ("icmp_type", "code", "identifier", "sequence")

    wire_length = HEADER_LEN

    def __init__(self, icmp_type: int, code: int = 0,
                 identifier: int = 0, sequence: int = 0) -> None:
        if not 0 <= icmp_type <= 255 or not 0 <= code <= 255:
            raise DecodeError(f"bad icmp type/code: {icmp_type}/{code}")
        self.icmp_type = icmp_type
        self.code = code
        self.identifier = identifier & 0xFFFF
        self.sequence = sequence & 0xFFFF

    @property
    def is_echo_request(self) -> bool:
        return self.icmp_type == ECHO_REQUEST

    @property
    def is_echo_reply(self) -> bool:
        return self.icmp_type == ECHO_REPLY

    def reply(self) -> "IcmpHeader":
        """Build the echo reply matching this request."""
        if not self.is_echo_request:
            raise DecodeError("reply() requires an echo request")
        return IcmpHeader(ECHO_REPLY, 0, self.identifier, self.sequence)

    def encode(self) -> bytes:
        return struct.pack("!BBHHH", self.icmp_type, self.code, 0,
                           self.identifier, self.sequence)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["IcmpHeader", bytes]:
        if len(data) < HEADER_LEN:
            raise DecodeError(f"icmp header needs {HEADER_LEN}B, got {len(data)}")
        icmp_type, code, _cksum, ident, seq = struct.unpack("!BBHHH", data[:HEADER_LEN])
        return cls(icmp_type, code, ident, seq), data[HEADER_LEN:]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IcmpHeader)
                and self.icmp_type == other.icmp_type
                and self.code == other.code
                and self.identifier == other.identifier
                and self.sequence == other.sequence)

    def __repr__(self) -> str:
        return (f"ICMP(type={self.icmp_type}, id={self.identifier}, "
                f"seq={self.sequence})")
