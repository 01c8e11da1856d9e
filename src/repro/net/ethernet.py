"""Ethernet II header codec."""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import DecodeError
from repro.net.addr import MacAddress
from repro.net.slotcopy import slot_copy

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_NSH = 0x894F

HEADER_LEN = 14


@slot_copy
class EthernetHeader:
    """Destination MAC, source MAC, EtherType — 14 bytes on the wire."""

    __slots__ = ("dst", "src", "ethertype")

    wire_length = HEADER_LEN

    def __init__(self, dst: MacAddress, src: MacAddress,
                 ethertype: int = ETHERTYPE_IPV4) -> None:
        # A MacAddress is an immutable value object: keep the one given.
        self.dst = dst if type(dst) is MacAddress else MacAddress(dst)
        self.src = src if type(src) is MacAddress else MacAddress(src)
        if not 0 <= ethertype <= 0xFFFF:
            raise DecodeError(f"ethertype out of range: {ethertype:#x}")
        self.ethertype = ethertype

    def encode(self) -> bytes:
        return self.dst.to_bytes() + self.src.to_bytes() + struct.pack("!H", self.ethertype)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["EthernetHeader", bytes]:
        if len(data) < HEADER_LEN:
            raise DecodeError(f"ethernet header needs {HEADER_LEN}B, got {len(data)}")
        dst = MacAddress.from_bytes(data[0:6])
        src = MacAddress.from_bytes(data[6:12])
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(dst, src, ethertype), data[HEADER_LEN:]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EthernetHeader)
                and self.dst == other.dst
                and self.src == other.src
                and self.ethertype == other.ethertype)

    def __repr__(self) -> str:
        return f"Eth({self.src} -> {self.dst}, type={self.ethertype:#06x})"
