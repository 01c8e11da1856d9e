"""VXLAN header codec (RFC 7348).

The overlay encapsulation used between vSwitches: the 24-bit VNI carries the
tenant's VPC ID, which is how cached flows distinguish tenants that reuse
the same 5-tuples.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import DecodeError
from repro.net.slotcopy import slot_copy

HEADER_LEN = 8
VXLAN_PORT = 4789

_FLAG_VNI_VALID = 0x08


@slot_copy
class VxlanHeader:
    """An 8-byte VXLAN header carrying a 24-bit VNI."""

    __slots__ = ("vni",)

    wire_length = HEADER_LEN

    def __init__(self, vni: int) -> None:
        if not 0 <= vni < (1 << 24):
            raise DecodeError(f"VNI out of range: {vni}")
        self.vni = vni

    def encode(self) -> bytes:
        return struct.pack("!BBHI", _FLAG_VNI_VALID, 0, 0, self.vni << 8)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["VxlanHeader", bytes]:
        if len(data) < HEADER_LEN:
            raise DecodeError(f"vxlan header needs {HEADER_LEN}B, got {len(data)}")
        flags, _r1, _r2, vni_res = struct.unpack("!BBHI", data[:HEADER_LEN])
        if not flags & _FLAG_VNI_VALID:
            raise DecodeError("VXLAN I flag not set")
        return cls(vni_res >> 8), data[HEADER_LEN:]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VxlanHeader) and self.vni == other.vni

    def __repr__(self) -> str:
        return f"VXLAN(vni={self.vni})"
