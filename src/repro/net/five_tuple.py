"""The 5-tuple flow key and its hashing.

Nezha's load balancing across FEs is "only 5-tuple hashing" (paper §3.2.3);
the per-session state lives on the BE, which bidirectional flows of the
same session always traverse, so the hash does **not** need to be symmetric.
We still provide :meth:`FiveTuple.reversed` and a canonical session key
because the session table stores bidirectional flows in a single entry.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.net.addr import IPv4Address

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}


class FiveTuple:
    """(src ip, dst ip, protocol, src port, dst port) — the flow key."""

    __slots__ = ("src_ip", "dst_ip", "proto", "src_port", "dst_port",
                 "_hash", "_session_key", "_hash64")

    def __init__(
        self,
        src_ip: IPv4Address,
        dst_ip: IPv4Address,
        proto: int,
        src_port: int,
        dst_port: int,
    ) -> None:
        # An IPv4Address is an immutable value object: keep the one given,
        # coerce (and range-check) anything else.
        self.src_ip = (src_ip if type(src_ip) is IPv4Address
                       else IPv4Address(src_ip))
        self.dst_ip = (dst_ip if type(dst_ip) is IPv4Address
                       else IPv4Address(dst_ip))
        self.proto = int(proto)
        self.src_port = int(src_port)
        self.dst_port = int(dst_port)
        # Tuples are immutable, so the dict hash — recomputed on every
        # session-table probe otherwise — is precomputed once.
        self._hash = hash((self.src_ip, self.dst_ip, self.proto,
                           self.src_port, self.dst_port))
        self._session_key: Tuple = None
        self._hash64 = None

    def reversed(self) -> "FiveTuple":
        """The same session seen from the other direction."""
        return FiveTuple(self.dst_ip, self.src_ip, self.proto,
                         self.dst_port, self.src_port)

    def session_key(self) -> Tuple:
        """Direction-independent key: both directions map to one session.

        Fields are immutable after construction, so the key is computed
        once — the session table probes with it on every lookup, insert,
        and remove, which the burst datapath turns into the per-burst
        hot call.
        """
        key = self._session_key
        if key is not None:
            return key
        a = (self.src_ip.value, self.src_port)
        b = (self.dst_ip.value, self.dst_port)
        lo, hi = (a, b) if a <= b else (b, a)
        key = (self.proto, lo, hi)
        self._session_key = key
        return key

    def hash(self, seed: int = 0) -> int:
        """Stable 64-bit flow hash used to pick an FE.

        Deterministic across processes (unlike built-in ``hash``), and
        reseedable: §7.5 reconfigures the hash function at the source side
        to fix skew, which we model by changing ``seed``.

        The default-seed digest is memoized (fields are immutable): the
        forwarding path derives VXLAN source-port entropy from it for
        every encapsulated packet, which made one sha256 per forward the
        hot-loop cost.
        """
        if seed == 0:
            cached = self._hash64
            if cached is not None:
                return cached
        blob = (
            seed.to_bytes(8, "big", signed=False)
            + self.src_ip.to_bytes()
            + self.dst_ip.to_bytes()
            + bytes([self.proto])
            + self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
        )
        value = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
        if seed == 0:
            self._hash64 = value
        return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FiveTuple)
            and self.proto == other.proto
            and self.src_port == other.src_port
            and self.dst_port == other.dst_port
            and self.src_ip.value == other.src_ip.value
            and self.dst_ip.value == other.dst_ip.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        proto = _PROTO_NAMES.get(self.proto, str(self.proto))
        return (f"FiveTuple({self.src_ip}:{self.src_port} -> "
                f"{self.dst_ip}:{self.dst_port} {proto})")
