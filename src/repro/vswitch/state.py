"""Per-session state: the one thing Nezha keeps local.

A :class:`SessionState` records everything the paper calls *state*: the
first-packet direction (stateful ACL, §5.1), the TCP FSM, flow statistics
whose policy comes from a rule table (§3.2.2), the recorded overlay source
IP for stateful decap (§5.2), and aging metadata (§7.3).

States are fixed-size 64 B slots in production; §7.1 measures the *useful*
content at 5–8 B on average and proposes variable-length states, which
:meth:`SessionState.variable_size` models (the ``fig15``/ablation benches
use it).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.net.addr import IPv4Address
from repro.vswitch.tcp_fsm import TcpState

if TYPE_CHECKING:  # pragma: no cover
    from repro.vswitch.actions import Direction


class StatsPolicy(enum.Enum):
    """What flow-level statistics to record — *rule-table-involved* state:
    the policy itself comes from a statistics-policy table lookup, so the
    BE can only learn it via a notify packet (§3.2.2)."""

    NONE = 0
    BYTES = 1
    PACKETS = 2
    FULL = 3

    def to_wire(self) -> bytes:
        return bytes([self.value])

    @classmethod
    def from_wire(cls, data: bytes) -> "StatsPolicy":
        return cls(data[0])


# Aging defaults (seconds). Established flows linger ~8 s on average in the
# paper; half-open (SYN) sessions age fast to blunt SYN floods (§7.3).
AGING_ESTABLISHED = 8.0
AGING_EMBRYONIC = 1.0
AGING_CLOSED = 0.25


@dataclass
class SessionState:
    """Mutable per-session state, stored exactly once (on the BE)."""

    first_direction: Optional["Direction"] = None
    tcp_state: TcpState = TcpState.NONE
    stats_policy: StatsPolicy = StatsPolicy.NONE
    bytes_tx: int = 0
    bytes_rx: int = 0
    packets_tx: int = 0
    packets_rx: int = 0
    # Stateful decap (§5.2): overlay source (the LB's address) recorded on RX.
    decap_overlay_src: Optional[IPv4Address] = None
    created_at: float = 0.0
    last_seen: float = 0.0

    # -- updates ------------------------------------------------------------

    def record_packet(self, direction: "Direction", nbytes: int) -> None:
        """Update statistics according to the active policy."""
        if self.stats_policy is StatsPolicy.NONE:
            return
        if direction.value == "tx":
            if self.stats_policy in (StatsPolicy.BYTES, StatsPolicy.FULL):
                self.bytes_tx += nbytes
            if self.stats_policy in (StatsPolicy.PACKETS, StatsPolicy.FULL):
                self.packets_tx += 1
        else:
            if self.stats_policy in (StatsPolicy.BYTES, StatsPolicy.FULL):
                self.bytes_rx += nbytes
            if self.stats_policy in (StatsPolicy.PACKETS, StatsPolicy.FULL):
                self.packets_rx += 1

    def touch(self, now: float) -> None:
        self.last_seen = now

    # -- aging -----------------------------------------------------------------

    def aging_time(self) -> float:
        """State-dependent idle timeout: short for embryonic sessions."""
        if self.tcp_state in (TcpState.NONE, TcpState.SYN_SENT,
                              TcpState.SYN_RECEIVED):
            return AGING_EMBRYONIC
        if self.tcp_state is TcpState.CLOSED:
            return AGING_CLOSED
        return AGING_ESTABLISHED

    def expired(self, now: float) -> bool:
        return now - self.last_seen > self.aging_time()

    # -- sizing (§7.1) ------------------------------------------------------------

    def variable_size(self) -> int:
        """Bytes of *useful* state, were states variable-length."""
        size = 0
        if self.first_direction is not None:
            size += 1
        if self.tcp_state is not TcpState.NONE:
            size += 1
        if self.stats_policy is not StatsPolicy.NONE:
            size += 1 + 16  # policy byte + counters
        if self.decap_overlay_src is not None:
            size += 4
        size += 4  # aging timestamp, always needed
        return size

    # -- wire form (carried TX-ward in the Nezha header) -----------------------------

    def to_wire(self) -> bytes:
        """Compact encoding of the fields the FE needs (§3.2.1)."""
        direction = self.first_direction
        decap = self.decap_overlay_src
        return _WIRE.pack(
            b"?" if direction is None else direction.to_wire(),
            self.tcp_state.value, self.stats_policy.value,
            decap is not None, decap.value if decap is not None else 0)

    @classmethod
    def from_wire(cls, data: bytes) -> "SessionState":
        from repro.vswitch.actions import Direction
        if len(data) < _WIRE.size:
            raise ValueError(f"state blob needs 8B, got {len(data)}")
        direction, tcp, policy, has_decap, decap = _WIRE.unpack_from(data)
        try:
            state = cls(tcp_state=_TCP_STATES[tcp],
                        stats_policy=STATS_POLICY_BY_CODE[policy])
        except KeyError as exc:
            raise ValueError(f"state blob has unknown code {exc}") from None
        if direction != b"?":
            state.first_direction = Direction.from_wire(direction)
        if has_decap:
            state.decap_overlay_src = IPv4Address(decap)
        return state


# first direction | TCP state | stats policy | has-decap flag | decap source
_WIRE = struct.Struct("!cBB?I")
_TCP_STATES = {member.value: member for member in TcpState}
STATS_POLICY_BY_CODE = {member.value: member for member in StatsPolicy}
