"""Pre-actions, final actions, and the ``process_pkt`` combinator.

The paper abstracts every NF as ``Action = func(pkt, rules, states)`` and,
with cached flows, ``process_pkt(pre-actions, states)`` (§2.1). Rule-table
lookups yield *preliminary* actions because stateful NFs must still combine
them with session state — the canonical example is the stateful ACL whose
"drop" verdict for RX traffic is overridden for responses to locally
initiated connections (§5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.net.addr import IPv4Address, MacAddress
from repro.vswitch.state import SessionState, StatsPolicy


class Direction(enum.Enum):
    """Packet direction relative to the local VM: TX egress, RX ingress."""

    TX = "tx"
    RX = "rx"

    @property
    def opposite(self) -> "Direction":
        return Direction.RX if self is Direction.TX else Direction.TX

    def to_wire(self) -> bytes:
        return b"T" if self is Direction.TX else b"R"

    @classmethod
    def from_wire(cls, data: bytes) -> "Direction":
        return Direction.TX if data == b"T" else Direction.RX


class Verdict(enum.Enum):
    ACCEPT = "accept"
    DROP = "drop"

    def to_wire(self) -> bytes:
        return b"A" if self is Verdict.ACCEPT else b"D"

    @classmethod
    def from_wire(cls, data: bytes) -> "Verdict":
        return Verdict.ACCEPT if data == b"A" else Verdict.DROP


@dataclass
class PreAction:
    """Rule-lookup result for one direction of a flow."""

    verdict: Verdict = Verdict.ACCEPT
    # Underlay forwarding target for this direction (vNIC-server mapping).
    next_hop_ip: Optional[IPv4Address] = None
    next_hop_mac: Optional[MacAddress] = None
    vni: int = 0
    # QoS classification.
    qos_class: int = 0
    rate_limit_bps: Optional[float] = None
    # Rule-table-involved state (§3.2.2).
    stats_policy: StatsPolicy = StatsPolicy.NONE
    # Stateful-ACL marker: verdicts may be overridden by session state.
    stateful_acl: bool = True

    def copy(self) -> "PreAction":
        return replace(self)


@dataclass
class PreActions:
    """Bidirectional pre-actions, exactly what a cached flow stores."""

    tx: PreAction = field(default_factory=PreAction)
    rx: PreAction = field(default_factory=PreAction)

    def for_direction(self, direction: Direction) -> PreAction:
        return self.tx if direction is Direction.TX else self.rx

    def copy(self) -> "PreActions":
        return PreActions(self.tx.copy(), self.rx.copy())


class ActionKind(enum.Enum):
    DELIVER = "deliver"       # hand to the local vNIC / VM
    FORWARD = "forward"       # encapsulate and send to next_hop
    DROP = "drop"


@dataclass
class FinalAction:
    """The fully resolved packet action after combining state and rules."""

    kind: ActionKind
    next_hop_ip: Optional[IPv4Address] = None
    next_hop_mac: Optional[MacAddress] = None
    vni: int = 0
    reason: str = ""

    @property
    def is_drop(self) -> bool:
        return self.kind is ActionKind.DROP


def resolve_verdict(direction: Direction, pre: PreAction,
                    state: SessionState) -> Verdict:
    """Combine a directional pre-action with session state (§5.1).

    For a stateful ACL the pre-action verdict is not final: a packet whose
    direction *differs* from the session's first-packet direction belongs
    to a locally- (or remotely-) initiated conversation that was already
    admitted, so it is accepted even when its directional rule says drop.
    Packets in the same direction as the first packet obey the rule.
    """
    if pre.verdict is Verdict.ACCEPT:
        return Verdict.ACCEPT
    if not pre.stateful_acl:
        return pre.verdict
    if state.first_direction is not None and state.first_direction != direction:
        return Verdict.ACCEPT
    return Verdict.DROP


def process_pkt(direction: Direction, pre_actions: PreActions,
                state: SessionState, wire_length: int = 0) -> FinalAction:
    """The fast-path combinator: pre-actions + state → final action.

    This is the *same code* run by a local vSwitch, a Nezha FE (for TX
    packets, with state carried in the packet), and a Nezha BE (for RX
    packets, with pre-actions carried in the packet) — the property the
    paper's separation argument rests on (§3.1).
    """
    pre = pre_actions.for_direction(direction)
    verdict = resolve_verdict(direction, pre, state)
    if verdict is Verdict.DROP:
        return FinalAction(ActionKind.DROP, reason="acl")
    state.record_packet(direction, wire_length)
    if direction is Direction.RX:
        return FinalAction(ActionKind.DELIVER)
    return FinalAction(
        ActionKind.FORWARD,
        next_hop_ip=pre.next_hop_ip,
        next_hop_mac=pre.next_hop_mac,
        vni=pre.vni,
    )
