"""Session-level TCP finite-state machine.

The middlebox view of a TCP connection: coarser than an endpoint FSM, it
tracks enough to distinguish embryonic, established, and closing sessions
(which drives state-dependent aging, §7.3) and to notice resets.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple

from repro.net.tcp import TcpFlags


class TcpState(enum.Enum):
    NONE = 0            # no TCP packet seen yet (or non-TCP session)
    SYN_SENT = 1        # initiator's SYN observed
    SYN_RECEIVED = 2    # responder's SYN/ACK observed
    ESTABLISHED = 3     # initiator's final handshake ACK observed
    FIN_WAIT = 4        # one side has sent FIN
    CLOSED = 5          # both FINs, or RST, observed

    # Members are singletons, so identity hashing is exact, and it keeps
    # a TCP_STEP probe in C (Enum's own hashes the name in Python).
    __hash__ = object.__hash__


def tcp_transition(current: TcpState, from_initiator: bool,
                   flags: TcpFlags) -> TcpState:
    """Advance the session FSM for one observed packet: the rule, longhand.

    ``from_initiator`` is True when the packet travels in the same
    direction as the session's first packet. The datapath reads the rule
    through :data:`TCP_STEP`.
    """
    if flags.rst:
        return TcpState.CLOSED
    if current is TcpState.NONE:
        if flags.syn and not flags.ack and from_initiator:
            return TcpState.SYN_SENT
        return current
    if current is TcpState.SYN_SENT:
        if flags.syn and flags.ack and not from_initiator:
            return TcpState.SYN_RECEIVED
        return current
    if current is TcpState.SYN_RECEIVED:
        if flags.ack and from_initiator:
            return TcpState.ESTABLISHED
        return current
    if current is TcpState.ESTABLISHED:
        if flags.fin:
            return TcpState.FIN_WAIT
        return current
    if current is TcpState.FIN_WAIT:
        if flags.fin:
            return TcpState.CLOSED
        return current
    return current


#: ``(state, from_initiator, flag bits) -> next state`` for every input
#: :func:`tcp_transition` can see, filled from it when the module loads:
#: a datapath FSM step is one probe.
TCP_STEP: Dict[Tuple[TcpState, bool, int], TcpState] = {
    (state, from_initiator, bits): tcp_transition(state, from_initiator,
                                                  TcpFlags(bits))
    for state in TcpState for from_initiator in (False, True)
    for bits in range(64)}
