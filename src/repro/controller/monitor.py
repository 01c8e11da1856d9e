"""Centralized FE crash detection (§4.4, Appendix C).

A dedicated monitor host ping-polls every vSwitch hosting FEs. Probes are
UDP datagrams to the flow-direct probe port, which the vSwitch answers
from its own datapath — so the probe reflects *vSwitch* health, not the
health of the other hypervisors sharing the SmartNIC. ``miss_threshold``
consecutive unanswered probes mark a target down ("unreachable via
multiple pings").

Appendix C.2: when most targets appear down at once, that is almost
always a monitoring bug, not mass hardware failure — automatic removal is
suspended and a manual-intervention flag raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.fabric.device import ServerNode
from repro.net.addr import MacAddress
from repro.net.ethernet import EthernetHeader
from repro.net.ipv4 import IPv4Header
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro import telemetry as _telemetry
from repro.vswitch.vswitch import PROBE_PORT


@dataclass
class TargetState:
    server: ServerNode
    consecutive_misses: int = 0
    outstanding_seq: Optional[int] = None
    down_reported: bool = False
    probes_sent: int = 0
    replies_seen: int = 0


class HealthMonitor:
    """Ping-polling monitor running from a dedicated fabric host."""

    def __init__(self, engine: Engine, monitor_server: ServerNode,
                 interval: float = 0.5, miss_threshold: int = 3,
                 suspend_fraction: float = 0.5) -> None:
        if miss_threshold < 1:
            raise ConfigError("miss_threshold must be >= 1")
        self.engine = engine
        self.server = monitor_server
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.suspend_fraction = suspend_fraction
        self.trace = _telemetry.active_trace(engine)
        self.targets: Dict[str, TargetState] = {}
        self._seq = 0
        self._seq_to_target: Dict[int, str] = {}
        self.on_down: Optional[Callable[[ServerNode], None]] = None
        self.on_up: Optional[Callable[[ServerNode], None]] = None
        self.suspended = False          # Appendix C.2 manual-intervention flag
        self._started = False
        monitor_server.attach_sink(self._on_packet)
        tel = _telemetry.current()
        if tel is not None:
            tel.register_monitor(self)

    # -- target management ---------------------------------------------------

    def add_target(self, server: ServerNode) -> None:
        if server.name not in self.targets:
            self.targets[server.name] = TargetState(server)

    def remove_target(self, server: ServerNode) -> None:
        state = self.targets.pop(server.name, None)
        if state is not None and state.outstanding_seq is not None:
            # A probe to the removed target may still be in flight; without
            # this purge a late echo reply would resolve the stale seq and
            # the mapping entry would leak forever if no reply ever came.
            self._seq_to_target.pop(state.outstanding_seq, None)
            state.outstanding_seq = None

    def reset_suspension(self) -> None:
        """Manual operator action re-enabling automatic removal.

        Targets that genuinely died while removal was suspended have
        ``consecutive_misses`` over the threshold but were never reported
        (``_evaluate_down`` returns early when suspended) — report them
        now, otherwise they would only surface after a fresh miss streak,
        or never, because every subsequent sweep re-enters the mass-failure
        branch and re-suspends.
        """
        self.suspended = False
        pending = [state for state in self.targets.values()
                   if state.consecutive_misses >= self.miss_threshold
                   and not state.down_reported]
        for state in pending:
            state.down_reported = True
            self.trace.emit("monitor.target_down", target=state.server.name)
            if self.on_down is not None:
                self.on_down(state.server)

    # -- probing loop ------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True

        def loop():
            while self._started:
                self._sweep()
                yield self.engine.timeout(self.interval)

        self.engine.process(loop(), name="health-monitor")

    def stop(self) -> None:
        """Stop probing (the loop exits at its next tick). A later
        :meth:`start` resumes with the same target set."""
        self._started = False

    def _sweep(self) -> None:
        # First account for last round's unanswered probes.
        newly_down: List[TargetState] = []
        for state in self.targets.values():
            if state.outstanding_seq is not None:
                state.consecutive_misses += 1
                self._seq_to_target.pop(state.outstanding_seq, None)
                state.outstanding_seq = None
                if (state.consecutive_misses >= self.miss_threshold
                        and not state.down_reported):
                    newly_down.append(state)
        self._evaluate_down(newly_down)
        # Then send this round's probes.
        for state in self.targets.values():
            self._send_probe(state)

    def _evaluate_down(self, newly_down: List[TargetState]) -> None:
        if not newly_down:
            return
        down_total = sum(
            1 for s in self.targets.values()
            if s.consecutive_misses >= self.miss_threshold)
        if (len(self.targets) >= 4
                and down_total / len(self.targets) >= self.suspend_fraction):
            # Widespread "failure" — almost certainly a false positive.
            if not self.suspended:
                self.suspended = True
                self.trace.emit("monitor.suspended", down=down_total,
                                targets=len(self.targets))
            return
        if self.suspended:
            return
        for state in newly_down:
            state.down_reported = True
            self.trace.emit("monitor.target_down", target=state.server.name)
            if self.on_down is not None:
                self.on_down(state.server)

    def _send_probe(self, state: TargetState) -> None:
        self._seq += 1
        seq = self._seq
        state.outstanding_seq = seq
        state.probes_sent += 1
        self._seq_to_target[seq] = state.server.name
        probe = Packet.udp(self.server.underlay_ip,
                           state.server.underlay_ip,
                           40000, PROBE_PORT, payload=seq.to_bytes(4, "big"))
        wrapped = Packet([EthernetHeader(MacAddress.broadcast(),
                                         self.server.mac)] + probe.layers,
                         probe.payload)
        self.server.send_to_fabric(wrapped)

    # -- replies -----------------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if len(packet.payload) < 4:
            return
        seq = int.from_bytes(packet.payload[:4], "big")
        target_name = self._seq_to_target.pop(seq, None)
        if target_name is None:
            return
        state = self.targets.get(target_name)
        if state is None:
            return
        state.replies_seen += 1
        state.outstanding_seq = None
        state.consecutive_misses = 0
        if state.down_reported:
            state.down_reported = False
            self.trace.emit("monitor.target_up", target=target_name)
            if self.on_up is not None:
                self.on_up(state.server)


class MutualPing:
    """Periodic BE↔FE mutual pinging (Appendix C.1).

    The centralized monitor sees vSwitch health but not BE↔FE link
    connectivity; each BE therefore pings its FEs directly at a lower
    frequency and reports FEs it cannot reach.
    """

    _instances = 0

    def __init__(self, engine: Engine, be_vswitch, fe_vswitch,
                 interval: float = 2.0, miss_threshold: int = 2) -> None:
        self.engine = engine
        self.be_vswitch = be_vswitch
        self.fe_vswitch = fe_vswitch
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.misses = 0
        self.on_unreachable: Optional[Callable[[], None]] = None
        self._reported = False
        self._outstanding: Optional[int] = None
        # Several pingers can share one BE vSwitch: disjoint seq spaces.
        MutualPing._instances += 1
        self._seq = MutualPing._instances * 1_000_000
        self._stopped = False
        be_vswitch.on_probe_reply(self._on_reply)

    def start(self) -> None:
        def loop():
            while not self._stopped:
                self._tick()
                yield self.engine.timeout(self.interval)

        self.engine.process(loop(), name="mutual-ping")

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._outstanding is not None:
            self.misses += 1
            if (self.misses >= self.miss_threshold
                    and not self._reported
                    and self.on_unreachable is not None):
                self._reported = True
                self.on_unreachable()
        self._seq += 1
        self._outstanding = self._seq
        be_server = self.be_vswitch.server
        fe_server = self.fe_vswitch.server
        probe = Packet.udp(be_server.underlay_ip, fe_server.underlay_ip,
                           40001, PROBE_PORT,
                           payload=self._seq.to_bytes(4, "big"))
        wrapped = Packet([EthernetHeader(MacAddress.broadcast(),
                                         be_server.mac)] + probe.layers,
                         probe.payload)
        be_server.send_to_fabric(wrapped)

    def _on_reply(self, packet: Packet) -> None:
        if len(packet.payload) < 4:
            return
        seq = int.from_bytes(packet.payload[:4], "big")
        if seq == self._outstanding:
            self._outstanding = None
            self.misses = 0
            self._reported = False
