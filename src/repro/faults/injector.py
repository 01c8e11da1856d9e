"""The fault injector: binds fault events to a running environment.

One :class:`FaultInjector` per simulation. It knows the breakable pieces —
vSwitches, the fabric topology, the orchestrator's RPC hook, mapping
learners, the health monitor, the controller — and translates
:class:`~repro.faults.events.FaultEvent`\\ s into concrete sabotage,
scheduling the matching heal ``duration`` later.

Two kinds of counting happen here:

* ``events_applied`` — every scheduled :class:`FaultEvent` executed;
* ``injected`` — every individual fault *action*, including each RPC
  verdict delivered during a storm window and each learner pull dropped.
  This is the number the chaos soak's ">= N injected faults" acceptance
  gate reads, because one storm window can sabotage dozens of RPCs.

All randomness flows through a :class:`SeededRng` child, so a given
(plan, seed) pair replays the exact same carnage.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.engine import Engine
from repro.sim.rng import SeededRng
from repro import telemetry as _telemetry
from repro.faults.events import FaultEvent, FaultKind


class FaultInjector:
    """Applies fault events to the bound environment and heals them."""

    def __init__(self, engine: Engine, *,
                 vswitches: Sequence = (),
                 topo=None,
                 orchestrator=None,
                 learners: Sequence = (),
                 monitor=None,
                 controller=None,
                 rng: Optional[SeededRng] = None,
                 rpc_drop_prob: float = 0.7,
                 learner_drop_prob: float = 0.8) -> None:
        self.engine = engine
        self.topo = topo
        self.orchestrator = orchestrator
        self.monitor = monitor
        self.controller = controller
        self.learners = list(learners)
        self.rng = rng or SeededRng(0, "fault-injector")
        self.trace = _telemetry.active_trace(engine)
        self.rpc_drop_prob = rpc_drop_prob
        self.learner_drop_prob = learner_drop_prob
        self._vswitch_by_name = {vs.name: vs for vs in vswitches}
        self._server_by_name = ({s.name: s for s in topo.servers}
                                if topo is not None else {})
        # Active sabotage windows (end time in virtual seconds).
        self._rpc_mode: Optional[str] = None
        self._rpc_until = 0.0
        self._learner_until = 0.0
        self._crashed: Dict[str, float] = {}    # name -> recovery time
        self._links_down: Dict[str, float] = {}  # server name -> heal time
        # Bookkeeping.
        self.events_applied: List[FaultEvent] = []
        self.injected: Dict[str, int] = {}
        # Called after each applied event (the soak checks invariants here).
        self.on_event: Optional[Callable[[FaultEvent], None]] = None
        if orchestrator is not None:
            orchestrator.rpc_fault_hook = self._rpc_hook
        for learner in self.learners:
            learner.fault_hook = self._learner_hook

    # -- counting ------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.injected[key] = self.injected.get(key, 0) + n

    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- event dispatch ------------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        handler = {
            FaultKind.CRASH_VSWITCH: self._apply_crash,
            FaultKind.LINK_FLAP: self._apply_link_flap,
            FaultKind.PARTITION_MONITOR: self._apply_partition,
            FaultKind.RPC_STORM: self._apply_rpc_storm,
            FaultKind.LEARNER_DROP: self._apply_learner_drop,
            FaultKind.KILL_CONTROLLER: self._apply_kill_controller,
        }[event.kind]
        handler(event)
        self.events_applied.append(event)
        self._count(event.kind.value)
        self.trace.emit("fault.injected", fault=event.kind.value,
                        target=event.target, duration=event.duration)
        if self.on_event is not None:
            self.on_event(event)

    # -- vSwitch crash/recover -----------------------------------------------

    def _apply_crash(self, event: FaultEvent) -> None:
        vswitch = self._vswitch_by_name[event.target]
        heal_at = self.engine.now + event.duration
        vswitch.crash()
        # Overlapping crashes extend the outage; stale heals no-op in
        # ``_heal_crash`` because they fire before the recorded end time.
        self._crashed[vswitch.name] = max(
            self._crashed.get(vswitch.name, 0.0), heal_at)
        self.engine.call_at(heal_at, self._heal_crash, vswitch.name)

    def _heal_crash(self, name: str) -> None:
        if self.engine.now + 1e-12 < self._crashed.get(name, 0.0):
            return  # a later crash extended the outage
        vswitch = self._vswitch_by_name[name]
        vswitch.recover()
        self._crashed.pop(name, None)
        self.trace.emit("fault.healed", fault="crash_vswitch", target=name)

    # -- link flaps ----------------------------------------------------------

    def _apply_link_flap(self, event: FaultEvent) -> None:
        server = self._server_by_name[event.target]
        heal_at = self.engine.now + event.duration
        self.topo.fail_server_links(server, up=False)
        self._links_down[server.name] = max(
            self._links_down.get(server.name, 0.0), heal_at)
        self.engine.call_at(heal_at, self._heal_links, server.name)

    def _heal_links(self, name: str) -> None:
        if self.engine.now + 1e-12 < self._links_down.get(name, 0.0):
            return
        self.topo.fail_server_links(self._server_by_name[name], up=True)
        self._links_down.pop(name, None)
        self.trace.emit("fault.healed", fault="link_flap", target=name)

    # -- monitor partition ---------------------------------------------------

    def _apply_partition(self, event: FaultEvent) -> None:
        """Cut the monitor host off the fabric. Every target then misses
        probes at once — exercising the Appendix C.2 mass-failure
        suspension; after the heal an operator ``reset_suspension`` is
        simulated two sweep intervals later."""
        server = self.monitor.server
        heal_at = self.engine.now + event.duration
        self.topo.fail_server_links(server, up=False)
        self._links_down[server.name] = max(
            self._links_down.get(server.name, 0.0), heal_at)
        self.engine.call_at(heal_at, self._heal_links, server.name)
        reset_at = heal_at + 2.0 * self.monitor.interval + 1e-6
        self.engine.call_at(reset_at, self._operator_reset)

    def _operator_reset(self) -> None:
        if self.monitor.suspended and \
                self.monitor.server.name not in self._links_down:
            self.monitor.reset_suspension()
            self.trace.emit("fault.operator_reset")

    # -- RPC storms ----------------------------------------------------------

    def _apply_rpc_storm(self, event: FaultEvent) -> None:
        self._rpc_mode = event.mode
        self._rpc_until = max(self._rpc_until,
                              self.engine.now + event.duration)

    def _rpc_hook(self, stage: str, attempt: int):
        if self._rpc_mode is None or self.engine.now >= self._rpc_until:
            return None
        mode = self._rpc_mode
        roll = self.rng.random()
        if mode == "drop":
            if roll < self.rpc_drop_prob:
                self._count("rpc_drop")
                return "drop"
            return None
        if mode == "delay":
            self._count("rpc_delay")
            return ("delay", self.rng.uniform(0.02, 0.2))
        if mode == "dup":
            self._count("rpc_dup")
            return "dup"
        return None

    # -- learner pull loss ---------------------------------------------------

    def _apply_learner_drop(self, event: FaultEvent) -> None:
        self._learner_until = max(self._learner_until,
                                  self.engine.now + event.duration)

    def _learner_hook(self, learner) -> bool:
        if self.engine.now >= self._learner_until:
            return False
        if self.rng.random() < self.learner_drop_prob:
            self._count("learner_pull_drop")
            return True
        return False

    # -- controller kill/restart ---------------------------------------------

    def _apply_kill_controller(self, event: FaultEvent) -> None:
        self.controller.stop()
        self.engine.call_at(self.engine.now + event.duration,
                            self._restart_controller)

    def _restart_controller(self) -> None:
        self.controller.start()
        self.trace.emit("fault.healed", fault="kill_controller")

    # -- quiesce -------------------------------------------------------------

    def heal_all(self) -> None:
        """Force-close every open fault so the system can converge: recover
        crashes, restore links, end storm windows, restart the controller,
        and lift a monitor suspension."""
        for name in list(self._crashed):
            self._vswitch_by_name[name].recover()
            self._crashed.pop(name, None)
        for name in list(self._links_down):
            server = (self._server_by_name.get(name)
                      or (self.monitor.server if self.monitor is not None
                          and self.monitor.server.name == name else None))
            if server is not None:
                self.topo.fail_server_links(server, up=True)
            self._links_down.pop(name, None)
        self._rpc_mode = None
        self._rpc_until = 0.0
        self._learner_until = 0.0
        if self.controller is not None and not self.controller._started:
            self.controller.start()
        if self.monitor is not None and self.monitor.suspended:
            self.monitor.reset_suspension()
        self.trace.emit("fault.heal_all")
