"""Seamless vNIC offload, fallback, scaling, and FE failover (§4.2–4.4).

The :class:`NezhaOrchestrator` executes the control-plane workflows as
engine processes, with explicit dual-running stages:

**Offload** (Fig 7): configure rule tables in the selected FEs → install
the BE datapath (TX immediately relays through FEs; RX direct arrivals are
still processed locally because the rule tables are *retained*) → update
the gateway → wait until every learner has pulled the new entry plus an
in-flight margin → release the BE's rule tables (final stage).

**Fallback** is the mirror image, with the vNIC-server entry pointed back
at the BE, and with session state preserved (STATE_ONLY entries are
promoted lazily by the local datapath).

**Scale-out/in** adds/removes FEs without consistent hashing: flows that
land on a different FE after the change just re-run a rule-table lookup.

**Failover**: a crashed FE is removed from the selector and the gateway
immediately; if the FE set would fall below ``min_fes`` (4 in production,
Appendix B.2), a replacement is requested.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import OffloadError, ResourceExhausted
from repro.sim.engine import Engine, Event
from repro.sim.rng import SeededRng
from repro import telemetry as _telemetry
from repro.vswitch.rule_tables import Location
from repro.vswitch.vnic import Vnic
from repro.vswitch.vswitch import VSwitch
from repro.controller.gateway import Gateway
from repro.controller.latency import ControlLatencyModel
from repro.core.agent import NezhaAgent
from repro.core.backend import BackendInstance
from repro.core.frontend import FrontendInstance
from repro.core.load_balancer import FeSelector


class OffloadState(enum.Enum):
    DUAL_RUNNING = "dual_running"
    ACTIVE = "active"
    FALLING_BACK = "falling_back"
    INACTIVE = "inactive"


@dataclass
class OffloadConfig:
    learning_interval: float = 0.2      # vSwitch mapping-learning period
    inflight_margin: float = 0.02       # RTT allowance before table deletion
    min_fes: int = 4                    # floor maintained by failover (§4.4)
    sync_poll: float = 0.02             # learner-sync polling period
    sync_timeout: float = 10.0          # give up waiting for laggard learners
    latency: ControlLatencyModel = field(default_factory=ControlLatencyModel)
    # Control-plane RPC hardening: every workflow stage retries with
    # exponential backoff after ``rpc_timeout`` of silence, then the flow
    # aborts (and rolls back) rather than wedging half-complete.
    rpc_max_attempts: int = 4
    rpc_timeout: float = 0.25
    rpc_backoff_base: float = 0.05
    rpc_backoff_cap: float = 0.4


class OffloadHandle:
    """One offloaded vNIC: its BE, FE set, and lifecycle state."""

    def __init__(self, vnic: Vnic, be_vswitch: VSwitch,
                 backend: BackendInstance, selector: FeSelector) -> None:
        self.vnic = vnic
        self.be_vswitch = be_vswitch
        self.backend = backend
        self.selector = selector
        self.frontends: Dict[Location, FrontendInstance] = {}
        self.state = OffloadState.DUAL_RUNNING
        # Lifecycle history: (virtual time, state name) per transition —
        # the raw material for post-mortem "when did this vNIC activate".
        self.transitions: List[Tuple[float, str]] = []
        self.triggered_at = 0.0
        self.completed_at: Optional[float] = None
        self.completion: Optional[Event] = None
        # True when the offload flow gave up and rolled back; ``completion``
        # still fires (successfully) so waiters are released either way.
        self.failed = False

    @property
    def fe_locations(self) -> List[Location]:
        return list(self.frontends.keys())

    @property
    def fe_vswitches(self) -> List[VSwitch]:
        return [fe.vswitch for fe in self.frontends.values()]

    @property
    def activation_time(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.triggered_at

    def __repr__(self) -> str:
        return (f"OffloadHandle(vnic={self.vnic.vnic_id}, "
                f"{len(self.frontends)} FEs, {self.state.value})")


class NezhaOrchestrator:
    """Executes Nezha workflows across agents, the gateway, and the fabric."""

    def __init__(self, engine: Engine, gateway: Gateway,
                 rng: Optional[SeededRng] = None,
                 config: Optional[OffloadConfig] = None) -> None:
        self.engine = engine
        self.gateway = gateway
        self.rng = rng or SeededRng(0, "orchestrator")
        self.config = config or OffloadConfig()
        self.trace = _telemetry.active_trace(engine)
        self.agents: Dict[str, NezhaAgent] = {}
        self.handles: Dict[int, OffloadHandle] = {}
        # Invoked when failover leaves a handle short of FEs; the
        # controller wires this to its placement logic.
        self.need_fe_callback: Optional[
            Callable[[OffloadHandle, int], None]] = None
        # Fault-injection hook, called once per RPC attempt with
        # ``(stage, attempt)``. Return ``None``/``"ok"`` for a normal
        # delivery, ``"drop"`` to lose the RPC, ``"dup"`` to deliver it
        # twice, or ``("delay", seconds)`` for extra latency.
        self.rpc_fault_hook: Optional[Callable[[str, int], object]] = None
        self.rpc_drops = 0
        self.rpc_retries_recovered = 0
        self.rpc_giveups = 0
        self.aborted_offloads = 0

    # -- agents ------------------------------------------------------------------

    def agent_for(self, vswitch: VSwitch) -> NezhaAgent:
        agent = self.agents.get(vswitch.name)
        if agent is None:
            agent = NezhaAgent(vswitch)
            self.agents[vswitch.name] = agent
        return agent

    def _set_state(self, handle: OffloadHandle, state: OffloadState) -> None:
        """Advance a handle's lifecycle: the timestamped transition goes
        on the handle and, as one ``nezha.offload_state`` record, on the
        timeline."""
        handle.state = state
        handle.transitions.append((self.engine.now, state.value))
        self.trace.emit("nezha.offload_state", vnic=handle.vnic.vnic_id,
                        state=state.value)

    def _rpc_delay(self) -> float:
        return self.config.latency.sample(self.rng)

    def _rpc(self, stage: str):
        """One control-plane RPC with bounded retry + exponential backoff.

        Subroutine for workflow processes (``yield from``). Returns the
        number of times the RPC was *delivered*: 0 after exhausting
        ``rpc_max_attempts`` (the caller must abort/degrade), 1 normally,
        2 when the network duplicated it — callers apply their mutation
        once per delivery, so idempotent re-entry is exercised, not just
        assumed.
        """
        cfg = self.config
        backoff = cfg.rpc_backoff_base
        for attempt in range(cfg.rpc_max_attempts):
            verdict, extra_delay = "ok", 0.0
            if self.rpc_fault_hook is not None:
                raw = self.rpc_fault_hook(stage, attempt)
                if isinstance(raw, tuple):
                    verdict, extra_delay = raw
                elif raw:
                    verdict = raw
            if verdict == "drop":
                self.rpc_drops += 1
                self.trace.emit("nezha.rpc_drop", stage=stage,
                                attempt=attempt)
                yield self.engine.timeout(cfg.rpc_timeout + backoff)
                backoff = min(backoff * 2.0, cfg.rpc_backoff_cap)
                continue
            yield self.engine.timeout(self._rpc_delay() + extra_delay)
            if attempt:
                self.rpc_retries_recovered += 1
                self.trace.emit("nezha.rpc_recovered", stage=stage,
                                attempts=attempt + 1)
            return 2 if verdict == "dup" else 1
        self.rpc_giveups += 1
        self.trace.emit("nezha.rpc_giveup", stage=stage,
                        attempts=cfg.rpc_max_attempts)
        return 0

    # -- offload (§4.2.1) -----------------------------------------------------------

    def offload(self, vnic: Vnic, fe_vswitches: List[VSwitch]) -> OffloadHandle:
        """Start the two-stage offload; returns a handle whose
        ``completion`` event fires when the final stage is reached."""
        if vnic.vnic_id in self.handles:
            raise OffloadError(f"vNIC {vnic.vnic_id} is already offloaded")
        if vnic.host is None:
            raise OffloadError(f"{vnic!r} is not hosted anywhere")
        if not fe_vswitches:
            raise OffloadError("offload needs at least one FE")
        be_vswitch = vnic.host
        if any(fe is be_vswitch for fe in fe_vswitches):
            raise OffloadError("an FE cannot live on the BE's own vSwitch")

        selector = FeSelector()
        backend = BackendInstance(be_vswitch, vnic, selector)
        handle = OffloadHandle(vnic, be_vswitch, backend, selector)
        handle.triggered_at = self.engine.now
        self._set_state(handle, OffloadState.DUAL_RUNNING)
        handle.completion = self.engine.event(f"offload-{vnic.vnic_id}")
        self.handles[vnic.vnic_id] = handle
        self.engine.process(self._offload_flow(handle, fe_vswitches),
                            name=f"offload-{vnic.vnic_id}")
        return handle

    def _offload_flow(self, handle: OffloadHandle,
                      fe_vswitches: List[VSwitch]):
        vnic = handle.vnic
        self.trace.emit("nezha.offload_trigger", vnic=vnic.vnic_id,
                        be=handle.be_vswitch.name)
        # 1. Configure the vNIC's rule tables in every selected FE.
        deliveries = yield from self._rpc("offload.configure_fes")
        if deliveries == 0:
            self._abort_offload(handle)
            return
        for _ in range(deliveries):
            for fe_vswitch in fe_vswitches:
                self._create_frontend(handle, fe_vswitch)
        if not handle.frontends:
            # Every target crashed (or ran out of memory) under our feet.
            self._abort_offload(handle)
            return
        # 2. Configure BE/FE locations; the BE datapath takes over (TX now
        #    relays via FEs; direct RX is processed with retained tables).
        deliveries = yield from self._rpc("offload.install_be")
        if deliveries == 0:
            self._abort_offload(handle)
            return
        for _ in range(deliveries):
            self._install_backend(handle)
        # 3. Update the gateway's vNIC-server entry to the FE locations.
        deliveries = yield from self._rpc("offload.update_gateway")
        if deliveries == 0:
            self._abort_offload(handle)
            return
        version = 0
        for _ in range(deliveries):
            version = self.gateway.set_locations(vnic.vni, vnic.tenant_ip,
                                                 handle.fe_locations)
        # Dual-running: wait for every learner, then the in-flight margin.
        yield from self._await_sync(vnic.vni, version)
        yield self.engine.timeout(self.config.inflight_margin)
        # A racing failover may have emptied the FE set (or replaced the
        # handle) while we waited; completing would strand the vNIC.
        if self.handles.get(vnic.vnic_id) is not handle \
                or not handle.frontends:
            self._abort_offload(handle)
            return
        # Final stage: delete local rule tables and cached flows.
        if not vnic.offloaded:
            handle.be_vswitch.release_vnic_tables(vnic.vnic_id)
        handle.backend.tables_released = True
        self._set_state(handle, OffloadState.ACTIVE)
        handle.completed_at = self.engine.now
        self.trace.emit("nezha.offload_complete", vnic=vnic.vnic_id,
                        duration=handle.activation_time,
                        fes=len(handle.frontends))
        handle.completion.succeed(handle)

    def _install_backend(self, handle: OffloadHandle) -> None:
        """Stage-2 mutation, idempotent: a duplicated/replayed RPC finds
        the BE already registered and leaves it alone."""
        vnic = handle.vnic
        be_agent = self.agent_for(handle.be_vswitch)
        if be_agent.backends.get(vnic.vnic_id) is not handle.backend:
            if vnic.vnic_id in be_agent.backends:
                be_agent.unregister_backend(vnic.vnic_id)
            be_agent.register_backend(handle.backend)
        handle.be_vswitch.session_table.demote_vni(vnic.vni)

    def _abort_offload(self, handle: OffloadHandle) -> None:
        """Roll a half-completed offload back to purely local processing.

        Safe to call from any stage: tears down whatever was built,
        restores tables if they were released, points the gateway back at
        the BE only if we had moved it, and releases completion waiters
        with ``handle.failed`` set (never ``Event.fail`` — a crashing
        waiter would take the whole strict run down with it).
        """
        vnic = handle.vnic
        handle.failed = True
        self.aborted_offloads += 1
        for location in list(handle.frontends):
            self._remove_frontend(handle, location, graceful=False)
        be_agent = self.agent_for(handle.be_vswitch)
        if be_agent.backends.get(vnic.vnic_id) is handle.backend:
            be_agent.unregister_backend(vnic.vnic_id)
        if vnic.offloaded:
            try:
                handle.be_vswitch.restore_vnic_tables(vnic.vnic_id)
            except ResourceExhausted:
                self.trace.emit("nezha.abort_restore_failed",
                                vnic=vnic.vnic_id)
        be_location = Location(handle.be_vswitch.server.underlay_ip,
                               handle.be_vswitch.server.mac)
        entry = self.gateway.lookup(vnic.vni, vnic.tenant_ip)
        if entry is not None and entry.locations != [be_location]:
            self.gateway.set_locations(vnic.vni, vnic.tenant_ip,
                                       [be_location])
        self._set_state(handle, OffloadState.INACTIVE)
        if self.handles.get(vnic.vnic_id) is handle:
            self.handles.pop(vnic.vnic_id)
        self.trace.emit("nezha.offload_abort", vnic=vnic.vnic_id)
        if handle.completion is not None and not handle.completion.fired:
            handle.completion.succeed(handle)

    def _create_frontend(self, handle: OffloadHandle,
                         fe_vswitch: VSwitch) -> Optional[FrontendInstance]:
        if any(fe.vswitch is fe_vswitch for fe in handle.frontends.values()):
            # Concurrent scale-outs can race toward the same target; the
            # second request is redundant, not an error.
            self.trace.emit("nezha.fe_already_present",
                            vnic=handle.vnic.vnic_id,
                            vswitch=fe_vswitch.name)
            return None
        if fe_vswitch.crashed:
            # The target died between selection and this RPC landing.
            self.trace.emit("nezha.fe_target_crashed",
                            vnic=handle.vnic.vnic_id,
                            vswitch=fe_vswitch.name)
            return None
        agent = self.agent_for(fe_vswitch)
        if handle.vnic.vnic_id in agent.frontends:
            # A replayed configure RPC: the instance is already installed.
            self.trace.emit("nezha.fe_already_present",
                            vnic=handle.vnic.vnic_id,
                            vswitch=fe_vswitch.name)
            return None
        be_location = Location(handle.be_vswitch.server.underlay_ip,
                               handle.be_vswitch.server.mac)
        try:
            frontend = FrontendInstance(fe_vswitch, handle.vnic,
                                        handle.vnic.slow_path, be_location)
        except ResourceExhausted:
            self.trace.emit("nezha.fe_target_oom",
                            vnic=handle.vnic.vnic_id,
                            vswitch=fe_vswitch.name)
            return None
        agent.register_frontend(frontend)
        location = frontend.location()
        handle.frontends[location] = frontend
        handle.selector.add(location)
        return frontend

    def _await_sync(self, vni: int, version: int):
        deadline = self.engine.now + self.config.sync_timeout
        while not self.gateway.all_learners_synced(vni, version):
            if self.engine.now >= deadline:
                self.trace.emit("nezha.sync_timeout", vni=vni)
                break
            yield self.engine.timeout(self.config.sync_poll)

    # -- fallback (§4.2.2) ---------------------------------------------------------------

    def fallback(self, handle: OffloadHandle) -> Event:
        """Return the vNIC to purely local processing."""
        if handle.state is not OffloadState.ACTIVE:
            raise OffloadError(f"cannot fall back from {handle.state}")
        self._set_state(handle, OffloadState.FALLING_BACK)
        done = self.engine.event(f"fallback-{handle.vnic.vnic_id}")
        self.engine.process(self._fallback_flow(handle, done),
                            name=f"fallback-{handle.vnic.vnic_id}")
        return done

    def _fallback_flow(self, handle: OffloadHandle, done: Event):
        vnic = handle.vnic
        self.trace.emit("nezha.fallback_trigger", vnic=vnic.vnic_id)
        # 1. Restore the rule tables locally (dual-running, mirrored).
        deliveries = yield from self._rpc("fallback.restore_tables")
        if deliveries == 0:
            self._set_state(handle, OffloadState.ACTIVE)
            done.fail(OffloadError(
                f"fallback of vNIC {vnic.vnic_id}: BE unreachable"))
            return
        try:
            if vnic.offloaded:
                handle.be_vswitch.restore_vnic_tables(vnic.vnic_id)
        except ResourceExhausted:
            self._set_state(handle, OffloadState.ACTIVE)
            done.fail(OffloadError(
                f"BE lacks memory to restore vNIC {vnic.vnic_id} tables"))
            return
        handle.backend.tables_released = False
        # 2. Point the gateway back at the BE.
        deliveries = yield from self._rpc("fallback.update_gateway")
        if deliveries == 0:
            # Gateway unreachable: revert to the offloaded steady state
            # (re-release the tables) rather than leaving the BE holding
            # tables while remote senders still target the FEs.
            handle.be_vswitch.release_vnic_tables(vnic.vnic_id)
            handle.backend.tables_released = True
            self._set_state(handle, OffloadState.ACTIVE)
            done.fail(OffloadError(
                f"fallback of vNIC {vnic.vnic_id}: gateway unreachable"))
            return
        be_location = Location(handle.be_vswitch.server.underlay_ip,
                               handle.be_vswitch.server.mac)
        version = 0
        for _ in range(deliveries):
            version = self.gateway.set_locations(vnic.vni, vnic.tenant_ip,
                                                 [be_location])
        yield from self._await_sync(vnic.vni, version)
        yield self.engine.timeout(self.config.inflight_margin)
        # 3. Tear down FEs and the BE datapath; local processing resumes
        #    with session state intact (lazy flow promotion).
        for location in list(handle.frontends):
            self._remove_frontend(handle, location, graceful=False)
        be_agent = self.agent_for(handle.be_vswitch)
        if be_agent.backends.get(vnic.vnic_id) is handle.backend:
            be_agent.unregister_backend(vnic.vnic_id)
        self._set_state(handle, OffloadState.INACTIVE)
        if self.handles.get(vnic.vnic_id) is handle:
            self.handles.pop(vnic.vnic_id)
        self.trace.emit("nezha.fallback_complete", vnic=vnic.vnic_id)
        done.succeed(handle)

    # -- scaling (§4.3) ----------------------------------------------------------------------

    def scale_out(self, handle: OffloadHandle,
                  fe_vswitches: List[VSwitch]) -> Event:
        """Add FEs to an offloaded vNIC."""
        done = self.engine.event(f"scale-out-{handle.vnic.vnic_id}")

        def _live() -> bool:
            # The handle may fall back (or abort) while this flow is in
            # flight; scaling a retired handle would resurrect orphan FEs.
            return (self.handles.get(handle.vnic.vnic_id) is handle
                    and handle.state in (OffloadState.DUAL_RUNNING,
                                         OffloadState.ACTIVE))

        def flow():
            deliveries = yield from self._rpc("scale_out.configure_fes")
            if deliveries == 0 or not _live():
                done.succeed(handle)
                return
            for _ in range(deliveries):
                for fe_vswitch in fe_vswitches:
                    self._create_frontend(handle, fe_vswitch)
            deliveries = yield from self._rpc("scale_out.update_gateway")
            if deliveries == 0 or not _live() or not handle.fe_locations:
                done.succeed(handle)
                return
            version = 0
            for _ in range(deliveries):
                version = self.gateway.set_locations(
                    handle.vnic.vni, handle.vnic.tenant_ip,
                    handle.fe_locations)
            yield from self._await_sync(handle.vnic.vni, version)
            self.trace.emit("nezha.scale_out", vnic=handle.vnic.vnic_id,
                            fes=len(handle.frontends))
            done.succeed(handle)

        self.engine.process(flow(), name=f"scale-out-{handle.vnic.vnic_id}")
        return done

    def scale_in_vswitch(self, vswitch: VSwitch) -> int:
        """Remove every FE hosted on ``vswitch`` (it needs its resources
        for local traffic); returns the number of FEs removed."""
        removed = 0
        for handle in list(self.handles.values()):
            for location, frontend in list(handle.frontends.items()):
                if frontend.vswitch is vswitch:
                    self._retire_fe(handle, location, graceful=True)
                    removed += 1
            self._request_replacements(handle)
        if removed:
            self.trace.emit("nezha.scale_in", vswitch=vswitch.name,
                            removed=removed)
        return removed

    def _request_replacements(self, handle: OffloadHandle) -> None:
        """Ask the controller for FEs when a handle dropped below the
        minimum — unless the handle is already on its way out (a racing
        fallback/abort), where replacements would become orphans."""
        if handle.state in (OffloadState.FALLING_BACK, OffloadState.INACTIVE):
            return
        shortfall = self.config.min_fes - len(handle.frontends)
        if shortfall > 0 and self.need_fe_callback is not None:
            self.need_fe_callback(handle, shortfall)

    # -- failover (§4.4) -------------------------------------------------------------------------

    def fail_fe(self, vswitch: VSwitch) -> int:
        """A vSwitch hosting FEs crashed: remove its FEs everywhere,
        immediately, and request replacements below the minimum."""
        failed = 0
        for handle in list(self.handles.values()):
            for location, frontend in list(handle.frontends.items()):
                if frontend.vswitch is vswitch:
                    self._retire_fe(handle, location, graceful=False)
                    failed += 1
            self._request_replacements(handle)
        if failed:
            self.trace.emit("nezha.failover", vswitch=vswitch.name,
                            removed=failed)
        return failed

    # -- FE migration (PAM-style push-neighbor-aside) -------------------------------------------------

    def migrate_fe(self, handle: OffloadHandle, from_vswitch: VSwitch,
                   to_vswitch: VSwitch) -> Event:
        """Move one of ``handle``'s FEs off ``from_vswitch``: scale out
        onto ``to_vswitch`` first, then gracefully retire the instance on
        ``from_vswitch`` once the new FE is live — the vNIC never loses
        FE capacity mid-migration. If the scale-out gives up (RPC
        failure, target crashed/OOM) the old FE stays where it is."""
        done = self.engine.event(f"migrate-fe-{handle.vnic.vnic_id}")
        grown = self.scale_out(handle, [to_vswitch])

        def finish():
            yield grown
            landed = any(fe.vswitch is to_vswitch
                         for fe in handle.frontends.values())
            live = (self.handles.get(handle.vnic.vnic_id) is handle
                    and handle.state in (OffloadState.DUAL_RUNNING,
                                         OffloadState.ACTIVE))
            if landed and live:
                for location, frontend in list(handle.frontends.items()):
                    if frontend.vswitch is from_vswitch:
                        self._retire_fe(handle, location, graceful=True)
                self.trace.emit("nezha.fe_migrated",
                                vnic=handle.vnic.vnic_id,
                                src=from_vswitch.name,
                                dst=to_vswitch.name)
            else:
                self.trace.emit("nezha.fe_migration_failed",
                                vnic=handle.vnic.vnic_id,
                                src=from_vswitch.name,
                                dst=to_vswitch.name)
            done.succeed(handle)

        self.engine.process(finish(),
                            name=f"migrate-fe-{handle.vnic.vnic_id}")
        return done

    def preempt_fe(self, handle: OffloadHandle, location: Location) -> None:
        """Gracefully revoke one FE grant (tenant-quota preemption).

        Unlike ``fail_fe``/``scale_in_vswitch`` this deliberately does
        NOT request replacements: the scheduler reclaimed the unit, so
        backfilling it would undo the preemption."""
        if location not in handle.frontends:
            return
        self._retire_fe(handle, location, graceful=True)
        self.trace.emit("nezha.fe_preempted", vnic=handle.vnic.vnic_id)

    # -- shared FE retirement ------------------------------------------------------------------------

    def _retire_fe(self, handle: OffloadHandle, location: Location,
                   graceful: bool) -> None:
        """Remove one FE: selector and gateway first, then (after a grace
        period covering the learning interval + RTT, §4.3) the instance.

        Idempotent: racing removals (``fail_fe`` during a ``fallback`` or
        ``scale_in``) find the FE already gone and return without effect.
        """
        frontend = handle.frontends.pop(location, None)
        if frontend is None:
            return
        if location in handle.selector.locations:
            handle.selector.remove(location)
        if handle.fe_locations:
            self.gateway.set_locations(handle.vnic.vni,
                                       handle.vnic.tenant_ip,
                                       handle.fe_locations)
        elif handle.state in (OffloadState.DUAL_RUNNING, OffloadState.ACTIVE):
            # The last FE is gone: point the gateway back at the BE so
            # traffic stops targeting a dead location. During dual-running
            # the BE still processes everything; once ACTIVE it at least
            # accounts the drops while replacements spin up.
            be_location = Location(handle.be_vswitch.server.underlay_ip,
                                   handle.be_vswitch.server.mac)
            self.gateway.set_locations(handle.vnic.vni,
                                       handle.vnic.tenant_ip, [be_location])
            self.trace.emit("nezha.all_fes_lost", vnic=handle.vnic.vnic_id)
        agent = self.agent_for(frontend.vswitch)
        if graceful:
            frontend.retiring = True
            grace = self.config.learning_interval + self.config.inflight_margin

            def later():
                yield self.engine.timeout(grace)
                if agent.frontends.get(handle.vnic.vnic_id) is frontend:
                    agent.unregister_frontend(handle.vnic.vnic_id)

            self.engine.process(later(), name="fe-retire")
        else:
            if agent.frontends.get(handle.vnic.vnic_id) is frontend:
                agent.unregister_frontend(handle.vnic.vnic_id)

    def _remove_frontend(self, handle: OffloadHandle, location: Location,
                         graceful: bool) -> None:
        frontend = handle.frontends.pop(location, None)
        if frontend is None:
            return
        if location in handle.selector.locations:
            handle.selector.remove(location)
        agent = self.agent_for(frontend.vswitch)
        if agent.frontends.get(handle.vnic.vnic_id) is frontend:
            agent.unregister_frontend(handle.vnic.vnic_id)
