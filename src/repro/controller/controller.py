"""The Nezha controller: the reconciliation loop of Fig 8.

Every poll interval the controller examines each registered vSwitch:

* **offload** — utilization above the offload threshold (70 %): offload
  its hottest not-yet-offloaded vNICs (descending consumption of the
  triggering resource) until the projection falls below the safe level;
* **scale** — utilization above the scale threshold (40 %): if the load
  is mostly *remote* (hosted FEs), scale those vNICs out to more FEs;
  if mostly *local*, scale this vSwitch in (remove every FE it hosts and
  exclude it from placement) — which may itself trigger scale-outs;
* **fallback** — an offloaded vNIC whose FE-side usage is low returns to
  local processing, but only when the BE's projected utilization stays
  below the safe level;
* **failover** — the health monitor reports a crashed FE host: its FEs
  are removed at once and replacements added to keep at least 4 FEs.

Nezha never scales in merely because FE utilization is low (App B.2):
idle FEs cost nothing, and removing them would cause cache-miss lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ReproError
from repro.fabric.device import ServerNode
from repro.sim.engine import Engine, Interrupt
from repro.sim.rng import SeededRng
from repro import telemetry as _telemetry
from repro.vswitch.vswitch import VSwitch
from repro.controller.gateway import Gateway
from repro.controller.monitor import HealthMonitor, MutualPing
from repro.controller.placement import FePlacement
from repro.controller.policy import NezhaPolicy
from repro.core.offload import (NezhaOrchestrator, OffloadHandle,
                                OffloadState)


@dataclass
class ControllerConfig:
    poll_interval: float = 0.1
    offload_threshold: float = 0.7      # trigger remote offloading
    scale_threshold: float = 0.4        # trigger scale-out/-in (Fig 8)
    safe_level: float = 0.5             # offload until projected below this
    fallback_threshold: float = 0.1     # FE-side usage considered "idle"
    fallback_polls: int = 20            # consecutive idle polls before fallback
    initial_fes: int = 4                # App B.2: power of two, minimum viable
    remote_dominant_fraction: float = 0.5
    memory_offload_threshold: float = 0.7


@dataclass
class _NodeBook:
    """Controller-side bookkeeping for one vSwitch."""

    vswitch: VSwitch
    last_pkt_counts: Dict[int, int] = field(default_factory=dict)
    vnic_rates: Dict[int, float] = field(default_factory=dict)


class NezhaController:
    """Periodic reconciliation across a fleet of vSwitches."""

    def __init__(self, engine: Engine, gateway: Gateway,
                 orchestrator: NezhaOrchestrator, placement: FePlacement,
                 config: Optional[ControllerConfig] = None,
                 monitor: Optional[HealthMonitor] = None,
                 rng: Optional[SeededRng] = None,
                 policy: Optional[NezhaPolicy] = None) -> None:
        self.engine = engine
        self.gateway = gateway
        self.orchestrator = orchestrator
        self.placement = placement
        self.config = config or ControllerConfig()
        self.monitor = monitor
        self.trace = _telemetry.active_trace(engine)
        self.rng = rng or SeededRng(0, "controller")
        # The decision seam: what to offload, where, when to scale or
        # fall back. Default is the paper's strategy, unchanged.
        self.policy = policy or NezhaPolicy()
        self.policy.bind(self)
        self.nodes: Dict[str, _NodeBook] = {}
        self._fallback_idle_polls: Dict[int, int] = {}
        # BE↔FE pingers by vNIC id (see watch_links): tracked so they can
        # be stopped when the handle or the watched FE goes away.
        self._link_pingers: Dict[int, List[MutualPing]] = {}
        self._started = False
        self._proc = None
        # vNICs with an offload or scale-out flow still in flight: the
        # reconcile loop must not re-pick them on the next tick (the flow's
        # effects are not visible yet), or one hot vNIC gets double-offloaded
        # / serially over-scaled.
        self._inflight_vnics: Set[int] = set()
        self.offloads_triggered = 0
        self.scale_outs = 0
        self.scale_ins = 0
        self.fallbacks = 0
        self.failovers = 0
        self.reconcile_errors = 0
        orchestrator.need_fe_callback = self._on_need_fes
        if monitor is not None:
            monitor.on_down = self._on_target_down
            monitor.on_up = self._on_target_up
            # The monitor owns its host's fabric sink, so the vSwitch
            # there hears nothing: an FE placed on it black-holes flows.
            placement.excluded.add(monitor.server.name)

    def _decide(self, action: str, **fields) -> None:
        """One controller decision, written twice and only twice: a
        ``controller.<action>`` trace record (the timeline) and — when
        telemetry is installed — a decision-journal entry tagged with
        the active policy's name, so cross-policy captures diff cleanly,
        with the *why* (the fields) attached."""
        self.trace.emit(f"controller.{action}", **fields)
        tel = _telemetry.current()
        if tel is not None:
            tel.decisions.controller_event(self.engine.now,
                                           self.policy.name, action, fields)

    # -- registration ------------------------------------------------------------

    def register(self, vswitch: VSwitch) -> None:
        self.nodes[vswitch.name] = _NodeBook(vswitch)
        self.placement.register(vswitch)

    # -- main loop ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True

        def loop():
            try:
                while True:
                    self.reconcile()
                    yield self.engine.timeout(self.config.poll_interval)
            except Interrupt:
                return  # stop() — exit cleanly, restartable via start()

        self._proc = self.engine.process(loop(), name="controller")

    def stop(self) -> None:
        """Kill the reconcile loop (fault injection / maintenance); a later
        :meth:`start` resumes from current cluster state."""
        if not self._started:
            return
        self._started = False
        proc = self._proc
        self._proc = None
        if proc is not None and not proc.done:
            proc.interrupt("controller stopped")

    def reconcile(self) -> None:
        """One reconciliation pass (callable directly from tests).

        Each sub-step is isolated: an unreachable gateway/monitor or a
        half-crashed vSwitch makes that step fail, not the whole loop —
        the controller degrades to whatever it can still reconcile and
        retries the rest next tick.
        """
        self._update_rates()
        for book in list(self.nodes.values()):
            vswitch = book.vswitch
            if vswitch.crashed:
                continue
            try:
                cpu = vswitch.cpu_utilization()
                mem = vswitch.memory_utilization()
                if (cpu > self.config.offload_threshold
                        or mem > self.config.memory_offload_threshold):
                    self._offload_hottest(book, by_memory=(
                        mem > self.config.memory_offload_threshold
                        and cpu <= self.config.offload_threshold))
                elif cpu > self.config.scale_threshold:
                    self.policy.scale(book, cpu)
            except ReproError as err:
                self._degraded("reconcile", vswitch.name, err)
        try:
            self._ensure_min_fes()
        except ReproError as err:
            self._degraded("min_fes", "-", err)
        try:
            self._consider_fallbacks()
        except ReproError as err:
            self._degraded("fallback", "-", err)
        try:
            self.policy.reconcile_tail()
        except ReproError as err:
            self._degraded("policy_tail", "-", err)
        self._prune_link_pingers()

    def _degraded(self, step: str, target: str, err: Exception) -> None:
        self.reconcile_errors += 1
        self._decide("reconcile_error", step=step,
                     target=target, error=str(err))

    def _track_flow(self, vnic_id: int, done) -> None:
        """Mark ``vnic_id`` in-flight until ``done`` fires (however the
        flow ends — aborted flows release their waiters too)."""
        self._inflight_vnics.add(vnic_id)

        def watch():
            try:
                yield done
            except ReproError:
                pass  # a failed flow still clears the in-flight mark
            self._inflight_vnics.discard(vnic_id)

        self.engine.process(watch(), name=f"flow-watch-{vnic_id}")

    def _ensure_min_fes(self) -> None:
        """Top ACTIVE handles back up to the orchestrator's ``min_fes``
        — the convergence backstop when a replacement scale-out was lost
        to RPC failures."""
        for handle in list(self.orchestrator.handles.values()):
            if handle.state is not OffloadState.ACTIVE:
                continue
            vnic_id = handle.vnic.vnic_id
            if vnic_id in self._inflight_vnics:
                continue
            shortfall = (self.orchestrator.config.min_fes
                         - len(handle.frontends))
            if shortfall > 0:
                self._on_need_fes(handle, shortfall)
            elif self.gateway.lookup(handle.vnic.vni,
                                     handle.vnic.tenant_ip) is not None:
                # Self-heal a gateway entry that drifted from the FE set
                # (e.g. a scale-out whose gateway update was lost).
                entry = self.gateway.lookup(handle.vnic.vni,
                                            handle.vnic.tenant_ip)
                if set(entry.locations) != set(handle.fe_locations):
                    self.gateway.set_locations(handle.vnic.vni,
                                               handle.vnic.tenant_ip,
                                               handle.fe_locations)
                    self._decide("gateway_resync", vnic=vnic_id)

    # -- per-vNIC telemetry -------------------------------------------------------------

    def _update_rates(self) -> None:
        for book in self.nodes.values():
            for vnic in book.vswitch.vnics.values():
                total = vnic.tx_sent + vnic.rx_delivered
                last = book.last_pkt_counts.get(vnic.vnic_id, 0)
                book.vnic_rates[vnic.vnic_id] = (
                    (total - last) / self.config.poll_interval)
                book.last_pkt_counts[vnic.vnic_id] = total

    # -- offload ---------------------------------------------------------------------------

    def _offload_hottest(self, book: _NodeBook, by_memory: bool) -> None:
        vswitch = book.vswitch
        candidates = [v for v in vswitch.vnics.values()
                      if not v.offloaded
                      and v.vnic_id not in self.orchestrator.handles
                      and v.vnic_id not in self._inflight_vnics]
        if not candidates:
            return
        candidates = self.policy.offload_order(book, candidates, by_memory)
        # Offload in policy order until projected below the safe level.
        utilization = (vswitch.memory_utilization() if by_memory
                       else vswitch.cpu_utilization())
        for vnic in candidates:
            if utilization <= self.config.safe_level:
                break
            fes = self.policy.select_fes(vswitch, self.config.initial_fes,
                                         vnic=vnic)
            if not fes:
                self._decide("no_fes", vnic=vnic.vnic_id)
                return
            handle = self.orchestrator.offload(vnic, fes)
            self._track_flow(vnic.vnic_id, handle.completion)
            self.offloads_triggered += 1
            self._decide("offload", vnic=vnic.vnic_id,
                         vswitch=vswitch.name, by_memory=by_memory,
                         fes=len(fes),
                         utilization=round(utilization, 4))
            if self.monitor is not None:
                for fe in fes:
                    self.monitor.add_target(fe.server)
            utilization = self.policy.project(utilization, vnic, book,
                                              by_memory)

    # -- fallback --------------------------------------------------------------------------------

    def _consider_fallbacks(self) -> None:
        handles = self.orchestrator.handles
        # Prune idle-poll streaks whose handle left ACTIVE (fallback,
        # abort, failover teardown, scale-in): the dict would otherwise
        # grow without bound, and a re-offloaded vNIC (same id, fresh
        # handle — still DUAL_RUNNING at this point) would inherit the
        # stale streak and fall back the moment it activates.
        for vnic_id in list(self._fallback_idle_polls):
            handle = handles.get(vnic_id)
            if handle is None or handle.state is not OffloadState.ACTIVE:
                del self._fallback_idle_polls[vnic_id]
        for handle in list(handles.values()):
            if handle.state is not OffloadState.ACTIVE:
                continue
            vnic_id = handle.vnic.vnic_id
            if vnic_id in self._inflight_vnics:
                # A scale-out for this vNIC is still in flight; falling
                # back now would tear the handle down under the flow and
                # orphan the FE it is about to add.
                continue
            fe_usage = max((fe.vswitch.cpu_utilization()
                            for fe in handle.frontends.values()),
                           default=0.0)
            if fe_usage < self.config.fallback_threshold:
                self._fallback_idle_polls[vnic_id] = (
                    self._fallback_idle_polls.get(vnic_id, 0) + 1)
            else:
                self._fallback_idle_polls[vnic_id] = 0
            if self._fallback_idle_polls.get(vnic_id, 0) \
                    < self.config.fallback_polls:
                continue
            allowed, projected = self.policy.fallback_decision(handle,
                                                               fe_usage)
            if allowed:
                self._stop_link_pingers(vnic_id)
                self.orchestrator.fallback(handle)
                self.fallbacks += 1
                self._fallback_idle_polls.pop(vnic_id, None)
                self._decide("fallback", vnic=vnic_id,
                             fe_usage=round(fe_usage, 4),
                             projected=round(projected, 4))

    # -- BE↔FE link watching (Appendix C.1) ---------------------------------------------------------

    def watch_links(self, handle: OffloadHandle,
                    interval: float = 2.0) -> List["object"]:
        """Start BE↔FE mutual pinging for every FE of an offloaded vNIC.

        The centralized monitor sees vSwitch health but not BE↔FE link
        connectivity; mutual pings (at a much lower frequency) remove FEs
        the BE cannot reach. Pingers are tracked per vNIC and stopped
        when the handle falls back or the watched FE is removed
        (failover, scale-in, preemption) — a leaked pinger keeps firing
        and can ``exclude``/``fail_fe`` a vSwitch that no longer hosts
        this FE. Returns the started pingers.
        """
        pingers = []
        for fe_vswitch in handle.fe_vswitches:
            ping = MutualPing(self.engine, handle.be_vswitch, fe_vswitch,
                              interval=interval)

            def on_unreachable(fe=fe_vswitch, p=ping):
                p.stop()
                self._decide("link_failover",
                             fe=fe.name, be=handle.be_vswitch.name)
                self.placement.exclude(fe)
                self.orchestrator.fail_fe(fe)

            ping.on_unreachable = on_unreachable
            ping.start()
            pingers.append(ping)
        self._link_pingers.setdefault(handle.vnic.vnic_id,
                                      []).extend(pingers)
        return pingers

    def _stop_link_pingers(self, vnic_id: int) -> None:
        """Stop every pinger watching this vNIC's FEs (fallback path)."""
        for ping in self._link_pingers.pop(vnic_id, []):
            ping.stop()

    def _prune_link_pingers(self) -> None:
        """Stop pingers whose handle went away or whose watched FE was
        removed underneath them (failover, scale-in, preemption)."""
        for vnic_id in list(self._link_pingers):
            handle = self.orchestrator.handles.get(vnic_id)
            live_fes = [] if handle is None else handle.fe_vswitches
            kept = []
            for ping in self._link_pingers[vnic_id]:
                if any(fe is ping.fe_vswitch for fe in live_fes):
                    kept.append(ping)
                else:
                    ping.stop()
            if kept:
                self._link_pingers[vnic_id] = kept
            else:
                del self._link_pingers[vnic_id]

    # -- failover ----------------------------------------------------------------------------------

    def _vswitch_for(self, server: ServerNode) -> Optional[VSwitch]:
        book = self.nodes.get(f"vs-{server.name}")
        if book is not None:
            return book.vswitch
        for candidate in self.nodes.values():
            if candidate.vswitch.server is server:
                return candidate.vswitch
        return None

    def _on_target_down(self, server: ServerNode) -> None:
        vswitch = self._vswitch_for(server)
        if vswitch is None:
            return
        self.failovers += 1
        self._decide("failover", vswitch=vswitch.name)
        self.placement.exclude(vswitch)
        try:
            self.orchestrator.fail_fe(vswitch)
        except ReproError as err:
            # This callback runs inside the monitor's sweep; an exception
            # here would kill the monitor process, blinding failover for
            # every other target.
            self._degraded("failover", vswitch.name, err)
        self._prune_link_pingers()

    def _on_target_up(self, server: ServerNode) -> None:
        """A previously-down target answers probes again: let placement
        use it once more (it stayed excluded forever otherwise)."""
        vswitch = self._vswitch_for(server)
        if vswitch is None or vswitch.crashed:
            return
        self.placement.readmit(vswitch)
        self._decide("readmit", vswitch=vswitch.name)

    def _on_need_fes(self, handle: OffloadHandle, shortfall: int) -> None:
        if handle.vnic.vnic_id in self._inflight_vnics:
            return  # a replacement flow is already running
        new_fes = self.policy.select_fes(
            handle.be_vswitch, shortfall,
            avoid={vs.server.name for vs in handle.fe_vswitches},
            vnic=handle.vnic)
        if new_fes:
            done = self.orchestrator.scale_out(handle, new_fes)
            self._track_flow(handle.vnic.vnic_id, done)
            if self.monitor is not None:
                for fe in new_fes:
                    self.monitor.add_target(fe.server)

