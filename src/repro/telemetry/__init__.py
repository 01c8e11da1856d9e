"""Unified telemetry: one registry, one trace, spans, and a profiler.

Usage shape (what ``runner.py --telemetry`` does)::

    from repro import telemetry

    tel = telemetry.install(profile=True)
    result = fig12.run(...)          # components self-register as built
    tel.export(Path("run.jsonl"))
    telemetry.uninstall()

Install/uninstall manage one module-global :class:`Telemetry`. While
installed:

* components that are constructed without an explicit ``trace`` pick up
  the telemetry's single capacity-bounded, record-everything
  :class:`~repro.sim.trace.Trace` (via :func:`active_trace`), so faults,
  controller decisions, and monitor verdicts interleave in one stream —
  the chaos post-mortem timeline;
* span call sites in the datapath go live (``spans.ACTIVE``): they record
  on span-carrying packets; the datapath is the uninstalled one, call for call;
* engines bound to the telemetry get the profiler attached.

While *not* installed, every hook degrades to a single attribute or
``is None`` check — the ≤2 % overhead contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.trace import Trace
from repro.telemetry import spans as _spans
from repro.telemetry.export import SCHEMA, write_jsonl
from repro.telemetry.fleet import DecisionJournal, fold
from repro.telemetry.profiler import EngineProfiler
from repro.telemetry.registry import MetricRegistry
from repro.telemetry.spans import SpanRecorder

_current: Optional["Telemetry"] = None

TRACE_CAPACITY = 200_000
SPAN_CAPACITY = 100_000


class Telemetry:
    """One run's worth of telemetry state."""

    def __init__(self, profile: bool = False,
                 trace_capacity: Optional[int] = TRACE_CAPACITY,
                 span_capacity: Optional[int] = SPAN_CAPACITY) -> None:
        self.registry = MetricRegistry()
        self.spans = SpanRecorder(capacity=span_capacity)
        self.profiler = EngineProfiler() if profile else None
        #: Typed grant/denial/preemption/... events from the fleet
        #: coordinator and the controller's policy seam.
        self.decisions = DecisionJournal()
        #: Folded fleet metric snapshot (repro.telemetry.fleet), set by
        #: the fleet experiment at end of run.
        self.fleet_metrics: Optional[Dict[str, Any]] = None
        self._engine = None
        # One shared trace for every component built while installed.
        # enable_all(): the unified stream captures every kind; capacity
        # bounds a long soak (satellite fix in sim/trace.py).
        self.trace = Trace(self._now, capacity=trace_capacity)
        self.trace.enable_all()

    def _now(self) -> float:
        return self._engine.now if self._engine is not None else 0.0

    # -- engine binding ----------------------------------------------------

    def bind_engine(self, engine) -> None:
        """Point the clock (and profiler) at the run's engine.

        Sweeps rebuild the engine per point; the latest bound engine
        wins, which matches "the run currently executing".
        """
        if engine is self._engine:
            return
        self._engine = engine
        if self.profiler is not None:
            engine.profiler = self.profiler

    # -- component registration --------------------------------------------
    # Called from component constructors when telemetry is installed.
    # Gauges are probe-backed: zero hot-path cost, evaluated at snapshot.

    def register_vswitch(self, vs) -> None:
        self.bind_engine(vs.engine)
        reg = self.registry
        base = f"vswitch.{vs.name}"
        reg.gauge(f"{base}.cpu.cycles_consumed",
                  probe=lambda vs=vs: vs.cpu.total_cycles)
        reg.gauge(f"{base}.cpu.drops", probe=lambda vs=vs: vs.stats.cpu_drops)
        reg.gauge(f"{base}.cpu.utilization",
                  probe=lambda vs=vs: vs.cpu_utilization())
        reg.gauge(f"{base}.cache.hits",
                  probe=lambda vs=vs: vs.stats.fast_path_hits)
        reg.gauge(f"{base}.cache.misses",
                  probe=lambda vs=vs: vs.stats.slow_path_lookups)
        reg.gauge(f"{base}.sessions.occupancy",
                  probe=lambda vs=vs: len(vs.session_table))

    def register_smartnic(self, nic) -> None:
        self.bind_engine(nic.engine)
        reg = self.registry
        base = f"smartnic.{nic.name}"
        reg.gauge(f"{base}.cpu.headroom",
                  probe=lambda nic=nic: 1.0 - nic.cpu_utilization())
        reg.gauge(f"{base}.mem.headroom",
                  probe=lambda nic=nic: 1.0 - nic.memory_utilization())

    def register_link(self, link) -> None:
        self.bind_engine(link.engine)
        reg = self.registry
        base = f"fabric.link.{link.name}"
        reg.gauge(f"{base}.packets",
                  probe=lambda link=link: link.packets_carried)
        reg.gauge(f"{base}.bytes", probe=lambda link=link: link.bytes_carried)
        reg.gauge(f"{base}.drops", probe=lambda link=link: link.drops_down)
        reg.gauge(f"{base}.queue_depth",
                  probe=lambda link=link: link.queue_depth())
        reg.gauge(f"{base}.utilization",
                  probe=lambda link=link: link.utilization())

    def register_monitor(self, monitor) -> None:
        self.bind_engine(monitor.engine)
        reg = self.registry
        reg.gauge("monitor.targets",
                  probe=lambda m=monitor: len(m.targets))
        reg.gauge("monitor.down",
                  probe=lambda m=monitor: sum(
                      1 for s in m.targets.values() if s.down_reported))
        reg.gauge("monitor.suspended",
                  probe=lambda m=monitor: float(m.suspended))

    def register_gateway(self, gateway) -> None:
        self.bind_engine(gateway.engine)
        reg = self.registry
        reg.gauge("gateway.version", probe=lambda g=gateway: g.version)
        reg.gauge("gateway.entries",
                  probe=lambda g=gateway: len(g._entries))
        reg.gauge("gateway.learners",
                  probe=lambda g=gateway: len(g.learners))
        reg.gauge("gateway.pulls_dropped",
                  probe=lambda g=gateway: sum(
                      learner.pulls_dropped for learner in g.learners))

    def register_controller(self, controller) -> None:
        self.bind_engine(controller.engine)
        self.registry.events("controller.decisions", capacity=50_000)
        self.registry.counter("controller.reconcile.errors")

    def register_resident_pool(self, pool) -> None:
        """Probe-backed gauges over a fleet ResidentPool: liveness, IPC
        bytes by phase, and per-worker wall-clock/queue-wait totals —
        the artifact that answers "where does --jobs time go". Probes
        read plain pool attributes, so they stay valid (and cheap) after
        the pool is closed."""
        reg = self.registry
        reg.gauge("fleet.pool.jobs", probe=lambda p=pool: p.jobs)
        reg.gauge("fleet.pool.workers_alive",
                  probe=lambda p=pool: float(sum(p.alive())))
        reg.gauge("fleet.pool.ipc.init_bytes",
                  probe=lambda p=pool: p.init_ipc_bytes)
        reg.gauge("fleet.pool.ipc.step_bytes",
                  probe=lambda p=pool: sum(p.step_ipc_bytes))
        reg.gauge("fleet.pool.ipc.collect_bytes",
                  probe=lambda p=pool: p.collect_ipc_bytes)
        for w in range(len(pool.worker_runtime)):
            base = f"fleet.pool.worker{w}"
            reg.gauge(f"{base}.alive",
                      probe=lambda p=pool, w=w: float(p.alive()[w]))
            reg.gauge(f"{base}.steps",
                      probe=lambda p=pool, w=w: p.worker_runtime[w]["steps"])
            for phase in ("init", "step", "collect"):
                reg.gauge(
                    f"{base}.{phase}_wall_s",
                    probe=lambda p=pool, w=w, ph=phase:
                        p.worker_runtime[w][f"{ph}_wall_s"])
            reg.gauge(f"{base}.recv_wait_s",
                      probe=lambda p=pool, w=w:
                          p.worker_runtime[w]["recv_wait_s"])

    # -- structured hooks --------------------------------------------------

    def decision(self, now: float, action: str, **fields: Any) -> None:
        """Controller decision log: why each offload/scale/fallback fired."""
        log = self.registry.events("controller.decisions", capacity=50_000)
        log.record(now, action=action, **fields)
        if action == "reconcile_error":
            self.registry.counter("controller.reconcile.errors").inc()

    def offload_transition(self, handle, state: str, now: float) -> None:
        """Offload handle state machine step, with timestamp."""
        log = self.registry.events("offload.transitions", capacity=50_000)
        log.record(now, vnic=handle.vnic.vnic_id, state=state)

    def set_fleet_metrics(self, snapshot: Dict[str, Any]) -> None:
        """Attach a folded fleet metric snapshot to this capture; a
        second fleet run in the same session folds in (one capture =
        one session's worth of fleet activity)."""
        self.fleet_metrics = snapshot if self.fleet_metrics is None \
            else fold(self.fleet_metrics, snapshot)

    # -- export ------------------------------------------------------------

    def _lines(self) -> Iterator[Dict[str, Any]]:
        yield {"type": "header", "schema": SCHEMA,
               "metrics": len(self.registry),
               "spans": len(self.spans.spans),
               "trace_records": len(self.trace.records()),
               "trace_dropped": self.trace.dropped,
               "span_dropped": self.spans.dropped,
               "decisions": len(self.decisions),
               "decisions_dropped": self.decisions.dropped}
        for name in self.registry.names():
            metric = self.registry.get(name)
            if metric.enabled:
                yield {"type": "metric", "name": name, "kind": metric.kind,
                       "value": metric.value()}
        if self.fleet_metrics is not None:
            # Folded fleet snapshot as metric lines: counters verbatim,
            # histograms as {"edges", "counts"} under kind fleet_hist.
            for key, value in self.fleet_metrics["counters"].items():
                yield {"type": "metric", "name": f"fleet.{key}",
                       "kind": "counter", "value": value}
            for name, hist in self.fleet_metrics["hist"].items():
                yield {"type": "metric", "name": f"fleet.hist.{name}",
                       "kind": "fleet_hist",
                       "value": {"edges": hist["edges"],
                                 "counts": hist["counts"]}}
        for span in self.spans.to_dicts():
            yield dict(span, type="span")
        for record in self.trace.records():
            yield {"type": "trace", "time": record.time,
                   "kind": record.kind, "fields": record.fields}
        for event in self.decisions.to_dicts():
            yield dict(event, type="decision")
        if self.profiler is not None:
            yield dict(self.profiler.to_dict(), type="profile")

    def export(self, path: Path) -> int:
        """Dump everything to JSONL; returns the line count."""
        return write_jsonl(path, self._lines())


# -- module-level lifecycle ------------------------------------------------


def install(profile: bool = False,
            trace_capacity: Optional[int] = TRACE_CAPACITY,
            span_capacity: Optional[int] = SPAN_CAPACITY) -> Telemetry:
    """Activate telemetry for subsequently-built components."""
    global _current
    if _current is not None:
        uninstall()
    _current = Telemetry(profile=profile, trace_capacity=trace_capacity,
                         span_capacity=span_capacity)
    _current.spans.install()
    return _current


def uninstall() -> None:
    global _current
    if _current is not None:
        _current.spans.uninstall()
        if _current._engine is not None:
            _current._engine.profiler = None
        _current = None


def current() -> Optional[Telemetry]:
    return _current


def active_trace(engine) -> Optional[Trace]:
    """The shared trace for components built while telemetry is
    installed — or None, letting the component make its own."""
    if _current is None:
        return None
    _current.bind_engine(engine)
    return _current.trace


@contextmanager
def span_session():
    """The span recorder for one measurement window.

    With telemetry installed this *is* the installed recorder (spans
    land in the capture and the caller's aggregation alike — one code
    path for fig12 captures and the policy arena); without, a temporary
    standalone :class:`SpanRecorder` is installed for the duration and
    torn down on exit. Callers that pre-warm should ``clear(label)``
    only their own label: the shared recorder may hold other spans.
    """
    if _current is not None:
        yield _current.spans
        return
    recorder = SpanRecorder()
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.uninstall()
