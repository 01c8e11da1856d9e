"""Metric registry: probe-backed gauges under dotted names.

Components register gauges under dotted names (``vswitch.be0.cpu.drops``,
``gateway.version``) so a subtree can be listed with a glob pattern.
Every metric is a gauge that reads lazily: the state it reports
(session-table occupancy, link queue depth) is *already maintained* by
the simulator, so a gauge holds a zero-argument probe that runs only
when the capture is exported — the hot path pays nothing at all. Counts
are kept where they happen (the fleet's are its run record,
:mod:`repro.fleet.record`), never pushed here.

Registration is idempotent with *replace* semantics: an experiment sweep
rebuilds its testbed per point, and each rebuild re-registers the same
metric names — the registry keeps one gauge per name and re-points its
probe at the live component.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional


class Gauge:
    """Point-in-time value read from a probe when the capture is taken."""

    kind = "gauge"
    __slots__ = ("name", "probe")

    def __init__(self, name: str, probe: Callable[[], float]) -> None:
        self.name = name
        self.probe = probe

    def value(self) -> float:
        try:
            return float(self.probe())
        except Exception:
            # A probe outliving its component (sweep teardown) must
            # not crash the export of every other metric.
            return float("nan")


class MetricRegistry:
    """One flat namespace of dotted gauge names.

    ``gauge`` returns the existing gauge when the name is already
    registered, its probe re-bound to the newest component instance.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Gauge] = {}

    def gauge(self, name: str, probe: Callable[[], float]) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge(name, probe)
        else:
            metric.probe = probe
        return metric

    def get(self, name: str) -> Optional[Gauge]:
        return self._metrics.get(name)

    def names(self, pattern: str = "*") -> List[str]:
        return sorted(name for name in self._metrics
                      if fnmatchcase(name, pattern))

    def __len__(self) -> int:
        return len(self._metrics)
