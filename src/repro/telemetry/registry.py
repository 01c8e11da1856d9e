"""Metric registry: counters and probe-backed gauges under dotted names.

Components register metrics under dotted names (``vswitch.be0.cpu.drops``,
``fleet.hotsim.runs``) so a subtree can be listed with a glob pattern.

* **Counters** are the only pushed metric; ``inc`` is one add.
* **Gauges read lazily.** Most component state (session-table occupancy,
  link queue depth, pool IPC bytes) is *already maintained* by the
  simulator, so a gauge holds a zero-argument probe that runs only when
  the capture is exported — the hot path pays nothing at all.

Registration is idempotent with *replace* semantics for probes: an
experiment sweep rebuilds its testbed per point, and each rebuild
re-registers the same metric names — the registry keeps one metric object
per name and re-points gauge probes at the live component.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Union


class Counter:
    """Monotonic count; ``inc`` is the only hot-path entry point."""

    kind = "counter"
    __slots__ = ("name", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.count += amount

    def value(self) -> float:
        return self.count


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


Metric = Union[Counter, Gauge]


class MetricRegistry:
    """One flat namespace of dotted metric names.

    Creation methods return the existing metric when the name is already
    registered (counters keep accumulating across testbed rebuilds;
    gauges re-bind their probe to the newest component instance).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str) -> Counter:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        elif not isinstance(metric, Counter):
            raise ValueError(f"metric {name!r} already registered as gauge")
        return metric

    def gauge(self, name: str, probe: Callable[[], float]) -> Gauge:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Gauge(name, probe)
        elif isinstance(metric, Gauge):
            metric.probe = probe
        else:
            raise ValueError(f"metric {name!r} already registered as counter")
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self, pattern: str = "*") -> List[str]:
        return sorted(name for name in self._metrics
                      if fnmatchcase(name, pattern))

    def __len__(self) -> int:
        return len(self._metrics)
