"""Fleet-scale demand model, calibrated to the paper's published numbers.

The motivation and production results (Figs 2–4, Table 1, Fig 13,
App B.2) describe O(10K) vSwitches over weeks — far beyond packet-level
simulation. This module models the fleet at control-plane granularity:

* per-vSwitch CPU/memory utilization drawn from
  :class:`QuantileDistribution` objects anchored directly on the
  percentile points the paper publishes (Fig 4) — the reproduction is
  exact at the anchors by construction, interpolated in between;
* per-VM service usage (CPS, #concurrent flows, #vNICs) anchored on
  Table 1's normalized distribution;
* hotspot classification reproducing Fig 3's 61 % / 30 % / 9 % split;
* a daily-overload process for Fig 13: an overload is *mitigated* by
  Nezha unless offload activation (sampled from the Table 4 completion
  model) exceeds the survivable window;
* the VM live-migration downtime model of Fig A1.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.rng import SeededRng


class QuantileDistribution:
    """A distribution defined by (cumulative fraction, value) anchors.

    Sampling inverts the CDF with log-linear interpolation between
    anchors, so heavy tails behave sensibly. Anchors must start at q=0
    and end at q=1 with non-decreasing values.
    """

    def __init__(self, anchors: Sequence[Tuple[float, float]]) -> None:
        anchors = sorted(anchors)
        if not anchors or anchors[0][0] != 0.0 or anchors[-1][0] != 1.0:
            raise ConfigError("anchors must span q=0..1")
        values = [v for _q, v in anchors]
        if any(b < a for a, b in zip(values, values[1:])):
            raise ConfigError("anchor values must be non-decreasing")
        if values[0] <= 0:
            raise ConfigError("values must be positive (log interpolation)")
        self.anchors = list(anchors)
        # Hot-path precomputation: anchor quantiles for bisection plus
        # their value logs, so inversion is one bisect + one exp instead
        # of a pair-by-pair scan with two log() calls.
        self._qs = [q for q, _v in self.anchors]
        self._logs = [math.log(v) for _q, v in self.anchors]
        # A step or flat segment j (anchors j-1..j) returns its anchor
        # value exactly: blending two equal logs can land a few ulps
        # either side of it, which would make inversion non-monotone.
        self._flat = [False] + [
            self._qs[j] == self._qs[j - 1] or values[j] == values[j - 1]
            for j in range(1, len(values))]

    def _invert(self, q: float) -> float:
        """Inverse CDF for an in-range ``q`` — exactly the expression the
        pair-scan used, so results are bit-identical."""
        j = bisect_left(self._qs, q, 1)
        if j >= len(self._qs):
            return self.anchors[-1][1]
        if self._flat[j]:
            return self.anchors[j][1]
        q0, q1 = self._qs[j - 1], self._qs[j]
        frac = (q - q0) / (q1 - q0)
        return math.exp(self._logs[j - 1] * (1 - frac)
                        + self._logs[j] * frac)

    def invert_n(self, qs: Sequence[float]) -> List[float]:
        """:meth:`_invert` applied bisect-per-element over a column of
        in-range quantiles.

        Bit-identical to ``[dist._invert(q) for q in qs]`` — same bisect,
        same log-linear expression — but with the anchor lookups hoisted
        out of the loop, for callers that invert whole per-vSwitch
        columns at once (the fleet's vectorized cold-tail step)."""
        anchor_qs = self._qs
        logs = self._logs
        flat = self._flat
        anchors = self.anchors
        n_anchors = len(anchor_qs)
        top = anchors[-1][1]
        bl = bisect_left
        exp = math.exp
        out: List[float] = []
        append = out.append
        for q in qs:
            j = bl(anchor_qs, q, 1)
            if j >= n_anchors:
                append(top)
                continue
            if flat[j]:
                append(anchors[j][1])
                continue
            q0, q1 = anchor_qs[j - 1], anchor_qs[j]
            frac = (q - q0) / (q1 - q0)
            append(exp(logs[j - 1] * (1 - frac) + logs[j] * frac))
        return out

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"q out of range: {q}")
        return self._invert(q)

    def sample(self, rng: SeededRng) -> float:
        return self._invert(rng.random())

    def sample_n(self, rng: SeededRng, n: int) -> List[float]:
        """``n`` draws in one call: identical stream consumption (one
        uniform per draw, in order) and identical values to ``n``
        repeated :meth:`sample` calls, but without per-draw method
        dispatch — the fleet runner samples 10K+ vSwitches per epoch."""
        rnd = rng.random
        invert = self._invert
        return [invert(rnd()) for _ in range(n)]


# -- paper-anchored distributions -----------------------------------------------

def cpu_utilization_dist() -> QuantileDistribution:
    """Fig 4a: avg≈5 %, P90 15 %, P99 41 %, P999 68 %, P9999 90 %, max 98 %."""
    return QuantileDistribution([
        (0.0, 0.002), (0.5, 0.022), (0.9, 0.15), (0.99, 0.41),
        (0.999, 0.68), (0.9999, 0.90), (1.0, 0.98),
    ])


def memory_utilization_dist() -> QuantileDistribution:
    """Fig 4b: avg≈1.5 %, P90 15 %, P99 34 %, P999 93 %, P9999 96 %."""
    return QuantileDistribution([
        (0.0, 0.001), (0.5, 0.006), (0.9, 0.15), (0.99, 0.34),
        (0.999, 0.93), (0.9999, 0.96), (1.0, 0.97),
    ])


#: Table 1 anchor points, normalized to the P9999 user (=1.0).
_USAGE_ANCHORS = {
    "cps": [(0.0, 0.0005), (0.5, 0.0053), (0.9, 0.0141),
            (0.99, 0.0641), (0.999, 0.1838), (0.9999, 1.0), (1.0, 1.0)],
    "flows": [(0.0, 0.0005), (0.5, 0.0078), (0.9, 0.0236),
              (0.99, 0.0639), (0.999, 0.2917), (0.9999, 1.0), (1.0, 1.0)],
    "vnics": [(0.0, 0.0005), (0.5, 0.0065), (0.9, 0.01),
              (0.99, 0.06), (0.999, 0.55), (0.9999, 1.0), (1.0, 1.0)],
}
_USAGE_DISTS: Dict[str, QuantileDistribution] = {}


def usage_dist(metric: str) -> QuantileDistribution:
    """Table 1: per-VM service usage normalized to the P9999 user (=1.0).

    Memoized per metric: the fleet's shard workers call this on every
    epoch step, and re-parsing the anchors (plus the log precomputation)
    per call was measurable at 10K vSwitches. A distribution is
    anchor-immutable after construction, so sharing one instance is
    output-invisible; the regression tests in
    ``tests/test_fleet_model.py`` pin the sampled streams.
    """
    dist = _USAGE_DISTS.get(metric)
    if dist is None:
        if metric not in _USAGE_ANCHORS:
            raise ConfigError(f"unknown usage metric {metric!r}")
        dist = _USAGE_DISTS[metric] = QuantileDistribution(
            _USAGE_ANCHORS[metric])
    return dist


class HotspotKind(enum.Enum):
    CPS = "cps"
    FLOWS = "flows"
    VNICS = "vnics"


@dataclass
class VSwitchDemand:
    """One vSwitch's peak demand, normalized to the fleet's P9999 user."""

    cps: float
    flows: float
    vnics: float

    def hotspots(self, capacity: "FleetCapacity") -> List[HotspotKind]:
        kinds = []
        if self.cps > capacity.cps:
            kinds.append(HotspotKind.CPS)
        if self.flows > capacity.flows:
            kinds.append(HotspotKind.FLOWS)
        if self.vnics > capacity.vnics:
            kinds.append(HotspotKind.VNICS)
        return kinds


@dataclass
class FleetCapacity:
    """vSwitch capacity in the same normalized units as demand.

    Calibrated so hotspot shares match Fig 3 (≈61 % CPS, 30 % flows,
    9 % #vNICs): CPS is the scarcest capability relative to its demand
    tail, #vNICs the least scarce.
    """

    cps: float = 0.101
    flows: float = 0.208
    vnics: float = 0.588


@dataclass
class OverloadEvent:
    day: int
    vswitch: int
    kind: HotspotKind
    mitigated: bool


class FleetModel:
    """The O(10K)-vSwitch Monte Carlo substrate."""

    def __init__(self, n_vswitches: int = 10000,
                 rng: Optional[SeededRng] = None,
                 capacity: Optional[FleetCapacity] = None) -> None:
        self.n = n_vswitches
        self.rng = rng or SeededRng(0, "fleet")
        self.capacity = capacity or FleetCapacity()
        self.cpu_dist = cpu_utilization_dist()
        self.mem_dist = memory_utilization_dist()
        self.usage = {kind: usage_dist(kind.value) for kind in HotspotKind}

    # -- Fig 4 / Table 1 -------------------------------------------------------

    def sample_utilizations(self) -> Tuple[List[float], List[float]]:
        """Per-vSwitch (cpu, memory) utilization samples."""
        rng = self.rng.child("util")
        cpus = [self.cpu_dist.sample(rng) for _ in range(self.n)]
        mems = [self.mem_dist.sample(rng) for _ in range(self.n)]
        return cpus, mems

    def sample_usage(self, metric: HotspotKind,
                     n: Optional[int] = None) -> List[float]:
        rng = self.rng.child(f"usage-{metric.value}")
        return self.usage[metric].sample_n(rng, n or self.n)

    # -- Fig 3 -----------------------------------------------------------------------

    def sample_demands(self, n: Optional[int] = None) -> List[VSwitchDemand]:
        # One uniform per (vSwitch, metric), interleaved cps/flows/vnics —
        # the historical per-sample draw order, so the stream (and every
        # downstream experiment) is unchanged by the vectorization.
        rng = self.rng.child("demand")
        rnd = rng.random
        cps = self.usage[HotspotKind.CPS]._invert
        flows = self.usage[HotspotKind.FLOWS]._invert
        vnics = self.usage[HotspotKind.VNICS]._invert
        return [VSwitchDemand(cps=cps(rnd()), flows=flows(rnd()),
                              vnics=vnics(rnd()))
                for _ in range(n or self.n)]

    def hotspot_distribution(self,
                             n: Optional[int] = None) -> Dict[HotspotKind, float]:
        """Fraction of hotspot observations attributable to each cause."""
        counts = {kind: 0 for kind in HotspotKind}
        for demand in self.sample_demands(n):
            for kind in demand.hotspots(self.capacity):
                counts[kind] += 1
        total = sum(counts.values()) or 1
        return {kind: count / total for kind, count in counts.items()}

    # -- Fig 13: daily overloads before/after Nezha --------------------------------------

    def simulate_daily_overloads(
            self, days: int,
            activation_sampler: Callable[[SeededRng], float],
            survivable_window: float = 2.8,
            placement_failure_prob: float = 0.0,
    ) -> List[OverloadEvent]:
        """Each day, each vSwitch redraws its peak demand; demand above
        capacity is an overload occurrence. With Nezha the occurrence is
        mitigated unless offload activation exceeds the survivable window
        (or no FEs could be placed). #vNIC overloads are always mitigated:
        rule tables are created directly on FEs (§6.3.3)."""
        rng = self.rng.child("daily")
        events: List[OverloadEvent] = []
        for day in range(days):
            demands = self.sample_demands()
            for index, demand in enumerate(demands):
                for kind in demand.hotspots(self.capacity):
                    if kind is HotspotKind.VNICS:
                        mitigated = rng.random() >= placement_failure_prob
                    else:
                        activation = activation_sampler(rng)
                        mitigated = (activation <= survivable_window
                                     and rng.random()
                                     >= placement_failure_prob)
                    events.append(OverloadEvent(day, index, kind, mitigated))
        return events

    @staticmethod
    def overload_summary(events: List[OverloadEvent]
                         ) -> Dict[HotspotKind, Tuple[int, int]]:
        """kind -> (occurrences before Nezha, residual after Nezha)."""
        summary: Dict[HotspotKind, Tuple[int, int]] = {}
        for kind in HotspotKind:
            of_kind = [e for e in events if e.kind is kind]
            residual = sum(1 for e in of_kind if not e.mitigated)
            summary[kind] = (len(of_kind), residual)
        return summary

    # -- Fig A1: VM live-migration downtime ------------------------------------------------

    @staticmethod
    def migration_downtime(vcpus: int, memory_gb: float,
                           rng: Optional[SeededRng] = None) -> float:
        """Downtime (seconds) of a VM live migration.

        Grows with purchased resources (Fig A1): dirty-page copy rounds
        scale with memory, device/vCPU quiesce with vCPU count. A 1024 GB
        VM lands in the tens-of-minutes completion regime the paper cites.
        """
        base = 0.15
        vcpu_term = 0.15 * vcpus
        mem_term = 0.55 * (memory_gb ** 0.75)
        noise = rng.lognormal(0.0, 0.25) if rng is not None else 1.0
        return (base + vcpu_term + mem_term) * noise

    @staticmethod
    def migration_completion_time(memory_gb: float,
                                  rng: Optional[SeededRng] = None) -> float:
        """Total migration time: dominated by copying memory."""
        copy_rate_gb_s = 1.2
        rounds = 2.5
        noise = rng.lognormal(0.0, 0.2) if rng is not None else 1.0
        return (5.0 + rounds * memory_gb / copy_rate_gb_s) * noise
