"""The fleet run record: what one fleet run counted, from its reports.

``fleet.run`` adds every epoch's shard reports to one
:class:`FleetRecord` in slot order (= ascending global index). Counters
and bucket counts are integers over module-constant edges, so the record
is the same for every ``shards x jobs`` split. It is the fleet's one
count: the table's hot-path and fluid rows read it,
``stats["fleet_metrics"]`` is :meth:`FleetRecord.to_dict`, and an
installed telemetry exports that dict as ``fleet.*`` / ``fleet.hist.*``
lines (DESIGN §5.9).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List

#: Fixed histogram bucket edges. Bucket ``i`` counts values
#: ``<= edges[i]``; the final (implicit) bucket takes the rest.
HIST_EDGES: Dict[str, List[float]] = {
    # Worst demand/capacity ratio of each hot vSwitch (> 1 by
    # construction; the Table 1 tail reaches ~10x).
    "demand_ratio": [1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0],
    # Measured micro-sim CPU utilization of each hot vSwitch.
    "hot_cpu": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    # FE units requested per hot vSwitch.
    "hot_units": [1, 2, 4, 8, 16],
    # Live flows per vSwitch (hot and cold), power-of-two buckets: the
    # shard step counts bucket min(bit_length(flows), 22) itself.
    "flows_per_vswitch": [2 ** k - 1 for k in range(22)],
}

#: Every counter a record carries, kind counters included, so the key
#: set never depends on which shard saw which overload.
COUNTER_KEYS = (
    "vswitches",
    "cold.count", "cold.flows", "cold.pkts", "cold.bytes",
    "churn.born", "churn.died",
    "hot.count", "hot.granted", "hot.units_requested",
    "hot.flows", "hot.pkts", "hot.bytes",
    "hot.sim_sent", "hot.sim_delivered", "hot.sim_drops",
    "hot.kind.cps", "hot.kind.flows", "hot.kind.vnics",
)

_COLD = (("cold.count", "count"), ("cold.flows", "flows"),
         ("cold.pkts", "pkts"), ("cold.bytes", "bytes"),
         ("churn.born", "born"), ("churn.died", "died"))
_HOT = (("hot.units_requested", "units"), ("hot.flows", "flows"),
        ("hot.pkts", "pkts"), ("hot.bytes", "bytes"),
        ("hot.sim_sent", "sim_sent"), ("hot.sim_delivered", "sim_delivered"),
        ("hot.sim_drops", "sim_drops"))
_HOT_HIST = (("demand_ratio", "ratio"), ("hot_cpu", "sim_cpu"),
             ("hot_units", "units"))


class FleetRecord:
    """Integer counters, the four histograms and the hot CPU sum."""

    def __init__(self) -> None:
        self.counters = dict.fromkeys(COUNTER_KEYS, 0)
        self.counts = {name: [0] * (len(edges) + 1)
                       for name, edges in HIST_EDGES.items()}
        #: Hot micro-sim CPU utilizations summed in report order: the
        #: table's "hot mean cpu" numerator (a float, so not exported).
        self.cpu_sum = 0.0

    def add(self, report: Dict[str, Any], grants) -> None:
        """Count one shard's epoch report; ``grants`` are the FE grants
        that epoch ran under."""
        counters = self.counters
        counters["vswitches"] += report["hi"] - report["lo"]
        cold = report["cold"]
        for key, field in _COLD:
            counters[key] += cold[field]
        flows = self.counts["flows_per_vswitch"]
        for bucket, count in enumerate(report["flow_buckets"]):
            flows[bucket] += count
        for entry in report["hot"]:
            counters["hot.count"] += 1
            if entry["index"] in grants:
                counters["hot.granted"] += 1
            for key, field in _HOT:
                counters[key] += entry[field]
            for kind in entry["kinds"]:
                counters["hot.kind." + kind] += 1
            for name, field in _HOT_HIST:
                counts = self.counts[name]
                bucket = bisect_left(HIST_EDGES[name], entry[field])
                counts[min(bucket, len(counts) - 1)] += 1
            self.cpu_sum += entry["sim_cpu"]

    def to_dict(self) -> Dict[str, Any]:
        """Plain data: ``{"counters", "hist": {name: {"edges",
        "counts"}}}`` — what ``stats`` holds and the capture exports."""
        return {"counters": dict(self.counters),
                "hist": {name: {"edges": list(HIST_EDGES[name]),
                                "counts": list(counts)}
                         for name, counts in self.counts.items()}}
