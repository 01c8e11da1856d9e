"""Fleet-scale observability: shard metric snapshots and the decision
journal.

Two plain-data building blocks sit on top of the PR 5 telemetry layer:

* **Shard metric snapshots.** Each ``run_shard_epoch`` call can distill
  its finished report into a :func:`snapshot_shard` dict — integer
  counters plus fixed-bucket histograms — that rides inside the report
  back to the parent. Because every bucket edge is a module constant and
  every value is an integer count, :func:`fold` is a pure element-wise
  add: associative, commutative, and byte-identical however the fleet
  was split. The parent folds per-epoch snapshots in slot/submission
  order (= ascending global index), so the merged fleet metrics are
  the same dict for every ``shards x jobs x resident`` combination —
  the fleet instance of the determinism contract (DESIGN §5.9).

* **The decision journal.** Every grant, renewal, denial, release,
  and mitigation the :class:`~repro.fleet.coordinator.
  FleetCoordinator` settles — and every decision the controller's
  :class:`~repro.controller.policy.NezhaPolicy` seam emits — is
  recorded as one typed plain-dict event carrying the policy name, so
  "why did supernic preempt where nezha granted?" is answerable from a
  single JSONL capture (``tools/telemetry.py decisions``). Events are
  appended only when a journal is wired up; with telemetry uninstalled
  every producer site degrades to one ``is None`` check.

Nothing in this module touches an RNG, a clock, or simulation state:
snapshots are derived from already-final reports and journal writes are
pure observation, which is what keeps telemetry on/off byte-identical.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional

FLEET_METRICS_SCHEMA = "fleet-metrics/v1"

#: Fixed histogram bucket edges. Bucket ``i`` counts values
#: ``<= edges[i]``; the final (implicit) bucket takes the rest. Fixed
#: edges are what make the fold a plain element-wise integer add.
HIST_EDGES: Dict[str, List[float]] = {
    # Worst demand/capacity ratio of each hot vSwitch (> 1 by
    # construction; the Table 1 tail reaches ~10x).
    "demand_ratio": [1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0],
    # Measured micro-sim CPU utilization of each hot vSwitch.
    "hot_cpu": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
    # FE units requested per hot vSwitch.
    "hot_units": [1, 2, 4, 8, 16],
    # Live flows per vSwitch (hot and cold), power-of-two buckets:
    # bucket k counts vSwitches with bit_length(flows) == k.
    "flows_per_vswitch": [2 ** k - 1 for k in range(22)],
}

#: Integer counter names every snapshot carries (kind counters included
#: so folded key sets never depend on which shard saw which overload).
COUNTER_KEYS = (
    "vswitches",
    "cold.count", "cold.flows", "cold.pkts", "cold.bytes",
    "churn.born", "churn.died",
    "hot.count", "hot.units_requested",
    "hot.flows", "hot.pkts", "hot.bytes",
    "hot.sim_sent", "hot.sim_delivered", "hot.sim_drops",
    "hot.kind.cps", "hot.kind.flows", "hot.kind.vnics",
)


def empty_snapshot() -> Dict[str, Any]:
    """The fold identity: every counter 0, every histogram bucket 0."""
    return {
        "schema": FLEET_METRICS_SCHEMA,
        "counters": {key: 0 for key in COUNTER_KEYS},
        "hist": {name: {"edges": list(edges),
                        "counts": [0] * (len(edges) + 1)}
                 for name, edges in HIST_EDGES.items()},
    }


def _observe(hist: Dict[str, Any], value: float) -> None:
    counts = hist["counts"]
    counts[min(bisect_left(hist["edges"], value), len(counts) - 1)] += 1


def snapshot_shard(report: Dict[str, Any],
                   live: Iterable[int]) -> Dict[str, Any]:
    """Distill one shard's finished epoch report into a snapshot.

    ``live`` is the shard's per-vSwitch live-flow counts *after* the
    epoch step (they equal the classification-time populations: churn
    for a vSwitch completes before its report entry is built and is not
    revisited), so the whole snapshot derives from final state —
    the epoch loop itself needs zero instrumentation.
    """
    snap = empty_snapshot()
    counters = snap["counters"]
    hist = snap["hist"]

    counters["vswitches"] = report["hi"] - report["lo"]
    cold = report["cold"]
    counters["cold.count"] = cold["count"]
    counters["cold.flows"] = cold["flows"]
    counters["cold.pkts"] = cold["pkts"]
    counters["cold.bytes"] = cold["bytes"]
    counters["churn.born"] = cold["born"]
    counters["churn.died"] = cold["died"]

    flows_hist = hist["flows_per_vswitch"]
    for flows in live:
        _observe(flows_hist, flows)

    ratio_hist = hist["demand_ratio"]
    cpu_hist = hist["hot_cpu"]
    units_hist = hist["hot_units"]
    for entry in report["hot"]:
        counters["hot.count"] += 1
        counters["hot.units_requested"] += entry["units"]
        counters["hot.flows"] += entry["flows"]
        counters["hot.pkts"] += entry["pkts"]
        counters["hot.bytes"] += entry["bytes"]
        counters["hot.sim_sent"] += entry["sim_sent"]
        counters["hot.sim_delivered"] += entry["sim_delivered"]
        counters["hot.sim_drops"] += entry["sim_drops"]
        for kind in entry["kinds"]:
            key = f"hot.kind.{kind}"
            counters[key] = counters.get(key, 0) + 1
        _observe(ratio_hist, entry["ratio"])
        _observe(cpu_hist, entry["sim_cpu"])
        _observe(units_hist, entry["units"])
    return snap


def _check_schema(snap: Dict[str, Any]) -> None:
    if snap.get("schema") != FLEET_METRICS_SCHEMA:
        raise ValueError(f"not a fleet metric snapshot: "
                         f"schema={snap.get('schema')!r}")


def fold(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Merge two snapshots; pure integer adds, so associative and
    commutative — the slot-order fold is deterministic by construction,
    not by care."""
    _check_schema(a)
    _check_schema(b)
    counters = dict(a["counters"])
    for key, value in b["counters"].items():
        counters[key] = counters.get(key, 0) + value
    hist = {name: {"edges": list(h["edges"]), "counts": list(h["counts"])}
            for name, h in a["hist"].items()}
    for name, h in b["hist"].items():
        mine = hist.get(name)
        if mine is None:
            hist[name] = {"edges": list(h["edges"]),
                          "counts": list(h["counts"])}
        else:
            if mine["edges"] != list(h["edges"]):
                raise ValueError(
                    f"histogram {name!r}: bucket edges differ, refusing "
                    f"to fold mismatched layouts")
            mine["counts"] = [x + y
                              for x, y in zip(mine["counts"], h["counts"])]
    return {"schema": FLEET_METRICS_SCHEMA, "counters": counters,
            "hist": hist}


def fold_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Left fold in the given (slot/submission) order; empty input folds
    to the identity snapshot."""
    out: Optional[Dict[str, Any]] = None
    for snap in snapshots:
        out = snap if out is None else fold(out, snap)
    return empty_snapshot() if out is None else out


# -- decision journal --------------------------------------------------------


class DecisionJournal:
    """Capacity-bounded list of typed decision events (plain dicts).

    Every event carries ``source`` (``"coordinator"`` or
    ``"controller"``), the ``policy`` name it was decided under, and an
    ``action``; coordinator events add the settle ``epoch`` and the
    vSwitch ``index``/``tenant``, controller events the virtual ``time``.
    ``None``-valued fields are dropped so events stay compact.

    On overflow the journal keeps the *earliest* events and counts the
    rest in :attr:`dropped` — a post-mortem wants the decisions that led
    into a state, and the exporter surfaces the drop count in the
    capture header.
    """

    def __init__(self, capacity: Optional[int] = 100_000) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0

    def record(self, source: str, policy: str, action: str,
               **fields: Any) -> None:
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        event: Dict[str, Any] = {"source": source, "policy": policy,
                                 "action": action}
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self.events.append(event)

    def coordinator_event(self, epoch: Optional[int], policy: str,
                          action: str, index: Optional[int] = None,
                          **fields: Any) -> None:
        """One ``FleetCoordinator.settle`` decision."""
        self.record("coordinator", policy, action, epoch=epoch,
                    index=index, **fields)

    def controller_event(self, time: float, policy: str, action: str,
                         fields: Dict[str, Any]) -> None:
        """One controller/policy-seam decision (``_decide``)."""
        self.record("controller", policy, action, time=time, **fields)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return list(self.events)

    def __len__(self) -> int:
        return len(self.events)
