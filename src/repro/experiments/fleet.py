"""Fleet-scale simulation: overloads and FE-pool utilization at O(10K).

The paper's motivation is fleet telemetry (§2.2, Table 1, Fig 4): ~10K
vSwitches where almost everything idles and a thin demand tail overloads
— and one shared FE pool absorbs the tail. This experiment simulates
that fleet end-to-end with a **hot/cold split**: each epoch every
vSwitch redraws its peak demand (the Table 1 distributions); the few
whose demand crosses capacity run a real per-packet micro-sim
(:mod:`repro.fleet.hotsim`), while the cold tail advances fluidly on
flyweight struct-of-arrays flow records (:mod:`repro.fleet.flyweight`) —
millions of concurrent connections in tens of megabytes.

The fleet is partitioned into contiguous shards and runs on one of two
paths. With more than one effective worker the epoch loop runs on a
**resident worker pool**
(:class:`~repro.experiments.parallel.ResidentPool`): each worker holds
its shards' state in-process for the whole run, end-of-run
materialization included, and only plain data crosses the process
boundary — empty shard descriptors in, ``(epoch, grants, params)`` out
and reports back per epoch, one :func:`_shard_digest` per shard at the
end; the flyweight columns never cross (DESIGN §5.7). With one
effective worker there is no pool: a plain in-process loop over
:func:`~repro.fleet.shard.run_shard_epoch`, then the same digest. The
shared FE pool is the only cross-shard coupling (shards report demand,
the coordinator feeds grants back next epoch). Every per-vSwitch stream
is keyed on the global index, so the rendered table is **byte-identical
for every ``--shards`` × ``--jobs`` combination** — the fleet-scale
instance of the repo's determinism contract (DESIGN §5.6).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro import telemetry as _telemetry
from repro.errors import SimulationError
from repro.experiments.common import ExperimentResult
from repro.experiments.fig13 import PAPER_MITIGATION
from repro.experiments.parallel import ResidentPool, resolve_jobs
from repro.fleet import (FleetCoordinator, FleetParams, make_shards,
                         run_shard_epoch)
from repro.telemetry.fleet import fold, fold_snapshots
from repro.workloads.fleet import HotspotKind


def _resident_step(state, payload):
    """ResidentPool worker function: one shard, one epoch.

    The broadcast payload is ``(epoch, grants, params)`` — a few hundred
    pickled bytes regardless of fleet size; the shard state stays
    resident in the worker."""
    epoch, grants, params = payload
    return run_shard_epoch((state, epoch, grants, params))


def _shard_digest(state) -> Dict[str, object]:
    """The end-of-run materialization boundary for one shard, run where
    the state lives: fold pending aggregates into the flyweight columns
    and return the plain data the run reads — the folded totals and the
    occupancy. A few hundred bytes per shard, whatever the fleet size."""
    pkts, nbytes = state.materialize()
    return {"pkts": pkts, "bytes": nbytes,
            "live_flows": state.live_flows(), "nbytes": state.nbytes(),
            "store": state.store.stats()}


def default_pool_units(n_vswitches: int) -> int:
    """FE units provisioned for the fleet: ~1 FE per 40 vSwitches (the
    paper's pooling economics — a small pool serves a large region),
    floored so toy fleets still have a pool worth contending for."""
    return max(4, n_vswitches // 40)


def run(n_vswitches: int = 10_000, epochs: int = 3, seed: int = 0,
        shards: Optional[int] = None, jobs: int = 1,
        fe_pool_units: Optional[int] = None,
        flows_per_unit: int = 20_000,
        survivable_window: float = 3.6,
        policy: str = "nezha",
        fleet_metrics: Optional[bool] = None,
        stats: Optional[Dict[str, object]] = None) -> ExperimentResult:
    """Run the fleet for ``epochs`` demand redraws.

    ``shards=None`` matches the shard count to ``jobs`` so parallelism
    is meaningful by default; any explicit value is honored — the output
    does not depend on it. More than one effective worker
    (``resolve_jobs(jobs, shards) > 1``) runs the shards on a resident
    worker pool, otherwise they run in the calling process — the output
    does not depend on that either.
    ``policy`` selects the coordinator's allocation strategy
    (``nezha``/``pam``/``supernic``/``sirius``, see
    :class:`~repro.fleet.coordinator.FleetCoordinator`); the default
    renders a table byte-identical to the pre-arena experiment.
    ``fleet_metrics`` turns the per-shard metric snapshots on
    (``None`` = on exactly when telemetry is installed): each epoch
    report carries a plain-data snapshot, folded here in slot order
    into one fleet-wide snapshot (``stats["fleet_metrics"]``, and the
    installed telemetry's capture). The snapshots are derived from the
    reports, so every rendered value is byte-identical either way.
    ``stats``, if given, receives phase timings and state size
    (``seed_epoch_s``, ``steady_epoch_s``, ``state_nbytes``, ...) and,
    on the pool path, ``ResidentPool.runtime_stats()`` under ``"pool"``
    — what perfbench and the tests read.
    """
    if shards is None:
        shards = max(1, jobs)
    if fleet_metrics is None:
        fleet_metrics = _telemetry.current() is not None
    params = FleetParams(seed=seed, n_vswitches=n_vswitches,
                         flows_per_unit=flows_per_unit,
                         collect_metrics=bool(fleet_metrics))
    pool_units = (default_pool_units(n_vswitches)
                  if fe_pool_units is None else fe_pool_units)
    coordinator = FleetCoordinator(seed=seed, pool_units=pool_units,
                                   survivable_window=survivable_window,
                                   policy=policy)
    states = make_shards(params, shards)
    grants: dict = {}
    pool = ResidentPool(_resident_step, states, jobs=jobs) \
        if resolve_jobs(jobs, len(states)) > 1 else None

    hot_observations = 0
    hot_sent = hot_delivered = hot_drops = 0
    hot_cpu_sum = 0.0
    fluid_pkts = fluid_bytes = 0
    epoch_walls = []
    fleet_snapshot = None
    try:
        for epoch in range(epochs):
            epoch_started = time.perf_counter()
            if pool is not None:
                reports = pool.step((epoch, grants, params))
            else:
                reports = []
                for slot, state in enumerate(states):
                    states[slot], report = run_shard_epoch(
                        (state, epoch, grants, params))
                    reports.append(report)
            grants = coordinator.settle(epoch, reports)
            if params.collect_metrics:
                # Fold in submission order (= ascending global index):
                # the slot-order fold contract makes the merged snapshot
                # byte-identical across shards x jobs.
                epoch_snapshot = fold_snapshots(
                    report["metrics"] for report in reports)
                fleet_snapshot = epoch_snapshot if fleet_snapshot is None \
                    else fold(fleet_snapshot, epoch_snapshot)
            for report in reports:  # submission order = ascending index
                cold = report["cold"]
                fluid_pkts += cold["pkts"]
                fluid_bytes += cold["bytes"]
                for entry in report["hot"]:
                    hot_observations += 1
                    hot_sent += entry["sim_sent"]
                    hot_delivered += entry["sim_delivered"]
                    hot_drops += entry["sim_drops"]
                    hot_cpu_sum += entry["sim_cpu"]
                    fluid_pkts += entry["pkts"]
                    fluid_bytes += entry["bytes"]
            epoch_walls.append(time.perf_counter() - epoch_started)
        # Materialize where the state lives; only digests come back.
        digests = pool.collect(_shard_digest) if pool is not None \
            else [_shard_digest(state) for state in states]
    finally:
        if pool is not None:
            pool.close()

    if stats is not None:
        stats["jobs"] = pool.jobs if pool is not None else 1
        stats["seed_epoch_s"] = epoch_walls[0] if epoch_walls else 0.0
        steady = epoch_walls[1:]
        stats["steady_epoch_s"] = (sum(steady) / len(steady)) if steady \
            else 0.0
        if pool is not None:
            stats["pool"] = pool.runtime_stats()
        stats["state_nbytes"] = sum(digest["nbytes"] for digest in digests)
        stats["store_stats"] = [digest["store"] for digest in digests]
        if fleet_snapshot is not None:
            stats["fleet_metrics"] = fleet_snapshot
    if fleet_snapshot is not None:
        tel = _telemetry.current()
        if tel is not None:
            tel.set_fleet_metrics(fleet_snapshot)

    # Cross-check the folded totals against the fluid ones exactly.
    folded_pkts = sum(digest["pkts"] for digest in digests)
    folded_bytes = sum(digest["bytes"] for digest in digests)
    live_flows = sum(digest["live_flows"] for digest in digests)
    if (folded_pkts, folded_bytes) != (fluid_pkts, fluid_bytes):
        raise SimulationError(
            f"flyweight fold lost traffic: folded {folded_pkts} pkts / "
            f"{folded_bytes} B, fluid {fluid_pkts} pkts / {fluid_bytes} B")

    result = ExperimentResult(
        name="fleet",
        description="fleet-scale overloads and FE-pool utilization "
                    "(hot/cold split)",
        columns=["metric", "value", "paper"],
    )
    result.add_row(metric="vswitches", value=n_vswitches, paper="")
    result.add_row(metric="epochs", value=epochs, paper="")
    result.add_row(metric="live flows", value=live_flows, paper="")
    result.add_row(metric="fluid packets", value=fluid_pkts, paper="")
    result.add_row(metric="hot observations", value=hot_observations,
                   paper="")
    result.add_row(metric="hot packets simulated", value=hot_sent, paper="")
    result.add_row(metric="hot packets delivered", value=hot_delivered,
                   paper="")
    result.add_row(metric="hot packets dropped", value=hot_drops, paper="")
    result.add_row(metric="hot mean cpu",
                   value=hot_cpu_sum / hot_observations
                   if hot_observations else 0.0,
                   paper="")
    for kind in HotspotKind:
        occurrences, residual = coordinator.overloads[kind]
        mitigated = (1.0 - residual / occurrences) if occurrences else 1.0
        result.add_row(metric=f"{kind.value} overloads", value=occurrences,
                       paper="")
        result.add_row(metric=f"{kind.value} mitigated fraction",
                       value=mitigated, paper=PAPER_MITIGATION[kind])
    for epoch, utilization in enumerate(coordinator.utilization):
        result.add_row(metric=f"fe pool utilization e{epoch}",
                       value=utilization, paper="")
    mean_util = (sum(coordinator.utilization) / len(coordinator.utilization)
                 if coordinator.utilization else 0.0)
    result.add_row(metric="fe pool utilization mean", value=mean_util,
                   paper="")
    result.add_row(metric="fe grant denials", value=coordinator.denied_requests,
                   paper="")
    # Policy-specific rows only for non-default policies: the nezha table
    # must stay byte-identical to the pre-arena experiment (CI-gated).
    if policy != "nezha":
        result.add_row(metric="allocation policy", value=policy, paper="")
        result.add_row(metric="fe preemptions",
                       value=coordinator.preemptions, paper="")
    result.note(f"{n_vswitches} vSwitches x {epochs} epochs sharing "
                f"{pool_units} FE units; hot vSwitches run per-packet "
                "micro-sims, the cold tail advances fluidly on flyweight "
                "records; output is invariant to the shard count, worker "
                "count, and residency mode")
    return result
