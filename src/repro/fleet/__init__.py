"""Sharded fleet-scale simulation: O(10K) vSwitches with hot/cold split.

Layer map (DESIGN §5.6):

* :mod:`~repro.fleet.flyweight` — run-length cold-flow counters (O(runs)
  per vSwitch, not per flow), pending-aggregate fold at materialization
  boundaries;
* :mod:`~repro.fleet.hotsim` — per-packet micro-sim of one hot vSwitch
  epoch on a private two-server overlay;
* :mod:`~repro.fleet.shard` — contiguous vSwitch ranges, global-index
  keyed demand streams, the picklable-point epoch step;
* :mod:`~repro.fleet.coordinator` — shared FE pool allocation and
  mitigation accounting, the only cross-shard coupling;
* :mod:`~repro.fleet.record` — the run record every report adds to.

The driving experiment lives in :mod:`repro.experiments.fleet`.
"""

from .coordinator import FleetCoordinator
from .flyweight import FleetFlowStore
from .hotsim import simulate_hot_epoch
from .shard import (FleetParams, ShardState, demand_units, make_shards,
                    partition, run_shard_epoch, vswitch_seed)

__all__ = [
    "FleetCoordinator",
    "FleetFlowStore",
    "FleetParams",
    "ShardState",
    "demand_units",
    "make_shards",
    "partition",
    "run_shard_epoch",
    "simulate_hot_epoch",
    "vswitch_seed",
]
