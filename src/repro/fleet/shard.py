"""One shard of the fleet: a contiguous vSwitch range and its epoch step.

The fleet runner partitions the global vSwitch index space ``0..n-1``
into contiguous per-shard ranges. Each epoch, every shard advances its
range independently — cold vSwitches fluidly against flyweight records,
hot ones through a per-packet micro-sim — and returns a plain-data
*report* the coordinator folds into pool decisions.

Everything a vSwitch does is keyed on its **global index**, never on its
shard-local position:

* its demand stream is ``SeededRng(vswitch_seed(seed, g), f"e{epoch}")``
  — three uniforms per epoch (cps, flows, vnics), the
  ``FleetModel.sample_demands`` draw order;
* its hot micro-sim seed is ``derive_seed(seed, f"fleet/hot/e{e}/vs{g}")``.

So the numbers a vSwitch produces cannot depend on how many shards the
fleet was split into, and because shard ranges are contiguous and
ascending — and reports merge in slot order — concatenating
per-shard hot lists yields a globally index-ascending list for every
shard count. Cold-side aggregates are integers, which commute. That is
the whole shard-count-invariance argument (DESIGN §5.6).

:func:`run_shard_epoch` is a top-level function over one picklable
tuple; the :class:`ShardState` it threads through is arrays all the way
down and ships to a resident pool worker
(:class:`repro.experiments.parallel.ResidentPool`) once, empty, after
which it never crosses the process boundary again.

The epoch step itself is **vectorized over the cold tail**: per-vSwitch
epoch streams are drawn into plain columns first (one reused
``random.Random`` reseeded per vSwitch with the exact
``SeededRng(vswitch_seed(seed, g), f"e{epoch}")`` mix, so every draw
value is bit-identical to one boxed ``SeededRng`` per vSwitch — the
longhand the regression tests compare against), the Table 1 inversions
run bisect-per-element over those columns, and
one tight pass does churn, pending-aggregate, and hot/cold
classification with zero per-vSwitch object construction. Only the ~1%
hot vSwitches drop into the per-index Python path.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from hashlib import sha256
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.rng import derive_seed
from repro.telemetry.fleet import snapshot_shard
from repro.workloads.fleet import (FleetCapacity, HotspotKind, VSwitchDemand,
                                   usage_dist)

from .flyweight import FleetFlowStore
from .hotsim import simulate_hot_epoch


@dataclass(frozen=True)
class FleetParams:
    """Immutable fleet-run configuration, shipped to every worker."""

    seed: int = 0
    n_vswitches: int = 10_000
    #: Concurrent flows held by a vSwitch at normalized demand 1.0 (the
    #: P9999 user of Table 1). The fleet median lands near 160 flows per
    #: vSwitch, ~2.6M live flows at 10K vSwitches.
    flows_per_unit: int = 20_000
    #: Per-epoch bound on flow births/deaths per vSwitch (epoch 0 seeds
    #: the full target population). Keeps churn work O(1) per epoch.
    churn_cap: int = 32
    #: New connections per epoch at normalized CPS demand 1.0, and the
    #: fluid per-connection traffic shape.
    conns_per_unit: int = 50_000
    pkts_per_conn: int = 6
    avg_pkt_bytes: int = 800
    #: Simulated seconds of per-packet traffic for each hot vSwitch.
    hot_sim_duration: float = 0.2
    capacity: FleetCapacity = field(default_factory=FleetCapacity)
    #: Attach a :func:`repro.telemetry.fleet.snapshot_shard` metric
    #: snapshot to each epoch report (``report["metrics"]``). Off by
    #: default; the epoch step pays one attribute check when disabled,
    #: and the snapshot derives from the finished report, so no report
    #: value changes either way.
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        if self.n_vswitches < 1:
            raise ConfigError("n_vswitches must be >= 1")
        if self.churn_cap < 1:
            raise ConfigError("churn_cap must be >= 1")


def vswitch_seed(seed: int, index: int) -> int:
    """The global-index-keyed seed every vSwitch stream derives from."""
    return derive_seed(seed, f"fleet/vs{index}")


def partition(n: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` ranges covering ``0..n-1`` in order.

    The first ``n % shards`` ranges hold one extra vSwitch, so sizes
    differ by at most one and concatenating ranges in shard order walks
    the global index space ascending.
    """
    if shards < 1:
        raise ConfigError("shards must be >= 1")
    shards = min(shards, n) or 1
    base, extra = divmod(n, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class ShardState:
    """Per-shard persistent state threaded through the epochs.

    Pickle-friendly by construction: the flyweight store, the
    per-vSwitch extent blocks (``slots``), their ``live`` slot counts
    and the pending accumulators are all stdlib arrays. One instance
    is pickled into its resident worker once (empty) when the fleet runs
    on a pool, and is mutated in place in either path.
    """

    __slots__ = ("lo", "hi", "store", "slots", "live", "pending_pkts",
                 "pending_bytes", "_seed_prefixes")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.store = FleetFlowStore()
        n = hi - lo
        self.slots: List["array[int]"] = [array("q") for _ in range(n)]
        self.live = array("q", bytes(8 * n))
        self.pending_pkts = array("q", bytes(8 * n))
        self.pending_bytes = array("q", bytes(8 * n))
        #: (root seed, per-vSwitch ``b"{vswitch_seed}:"`` encodings) —
        #: the SHA-256 input prefixes every epoch stream hashes with its
        #: ``e{epoch}`` suffix. Derived once per shard lifetime instead
        #: of once per epoch; deliberately NOT pickled (a resident
        #: worker rebuilds it on first step and then keeps it).
        self._seed_prefixes: Optional[Tuple[int, List[bytes]]] = None

    def __getstate__(self):
        return (self.lo, self.hi, self.store, self.slots, self.live,
                self.pending_pkts, self.pending_bytes)

    def __setstate__(self, state) -> None:
        (self.lo, self.hi, self.store, self.slots, self.live,
         self.pending_pkts, self.pending_bytes) = state
        self._seed_prefixes = None

    def seed_prefixes(self, seed: int) -> List[bytes]:
        """Per-vSwitch hash prefixes for the epoch-stream derivation.

        ``SeededRng(vswitch_seed(seed, g), f"e{epoch}")`` seeds from
        ``sha256(b"{vswitch_seed}:" + b"e{epoch}")`` — the prefix is
        epoch-free, so it is computed once and reused every epoch."""
        cached = self._seed_prefixes
        if cached is None or cached[0] != seed:
            prefixes = [b"%d:" % vswitch_seed(seed, g)
                        for g in range(self.lo, self.hi)]
            self._seed_prefixes = (seed, prefixes)
            return prefixes
        return cached[1]

    def __len__(self) -> int:
        return self.hi - self.lo

    def live_flows(self) -> int:
        return len(self.store)

    def nbytes(self) -> int:
        """Flyweight payload bytes: store columns + per-vSwitch extents."""
        extents = sum(block.itemsize * len(block) for block in self.slots)
        return self.store.nbytes() + extents

    def materialize(self) -> Tuple[int, int]:
        """Fold every vSwitch's pending aggregate into its flow slots —
        the end-of-run materialization boundary. Returns the shard's
        total (packets, bytes) including any unfoldable remainder from
        vSwitches that ended with zero live flows.

        Pending accumulators are cleared unconditionally — including
        when :meth:`FleetFlowStore.fold` returns ``(0, 0)`` because a
        vSwitch has no live slots to fold into (its remainder is
        accounted in the returned totals and nowhere else). That makes
        the boundary idempotent: a second call finds every accumulator
        zero and is a no-op returning ``(0, 0)``."""
        store = self.store
        pending_pkts = self.pending_pkts
        pending_bytes = self.pending_bytes
        total_pkts = sum(pending_pkts)
        total_bytes = sum(pending_bytes)
        for i, block in enumerate(self.slots):
            store.fold(block, pending_pkts[i], pending_bytes[i])
            pending_pkts[i] = 0
            pending_bytes[i] = 0
        return total_pkts, total_bytes


def make_shards(params: FleetParams, shards: int) -> List[ShardState]:
    return [ShardState(lo, hi)
            for lo, hi in partition(params.n_vswitches, shards)]


def _epoch_uniform_columns(state: ShardState, seed: int, epoch: int
                           ) -> Tuple[List[float], List[float], List[float]]:
    """The shard's raw demand uniforms for one epoch, as three columns.

    One ``random.Random`` instance is reseeded per vSwitch with the
    exact ``SeededRng`` mix (``sha256(b"{vswitch_seed}:e{epoch}")``
    truncated to 64 bits) — ``Random(x)`` and ``Random().seed(x)``
    build the identical Mersenne Twister state, so the three draws per
    vSwitch match a ``SeededRng(vswitch_seed(seed, g), f"e{epoch}")``
    stream bit-for-bit without constructing 10K of them per epoch."""
    suffix = b"e%d" % epoch
    rnd = Random()
    reseed = rnd.seed
    draw = rnd.random
    from_bytes = int.from_bytes
    u_cps: List[float] = []
    u_flows: List[float] = []
    u_vnics: List[float] = []
    for prefix in state.seed_prefixes(seed):
        reseed(from_bytes(sha256(prefix + suffix).digest()[:8], "big"))
        u_cps.append(draw())
        u_flows.append(draw())
        u_vnics.append(draw())
    return u_cps, u_flows, u_vnics


def demand_units(demand: VSwitchDemand, capacity: FleetCapacity,
                 ratio: Optional[float] = None) -> int:
    """FE units a hot vSwitch requests: enough extra capacity to cover
    its worst kind's excess over the BE (one unit = one BE's worth).

    ``ratio`` is the worst demand/capacity ratio when the caller has
    already computed it (the epoch step needs the same number for the
    micro-sim); left ``None`` it is derived here."""
    if ratio is None:
        ratio = max(demand.cps / capacity.cps,
                    demand.flows / capacity.flows,
                    demand.vnics / capacity.vnics)
    return max(1, math.ceil(ratio) - 1)


def run_shard_epoch(point) -> Tuple[ShardState, Dict[str, object]]:
    """Advance one shard one epoch; the in-process loop's body and the
    resident pool's per-epoch actor step.

    ``point`` is ``(state, epoch, grants, params)`` where ``grants`` maps
    the global indices holding an active FE grant (decided by the
    coordinator from the *previous* epoch's reports) to their unit
    counts. Returns the advanced state plus a plain-data report:
    integer-only cold aggregates and an index-ascending hot list.

    Structure: draw the epoch's uniforms into columns, invert the
    Table 1 distributions column-wise, then one pass over the range does
    churn + pending aggregates + hot/cold classification on the
    precomputed values. The pass mutates the store in ascending global
    index order — exactly the scalar path's order, so slot recycling and
    every report field are unchanged.
    """
    state, epoch, grants, params = point
    capacity = params.capacity
    store = state.store
    churn_cap = params.churn_cap
    seed_epoch = epoch == 0

    u_cps, u_flows, u_vnics = _epoch_uniform_columns(state, params.seed,
                                                     epoch)
    cps_col = usage_dist("cps").invert_n(u_cps)
    flows_col = usage_dist("flows").invert_n(u_flows)
    vnics_col = usage_dist("vnics").invert_n(u_vnics)

    cap_cps = capacity.cps
    cap_flows = capacity.flows
    cap_vnics = capacity.vnics
    flows_per_unit = params.flows_per_unit
    if seed_epoch:
        # The seed population in one growth; every alloc_block below
        # pops the reserved extent's head, in the slot order appends gave.
        store.reserve(sum(int(flows * flows_per_unit) for flows in flows_col))
    conns_per_unit = params.conns_per_unit
    pkts_per_conn = params.pkts_per_conn
    avg_pkt_bytes = params.avg_pkt_bytes
    slots = state.slots
    live = state.live
    pending_pkts = state.pending_pkts
    pending_bytes = state.pending_bytes
    lo = state.lo

    cold_count = cold_flows = cold_pkts = cold_bytes = 0
    born_total = died_total = 0
    hot: List[Dict[str, object]] = []

    for i in range(state.hi - lo):
        cps = cps_col[i]
        flows = flows_col[i]

        # -- flow churn toward this epoch's target population ----------
        target = int(flows * flows_per_unit)
        count = live[i]
        delta = target - count
        if delta > 0:
            born = delta if seed_epoch or delta < churn_cap else churn_cap
            store.alloc_block(slots[i], born)
            live[i] = count = count + born
            born_total += born
        elif delta < 0:
            died = -delta if -delta < churn_cap else churn_cap
            # Nothing is folded here: pending stays with the vSwitch
            # and is shared among the slots live at the materialization
            # boundary; dying slots keep their history until recycled.
            store.free_block(slots[i], died)
            live[i] = count = count - died
            died_total += died

        # -- fluid traffic: two pending ints, O(1) per epoch -----------
        pkts = int(cps * conns_per_unit) * pkts_per_conn
        nbytes = pkts * avg_pkt_bytes
        pending_pkts[i] += pkts
        pending_bytes[i] += nbytes

        if cps > cap_cps or flows > cap_flows or vnics_col[i] > cap_vnics:
            g = lo + i
            demand = VSwitchDemand(cps=cps, flows=flows, vnics=vnics_col[i])
            kinds = demand.hotspots(capacity)
            ratio = max(cps / cap_cps, flows / cap_flows,
                        vnics_col[i] / cap_vnics)
            sim = simulate_hot_epoch(
                seed=derive_seed(params.seed, f"fleet/hot/e{epoch}/vs{g}"),
                demand_ratio=ratio, granted=g in grants,
                duration=params.hot_sim_duration)
            entry: Dict[str, object] = {
                "index": g,
                "kinds": [kind.value for kind in kinds],
                "units": demand_units(demand, capacity, ratio),
                "ratio": ratio,
                "flows": count,
                "pkts": pkts,
                "bytes": nbytes,
            }
            entry.update(sim)
            hot.append(entry)
        else:
            cold_count += 1
            cold_flows += count
            cold_pkts += pkts
            cold_bytes += nbytes

    cold = {"count": cold_count, "flows": cold_flows, "pkts": cold_pkts,
            "bytes": cold_bytes, "born": born_total, "died": died_total}
    report: Dict[str, object] = {"epoch": epoch, "lo": lo,
                                 "hi": state.hi, "cold": cold, "hot": hot}
    if params.collect_metrics:
        # End-of-epoch live counts equal the classification-time flow
        # populations, so the snapshot is derivable entirely from the
        # finished report + final counts — see snapshot_shard.
        report["metrics"] = snapshot_shard(report, live)
    return state, report
