"""Fleet-scale simulation: shard-count determinism, flyweight records,
coordinator policy, and the runner plumbing (ISSUE 7).

The headline property is the shard-count invariance of the fleet
experiment: its rendered table must be byte-identical for every
``shards`` value, composed with the process pool (``jobs=2``) and with
the full telemetry stack installed — the fleet-scale instance of the
repo's determinism contract.
"""

import hashlib
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import ConfigError
from repro.fleet import (FleetCoordinator, FleetFlowStore, FleetParams,
                         demand_units, make_shards, partition,
                         run_shard_epoch, simulate_hot_epoch, vswitch_seed)
from repro.net.packet import Packet
from repro.workloads.fleet import FleetCapacity, HotspotKind, VSwitchDemand

from tests.test_telemetry_integration import _python_calls

FLEET_KWARGS = dict(n_vswitches=200, epochs=2, seed=0)


# -- partitioning and seed derivation ---------------------------------------

def test_partition_contiguous_and_balanced():
    ranges = partition(10, 3)
    assert ranges == [(0, 4), (4, 7), (7, 10)]
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= 1


def test_partition_clamps_to_population():
    assert partition(2, 8) == [(0, 1), (1, 2)]


def test_partition_rejects_zero_shards():
    with pytest.raises(ConfigError):
        partition(10, 0)


def test_vswitch_seeds_do_not_alias_at_fleet_scale():
    seeds = {vswitch_seed(0, g) for g in range(10_000)}
    assert len(seeds) == 10_000


def test_vswitch_seeds_do_not_alias_across_root_seeds():
    # The naive seed+index scheme collides (root 0 / vs 1 == root 1 /
    # vs 0); the derived scheme must not.
    a = {vswitch_seed(0, g) for g in range(500)}
    b = {vswitch_seed(1, g) for g in range(500)}
    assert not a & b


def test_vswitch_seed_is_shard_layout_free():
    # Walking any partition in shard order reproduces the unsharded seed
    # sequence exactly: seeds are a function of the global index alone,
    # so re-partitioning the fleet cannot change any vSwitch's stream.
    flat = [vswitch_seed(42, g) for g in range(100)]
    for shards in (2, 4, 7):
        walked = [vswitch_seed(42, g)
                  for lo, hi in partition(100, shards)
                  for g in range(lo, hi)]
        assert walked == flat
    assert len(set(flat)) == len(flat)


# -- flyweight store --------------------------------------------------------

def _slot_ids(block):
    """A block's slots in logical order (test-side view of its runs)."""
    return [slot for k in range(0, len(block), 4)
            for slot in range(block[k], block[k] + block[k + 1])]


def _slot_values(store):
    """Every slot's counters as two per-slot columns over
    ``range(store.capacity)``, expanded from the blocks' and the free
    stack's runs — after checking that the runs cover each slot once."""
    runs = [store._free, *store.blocks]
    ids = [slot for block in runs for slot in _slot_ids(block)]
    assert sorted(ids) == list(range(store.capacity))
    packets = array("q", bytes(8 * store.capacity))
    nbytes = array("q", bytes(8 * store.capacity))
    for block in runs:
        for k in range(0, len(block), 4):
            start, length, run_packets, run_bytes = block[k:k + 4]
            packets[start:start + length] = array("q", [run_packets]) * length
            nbytes[start:start + length] = array("q", [run_bytes]) * length
    return packets, nbytes


def _block_values(store, block):
    """[packets, bytes] per slot of ``block``, in its logical order."""
    packets, nbytes = _slot_values(store)
    return [[packets[s], nbytes[s]] for s in _slot_ids(block)]


def test_flyweight_alloc_grows_zeroed():
    store = FleetFlowStore(1)
    (block,) = store.blocks
    store.alloc_block(block, 5)
    store.alloc_block(block, 3)              # adjacent growth merges
    assert list(block) == [0, 8, 0, 0]       # one (start, length, 0, 0) run
    assert len(store) == 8 and store.capacity == 8
    assert store.totals() == (0, 0)


def test_flyweight_free_and_recycle_rezeroes():
    store = FleetFlowStore(2)
    block, other = store.blocks
    store.alloc_block(block, 4)
    store.fold(block, pending_packets=8, pending_bytes=80)
    store.free_block(block, 2)
    assert len(store) == 2
    assert store.totals() == (8, 80)         # freed slots keep their history
    store.alloc_block(other, 2)              # LIFO reuse of the freed run
    assert store.capacity == 4               # no growth needed
    assert not set(_slot_ids(other)) & set(_slot_ids(block))
    assert _block_values(store, other) == [[0, 0], [0, 0]]
    assert store.totals() == (4, 40)


def test_flyweight_fold_is_exact_with_remainder():
    store = FleetFlowStore(1)
    (block,) = store.blocks
    store.alloc_block(block, 3)
    folded = store.fold(block, pending_packets=10, pending_bytes=101)
    assert folded == (10, 101)
    assert _block_values(store, block) == [[4, 34], [3, 34], [3, 33]]
    assert len(block) == 3 * 4               # split at both extra boundaries
    assert store.totals() == (10, 101)


def test_flyweight_fold_without_live_slots_defers():
    store = FleetFlowStore(1)
    assert store.fold(store.blocks[0], 7, 70) == (0, 0)
    assert store.totals() == (0, 0)


def test_flyweight_nbytes_tracks_runs():
    store = FleetFlowStore(2)
    small, large = store.blocks
    store.alloc_block(small, 10)
    store.alloc_block(large, 10**6)
    assert store.nbytes() == 2 * 32          # one 4 x 'q' run each, any size
    store.free_block(large, 10)
    assert store.nbytes() == 3 * 32          # + one run on the free stack


_FLYWEIGHT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 3), st.integers(1, 40)),
        st.tuples(st.just("free"), st.integers(0, 3), st.integers(1, 40)),
        st.tuples(st.just("fold"), st.integers(0, 3),
                  st.integers(0, 10_000), st.integers(0, 10**9))),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(_FLYWEIGHT_OPS)
def test_flyweight_matches_naive_model(ops):
    """Random alloc / tail-free / fold / re-alloc interleavings over four
    blocks against a list-of-[packets, bytes] model per block. Slot
    numbers never appear in an assertion: only what a block's slots hold,
    in the block's own order, expanded from the runs."""
    store = FleetFlowStore(4)
    blocks = store.blocks
    model = [[] for _ in blocks]             # block -> [[packets, bytes]]
    dead_packets = dead_bytes = 0            # history held by freed slots
    for op, which, *args in ops:
        block, slots = blocks[which], model[which]
        if op == "alloc":
            before = store.totals()
            store.alloc_block(block, args[0])
            after = store.totals()
            # Recycled slots come back zeroed; what they held leaves
            # the totals, nothing else moves.
            dead_packets -= before[0] - after[0]
            dead_bytes -= before[1] - after[1]
            assert dead_packets >= 0 and dead_bytes >= 0
            slots.extend([0, 0] for _ in range(args[0]))
        elif op == "free":
            n = min(args[0], len(slots))
            store.free_block(block, n)
            for packets, nbytes in slots[len(slots) - n:]:
                dead_packets += packets
                dead_bytes += nbytes
            del slots[len(slots) - n:]
        else:
            runs_before = len(block) // 4
            folded = store.fold(block, *args)
            if not slots or args == [0, 0]:
                assert folded == (0, 0)
            else:
                assert folded == tuple(args)
                # Split only at the two remainder boundaries.
                assert len(block) // 4 <= runs_before + 2
                for col, pending in enumerate(args):
                    # Shares differ by at most one and sum to pending.
                    share, extra = divmod(pending, len(slots))
                    for k, slot in enumerate(slots):
                        slot[col] += share + (k < extra)
        ids = _slot_ids(block)
        assert sum(block[1::4]) == len(slots) == len(set(ids))
        assert _block_values(store, block) == slots
    live = [slot for slots in model for slot in slots]
    assert len(store) == len(live)
    assert len({s for block in blocks for s in _slot_ids(block)}) == len(live)
    assert store.totals() == (sum(p for p, _b in live) + dead_packets,
                              sum(b for _p, b in live) + dead_bytes)


def test_flyweight_fold_lane_overflow_raises_and_spares_neighbours():
    store = FleetFlowStore(2)
    block, fresh = store.blocks
    store.alloc_block(block, 1)
    store.fold(block, 2**63 - 1, 5)          # the largest value 'q' holds
    store.alloc_block(block, 2)              # [2**63 - 1, 0, 0]: two runs
    with pytest.raises(OverflowError):
        store.fold(block, 3, 6)              # one more each: slot 0 overflows
    assert _block_values(store, block) == [[2**63 - 1, 5], [0, 0], [0, 0]]
    with pytest.raises(OverflowError):
        store.fold(block, 2**65, 0)          # a share no counter can hold
    assert store.totals() == (2**63 - 1, 5)
    # Over empty slots a bumped counter of 2**63 is no 'q' either: it
    # raises before anything of the block is written.
    store.alloc_block(fresh, 2)              # share 2**63 - 1, one bumped
    with pytest.raises(OverflowError):
        store.fold(fresh, 2**64 - 1, 0)
    assert store.totals() == (2**63 - 1, 5)
    assert store.fold(fresh, 2**64 - 2, 4) == (2**64 - 2, 4)
    assert _block_values(store, fresh) == [[2**63 - 1, 2], [2**63 - 1, 2]]


@pytest.mark.parametrize("shards", [1, 3])
def test_live_slot_invariant_every_epoch(shards):
    """ROADMAP 3(a): live slots == sum of per-vSwitch live counts ==
    births - deaths, after every epoch, whatever the shard layout."""
    params = FleetParams(seed=0, n_vswitches=400)
    states = make_shards(params, shards)
    born = died = 0
    for epoch in range(4):
        for k, state in enumerate(states):
            states[k], report = run_shard_epoch((state, epoch, {}, params))
            born += report["cold"]["born"]
            died += report["cold"]["died"]
        live = sum(len(state.store) for state in states)
        assert live == sum(sum(state.live) for state in states) \
            == born - died
        for state in states:
            assert list(state.live) == [sum(b[1::4])
                                        for b in state.store.blocks]
    assert died > 0                          # churn really recycled slots


# -- hot micro-sim ----------------------------------------------------------

def test_hot_sim_deterministic():
    a = simulate_hot_epoch(seed=7, demand_ratio=3.0, granted=False)
    b = simulate_hot_epoch(seed=7, demand_ratio=3.0, granted=False)
    assert a == b


def test_hot_sim_overload_drops_and_grant_desaturates():
    overloaded = simulate_hot_epoch(seed=7, demand_ratio=6.0, granted=False)
    granted = simulate_hot_epoch(seed=7, demand_ratio=6.0, granted=True)
    assert overloaded["sim_drops"] > 0
    assert granted["sim_drops"] == 0
    assert granted["sim_cpu"] < overloaded["sim_cpu"]
    assert granted["sim_delivered"] == granted["sim_sent"]


def test_demand_units_scale_with_excess():
    capacity = FleetCapacity()
    mild = VSwitchDemand(cps=capacity.cps * 1.2, flows=0.0005, vnics=0.0005)
    severe = VSwitchDemand(cps=capacity.cps * 5.0, flows=0.0005, vnics=0.0005)
    assert demand_units(mild, capacity) == 1
    assert demand_units(severe, capacity) == 4


# -- coordinator ------------------------------------------------------------

def _report(entries):
    return [{"epoch": 0, "lo": 0, "hi": 100,
             "cold": {"count": 0, "flows": 0, "pkts": 0, "bytes": 0,
                      "born": 0, "died": 0},
             "hot": entries}]


def _hot(index, units, kinds=("cps",)):
    return {"index": index, "units": units, "kinds": list(kinds)}


def test_coordinator_all_or_nothing_denial():
    coord = FleetCoordinator(seed=0, pool_units=3)
    coord.settle(0, _report([_hot(1, 2), _hot(2, 2)]))
    assert coord.grants == {1: 2}            # 2 left < 2 requested: denied
    assert coord.denied_requests == 1
    occurrences, residual = coord.overloads[HotspotKind.CPS]
    assert (occurrences, residual) == (2, 1)  # the denied one stands


def test_coordinator_renewals_beat_newcomers():
    coord = FleetCoordinator(seed=0, pool_units=2)
    coord.settle(0, _report([_hot(5, 2)]))
    assert coord.grants == {5: 2}
    # Next epoch a lower-index newcomer competes; the holder renews.
    coord.settle(1, _report([_hot(1, 2), _hot(5, 2)]))
    assert coord.grants == {5: 2}
    assert coord.denied_requests == 1


def test_coordinator_releases_quiet_grants():
    coord = FleetCoordinator(seed=0, pool_units=4)
    coord.settle(0, _report([_hot(3, 4)]))
    assert coord.units_in_use() == 4
    coord.settle(1, _report([]))
    assert coord.grants == {} and coord.units_in_use() == 0
    assert coord.utilization == [1.0, 0.0]


def test_coordinator_vnics_always_mitigated_when_granted():
    coord = FleetCoordinator(seed=0, pool_units=8)
    coord.settle(0, _report([_hot(1, 1, kinds=("vnics",))]))
    occurrences, residual = coord.overloads[HotspotKind.VNICS]
    assert (occurrences, residual) == (1, 0)


def test_coordinator_denied_vnics_is_residual():
    coord = FleetCoordinator(seed=0, pool_units=0)
    coord.settle(0, _report([_hot(1, 1, kinds=("vnics",))]))
    occurrences, residual = coord.overloads[HotspotKind.VNICS]
    assert (occurrences, residual) == (1, 1)


# -- shard epoch step -------------------------------------------------------

def test_shard_epoch_reports_are_shard_invariant():
    params = FleetParams(seed=0, n_vswitches=60)

    def epoch_reports(shards):
        states = make_shards(params, shards)
        merged_cold, merged_hot = [], []
        for state in states:
            _state, report = run_shard_epoch((state, 0, {}, params))
            merged_cold.append(report["cold"])
            merged_hot.extend(report["hot"])
        totals = {key: sum(cold[key] for cold in merged_cold)
                  for key in merged_cold[0]}
        return totals, merged_hot

    base = epoch_reports(1)
    assert epoch_reports(2) == base
    assert epoch_reports(3) == base


def test_shard_hot_lists_ascend_globally():
    params = FleetParams(seed=0, n_vswitches=300)
    indices = []
    for state in make_shards(params, 4):
        _state, report = run_shard_epoch((state, 0, {}, params))
        indices.extend(entry["index"] for entry in report["hot"])
    assert indices == sorted(indices)


# -- vectorized cold tail: RNG stream identity (ISSUE 8) --------------------

def test_epoch_uniform_columns_match_scalar_rng_exactly():
    """The vectorized draw (one reused Random reseeded per vSwitch from
    cached hash prefixes) must reproduce the scalar reference stream
    ``SeededRng(vswitch_seed(seed, g), f"e{epoch}")`` bit-for-bit."""
    from repro.fleet.shard import _epoch_uniform_columns
    from repro.sim.rng import SeededRng
    params = FleetParams(seed=3, n_vswitches=40)
    state = make_shards(params, 1)[0]
    for epoch in (0, 1, 7):
        u_cps, u_flows, u_vnics = _epoch_uniform_columns(state, 3, epoch)
        for i in range(40):
            rng = SeededRng(vswitch_seed(3, i), f"e{epoch}")
            assert (u_cps[i], u_flows[i], u_vnics[i]) \
                == (rng.random(), rng.random(), rng.random())


def _epoch_demand(seed, index, epoch, dists):
    """Longhand: one vSwitch's demand redraw for one epoch, one boxed
    ``SeededRng`` per vSwitch and three uniforms in the cps/flows/vnics
    order ``FleetModel.sample_demands`` established."""
    from repro.sim.rng import SeededRng
    rng = SeededRng(vswitch_seed(seed, index), f"e{epoch}")
    cps_dist, flows_dist, vnics_dist = dists
    return VSwitchDemand(cps=cps_dist._invert(rng.random()),
                         flows=flows_dist._invert(rng.random()),
                         vnics=vnics_dist._invert(rng.random()))


def test_epoch_columns_invert_to_scalar_demands():
    """Column inversion of the uniforms == the boxed scalar longhand
    (_epoch_demand) for every vSwitch — the end-to-end identity the
    vectorized epoch step rests on."""
    from repro.fleet.shard import _epoch_uniform_columns
    from repro.workloads.fleet import usage_dist
    params = FleetParams(seed=5, n_vswitches=30)
    state = make_shards(params, 1)[0]
    dists = (usage_dist("cps"), usage_dist("flows"), usage_dist("vnics"))
    u_cps, u_flows, u_vnics = _epoch_uniform_columns(state, 5, 2)
    cps_col = dists[0].invert_n(u_cps)
    flows_col = dists[1].invert_n(u_flows)
    vnics_col = dists[2].invert_n(u_vnics)
    for i in range(30):
        demand = _epoch_demand(5, i, 2, dists)
        assert (cps_col[i], flows_col[i], vnics_col[i]) \
            == (demand.cps, demand.flows, demand.vnics)


def test_seed_prefixes_cached_per_root_seed():
    state = make_shards(FleetParams(seed=0, n_vswitches=10), 1)[0]
    first = state.seed_prefixes(0)
    assert state.seed_prefixes(0) is first          # cached
    other = state.seed_prefixes(1)                  # reseed invalidates
    assert other != first and state.seed_prefixes(1) is other
    assert first == [b"%d:" % vswitch_seed(0, g) for g in range(10)]


def test_shard_state_pickle_drops_prefix_cache():
    import pickle
    state = make_shards(FleetParams(seed=0, n_vswitches=10), 1)[0]
    state.seed_prefixes(0)
    clone = pickle.loads(pickle.dumps(state))
    assert clone._seed_prefixes is None             # rebuilt lazily
    assert clone.seed_prefixes(0) == state.seed_prefixes(0)


# -- materialization idempotency (ISSUE 8 satellite) ------------------------

def _run_shards(n_vswitches, shards, epochs):
    params = FleetParams(seed=0, n_vswitches=n_vswitches)
    states = make_shards(params, shards)
    for epoch in range(epochs):
        for k, state in enumerate(states):
            states[k], _report = run_shard_epoch((state, epoch, {}, params))
    return states


def test_materialize_is_idempotent_and_clears_pending():
    (state,) = _run_shards(50, 1, epochs=2)
    first = state.materialize()
    assert first != (0, 0)
    assert not any(state.pending_pkts) and not any(state.pending_bytes)
    assert state.materialize() == (0, 0)            # second call: no-op
    totals_after_first = state.store.totals()
    state.materialize()
    assert state.store.totals() == totals_after_first


def test_materialize_clears_pending_without_live_slots():
    # A vSwitch that ends an epoch with zero live flows cannot fold its
    # pending traffic into slots; the remainder is returned once and the
    # accumulator still clears — no double counting on a second pass.
    state = make_shards(FleetParams(seed=0, n_vswitches=2), 1)[0]
    state.pending_pkts[0] = 7
    state.pending_bytes[0] = 700
    assert state.materialize() == (7, 700)
    assert state.pending_pkts[0] == 0 and state.pending_bytes[0] == 0
    assert state.materialize() == (0, 0)
    assert state.store.totals() == (0, 0)           # nowhere to fold


@pytest.mark.parametrize("shards", [1, 3])
def test_materialize_writes_what_it_reports(shards):
    """What ``materialize`` returns is summed from the pending
    accumulators before any fold runs, so ``fleet.run``'s conservation
    raise cannot see a fold that writes nothing. The runs can: dead
    slots are still zero before the run's single fold (recycling zeroes
    them, nothing folds earlier), so every counter the store holds is
    one the fold wrote."""
    states = _run_shards(400, shards, epochs=2)
    reported = [state.materialize() for state in states]
    held =[state.store.totals() for state in states]
    assert sum(p for p, _b in held) == sum(p for p, _b in reported) > 0
    assert sum(b for _p, b in held) == sum(b for _p, b in reported) > 0


@pytest.mark.parametrize("shards,digest", [
    (1, "fde21efb5d3ddbd3"),
    (3, "7dbdd35f951e5125"),
], ids=["1", "3"])
def test_store_layout_matches_recorded_digest(shards, digest):
    """The flyweight layout, whatever its storage format — capacity and
    live count, every slot's (packets, bytes) over ``range(capacity)``,
    the slot ids popping the whole free stack would hand out, and every
    block's slot ids in logical order — after three epochs and the
    materialization at 2 000 vSwitches. Slot numbers never reach a
    table, but perfbench's exact ``fleet.live_flows`` / ``flyweight.*``
    rows read this layout, so an allocator or fold that hands out other
    slots, or leaves other counters, fails here by name. Recorded on the
    per-slot column store the run-length store replaced, as
    ``test_golden_tables.py`` does."""
    states = _run_shards(2_000, shards, epochs=3)
    h = hashlib.sha256()
    for state in states:
        state.materialize()
        store = state.store
        free = store._free
        popped = [slot for k in range(len(free) - 4, -1, -4)
                  for slot in range(free[k], free[k] + free[k + 1])]
        h.update(b"%d,%d:" % (store.capacity, len(store)))
        for column in (*_slot_values(store), popped,
                       *map(_slot_ids, store.blocks)):
            h.update(b"%d:" % len(column) + array("q", column).tobytes())
    assert h.hexdigest()[:16] == digest


def test_state_bytes_flat_in_flows_per_unit():
    """The store pays per run, not per flow: doubling ``flows_per_unit``
    doubles the live flows of a 500-vSwitch x 3-epoch run but leaves
    ``ShardState.nbytes()`` within 10 %. Per-flow storage coming back
    (16 B a flow was the column store) fails here by name."""
    measured = []
    for flows_per_unit in (20_000, 40_000):
        params = FleetParams(seed=0, n_vswitches=500,
                             flows_per_unit=flows_per_unit)
        (state,) = make_shards(params, 1)
        for epoch in range(3):
            state, _report = run_shard_epoch((state, epoch, {}, params))
        state.materialize()
        measured.append((state.live_flows(), state.nbytes()))
    (flows, nbytes), (flows2, nbytes2) = measured
    assert 1.9 * flows < flows2 < 2.1 * flows
    assert abs(nbytes2 - nbytes) <= 0.1 * nbytes


# -- hot micro-sim: fluid fast-forward identity (ISSUE 8) -------------------

def test_hot_sim_fluid_fast_forward_is_output_identical():
    """simulate_hot_epoch(fluid=True) — the default — must return the
    same measurements as the per-packet fluid=False run: the §5.5
    fast-forward is a wall-clock optimization, never an output one.
    Ratios 1.5 and 5.0 queue a run charged at ``NONE`` behind the SYN
    that moves the session to ``SYN_SENT``: the run must still complete
    as the burst form's per-packet replay would."""
    for seed, ratio, granted in ((7, 3.0, False), (11, 6.0, False),
                                 (11, 6.0, True), (23, 1.2, False),
                                 (7, 1.5, False), (29, 5.0, False)):
        fast = simulate_hot_epoch(seed=seed, demand_ratio=ratio,
                                  granted=granted, fluid=True)
        slow = simulate_hot_epoch(seed=seed, demand_ratio=ratio,
                                  granted=granted, fluid=False)
        assert fast == slow


def _count_packet_copies(monkeypatch):
    """Count ``Packet.copy`` calls by the function that made them."""
    copies = Counter()
    real_copy = Packet.copy

    def counting_copy(self):
        copies[sys._getframe(1).f_code.co_name] += 1
        return real_copy(self)

    monkeypatch.setattr(Packet, "copy", counting_copy)
    return copies


def test_hot_sim_fluid_sink_copies_nothing_on_delivery(monkeypatch):
    """The micro-sim's sink is run-aware and count-only: a fluid run
    reaches it as (template, count). The one copy left is the session
    opener, which pays the slow path alone as the burst form's first
    packet does; every later packet of the flow stays a run, including
    the runs queued while the SYN moved the FSM to ``SYN_SENT``."""
    copies = _count_packet_copies(monkeypatch)
    for ratio in (1.0, 1.5, 3.0, 5.0):
        copies.clear()
        fast = simulate_hot_epoch(seed=7, demand_ratio=ratio,
                                  granted=False, fluid=True)
        assert sum(copies.values()) == 1, (ratio, copies)
        assert fast["sim_delivered"] > 0
    copies.clear()
    slow = simulate_hot_epoch(seed=7, demand_ratio=5.0, granted=False,
                              fluid=False)
    assert not copies                        # the burst path never copies
    assert fast == slow and fast["sim_delivered"] > 0


@pytest.mark.parametrize("ratio", [1.5, 5.0])
def test_hot_sim_fluid_packets_cross_the_fabric_as_runs(ratio):
    """Clock-free census of one fluid hot micro-sim: only the SYN and the
    session opener reach the peer's per-packet sink and the per-packet
    TX / RX bodies; every later packet crosses switch, link and receiver
    inside a run, so no burst reaches a link and no completion replays a
    run per packet (the replay's train emitter never runs). (Before runs
    survived the SYN's FSM move and the opener went alone, the sink and
    the TX replay read 33 / 81 and 2 / 5 at ratios 1.5 / 5.0.)"""
    from repro.fabric import link
    from repro.vswitch import vswitch
    _, calls = _python_calls(lambda: simulate_hot_epoch(
        seed=7, demand_ratio=ratio, granted=False, fluid=True))
    census = {
        ("vswitch.py", "VSwitch._fabric_sink"): 2,
        ("vswitch.py", "LocalDatapath._tx_one"): 2,
        ("vswitch.py", "LocalDatapath._rx_one"): 2,
        ("vswitch.py", "VSwitch.forward_overlay_burst"): 0,
        ("link.py", "Link.transmit_burst"): 0,
    }
    modules = {"vswitch.py": vswitch, "link.py": link}
    for (filename, qualname), expected in census.items():
        # A counter reads 0 for a name that no longer exists: check it
        # does, so a rename cannot pass the census by counting nothing.
        cls_name, method = qualname.split(".")
        assert callable(getattr(getattr(modules[filename], cls_name),
                                method, None)), qualname
        assert calls[filename, qualname] == expected, qualname
    assert calls["link.py", "Link.transmit_run"] > 0


def test_hot_sim_fluid_template_is_never_mutated(monkeypatch):
    """The fluid elephant hands one template packet to every run of its
    flow, so no hop may rewrite it in place: after the micro-sims its
    bytes — memoized and re-encoded from its headers — are a freshly
    built data packet's."""
    from repro.fleet import hotsim
    flows = []

    class RecordingFlow(hotsim.ElephantFlow):
        def run(self, duration):
            flows.append(self)
            return super().run(duration)

    monkeypatch.setattr(hotsim, "ElephantFlow", RecordingFlow)
    for ratio in (1.0, 1.5, 5.0):
        simulate_hot_epoch(seed=7, demand_ratio=ratio, granted=False)
    for flow in flows:
        assert "_template" in vars(flow)      # the runs carried it
        template, fresh = flow._template, flow._data_packet()
        assert template.encode() == fresh.encode()
        assert Packet(template.layers, template.payload).encode() == \
            fresh.encode()
        assert template.meta == {}


# -- the experiment: byte-identity across shard counts ----------------------

def test_fleet_conservation_check_raises_not_asserts(monkeypatch):
    """Folded totals == fluid totals is checked by a raise, so it is
    still there under ``python -O``."""
    from repro.errors import SimulationError
    from repro.experiments import fleet

    def lossy(state, digest=fleet._shard_digest):
        out = digest(state)
        out["pkts"] -= 1
        return out

    monkeypatch.setattr(fleet, "_shard_digest", lossy)
    with pytest.raises(SimulationError, match="lost traffic"):
        fleet.run(shards=1, jobs=1, **FLEET_KWARGS)


def test_fleet_experiment_identical_across_shard_counts():
    from repro.experiments import fleet
    texts = {shards: fleet.run(shards=shards, jobs=1,
                               **FLEET_KWARGS).to_text()
             for shards in (1, 2, 4)}
    assert texts[1] == texts[2] == texts[4]
    assert "fleet" in texts[1]


def test_fleet_experiment_identical_with_pool_and_telemetry():
    """shards=2/jobs=2 (real process pool) with the telemetry stack
    installed must render the same table as the bare shards=1/jobs=1
    run — the test_flow_records_determinism composition."""
    from repro.experiments import fleet
    base = fleet.run(shards=1, jobs=1, **FLEET_KWARGS).to_text()
    telemetry.install(profile=True)
    try:
        composed = fleet.run(shards=2, jobs=2, **FLEET_KWARGS).to_text()
    finally:
        telemetry.uninstall()
    assert composed == base


def test_fleet_experiment_identity_matrix_shards_jobs():
    """The PR 8 determinism matrix, grown a telemetry axis by PR 10:
    every shards × jobs × telemetry combination renders the
    byte-identical table AND builds the identical fleet run record. jobs=1 is the in-process loop (no pool, no pickling);
    jobs=2 runs the shards on the resident worker pool (in-process again
    at shards=1, where one slot clamps to one worker); the telemetry
    axis proves observation never perturbs the run."""
    import itertools
    from repro.experiments import fleet
    base_stats = {}
    base = fleet.run(shards=1, jobs=1, stats=base_stats,
                     **FLEET_KWARGS).to_text()
    base_snapshot = base_stats["fleet_metrics"]
    assert base_snapshot["counters"]["vswitches"] > 0
    for shards, jobs, with_tel in itertools.product(
            (1, 2, 4), (1, 2), (False, True)):
        combo = (shards, jobs, with_tel)
        if with_tel:
            telemetry.install()
        try:
            stats = {}
            text = fleet.run(shards=shards, jobs=jobs, stats=stats,
                             **FLEET_KWARGS).to_text()
        finally:
            if with_tel:
                telemetry.uninstall()
        assert text == base, combo
        assert stats["fleet_metrics"] == base_snapshot, combo
        assert ("pool" in stats) == (min(shards, jobs) > 1), combo


def _digest_run(n_vswitches, jobs):
    from repro.experiments import fleet
    stats = {}
    text = fleet.run(n_vswitches=n_vswitches, epochs=2, seed=0, shards=2,
                     jobs=jobs, stats=stats).to_text()
    return text, stats


def test_fleet_pool_collects_digests_not_state():
    """The pool path reads the same totals and occupancy as the
    in-process loop, and what collect ships is flat in fleet size — a
    state round trip cannot come back silently."""
    inline_text, inline = _digest_run(400, jobs=1)
    pooled_text, pooled = _digest_run(400, jobs=2)
    assert pooled_text == inline_text
    assert pooled["state_nbytes"] == inline["state_nbytes"] > 0
    # Same shard layout => same slot recycling => same occupancy.
    assert pooled["store_stats"] == inline["store_stats"]
    assert len(pooled["store_stats"]) == 2
    assert "pool" not in inline                     # no pool, no IPC
    collect_bytes = pooled["pool"]["ipc"]["collect_bytes"]
    assert 0 < collect_bytes < 4096
    # 4x the fleet holds 4x the runs (a few per vSwitch) and moves
    # collect only by pickle's integer widths (the digests' 16
    # counters, <= 4 B each).
    _text, larger = _digest_run(1600, jobs=2)
    assert larger["state_nbytes"] > 3 * pooled["state_nbytes"]
    assert abs(larger["pool"]["ipc"]["collect_bytes"]
               - collect_bytes) <= 64


def test_shard_digest_materializes_once():
    """The digest is the materialization boundary: the first call folds
    and reports the pending totals, a second finds nothing pending and
    leaves the occupancy untouched (ROADMAP 3a idempotence)."""
    from repro.experiments.fleet import _shard_digest
    (state,) = _run_shards(400, 1, epochs=2)
    first = _shard_digest(state)
    assert first["pkts"] > 0 and first["bytes"] > 0
    assert first["live_flows"] == first["store"]["live"] > 0
    assert _shard_digest(state) == {**first, "pkts": 0, "bytes": 0}


def test_fleet_experiment_seed_sensitivity():
    from repro.experiments import fleet
    a = fleet.run(n_vswitches=200, epochs=2, seed=0, shards=1, jobs=1)
    b = fleet.run(n_vswitches=200, epochs=2, seed=1, shards=1, jobs=1)
    assert a.to_text() != b.to_text()


def _traced_peak(fn):
    """``fn()`` and the tracemalloc high-water mark it reached."""
    tracemalloc.start()
    try:
        value = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def test_fleet_peak_memory_quarter_of_naive_sessions():
    """ISSUE 7's bar, measured not assumed: the whole run's peak stays
    under 25% of what its live flows would cost as one boxed
    ``SessionState`` per flow in a dict — the representation the
    flyweight store replaces (and a conservative one: the naive layout
    would also pay a FiveTuple key per flow). ~0.096 today."""
    from repro.experiments import fleet
    from repro.vswitch.state import SessionState
    sample = 20_000
    _table, naive = _traced_peak(
        lambda: {index: SessionState() for index in range(sample)})
    result, peak = _traced_peak(lambda: fleet.run(
        n_vswitches=500, epochs=3, seed=0, shards=1, jobs=1))
    live_flows = result.row_where("metric", "live flows")["value"]
    assert live_flows > 100_000
    assert peak <= 0.25 * live_flows * naive / sample


# -- runner plumbing --------------------------------------------------------

def test_resolve_jobs_serializes_inside_workers(monkeypatch):
    from repro.experiments import parallel
    assert parallel.resolve_jobs(4, 8) == 4
    monkeypatch.setattr(parallel, "_IN_WORKER", True)
    assert parallel.resolve_jobs(4, 8) == 1
    assert parallel.resolve_jobs(None, 8) == 1


def test_sweep_inside_worker_runs_in_process(monkeypatch):
    from repro.experiments import parallel
    monkeypatch.setattr(parallel, "_IN_WORKER", True)
    # A nested pool would fork; in-worker the sweep must be the plain
    # loop, which works on unpicklable closures.
    captured = []
    result = parallel.sweep([1, 2, 3], lambda p: captured.append(p) or p * 2,
                            jobs=4)
    assert result == [2, 4, 6] and captured == [1, 2, 3]


def test_cli_fleet_shards_flag(capsys):
    from repro.experiments.runner import main
    assert main(["fleet", "--fast", "--shards", "2", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "== fleet:" in out
    assert "invariant to the shard count" in out


def test_cli_rejects_bad_shards(capsys):
    from repro.experiments.runner import main
    with pytest.raises(SystemExit):
        main(["fleet", "--shards", "0"])


def test_cli_fleet_resident_flag(capsys):
    """The residency switch is gone: the pool is chosen by the effective
    worker count alone, so the old flag is an unknown option."""
    from repro.experiments.runner import main
    for flag in ("--resident", "--no-resident"):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--fast", "--shards", "2", "--jobs", "2", flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert main(["fleet", "--fast", "--shards", "2", "--jobs", "2"]) == 0
    assert "residency mode" in capsys.readouterr().out


def test_runner_forwards_shards_only_when_accepted():
    from repro.experiments.runner import _run_kwargs

    def fleet_like(seed=0, jobs=1, shards=None):
        pass

    def classic(seed=0, jobs=1):
        pass

    assert _run_kwargs(fleet_like, 3, 2, 4) \
        == dict(seed=3, jobs=2, shards=4)
    assert _run_kwargs(fleet_like, 3, 2, None) == dict(seed=3, jobs=2)
    assert _run_kwargs(classic, 3, 2, 4) == dict(seed=3, jobs=2)
