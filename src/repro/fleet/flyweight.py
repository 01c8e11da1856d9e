"""Flyweight records for the fleet's quiescent ("cold") flows.

At 10K vSwitches the fleet holds millions of concurrent connections,
nearly all of them on vSwitches far below their capacity. Boxing each as
a :class:`~repro.vswitch.state.SessionState` (plus a key object and a
table entry) costs hundreds of bytes per flow — gigabytes fleet-wide —
for state that is only ever *accumulated into*, never branched on.

:class:`FleetFlowStore` generalizes the
:class:`~repro.vswitch.flow_records.FlowRecordStore` idea one level up,
and then drops the per-flow columns too: the only write a flow counter
ever sees is :meth:`fold`, which adds one share to every slot of a
vSwitch at once. So the store keeps *runs* — ``start, length, packets,
bytes`` quads in a flat ``array('q')``, every slot of a run holding the
same two counters. A vSwitch owns its slots as a *block* (one of
``store.blocks``): its runs in logical slot order — one if it only ever
grew, a few more once churn has recycled other vSwitches' freed ranges
into it or a fold has split it at its remainder boundary. Freed slots
sit on a LIFO stack of runs that keep their counters. Memory is O(runs),
a few per vSwitch, not O(flows); nothing is written per slot.

Epoch traffic is not written per flow at all. Each vSwitch carries two
pending integers (packets, bytes) that the shard advances per epoch in
O(1); the runs are touched only at flow churn (bounded per epoch) and
at the final *materialization boundary*, where :meth:`fold` spreads the
pending aggregate across the vSwitch's live slots with exact integer
remainder bookkeeping — the same flush-at-boundary discipline DESIGN.md
§5.5 established for the hot datapath.

Nothing output-visible may depend on slot numbering: freed runs are
recycled across vSwitches within a shard, so slot ids differ between
shard layouts while every folded total is identical.
"""

from __future__ import annotations

from array import array
from operator import mul
from typing import List, Tuple


class FleetFlowStore:
    """Run-length flow counters for one shard's vSwitch range."""

    __slots__ = ("blocks", "capacity", "_free")

    def __init__(self, blocks: int) -> None:
        #: One run array per vSwitch, in the shard's local index order.
        self.blocks: List["array[int]"] = [array("q") for _ in range(blocks)]
        #: Slots ever allocated (the high-water mark): the next new id.
        self.capacity = 0
        #: LIFO stack of free runs, flat like a block.
        self._free = array("q")

    def __len__(self) -> int:
        """Live slots (allocated minus freed)."""
        return self.capacity - sum(self._free[1::4])

    def nbytes(self) -> int:
        """Payload bytes held by the blocks' and the free stack's runs."""
        return 8 * (len(self._free) + sum(map(len, self.blocks)))

    def stats(self) -> dict:
        """Occupancy snapshot for runtime instrumentation. Capacity and
        free slots depend on intra-shard slot recycling (i.e. on the
        shard layout), so these numbers belong in the run's ``stats``
        side channel, never in the deterministic metric snapshot."""
        live = len(self)
        return {"live": live, "capacity": self.capacity,
                "free": self.capacity - live, "nbytes": self.nbytes()}

    # -- slot lifecycle -----------------------------------------------------

    def alloc_block(self, block: "array[int]", n: int) -> None:
        """Append ``n`` zeroed slots to ``block`` — free runs first, LIFO,
        head first (the top run is split when it is longer than needed),
        then ``n`` new ascending ids for the rest. Recycled slots come
        back as a zero run; one that starts where the block's last run
        ends, with that run still zero, is merged into it."""
        free = self._free
        while n > 0:
            if free:
                # Take the run's head: a block re-growing over its own
                # trimmed tail merges straight back into one run.
                start, take = free[-4], min(n, free[-3])
                free[-4] += take
                free[-3] -= take
                if not free[-3]:
                    del free[-4:]
            else:
                start, take = self.capacity, n
                self.capacity += n
            if (block and block[-4] + block[-3] == start
                    and not block[-2] and not block[-1]):
                block[-3] += take
            else:
                block.extend((start, take, 0, 0))
            n -= take

    def free_block(self, block: "array[int]", n: int) -> None:
        """Trim the last ``n`` slots off ``block`` onto the free stack
        (counters kept: a dead flow's folded history is part of the
        fleet totals until the slot is recycled)."""
        free = self._free
        while n > 0:
            take = min(n, block[-3])
            block[-3] -= take
            free.extend((block[-4] + block[-3], take, block[-2], block[-1]))
            if not block[-3]:
                del block[-4:]
            n -= take

    # -- materialization ----------------------------------------------------

    def fold(self, block: "array[int]", pending_packets: int,
             pending_bytes: int) -> Tuple[int, int]:
        """Distribute one vSwitch's pending epoch aggregate over its live
        slots: every slot gets the integer share, the first
        ``remainder`` slots get one extra — exact by construction, and
        independent of which physical slot ids the vSwitch holds.
        Returns the (packets, bytes) actually folded; with no live slots
        the pending amounts stay with the caller.

        Each run takes the shares as two additions; a run is split only
        where a remainder boundary falls inside it, so a fold adds at
        most two runs. The folded runs are built in a new array and
        copied over the block at the end: a counter that would reach
        2**63 does not fit a signed ``'q'`` and raises ``OverflowError``
        before anything of the block is written (DESIGN §5.6)."""
        n = sum(block[1::4])
        if n == 0 or (pending_packets == 0 and pending_bytes == 0):
            return (0, 0)
        packets_share, packets_extra = divmod(pending_packets, n)
        bytes_share, bytes_extra = divmod(pending_bytes, n)
        stops = (*sorted((packets_extra, bytes_extra)), n)
        folded = array("q")
        cut = 0  # slots of the block already folded
        runs = iter(block)
        for start, length, packets, nbytes in zip(runs, runs, runs, runs):
            packets += packets_share
            nbytes += bytes_share
            end = cut + length
            for stop in stops:
                if stop > cut:  # the run's next piece is [cut, stop)
                    if stop > end:
                        stop = end
                    folded.extend((start, stop - cut,
                                   packets + (cut < packets_extra),
                                   nbytes + (cut < bytes_extra)))
                    start += stop - cut
                    cut = stop
                    if cut == end:
                        break
        block[:] = folded
        return (pending_packets, pending_bytes)

    def totals(self) -> Tuple[int, int]:
        """Sum of every slot's counters, read off the runs (dead slots
        included: they hold their folded history until recycled)."""
        runs = (self._free, *self.blocks)
        return (sum(sum(map(mul, r[1::4], r[2::4])) for r in runs),
                sum(sum(map(mul, r[1::4], r[3::4])) for r in runs))
