"""Flyweight records for the fleet's quiescent ("cold") flows.

At 10K vSwitches the fleet holds millions of concurrent connections,
nearly all of them on vSwitches far below their capacity. Boxing each as
a :class:`~repro.vswitch.state.SessionState` (plus a key object and a
table entry) costs hundreds of bytes per flow — gigabytes fleet-wide —
for state that is only ever *accumulated into*, never branched on.

:class:`FleetFlowStore` generalizes the
:class:`~repro.vswitch.flow_records.FlowRecordStore` idea one level up:
per-flow packet/byte counters live in parallel stdlib ``array`` columns
(16 bytes per flow), and a vSwitch owns its slots as a *block*: a flat
``array('q')`` of ``start, length`` extents in logical slot order — one
extent if it only ever grew, a few more once churn has recycled other
vSwitches' freed ranges into it. There is no per-flow index (cost: 16 B
per flow + O(extents) per vSwitch) and no per-flow Python: blocks grow,
shrink and fold an extent at a time, the per-slot work done in C. Epoch
traffic is *not* written per flow at all. Each vSwitch carries two
pending integers (packets, bytes) that the shard advances per epoch in
O(1); the columns are touched only at flow churn (bounded per epoch; the
seed epoch grows them once, :meth:`reserve`) and at the final
*materialization boundary*, where :meth:`fold` writes the pending
aggregate uniformly across the vSwitch's live slots with exact integer
remainder bookkeeping — the same flush-at-boundary discipline DESIGN.md
§5.5 established for the hot datapath.

Nothing output-visible may depend on slot numbering: freed extents are
recycled across vSwitches within a shard, so slot ids differ between
shard layouts while every folded total is identical.
"""

from __future__ import annotations

import sys
from array import array
from typing import Tuple

#: Bytes per flow held in the store's columns (two ``'q'`` counters).
BYTES_PER_FLOW = 16

if sys.byteorder != "little":  # pragma: no cover
    # fold() reads the columns' memory as one little-endian integer.
    raise ImportError("repro.fleet.flyweight needs a little-endian host")

_LANE_ONE = (1).to_bytes(8, "little")


class FleetFlowStore:
    """Struct-of-arrays flow counters for one shard's vSwitch range."""

    __slots__ = ("packets", "bytes", "_free")

    def __init__(self) -> None:
        self.packets = array("q")
        self.bytes = array("q")
        #: LIFO stack of free extents, flat like a block.
        self._free = array("q")

    def __len__(self) -> int:
        """Live slots (allocated minus freed)."""
        return len(self.packets) - sum(self._free[1::2])

    @property
    def capacity(self) -> int:
        """Slots ever allocated (the memory high-water mark)."""
        return len(self.packets)

    def nbytes(self) -> int:
        """Payload bytes held by the columns and the free stack."""
        return (self.packets.itemsize * len(self.packets)
                + self.bytes.itemsize * len(self.bytes)
                + self._free.itemsize * len(self._free))

    def stats(self) -> dict:
        """Occupancy snapshot for runtime instrumentation. Capacity and
        free slots depend on intra-shard slot recycling (i.e. on the
        shard layout), so these numbers belong in the run's ``stats``
        side channel, never in the deterministic metric snapshot."""
        live = len(self)
        return {"live": live, "capacity": self.capacity,
                "free": self.capacity - live, "nbytes": self.nbytes()}

    # -- slot lifecycle -----------------------------------------------------

    def reserve(self, n: int) -> None:
        """Grow both columns by ``n`` zeroed slots at once and push them
        onto the free stack as one extent: on an empty stack the next
        allocations pop its head, the ascending slot numbers ``n``
        appends would give, with no realloc chain. The second column
        grows from the first one's zeroed tail, not from a zero buffer."""
        start = len(self.packets)
        self.packets.frombytes(bytes(8 * n))
        with memoryview(self.packets).cast("B") as raw:
            self.bytes.frombytes(raw[8 * start:])
        if n:
            self._free.extend((start, n))

    def alloc_block(self, block: "array[int]", n: int) -> None:
        """Append ``n`` zeroed slots to ``block`` — recycled or reserved
        extents first (the top of the free stack is split when it is
        longer than needed), then one ``frombytes`` extension of both
        columns for the rest. An extent that starts where the block's
        last one ends is merged into it."""
        free = self._free
        while n > 0:
            if free:
                # Take the extent's head: a block re-growing over its own
                # trimmed tail merges straight back into one extent.
                start, take = free[-2], min(n, free[-1])
                free[-2] += take
                free[-1] -= take
                if not free[-1]:
                    del free[-2:]
                zeros = array("q", bytes(8 * take))
                self.packets[start:start + take] = zeros
                self.bytes[start:start + take] = zeros
            else:
                start, take = len(self.packets), n
                self.packets.frombytes(bytes(8 * n))
                self.bytes.frombytes(bytes(8 * n))
            if block and block[-2] + block[-1] == start:
                block[-1] += take
            else:
                block.extend((start, take))
            n -= take

    def free_block(self, block: "array[int]", n: int) -> None:
        """Trim the last ``n`` slots off ``block`` onto the free stack
        (counters left in place: a dead flow's folded history is part of
        the fleet totals until the slot is recycled)."""
        while n > 0:
            take = min(n, block[-1])
            block[-1] -= take
            self._free.extend((block[-2] + block[-1], take))
            if not block[-1]:
                del block[-2:]
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

        The fold runs an extent at a time in C. An all-zero extent (in
        a run, every one: its single fold finds the slots as allocation
        zeroed them) is *written* — bumped lanes, then share lanes, by
        one slice assignment; exact, as ``0 + x = x``. Otherwise the
        extent's bytes are one little-endian integer whose 64-bit lanes
        are its counters, and adding ``share`` times the repunit (a 1 in
        every lane) adds ``share`` to each. Lanes and shares are below
        2**63, so no sum carries into a neighbour; one with bit 63 set
        no longer fits a signed ``'q'`` and raises ``OverflowError``
        before its extent is written back, as ``column[slot] += share``
        would — so a bumped lane of ``2**63`` takes the add even over
        zeros (DESIGN §5.6)."""
        n = sum(block[1::2])
        if n == 0 or (pending_packets == 0 and pending_bytes == 0):
            return (0, 0)
        packets_share, packets_extra = divmod(pending_packets, n)
        bytes_share, bytes_extra = divmod(pending_bytes, n)
        if packets_share >> 63 or bytes_share >> 63:
            raise OverflowError("per-slot share outside [0, 2**63)")
        with memoryview(self.packets).cast("B") as raw_packets, \
                memoryview(self.bytes).cast("B") as raw_bytes:
            columns = [(raw, share, extra, share.to_bytes(8, "little"),
                        (share + 1).to_bytes(8, "little"))
                       for raw, share, extra in (
                           (raw_packets, packets_share, packets_extra),
                           (raw_bytes, bytes_share, bytes_extra))]
            done = 0  # slots of the block already folded
            for k in range(0, len(block), 2):
                length = block[k + 1]
                lo = 8 * block[k]
                hi = lo + 8 * length
                for raw, share, extra, lane, bumped_lane in columns:
                    bumped = min(max(extra - done, 0), length)
                    extent = raw[lo:hi]
                    if (extent.tobytes() == bytes(hi - lo)
                            and not (bumped and (share + 1) >> 63)):
                        raw[lo:hi] = (bumped_lane * bumped
                                      + lane * (length - bumped))
                        continue
                    ones = int.from_bytes(_LANE_ONE * length, "little")
                    lanes = (int.from_bytes(extent, "little")
                             + share * ones + (ones >> 64 * (length - bumped)))
                    if lanes & ones << 63:
                        raise OverflowError("flow counter exceeds 63 bits")
                    raw[lo:hi] = lanes.to_bytes(8 * length, "little")
                done += length
        return (pending_packets, pending_bytes)

    def totals(self) -> Tuple[int, int]:
        """Sum of every slot's counters (dead slots included: they hold
        their folded history until recycled)."""
        return (sum(self.packets), sum(self.bytes))
