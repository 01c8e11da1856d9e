"""Struct-of-arrays flow records.

The steady-state hot loop — FULL-mode session-table hits on established,
FSM-quiet flows — does not need Python objects per packet: a classified
run is fully described by its entry, its packet count, and its byte
total. :class:`FlowRecordStore` keeps the per-session mutable hot fields
(packet/byte counters, last-seen, a mode/policy flags word) in parallel
stdlib ``array`` columns indexed by a small integer slot stored on the
:class:`~repro.vswitch.session_table.SessionEntry`. A charged run is a
handful of C-level array adds; the deltas are folded back into the
boxed :class:`~repro.vswitch.state.SessionState` only at
*materialization boundaries* — aging sweeps, entry removal/demotion,
and any other point that reads the state object (see DESIGN.md §5.5).

Two deliberate deviations from a naive one-column-per-field layout:

* **QoS tokens** stay in the shared per-(vNIC, class) token buckets —
  flow-level limits are class-scoped, not session-scoped — and runs
  consume them through the closed-form
  :meth:`~repro.vswitch.qos.TokenBucket.allow_run`, which admits the
  same prefix of the run that per-packet policing would;
* the **flags column** is a cache (entry mode + stats policy snapshot)
  refreshed on every charge, never the source of truth: policy changes
  arrive through slow control paths (Nezha notify) that bypass slots.

The same columns carry fluid runs (``ElephantFlow(fluid=True)``): one
descriptor (template packet + count) crosses the whole pipeline, charged
with closed-form packet/byte/cycle deltas, and re-materializes into
per-packet processing at event boundaries (FSM changes, NAT, mirrors,
telemetry spans, offload demotion). ``tests/reference_datapath.py`` is
the per-packet oracle both forms are differentially tested against.
"""

from __future__ import annotations

from array import array
from typing import List

# flags-column bits: low two bits mirror StatsPolicy.value (BYTES=1,
# PACKETS=2, FULL=3); bit 2 marks the slot live.
FLAG_LIVE = 0x4
POLICY_MASK = 0x3


class FlowRecordStore:
    """Parallel-array flow records, one slot per stateful session entry."""

    __slots__ = ("packets_tx", "packets_rx", "bytes_tx", "bytes_rx",
                 "last_seen", "flags", "_free")

    def __init__(self) -> None:
        self.packets_tx = array("q")
        self.packets_rx = array("q")
        self.bytes_tx = array("q")
        self.bytes_rx = array("q")
        self.last_seen = array("d")
        self.flags = array("b")
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self.flags) - len(self._free)

    # -- slot lifecycle -----------------------------------------------------

    def alloc(self) -> int:
        """Claim a zeroed slot (recycling freed ones first)."""
        if self._free:
            slot = self._free.pop()
            self.packets_tx[slot] = 0
            self.packets_rx[slot] = 0
            self.bytes_tx[slot] = 0
            self.bytes_rx[slot] = 0
            self.last_seen[slot] = 0.0
            self.flags[slot] = FLAG_LIVE
            return slot
        slot = len(self.flags)
        self.packets_tx.append(0)
        self.packets_rx.append(0)
        self.bytes_tx.append(0)
        self.bytes_rx.append(0)
        self.last_seen.append(0.0)
        self.flags.append(FLAG_LIVE)
        return slot

    def free(self, slot: int) -> None:
        self.flags[slot] = 0
        self._free.append(slot)

    def clear(self) -> None:
        """Drop every slot (table-wide invalidation)."""
        del self.packets_tx[:]
        del self.packets_rx[:]
        del self.bytes_tx[:]
        del self.bytes_rx[:]
        del self.last_seen[:]
        del self.flags[:]
        self._free.clear()

    # -- run charging -------------------------------------------------------

    def charge(self, slot: int, tx: bool, n: int, nbytes: int,
               policy: int, now: float) -> None:
        """Account one classified run: ``n`` packets, ``nbytes`` total,
        observed at ``now``. ``policy`` is the live StatsPolicy value;
        gating here is bit-for-bit what ``SessionState.record_packet``
        applies per packet."""
        if policy:
            if tx:
                if policy & 1:
                    self.bytes_tx[slot] += nbytes
                if policy & 2:
                    self.packets_tx[slot] += n
            else:
                if policy & 1:
                    self.bytes_rx[slot] += nbytes
                if policy & 2:
                    self.packets_rx[slot] += n
        self.last_seen[slot] = now
        self.flags[slot] = FLAG_LIVE | (policy & POLICY_MASK)

    def touch(self, slot: int, now: float) -> None:
        """Run of ACL-dropped packets: aging advances, counters do not
        (``record_packet`` is skipped on a DROP verdict, ``touch`` is
        not)."""
        self.last_seen[slot] = now

    # -- materialization ----------------------------------------------------

    def flush(self, slot: int, state) -> None:
        """Fold a slot's deltas back into the boxed SessionState.

        Counter deltas commute with direct ``record_packet`` updates, so
        mixed per-packet/per-run traffic stays exact; ``last_seen``
        merges by max because single-packet paths touch the state object
        directly and either side may be ahead."""
        v = self.packets_tx[slot]
        if v:
            state.packets_tx += v
            self.packets_tx[slot] = 0
        v = self.packets_rx[slot]
        if v:
            state.packets_rx += v
            self.packets_rx[slot] = 0
        v = self.bytes_tx[slot]
        if v:
            state.bytes_tx += v
            self.bytes_tx[slot] = 0
        v = self.bytes_rx[slot]
        if v:
            state.bytes_rx += v
            self.bytes_rx[slot] = 0
        seen = self.last_seen[slot]
        if seen > state.last_seen:
            state.last_seen = seen
