"""The session table: the fast path's exact-match store.

Entries are keyed by (VNI, direction-independent session key) and hold the
cached bidirectional pre-actions together with the session state, exactly
one entry per session (§2.1). Under Nezha the same structure serves three
roles, selected per entry:

* ``FULL``        — traditional local vSwitch: pre-actions + state;
* ``FLOWS_ONLY``  — an FE's cached flows: pre-actions, no state;
* ``STATE_ONLY``  — a BE's residue: state, no pre-actions.

Memory is charged to a :class:`~repro.sim.resources.MemoryBudget`; an
exhausted budget makes inserts raise :class:`~repro.errors.TableFull`,
which is how "#concurrent flows limited by memory" manifests.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import TableFull
from repro.net.five_tuple import FiveTuple
from repro.sim.resources import MemoryBudget
from repro.vswitch.actions import PreActions
from repro.vswitch.costs import CostModel
from repro.vswitch.flow_records import FlowRecordStore
from repro.vswitch.state import SessionState

MEM_TAG = "session_table"

# Entry overhead per role. A full entry is ~96B of keys/pre-actions plus the
# state slot; a state-only entry keeps a compact key and the state slot.
FLOWS_KEY_BYTES = 96
STATE_KEY_BYTES = 32


class EntryMode(enum.Enum):
    FULL = "full"
    FLOWS_ONLY = "flows_only"
    STATE_ONLY = "state_only"


class SessionEntry:
    """One bidirectional session.

    ``slot`` indexes the table's :class:`FlowRecordStore` column arrays
    (-1 when the entry carries no state or has been released);
    ``encap`` caches the entry's :class:`~repro.net.packet.EncapTemplate`
    and is dropped whenever the route may change (demotion, promotion,
    peer invalidation).
    """

    __slots__ = ("vni", "five_tuple", "pre_actions", "state", "mode",
                 "charged_bytes", "slot", "encap")

    def __init__(self, vni: int, five_tuple: FiveTuple,
                 pre_actions: Optional[PreActions],
                 state: Optional[SessionState],
                 mode: EntryMode, charged_bytes: int) -> None:
        self.vni = vni
        self.five_tuple = five_tuple
        self.pre_actions = pre_actions
        self.state = state
        self.mode = mode
        self.charged_bytes = charged_bytes
        self.slot = -1
        self.encap = None

    def __repr__(self) -> str:
        return (f"SessionEntry({self.five_tuple!r}, vni={self.vni}, "
                f"mode={self.mode.value})")


Key = Tuple[int, tuple]


class SessionTable:
    """Exact-match session store with aging and byte-accurate accounting."""

    def __init__(self, mem: MemoryBudget, cost_model: CostModel,
                 variable_state: bool = False) -> None:
        self.mem = mem
        self.cost_model = cost_model
        self.variable_state = variable_state
        self._entries: Dict[Key, SessionEntry] = {}
        self.records = FlowRecordStore()
        self.inserts = 0
        self.insert_failures = 0
        self.aged_out = 0

    @staticmethod
    def _key(vni: int, five_tuple: FiveTuple) -> Key:
        return (vni, five_tuple.session_key())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SessionEntry]:
        return iter(list(self._entries.values()))

    # -- lookups -------------------------------------------------------------

    def lookup(self, vni: int, five_tuple: FiveTuple) -> Optional[SessionEntry]:
        """Exact-match probe.

        The burst datapath performs *one* lookup per per-flow run and
        holds the returned entry across the whole burst. That is sound
        because nothing here mutates between same-instant packets of one
        flow: entries are identity-stable (demote/promote/invalidate
        rewrite fields in place rather than replacing the object), so a
        held entry observes any concurrent demotion — the batched
        completion re-checks ``pre_actions``/``state`` exactly like the
        per-packet path does.
        """
        return self._entries.get(self._key(vni, five_tuple))

    def __contains__(self, key: Tuple[int, FiveTuple]) -> bool:
        vni, five_tuple = key
        return self._key(vni, five_tuple) in self._entries

    # -- sizing ---------------------------------------------------------------

    def _entry_bytes(self, mode: EntryMode,
                     state: Optional[SessionState]) -> int:
        if mode is EntryMode.FLOWS_ONLY:
            return FLOWS_KEY_BYTES
        if self.variable_state and state is not None:
            state_bytes = state.variable_size()
        else:
            state_bytes = self.cost_model.state_bytes_fixed
        key_bytes = (STATE_KEY_BYTES if mode is EntryMode.STATE_ONLY
                     else FLOWS_KEY_BYTES)
        return key_bytes + state_bytes

    # -- mutation ---------------------------------------------------------------

    def insert(self, vni: int, five_tuple: FiveTuple,
               pre_actions: Optional[PreActions],
               state: Optional[SessionState],
               now: float, mode: EntryMode = EntryMode.FULL) -> SessionEntry:
        """Create a session entry, charging memory; raises TableFull."""
        key = self._key(vni, five_tuple)
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        nbytes = self._entry_bytes(mode, state)
        if not self.mem.try_alloc(MEM_TAG, nbytes):
            self.insert_failures += 1
            raise TableFull(
                f"session table full ({len(self._entries)} entries, "
                f"{self.mem.used}/{self.mem.capacity}B)")
        if state is not None:
            state.created_at = now
            state.last_seen = now
        entry = SessionEntry(vni, five_tuple, pre_actions, state, mode, nbytes)
        if state is not None:
            entry.slot = self.records.alloc()
        self._entries[key] = entry
        self.inserts += 1
        return entry

    def _release(self, entry: SessionEntry) -> None:
        """Materialization boundary for a dying entry: fold any pending
        flow-record deltas into its state, recycle the slot, free memory."""
        if entry.slot >= 0:
            self.records.flush(entry.slot, entry.state)
            self.records.free(entry.slot)
            entry.slot = -1
        self.mem.free(MEM_TAG, entry.charged_bytes)

    def remove(self, vni: int, five_tuple: FiveTuple) -> bool:
        key = self._key(vni, five_tuple)
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._release(entry)
        return True

    def clear(self) -> int:
        """Drop every entry (rule-table change invalidation); returns count."""
        count = len(self._entries)
        for entry in self._entries.values():
            self._release(entry)
        self._entries.clear()
        self.records.clear()
        return count

    def remove_vni(self, vni: int, mode: Optional[EntryMode] = None) -> int:
        """Drop all entries of one tenant (vNIC offload/fallback),
        optionally restricted to one entry mode."""
        doomed = [k for k, e in self._entries.items()
                  if e.vni == vni and (mode is None or e.mode is mode)]
        for key in doomed:
            entry = self._entries.pop(key)
            self._release(entry)
        return len(doomed)

    def demote_vni(self, vni: int) -> int:
        """Convert a tenant's FULL entries to STATE_ONLY, freeing the cached
        pre-actions (Nezha offload activation); returns entries converted."""
        converted = 0
        for entry in self._entries.values():
            if entry.vni != vni or entry.mode is not EntryMode.FULL:
                continue
            new_bytes = self._entry_bytes(EntryMode.STATE_ONLY, entry.state)
            delta = entry.charged_bytes - new_bytes
            if delta > 0:
                self.mem.free(MEM_TAG, delta)
            entry.pre_actions = None
            entry.mode = EntryMode.STATE_ONLY
            entry.charged_bytes = new_bytes
            entry.encap = None
            if entry.slot >= 0:
                self.records.flush(entry.slot, entry.state)
            converted += 1
        return converted

    def promote(self, entry: SessionEntry, pre_actions: PreActions) -> bool:
        """Convert a STATE_ONLY entry back to FULL by attaching pre-actions
        (Nezha fallback, lazily on first packet); False if memory is out."""
        if entry.mode is EntryMode.FULL:
            return True
        new_bytes = self._entry_bytes(EntryMode.FULL, entry.state)
        delta = new_bytes - entry.charged_bytes
        if delta > 0 and not self.mem.try_alloc(MEM_TAG, delta):
            return False
        entry.pre_actions = pre_actions
        entry.mode = EntryMode.FULL
        entry.charged_bytes = new_bytes
        entry.encap = None
        return True

    def invalidate_peer_flows(self, vni: int, peer_ip_value: int) -> int:
        """Rule-table change invalidation (Fig 1): drop cached pre-actions
        for flows touching ``peer_ip``; they regenerate via the slow path.

        FULL entries are demoted to STATE_ONLY (session state survives);
        FLOWS_ONLY entries are removed outright. Returns entries affected.
        """
        affected = 0
        doomed = []
        for key, entry in self._entries.items():
            if entry.vni != vni:
                continue
            ft = entry.five_tuple
            if peer_ip_value not in (ft.src_ip.value, ft.dst_ip.value):
                continue
            if entry.mode is EntryMode.FULL:
                new_bytes = self._entry_bytes(EntryMode.STATE_ONLY,
                                              entry.state)
                delta = entry.charged_bytes - new_bytes
                if delta > 0:
                    self.mem.free(MEM_TAG, delta)
                entry.pre_actions = None
                entry.mode = EntryMode.STATE_ONLY
                entry.charged_bytes = new_bytes
                entry.encap = None
                if entry.slot >= 0:
                    self.records.flush(entry.slot, entry.state)
                affected += 1
            elif entry.mode is EntryMode.FLOWS_ONLY:
                doomed.append(key)
        for key in doomed:
            entry = self._entries.pop(key)
            self._release(entry)
            affected += 1
        return affected

    def sweep(self, now: float) -> int:
        """Age out idle sessions (state-dependent timeouts, §7.3).

        A sweep is a materialization boundary: run-charged activity lives
        in the flow-record columns until flushed here, so ``last_seen``
        (and thus ``expired``) observes it exactly as the per-packet path
        would have recorded it.
        """
        doomed = []
        records = self.records
        for key, entry in self._entries.items():
            state = entry.state
            if state is None:
                continue
            if entry.slot >= 0:
                records.flush(entry.slot, state)
            if state.expired(now):
                doomed.append(key)
        for key in doomed:
            entry = self._entries.pop(key)
            self._release(entry)
        self.aged_out += len(doomed)
        return len(doomed)

    # -- capacity -------------------------------------------------------------------

    def capacity_estimate(self, mode: EntryMode = EntryMode.FULL) -> int:
        """How many more entries of ``mode`` would fit right now."""
        per_entry = self._entry_bytes(mode, None)
        return self.mem.available() // per_entry
