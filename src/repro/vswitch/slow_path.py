"""The slow path: a per-vNIC chain of rule tables.

One lookup runs every table in chain order, producing *bidirectional*
pre-actions (Fig 1 caches both directions at once), and reports its CPU
cost from the cost model: base + extra tables + ACL rules + packet bytes
(the dependencies Table A1 measures).

The chain caches everything that is constant between table mutations —
the ACL rule count, the chain memory footprint, the static component of
the lookup cost, and a name→table index — so the per-lookup work is one
dict probe per table plus a multiply-add for the byte term. Tables
invalidate the caches through :meth:`invalidate_caches`, wired up via
``RuleTable._attach`` at construction (every mutator calls
``RuleTable._bump``; see DESIGN.md §3 for the invariant).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.vswitch.actions import PreActions
from repro.vswitch.costs import CostModel
from repro.vswitch.rule_tables import AclTable, LookupContext, RuleTable


class _ChainTables(list):
    """The chain's table list: every list mutation notifies the owning
    :class:`SlowPath` so the name index and cached aggregates stay fresh
    even for code that edits ``slow_path.tables`` directly."""

    def __init__(self, items, chain: "SlowPath") -> None:
        super().__init__(items)
        self._chain = chain

    def _note(self) -> None:
        self._chain._on_tables_changed()

    def append(self, item) -> None:
        super().append(item)
        self._note()

    def insert(self, index, item) -> None:
        super().insert(index, item)
        self._note()

    def extend(self, items) -> None:
        super().extend(items)
        self._note()

    def remove(self, item) -> None:
        super().remove(item)
        self._note()

    def pop(self, index=-1):
        item = super().pop(index)
        self._note()
        return item

    def clear(self) -> None:
        super().clear()
        self._note()

    def sort(self, **kwargs) -> None:
        super().sort(**kwargs)
        self._note()

    def reverse(self) -> None:
        super().reverse()
        self._note()

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self._note()

    def __delitem__(self, index) -> None:
        super().__delitem__(index)
        self._note()

    def __iadd__(self, items):
        result = super().__iadd__(items)
        self._note()
        return result


class SlowPath:
    """An ordered rule-table chain with cost accounting."""

    def __init__(self, tables: List[RuleTable], cost_model: CostModel) -> None:
        self.tables = _ChainTables(tables, self)
        self.cost_model = cost_model
        self.lookups = 0
        self._acl_rule_count: Optional[int] = None
        self._memory_bytes: Optional[int] = None
        self._static_cycles: Optional[float] = None
        self._by_name: Dict[str, RuleTable] = {}
        self._on_tables_changed()

    def _on_tables_changed(self) -> None:
        """Rebuild the name index and re-wire invalidation after the
        chain's table list itself changed."""
        for table in self.tables:
            if self not in table._chains:
                table._attach(self)
        # First occurrence wins on duplicate names (the advanced 12-table
        # chain repeats table types).
        self._by_name = {t.name: t for t in reversed(self.tables)}
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop every chain-level cache; called when a table mutates."""
        self._acl_rule_count = None
        self._memory_bytes = None
        self._static_cycles = None

    def table(self, name: str) -> Optional[RuleTable]:
        return self._by_name.get(name)

    def acl_rule_count(self) -> int:
        count = self._acl_rule_count
        if count is None:
            count = sum(t.rule_count() for t in self.tables
                        if isinstance(t, AclTable))
            self._acl_rule_count = count
        return count

    def lookup_cost(self, packet_bytes: int) -> float:
        """Cycle cost of one lookup, chargeable before running it."""
        static = self._static_cycles
        if static is None:
            static = self.cost_model.lookup_cycles_static(
                len(self.tables), self.acl_rule_count())
            self._static_cycles = static
        return static + packet_bytes * self.cost_model.cycles_per_byte

    def lookup(self, ctx: LookupContext) -> Tuple[PreActions, float]:
        """Run the chain; returns (bidirectional pre-actions, cycle cost)."""
        self.lookups += 1
        pre = PreActions()
        for table in self.tables:
            table.apply(ctx, pre)
        return pre, self.lookup_cost(ctx.packet_bytes)

    def memory_bytes(self) -> int:
        """Total rule-table memory this chain pins on its host."""
        total = self._memory_bytes
        if total is None:
            total = sum(table.memory_bytes() for table in self.tables)
            self._memory_bytes = total
        return total
