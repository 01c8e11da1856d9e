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
``RuleTable._bump``; see DESIGN.md §3 for the invariant). The chain
itself is a tuple fixed at construction, so the name index never goes
stale.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.vswitch.actions import PreActions
from repro.vswitch.costs import CostModel
from repro.vswitch.rule_tables import AclTable, LookupContext, RuleTable


class SlowPath:
    """An ordered rule-table chain with cost accounting."""

    def __init__(self, tables: List[RuleTable], cost_model: CostModel) -> None:
        self.tables: Tuple[RuleTable, ...] = tuple(tables)
        self.cost_model = cost_model
        self.lookups = 0
        self._acl_rule_count: Optional[int] = None
        self._memory_bytes: Optional[int] = None
        self._static_cycles: Optional[float] = None
        for table in self.tables:
            table._attach(self)
        # First occurrence wins on duplicate names (the advanced 12-table
        # chain repeats table names).
        self._by_name: Dict[str, RuleTable] = {
            t.name: t for t in reversed(self.tables)}

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
