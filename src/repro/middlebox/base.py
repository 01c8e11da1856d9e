"""Middlebox vSwitch-side profiles.

A profile captures what the middlebox's vNIC demands from its vSwitch:
the rule-table chain composition (how expensive a slow-path lookup is),
the bulk rule-table size (what #vNICs is bounded by), and the session
longevity (what the session table holds). Table 3's differences between
LB / NAT / TR come from these profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.addr import IPv4Address
from repro.vswitch.actions import Verdict
from repro.vswitch.costs import MB, CostModel
from repro.vswitch.rule_tables import (AclRule, AclTable, MappingTable,
                                       QosTable, RouteTable, StageTable)
from repro.vswitch.slow_path import SlowPath
from repro.vswitch.vswitch import make_standard_chain


@dataclass
class MiddleboxProfile:
    """vSwitch-side footprint of one middlebox type."""

    name: str
    has_acl: bool                    # TR bypasses the ACL (§6.3.1)
    acl_rules: int                   # access-control richness
    advanced_chain: bool             # mirrors/flow-log/policy routing
    table_memory_prod: int           # bulk rule tables, production bytes
    session_hold_time: float         # how long sessions linger (LB >> NAT)
    scale: float = 50.0              # testbed scaling divisor

    @property
    def table_memory_bytes(self) -> int:
        return int(self.table_memory_prod / self.scale)

    def build_chain(self, cost_model: CostModel) -> SlowPath:
        """The vNIC rule-table chain this middlebox type requires."""
        if self.has_acl:
            rules = [AclRule(priority=i + 10, verdict=Verdict.ACCEPT,
                             dst_port_range=(1, 65535))
                     for i in range(self.acl_rules)]
            acl = AclTable(rules)
            return make_standard_chain(cost_model, acl=acl,
                                       advanced=self.advanced_chain)
        # ACL-bypassing chain (transit router): 4 tables.
        tables = [QosTable(), StageTable("policy_route"), RouteTable(),
                  MappingTable(entry_bytes=cost_model.mapping_entry_bytes)]
        tables[2].add_route(IPv4Address("0.0.0.0"), 0)
        return SlowPath(tables, cost_model)


def lb_profile(scale: float = 50.0) -> MiddleboxProfile:
    """Server Load Balancer: ACL + advanced features, the largest session
    table (persistent real-server connections)."""
    return MiddleboxProfile(
        name="load-balancer", has_acl=True, acl_rules=200,
        advanced_chain=True, table_memory_prod=120 * MB,
        session_hold_time=120.0, scale=scale)


def nat_profile(scale: float = 50.0) -> MiddleboxProfile:
    """NAT gateway: ACL lookups, short-lived translations."""
    return MiddleboxProfile(
        name="nat-gateway", has_acl=True, acl_rules=300,
        advanced_chain=True, table_memory_prod=100 * MB,
        session_hold_time=8.0, scale=scale)


def tr_profile(scale: float = 50.0) -> MiddleboxProfile:
    """Transit router: bypasses the ACL — the simplest rule lookup."""
    return MiddleboxProfile(
        name="transit-router", has_acl=False, acl_rules=0,
        advanced_chain=False, table_memory_prod=100 * MB,
        session_hold_time=8.0, scale=scale)
