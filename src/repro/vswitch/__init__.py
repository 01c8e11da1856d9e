"""SmartNIC-based vSwitch: slow path, fast path, session table, rule tables.

This package implements the paper's Fig 1 architecture:

* **slow path** — per-vNIC rule-table chain (ACL, QoS, policy, VXLAN
  routing, vNIC-server mapping, plus the advanced chain's mirror /
  flow-log / policy-routing stages, which hold no rules); a lookup
  computes *bidirectional pre-actions* and costs CPU proportional to
  table count, ACL size and packet size;
* **fast path** — the session table caching bidirectional flows
  (VPC ID + 5-tuple → pre-actions) together with per-session *state*
  (TCP FSM, first-packet direction, statistics, aging);
* ``Action = func(pkt, rules, states)`` collapses to
  ``process_pkt(pre_actions, states)`` on the fast path.

CPU and memory are accounted against the SmartNIC budgets, which is where
the paper's three bottlenecks (CPS, #concurrent flows, #vNICs) emerge.
"""

from repro.vswitch.actions import (
    Direction, FinalAction, PreAction, PreActions, Verdict, process_pkt,
)
from repro.vswitch.costs import CostModel
from repro.vswitch.rule_tables import (
    AclRule, AclTable, Location, MappingEntry, MappingTable, QosTable,
    RouteTable, RuleTable, StageTable,
)
from repro.vswitch.session_table import SessionEntry, SessionTable
from repro.vswitch.slow_path import SlowPath
from repro.vswitch.state import SessionState, StatsPolicy
from repro.vswitch.tcp_fsm import TcpState, tcp_transition
from repro.vswitch.vnic import Vnic
from repro.vswitch.vswitch import (
    PROBE_PORT, Datapath, LocalDatapath, VSwitch, VSwitchStats,
    make_standard_chain,
)

__all__ = [
    "Direction", "Verdict", "PreAction", "PreActions", "FinalAction",
    "process_pkt",
    "CostModel",
    "RuleTable", "AclTable", "AclRule", "RouteTable", "QosTable",
    "MappingTable", "MappingEntry", "Location", "StageTable",
    "SessionTable", "SessionEntry",
    "SessionState", "StatsPolicy",
    "SlowPath",
    "TcpState", "tcp_transition",
    "Vnic",
    "VSwitch", "VSwitchStats", "Datapath", "LocalDatapath",
    "make_standard_chain", "PROBE_PORT",
]
