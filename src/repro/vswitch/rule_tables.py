"""Rule tables: the stateless, offloadable half of the vSwitch.

Each table implements :meth:`RuleTable.apply`, folding its lookup result
into the bidirectional :class:`~repro.vswitch.actions.PreActions`, and
reports its memory footprint (what Nezha frees on the BE by moving the
table to FEs). A basic vNIC chain has five tables — ACL, QoS, policy,
VXLAN routing, vNIC-server mapping (§2.2.2) — and advanced features
(policy routing, mirroring, flow logging) push it toward twelve. No
experiment populates those advanced stages, so they are rule-less
:class:`StageTable` lookups that cost what a table costs and do nothing.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TableError
from repro.net.addr import IPv4Address, MacAddress
from repro.net.five_tuple import FiveTuple
from repro.vswitch.actions import Direction, PreActions, Verdict


@dataclass
class LookupContext:
    """Inputs to a slow-path lookup: the flow key and tenant identity."""

    five_tuple: FiveTuple
    vni: int
    packet_bytes: int = 64


class RuleTable:
    """Base class: named, sized, and applied in chain order.

    Tables notify the chains that contain them (via :meth:`_bump`) whenever
    a mutator runs, so a :class:`~repro.vswitch.slow_path.SlowPath` can
    cache chain-level aggregates (rule counts, memory, lookup cost) and
    invalidate them only when something actually changes. Every mutator
    method MUST call ``self._bump()`` — mutating a table's internals
    directly bypasses the invalidation (see DESIGN.md §3).
    """

    name = "table"

    def __init__(self) -> None:
        self._chains: List = []

    def _attach(self, chain) -> None:
        """Register a chain whose caches depend on this table."""
        self._chains.append(chain)

    def _bump(self) -> None:
        """Invalidate every dependent chain cache after a mutation."""
        for chain in self._chains:
            chain.invalidate_caches()

    def apply(self, ctx: LookupContext, pre: PreActions) -> None:
        raise NotImplementedError

    def memory_bytes(self) -> int:
        raise NotImplementedError

    def rule_count(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rule_count()} rules)"


# -- ACL ---------------------------------------------------------------------


def _prefix_mask(prefix: Optional[IPv4Address],
                 length: int) -> Tuple[int, int]:
    """(mask, masked prefix value) for integer prefix matching.

    ``addr & mask == net`` is equivalent to ``addr.in_prefix(prefix, len)``
    but costs one AND + compare instead of two shifts through method calls.
    """
    if prefix is None:
        return 0, 0
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return mask, IPv4Address(prefix).value & mask


@dataclass
class AclRule:
    """One prioritized ACL rule with prefix and port-range matching."""

    priority: int
    verdict: Verdict
    direction: Optional[Direction] = None       # None = both directions
    src_prefix: Optional[IPv4Address] = None
    src_prefix_len: int = 0
    dst_prefix: Optional[IPv4Address] = None
    dst_prefix_len: int = 0
    proto: Optional[int] = None
    src_port_range: Optional[Tuple[int, int]] = None
    dst_port_range: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        self._src_mask, self._src_net = _prefix_mask(self.src_prefix,
                                                     self.src_prefix_len)
        self._dst_mask, self._dst_net = _prefix_mask(self.dst_prefix,
                                                     self.dst_prefix_len)

    def matches(self, ft: FiveTuple) -> bool:
        if self.proto is not None and ft.proto != self.proto:
            return False
        return self._matches_addrs_ports(ft)

    def _matches_addrs_ports(self, ft: FiveTuple) -> bool:
        """Prefix/port matching only — proto and direction are already
        guaranteed by the bucket an :class:`AclTable` pulled the rule from."""
        if ft.src_ip.value & self._src_mask != self._src_net:
            return False
        if ft.dst_ip.value & self._dst_mask != self._dst_net:
            return False
        if self.src_port_range is not None:
            lo, hi = self.src_port_range
            if not lo <= ft.src_port <= hi:
                return False
        if self.dst_port_range is not None:
            lo, hi = self.dst_port_range
            if not lo <= ft.dst_port <= hi:
                return False
        return True


class AclTable(RuleTable):
    """A stateful ACL: per-direction verdicts, overridable by session state.

    ``default_verdict`` applies when no rule matches; rules are evaluated
    in descending priority. The TX direction is matched against the flow's
    5-tuple as sent, the RX direction against the reversed tuple — one
    lookup fills both directions of the cached flow.
    """

    name = "acl"

    def __init__(self, rules: List[AclRule] = None,
                 default_verdict: Verdict = Verdict.ACCEPT,
                 rule_bytes: int = 64) -> None:
        super().__init__()
        self.rules = sorted(rules or [], key=lambda r: -r.priority)
        self.default_verdict = default_verdict
        self.rule_bytes = rule_bytes
        # direction -> {proto or None -> priority-ordered candidate rules}.
        # Wildcard-proto rules are replicated into every proto bucket; the
        # None bucket serves protocols with no specific rules. Rebuilt
        # lazily after mutations.
        self._buckets: Optional[Dict[Direction,
                                     Dict[Optional[int],
                                          List[AclRule]]]] = None

    def add_rule(self, rule: AclRule) -> None:
        # insort_right on the negated priority == stable append-then-sort:
        # equal priorities keep insertion order.
        insort(self.rules, rule, key=lambda r: -r.priority)
        self._buckets = None
        self._bump()

    def _build_buckets(self) -> None:
        buckets: Dict[Direction, Dict[Optional[int], List[AclRule]]] = {}
        protos = {r.proto for r in self.rules if r.proto is not None}
        for direction in (Direction.TX, Direction.RX):
            per: Dict[Optional[int], List[AclRule]] = {None: []}
            for proto in protos:
                per[proto] = []
            for rule in self.rules:     # already priority-ordered
                if rule.direction is not None and rule.direction != direction:
                    continue
                if rule.proto is None:
                    for bucket in per.values():
                        bucket.append(rule)
                else:
                    per[rule.proto].append(rule)
            buckets[direction] = per
        self._buckets = buckets

    def _verdict(self, ft: FiveTuple, direction: Direction) -> Verdict:
        if self._buckets is None:
            self._build_buckets()
        per = self._buckets[direction]
        bucket = per.get(ft.proto)
        if bucket is None:
            bucket = per[None]
        for rule in bucket:
            if rule._matches_addrs_ports(ft):
                return rule.verdict
        return self.default_verdict

    def apply(self, ctx: LookupContext, pre: PreActions) -> None:
        pre.tx.verdict = self._verdict(ctx.five_tuple, Direction.TX)
        pre.rx.verdict = self._verdict(ctx.five_tuple.reversed(), Direction.RX)

    def memory_bytes(self) -> int:
        return len(self.rules) * self.rule_bytes

    def rule_count(self) -> int:
        return len(self.rules)


# -- Routing (LPM) ----------------------------------------------------------------


class RouteTable(RuleTable):
    """Longest-prefix-match VXLAN route table.

    Routes admit destinations (and can blackhole them); an unrouted
    destination drops at TX time.
    """

    name = "route"

    def __init__(self, route_bytes: int = 32) -> None:
        super().__init__()
        # prefix length -> {masked prefix value -> blackhole?}
        self._by_len: Dict[int, Dict[int, bool]] = {}
        self._count = 0
        self.route_bytes = route_bytes

    def add_route(self, prefix: IPv4Address, length: int,
                  blackhole: bool = False) -> None:
        if not 0 <= length <= 32:
            raise TableError(f"bad prefix length {length}")
        masked = prefix.value >> (32 - length) if length else 0
        bucket = self._by_len.setdefault(length, {})
        if masked not in bucket:
            self._count += 1
        bucket[masked] = blackhole
        self._bump()

    def lookup(self, dst: IPv4Address) -> Optional[bool]:
        """Returns blackhole flag of the longest match, or None."""
        for length in sorted(self._by_len, reverse=True):
            masked = dst.value >> (32 - length) if length else 0
            bucket = self._by_len[length]
            if masked in bucket:
                return bucket[masked]
        return None

    def apply(self, ctx: LookupContext, pre: PreActions) -> None:
        found = self.lookup(ctx.five_tuple.dst_ip)
        if found is None or found:
            pre.tx.verdict = Verdict.DROP
            pre.tx.stateful_acl = False  # routing drops are not overridable
        rev = self.lookup(ctx.five_tuple.src_ip)
        if rev is None or rev:
            pre.rx.verdict = Verdict.DROP
            pre.rx.stateful_acl = False

    def memory_bytes(self) -> int:
        return self._count * self.route_bytes

    def rule_count(self) -> int:
        return self._count


# -- QoS ------------------------------------------------------------------------------


@dataclass
class QosRule:
    priority: int
    qos_class: int
    rate_limit_bps: Optional[float] = None
    proto: Optional[int] = None
    dst_port_range: Optional[Tuple[int, int]] = None

    def matches(self, ft: FiveTuple) -> bool:
        if self.proto is not None and ft.proto != self.proto:
            return False
        if self.dst_port_range is not None:
            lo, hi = self.dst_port_range
            if not lo <= ft.dst_port <= hi:
                return False
        return True


class QosTable(RuleTable):
    """Classifies flows into QoS classes with optional rate limits."""

    name = "qos"

    def __init__(self, rules: List[QosRule] = None, rule_bytes: int = 48) -> None:
        super().__init__()
        self.rules = sorted(rules or [], key=lambda r: -r.priority)
        self.rule_bytes = rule_bytes

    def add_rule(self, rule: QosRule) -> None:
        insort(self.rules, rule, key=lambda r: -r.priority)
        self._bump()

    def apply(self, ctx: LookupContext, pre: PreActions) -> None:
        for rule in self.rules:
            if rule.matches(ctx.five_tuple):
                for pa in (pre.tx, pre.rx):
                    pa.qos_class = rule.qos_class
                    pa.rate_limit_bps = rule.rate_limit_bps
                return

    def memory_bytes(self) -> int:
        return len(self.rules) * self.rule_bytes

    def rule_count(self) -> int:
        return len(self.rules)


# -- vNIC-server mapping ----------------------------------------------------------------


@dataclass(frozen=True)
class Location:
    """One underlay endpoint (a server's fabric address)."""

    underlay_ip: IPv4Address
    underlay_mac: MacAddress


class MappingEntry:
    """Where a tenant IP is served: one location (its BE) or, when the vNIC
    is offloaded, the set of its FE locations (Fig 7: "IP/MAC of FE 1-N").

    Senders pick among multiple locations by 5-tuple hash — this is how
    Nezha spreads a vNIC's ingress flows across FEs without consistent or
    symmetric hashing (§3.2.3).
    """

    __slots__ = ("locations", "vni", "version")

    def __init__(self, underlay_ip: IPv4Address = None,
                 underlay_mac: MacAddress = None, vni: int = 0,
                 locations: Optional[List[Location]] = None,
                 version: int = 0) -> None:
        if locations is not None:
            self.locations = list(locations)
        else:
            if underlay_ip is None or underlay_mac is None:
                raise TableError("MappingEntry needs a location")
            self.locations = [Location(underlay_ip, underlay_mac)]
        if not self.locations:
            raise TableError("MappingEntry needs at least one location")
        self.vni = vni
        self.version = version

    @property
    def underlay_ip(self) -> IPv4Address:
        return self.locations[0].underlay_ip

    @property
    def underlay_mac(self) -> MacAddress:
        return self.locations[0].underlay_mac

    def select(self, ft: FiveTuple) -> Location:
        """Hash-pick one location for this flow."""
        if len(self.locations) == 1:
            return self.locations[0]
        return self.locations[ft.hash() % len(self.locations)]

    def __repr__(self) -> str:
        ips = ",".join(str(loc.underlay_ip) for loc in self.locations)
        return f"MappingEntry(vni={self.vni}, [{ips}], v{self.version})"


class MappingTable(RuleTable):
    """The vNIC-server mapping: tenant (vni, ip) → server underlay address.

    The global copy lives at the gateway; vSwitches hold learned subsets.
    Large VPCs need O(100K) entries ≈ 200 MB (§2.2.2), which is what makes
    #vNICs memory-bound.
    """

    name = "vnic_server_mapping"

    def __init__(self, entry_bytes: int = 2048) -> None:
        super().__init__()
        self._entries: Dict[Tuple[int, int], MappingEntry] = {}
        self.entry_bytes = entry_bytes

    def set_entry(self, vni: int, tenant_ip: IPv4Address,
                  entry: MappingEntry) -> None:
        self._entries[(vni, IPv4Address(tenant_ip).value)] = entry
        self._bump()

    def remove_entry(self, vni: int, tenant_ip: IPv4Address) -> None:
        self._entries.pop((vni, IPv4Address(tenant_ip).value), None)
        self._bump()

    def lookup(self, vni: int, tenant_ip: IPv4Address) -> Optional[MappingEntry]:
        return self._entries.get((vni, IPv4Address(tenant_ip).value))

    def entries(self) -> Dict[Tuple[int, int], MappingEntry]:
        return dict(self._entries)

    def apply(self, ctx: LookupContext, pre: PreActions) -> None:
        entry = self.lookup(ctx.vni, ctx.five_tuple.dst_ip)
        if entry is None:
            pre.tx.verdict = Verdict.DROP
            pre.tx.stateful_acl = False
            return
        location = entry.select(ctx.five_tuple)
        pre.tx.next_hop_ip = location.underlay_ip
        pre.tx.next_hop_mac = location.underlay_mac
        pre.tx.vni = entry.vni

    def memory_bytes(self) -> int:
        return len(self._entries) * self.entry_bytes

    def rule_count(self) -> int:
        return len(self._entries)


# -- lookup stages no run populates -------------------------------------------------


class StageTable(RuleTable):
    """A chain stage that holds no rules: the policy-route, mirror and
    flow-log positions of §2.2.2's chains. It applies nothing and pins
    no memory, but it is a table of the chain, so every lookup still
    pays its per-table cost."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def apply(self, ctx: LookupContext, pre: PreActions) -> None:
        pass

    def memory_bytes(self) -> int:
        return 0
