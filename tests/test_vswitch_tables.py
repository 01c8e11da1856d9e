"""Tests for rule tables and the slow-path chain."""

import pytest

from repro.net import FiveTuple, IPv4Address, MacAddress, PROTO_TCP, PROTO_UDP
from repro.vswitch import (
    AclRule, AclTable, CostModel, Direction, MappingEntry, MappingTable,
    PreActions, QosTable, RouteTable, SlowPath, Verdict,
)
from repro.vswitch.rule_tables import LookupContext, QosRule
from repro.vswitch.vswitch import make_standard_chain

FT = FiveTuple(IPv4Address("192.168.0.1"), IPv4Address("192.168.0.2"),
               PROTO_TCP, 1234, 80)


def ctx(ft=FT, vni=100, nbytes=64):
    return LookupContext(ft, vni, nbytes)


# -- ACL -----------------------------------------------------------------------

def test_acl_default_accept():
    pre = PreActions()
    AclTable().apply(ctx(), pre)
    assert pre.tx.verdict is Verdict.ACCEPT
    assert pre.rx.verdict is Verdict.ACCEPT


def test_acl_deny_all_rx():
    acl = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                            direction=Direction.RX)])
    pre = PreActions()
    acl.apply(ctx(), pre)
    assert pre.tx.verdict is Verdict.ACCEPT
    assert pre.rx.verdict is Verdict.DROP


def test_acl_priority_order():
    rules = [
        AclRule(priority=1, verdict=Verdict.DROP),
        AclRule(priority=100, verdict=Verdict.ACCEPT,
                dst_prefix=IPv4Address("192.168.0.0"), dst_prefix_len=16),
    ]
    pre = PreActions()
    AclTable(rules).apply(ctx(), pre)
    assert pre.tx.verdict is Verdict.ACCEPT  # high-priority accept wins


def test_acl_prefix_mismatch_falls_through():
    acl = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                            src_prefix=IPv4Address("172.16.0.0"),
                            src_prefix_len=12)],
                   default_verdict=Verdict.ACCEPT)
    pre = PreActions()
    acl.apply(ctx(), pre)
    assert pre.tx.verdict is Verdict.ACCEPT


def test_acl_port_range_matching():
    acl = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                            dst_port_range=(1, 1023))])
    pre = PreActions()
    acl.apply(ctx(), pre)  # dst port 80 in range
    assert pre.tx.verdict is Verdict.DROP
    high = FiveTuple(FT.src_ip, FT.dst_ip, PROTO_TCP, 1234, 8080)
    pre2 = PreActions()
    acl.apply(ctx(high), pre2)
    assert pre2.tx.verdict is Verdict.ACCEPT


def test_acl_proto_matching():
    acl = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                            proto=PROTO_UDP)])
    pre = PreActions()
    acl.apply(ctx(), pre)
    assert pre.tx.verdict is Verdict.ACCEPT


def test_acl_rx_matches_reversed_tuple():
    # Deny traffic *from* the peer: must set the RX verdict via reversal.
    acl = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                            src_prefix=IPv4Address("192.168.0.2"),
                            src_prefix_len=32)])
    pre = PreActions()
    acl.apply(ctx(), pre)
    assert pre.rx.verdict is Verdict.DROP
    assert pre.tx.verdict is Verdict.ACCEPT


def test_acl_memory_and_rule_count():
    acl = AclTable([AclRule(priority=i, verdict=Verdict.ACCEPT)
                    for i in range(10)], rule_bytes=64)
    assert acl.rule_count() == 10
    assert acl.memory_bytes() == 640


def test_acl_add_rule_keeps_priority_order():
    acl = AclTable([AclRule(priority=1, verdict=Verdict.DROP)])
    acl.add_rule(AclRule(priority=50, verdict=Verdict.ACCEPT))
    assert acl.rules[0].priority == 50


# -- RouteTable ------------------------------------------------------------------

def test_route_lpm_prefers_longest():
    route = RouteTable()
    route.add_route(IPv4Address("192.168.0.0"), 16, blackhole=False)
    route.add_route(IPv4Address("192.168.0.2"), 32, blackhole=True)
    assert route.lookup(IPv4Address("192.168.0.2")) is True     # /32 wins
    assert route.lookup(IPv4Address("192.168.0.3")) is False    # /16
    assert route.lookup(IPv4Address("10.0.0.1")) is None


def test_route_lpm_order_holds_across_interleaved_adds():
    """Lengths arrive out of order, lookups run between the adds, and a
    later add of a new length must still be probed before shorter ones:
    every answer equals the longhand longest match over routes so far."""
    adds = [("10.1.2.0", 24, True), ("10.0.0.0", 8, False),
            ("0.0.0.0", 0, True), ("10.1.2.3", 32, False),
            ("10.1.0.0", 16, True), ("10.1.2.0", 24, False),
            ("10.1.2.128", 25, True), ("10.1.0.0", 16, False)]
    probes = [IPv4Address(a) for a in ("10.1.2.3", "10.1.2.200", "10.1.9.9",
                                       "10.7.7.7", "192.0.2.1", "10.1.2.4")]
    route = RouteTable()
    added = {}
    for prefix, length, blackhole in adds:
        route.add_route(IPv4Address(prefix), length, blackhole=blackhole)
        added[(prefix, length)] = blackhole
        for dst in probes:
            matches = [(length_, hole) for (pfx, length_), hole
                       in added.items()
                       if dst.in_prefix(IPv4Address(pfx), length_)]
            want = max(matches)[1] if matches else None
            assert route.lookup(dst) is want, (dst, prefix, length)


def test_route_unrouted_dst_drops_tx_unoverridably():
    route = RouteTable()
    route.add_route(IPv4Address("192.168.0.0"), 24)  # covers both ends
    pre = PreActions()
    route.apply(ctx(), pre)
    assert pre.tx.verdict is Verdict.ACCEPT
    far = FiveTuple(FT.src_ip, IPv4Address("8.8.8.8"), PROTO_TCP, 1, 2)
    pre2 = PreActions()
    route.apply(ctx(far), pre2)
    assert pre2.tx.verdict is Verdict.DROP
    assert pre2.tx.stateful_acl is False


def test_route_validation():
    from repro.errors import TableError
    with pytest.raises(TableError):
        RouteTable().add_route(IPv4Address("0.0.0.0"), 40)


def test_route_memory_counts_unique_routes():
    route = RouteTable(route_bytes=32)
    route.add_route(IPv4Address("10.0.0.0"), 8)
    route.add_route(IPv4Address("10.0.0.0"), 8)  # duplicate
    route.add_route(IPv4Address("10.1.0.0"), 16)
    assert route.rule_count() == 2
    assert route.memory_bytes() == 64


# -- QosTable ---------------------------------------------------------------------

def test_qos_classifies_and_rate_limits():
    qos = QosTable([QosRule(priority=10, qos_class=3, rate_limit_bps=1e9,
                            dst_port_range=(80, 80))])
    pre = PreActions()
    qos.apply(ctx(), pre)
    assert pre.tx.qos_class == 3
    assert pre.rx.rate_limit_bps == 1e9


def test_qos_no_match_leaves_default():
    qos = QosTable([QosRule(priority=10, qos_class=3, proto=PROTO_UDP)])
    pre = PreActions()
    qos.apply(ctx(), pre)
    assert pre.tx.qos_class == 0


# -- MappingTable ------------------------------------------------------------------

def test_mapping_sets_next_hop():
    mapping = MappingTable()
    mapping.set_entry(100, FT.dst_ip, MappingEntry(
        IPv4Address("10.0.0.5"), MacAddress(5), vni=100))
    pre = PreActions()
    mapping.apply(ctx(), pre)
    assert pre.tx.next_hop_ip == IPv4Address("10.0.0.5")
    assert pre.tx.vni == 100


def test_mapping_miss_drops_tx():
    pre = PreActions()
    MappingTable().apply(ctx(), pre)
    assert pre.tx.verdict is Verdict.DROP


def test_mapping_is_vni_scoped():
    mapping = MappingTable()
    mapping.set_entry(999, FT.dst_ip, MappingEntry(
        IPv4Address("10.0.0.5"), MacAddress(5), vni=999))
    assert mapping.lookup(100, FT.dst_ip) is None


def test_mapping_remove_and_memory():
    mapping = MappingTable(entry_bytes=2048)
    mapping.set_entry(1, IPv4Address("1.1.1.1"),
                      MappingEntry(IPv4Address("10.0.0.1"), MacAddress(1), 1))
    assert mapping.memory_bytes() == 2048
    mapping.remove_entry(1, IPv4Address("1.1.1.1"))
    assert mapping.memory_bytes() == 0


# -- SlowPath ------------------------------------------------------------------------------

def test_standard_chain_has_five_tables():
    chain = make_standard_chain(CostModel.testbed())
    assert len(chain.tables) == 5


def test_advanced_chain_has_twelve_tables():
    chain = make_standard_chain(CostModel.testbed(), advanced=True)
    assert len(chain.tables) == 12


BASIC = ("acl", "qos", "policy_route", "route", "vnic_server_mapping")
ADVANCED = BASIC + ("mirror", "flow_log", "policy_route", "mirror",
                    "flow_log", "qos", "policy_route")
#: name -> (table names in order, lookup_cost(64), lookup_cost(1500),
#: memory_bytes()) on the testbed cost model, recorded before the
#: rule-less stages became ``StageTable``s.
PINNED_CHAINS = {
    "basic": (BASIC, 1473.76, 1962.0, 32),
    "advanced": (ADVANCED, 2733.76, 3222.0, 32),
    "load-balancer": (ADVANCED, 2906.884066890119, 3395.1240668901187,
                      12832),
    "nat-gateway": (ADVANCED, 2929.688099031881, 3417.9280990318807, 19232),
    "transit-router": (BASIC[1:], 1473.76, 1962.0, 32),
}


def test_chains_keep_every_lookup_stage():
    """Fig 2, Table 3 and every CPS number charge a lookup by its chain's
    length, so a stage that holds no rules still has to be there."""
    from repro.middlebox.base import lb_profile, nat_profile, tr_profile
    cm = CostModel.testbed()
    chains = {"basic": make_standard_chain(cm),
              "advanced": make_standard_chain(cm, advanced=True)}
    for profile in (lb_profile(), nat_profile(), tr_profile()):
        chains[profile.name] = profile.build_chain(cm)
    for name, chain in chains.items():
        got = (tuple(t.name for t in chain.tables), chain.lookup_cost(64),
               chain.lookup_cost(1500), chain.memory_bytes())
        assert got == PINNED_CHAINS[name], f"{name} chain moved"


def test_slow_path_cost_grows_with_tables_rules_and_bytes():
    cm = CostModel.testbed()
    basic = make_standard_chain(cm)
    advanced = make_standard_chain(cm, advanced=True)
    assert advanced.lookup_cost(64) > basic.lookup_cost(64)
    assert basic.lookup_cost(512) > basic.lookup_cost(64)
    acl = AclTable([AclRule(priority=i, verdict=Verdict.ACCEPT)
                    for i in range(1000)])
    with_rules = make_standard_chain(cm, acl=acl)
    assert with_rules.lookup_cost(64) > basic.lookup_cost(64)


def test_slow_path_lookup_returns_pre_and_cost():
    cm = CostModel.testbed()
    chain = make_standard_chain(cm)
    chain.table("vnic_server_mapping").set_entry(
        100, FT.dst_ip,
        MappingEntry(IPv4Address("10.0.0.2"), MacAddress(2), 100))
    pre, cycles = chain.lookup(ctx())
    assert pre.tx.next_hop_ip == IPv4Address("10.0.0.2")
    assert cycles == pytest.approx(chain.lookup_cost(64))
    assert chain.lookups == 1


def test_slow_path_memory_sums_tables():
    cm = CostModel.testbed()
    acl = AclTable([AclRule(priority=1, verdict=Verdict.ACCEPT)],
                   rule_bytes=64)
    chain = make_standard_chain(cm, acl=acl)
    assert chain.memory_bytes() >= 64


def test_slow_path_table_by_name():
    chain = make_standard_chain(CostModel.testbed())
    assert chain.table("acl") is chain.tables[0]
    assert chain.table("nope") is None
