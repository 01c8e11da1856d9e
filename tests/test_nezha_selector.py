"""Tests for the hash-based FE selector (repro.core.load_balancer)."""

from collections import Counter

import pytest

from repro.errors import ConfigError
from repro.net import FiveTuple, IPv4Address, MacAddress
from repro.vswitch.rule_tables import Location
from repro.core import FeSelector


def loc(i):
    return Location(IPv4Address(f"10.0.0.{i}"), MacAddress(i))


def flows(n, dst_port=80):
    return [FiveTuple(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                      6, 1024 + i, dst_port) for i in range(n)]


def test_pick_requires_fes():
    with pytest.raises(ConfigError):
        FeSelector().pick(flows(1)[0])


def test_pick_is_deterministic_per_flow():
    selector = FeSelector([loc(1), loc(2), loc(3)])
    ft = flows(1)[0]
    assert selector.pick(ft) == selector.pick(ft)


def test_flows_spread_across_fes():
    selector = FeSelector([loc(i) for i in range(1, 5)])
    shares = Counter(selector.pick(ft) for ft in flows(400))
    assert len(shares) == 4
    assert all(count > 50 for count in shares.values())


def test_add_duplicate_rejected():
    selector = FeSelector([loc(1)])
    with pytest.raises(ConfigError):
        selector.add(loc(1))


def test_remove_shifts_only_affected_flows():
    selector = FeSelector([loc(1), loc(2), loc(3), loc(4)])
    fts = flows(200)
    before = {ft: selector.pick(ft) for ft in fts}
    selector.remove(loc(4))
    after = {ft: selector.pick(ft) for ft in fts}
    # Every flow previously on loc(4) moved; others may move too (modulo
    # hashing, no consistent hashing by design) but most importantly no
    # flow still maps to the removed FE.
    assert all(location != loc(4) for location in after.values())
    moved_from_dead = [ft for ft in fts if before[ft] == loc(4)]
    assert moved_from_dead  # some flows were on the removed FE
