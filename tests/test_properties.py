"""Hypothesis property tests on cross-cutting invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FiveTuple, IPv4Address, MacAddress, PROTO_TCP
from repro.sim import Engine, MemoryBudget, SeededRng
from repro.vswitch import CostModel, PreActions, SessionState, SessionTable
from repro.vswitch.session_table import EntryMode
from repro.vswitch.rule_tables import Location
from repro.core import FeSelector
from repro.workloads.fleet import QuantileDistribution

ports = st.integers(1, 65535)


def ft_from(sport: int, dport: int) -> FiveTuple:
    return FiveTuple(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"),
                     PROTO_TCP, sport, dport)


# -- engine ordering -------------------------------------------------------------

@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_engine_executes_in_time_order(times):
    engine = Engine()
    seen = []
    for t in times:
        engine.call_at(t, lambda t=t: seen.append(t))
    engine.run()
    assert seen == sorted(times)
    assert engine.now == max(times)


# -- session table memory invariant ------------------------------------------------

op = st.sampled_from(["insert", "remove", "demote", "promote", "sweep",
                      "invalidate"])


@given(st.lists(st.tuples(op, ports, st.integers(1, 3)),
                min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_session_table_memory_never_leaks(ops):
    """mem.used always equals the sum of charged entry bytes."""
    cm = CostModel.testbed()
    mem = MemoryBudget(10_000_000)
    table = SessionTable(mem, cm)
    now = 0.0
    for action, sport, vni in ops:
        now += 1.0
        ft = ft_from(sport, 80)
        if action == "insert":
            try:
                table.insert(vni, ft, PreActions(), SessionState(),
                             now, EntryMode.FULL)
            except Exception:
                pass
        elif action == "remove":
            table.remove(vni, ft)
        elif action == "demote":
            table.demote_vni(vni)
        elif action == "promote":
            entry = table.lookup(vni, ft)
            if entry is not None:
                table.promote(entry, PreActions())
        elif action == "sweep":
            table.sweep(now)
        elif action == "invalidate":
            table.invalidate_peer_flows(vni, ft.dst_ip.value)
        charged = sum(entry.charged_bytes for entry in table)
        assert mem.used == charged, (action, mem.used, charged)
    table.clear()
    assert mem.used == 0


# -- selector invariants ----------------------------------------------------------------

@given(st.integers(1, 12), st.lists(ports, min_size=1, max_size=50,
                                    unique=True))
@settings(max_examples=50, deadline=None)
def test_selector_pick_always_valid_and_stable(n_fes, sports):
    locations = [Location(IPv4Address(f"10.9.0.{i + 1}"), MacAddress(i + 1))
                 for i in range(n_fes)]
    selector = FeSelector(locations)
    for sport in sports:
        ft = ft_from(sport, 443)
        first = selector.pick(ft)
        assert first in locations
        assert selector.pick(ft) == first      # deterministic per flow


@given(st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_selector_remove_never_returns_removed(n_fes):
    locations = [Location(IPv4Address(f"10.8.0.{i + 1}"), MacAddress(i + 1))
                 for i in range(n_fes)]
    selector = FeSelector(locations)
    removed = locations[0]
    selector.remove(removed)
    for sport in range(1, 50):
        assert selector.pick(ft_from(sport, 80)) != removed


# -- quantile distribution --------------------------------------------------------------------

anchor_values = st.lists(st.floats(0.001, 1000.0), min_size=2, max_size=6)


@given(anchor_values, st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
@settings(max_examples=50, deadline=None)
def test_quantile_distribution_monotone(values, qs):
    values = sorted(values)
    n = len(values)
    anchors = [(i / (n - 1), v) for i, v in enumerate(values)]
    dist = QuantileDistribution(anchors)
    qs = sorted(qs)
    outs = [dist.quantile(q) for q in qs]
    assert all(b >= a - 1e-12 for a, b in zip(outs, outs[1:]))
    assert values[0] - 1e-9 <= outs[0]
    assert outs[-1] <= values[-1] + max(1e-9, values[-1] * 1e-9)


# -- RNG reproducibility across component trees --------------------------------------------------

@given(st.integers(0, 2**31), st.text(min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_rng_tree_reproducible(seed, label):
    a = SeededRng(seed).child(label).child("x")
    b = SeededRng(seed).child(label).child("x")
    assert [a.randint(0, 10**9) for _ in range(5)] == \
        [b.randint(0, 10**9) for _ in range(5)]


# -- five-tuple hash uniformity (sanity, not strict) -----------------------------------------------

def test_five_tuple_hash_spreads_over_buckets():
    counts = [0] * 8
    for sport in range(2000):
        counts[ft_from(sport + 1, 80).hash() % 8] += 1
    assert min(counts) > 150    # no bucket starved
    assert max(counts) < 350    # no bucket hogged


# -- decoder robustness: garbage never crashes, it raises DecodeError ---------------

@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_packet_decode_rejects_garbage_cleanly(data):
    from repro.errors import DecodeError, PacketError
    from repro.net import Packet
    for first_layer in ("ethernet", "ipv4"):
        try:
            Packet.decode(data, first_layer=first_layer)
        except (DecodeError, PacketError):
            pass  # rejection is the contract; crashes are not


@given(st.binary(min_size=8, max_size=64))
@settings(max_examples=100, deadline=None)
def test_nsh_decode_rejects_garbage_cleanly(data):
    from repro.errors import DecodeError
    from repro.net import NshHeader
    try:
        NshHeader.decode(data)
    except DecodeError:
        pass


# -- token bucket conservation ------------------------------------------------------

@given(st.floats(1e3, 1e9), st.integers(100, 100_000),
       st.lists(st.tuples(st.floats(0.0, 0.1), st.integers(40, 1500)),
                min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_token_bucket_never_exceeds_rate_plus_burst(rate_bps, burst, arrivals):
    from repro.vswitch.qos import TokenBucket
    bucket = TokenBucket(rate_bps, burst)
    now = 0.0
    admitted_bytes = 0
    for gap, nbytes in arrivals:
        now += gap
        if bucket.allow(nbytes, now):
            admitted_bytes += nbytes
    # Conservation: admitted bytes <= burst + rate * elapsed.
    ceiling = burst + (rate_bps / 8.0) * now + 1e-6
    assert admitted_bytes <= ceiling


def test_token_bucket_validation():
    from repro.errors import ConfigError
    from repro.vswitch.qos import TokenBucket
    with pytest.raises(ConfigError):
        TokenBucket(0)
    with pytest.raises(ConfigError):
        TokenBucket(100, 0)


def test_token_bucket_refills_over_time():
    from repro.vswitch.qos import TokenBucket
    bucket = TokenBucket(rate_bps=8000, burst_bytes=1000)  # 1000 B/s
    assert bucket.allow(1000, now=0.0)          # burst drained
    assert not bucket.allow(500, now=0.1)       # only 100B refilled
    assert bucket.allow(500, now=0.6)           # 600B refilled by now


# -- QoS run form == n one-packet calls -----------------------------------------

qos_arrivals = st.lists(
    st.tuples(st.floats(0.0, 0.05), st.integers(40, 1500),
              st.integers(1, 40)),
    min_size=1, max_size=20)


@given(st.floats(1e3, 1e8), st.integers(100, 20_000), qos_arrivals)
@settings(max_examples=60, deadline=None)
def test_token_bucket_run_equals_one_packet_calls(rate_bps, burst, arrivals):
    """``allow(nbytes, now, n)`` admits the same ``k`` as ``n`` one-packet
    calls at ``now``, and leaves bit-identical tokens and equal
    conformed / dropped counts."""
    from repro.vswitch.qos import TokenBucket
    run, one = TokenBucket(rate_bps, burst), TokenBucket(rate_bps, burst)
    now = 0.0
    for gap, nbytes, n in arrivals:
        now += gap
        k = run.allow(nbytes, now, n)
        assert k == sum(one.allow(nbytes, now) for _ in range(n))
        assert run.tokens.hex() == one.tokens.hex()
        assert (run.conformed, run.dropped) == (one.conformed, one.dropped)


def _qos_point(vnic_rate, flow_rate, burst):
    """The fields ``_qos_admits`` reads: a vSwitch (clock, enforcer,
    stats), a rate-limited vNIC and a flow-level pre-action."""
    from types import SimpleNamespace
    from repro.vswitch.qos import QosEnforcer
    vs = SimpleNamespace(engine=SimpleNamespace(now=0.0),
                         qos=QosEnforcer(burst),
                         stats=SimpleNamespace(qos_drops=0))
    vnic = SimpleNamespace(vnic_id=1, rate_limit_bps=vnic_rate)
    pre = SimpleNamespace(rate_limit_bps=flow_rate, qos_class=3)
    return vs, vnic, pre


def _bucket(vs, qos_class):
    bucket = vs.qos._buckets.get((1, qos_class))
    return None if bucket is None else (
        bucket.tokens.hex(), bucket.last_refill, bucket.conformed,
        bucket.dropped)


def _check_qos_admits_run(admits, vnic_rate, flow_rate, burst, arrivals):
    """``admits(…, n)`` against ``n`` one-packet calls on a vNIC-level
    plus flow-level bucket pair: the same prefix, the same ``qos_drops``
    and the same state in both buckets."""
    run = _qos_point(vnic_rate, flow_rate, burst)
    one = _qos_point(vnic_rate, flow_rate, burst)
    for gap, nbytes, n in arrivals:
        run[0].engine.now += gap
        one[0].engine.now += gap
        k = admits(*run, nbytes, n)
        singles = [admits(*one, nbytes) for _ in range(n)]
        assert _bucket(run[0], -1) == _bucket(one[0], -1), \
            "vNIC-level bucket"
        assert _bucket(run[0], 3) == _bucket(one[0], 3), "flow-level bucket"
        assert singles == [1] * k + [0] * (n - k), "admitted prefix"
        assert run[0].stats.qos_drops == one[0].stats.qos_drops, "qos_drops"


@given(st.floats(1e3, 1e8), st.floats(1e3, 1e8), st.integers(100, 20_000),
       qos_arrivals)
@settings(max_examples=60, deadline=None)
def test_qos_admits_run_equals_one_packet_calls(vnic_rate, flow_rate, burst,
                                                arrivals):
    from repro.vswitch.vswitch import _qos_admits
    _check_qos_admits_run(_qos_admits, vnic_rate, flow_rate, burst, arrivals)


def test_qos_admits_run_trips_on_its_mutant():
    """A run form that polices the flow-level bucket with all ``n``
    packets instead of the ``k`` the vNIC-level bucket admitted leaves
    the flow-level bucket in a state no one-packet sequence reaches."""
    import inspect
    import textwrap
    from repro.vswitch import vswitch as vswitch_module
    source = textwrap.dedent(inspect.getsource(vswitch_module._qos_admits))
    old = "pre.rate_limit_bps, nbytes, now, k)"
    assert source.count(old) == 1, f"mutation site moved: {old!r}"
    namespace = dict(vars(vswitch_module))
    exec(compile(source.replace(old, "pre.rate_limit_bps, nbytes, now, n)"),
                 vswitch_module.__file__, "exec"), namespace)
    # 3 000 B of burst admit 3 of 5 1 000 B packets at the vNIC level.
    with pytest.raises(AssertionError, match="flow-level bucket"):
        _check_qos_admits_run(namespace["_qos_admits"], 8000.0, 8e6, 3000,
                              [(0.0, 1000, 5)])
