"""Regression tests for the fast-path caches added by the performance
overhaul: chain-level cost/memory caches, the ACL match buckets, the
packet flow-key memo, and the engine micro-queue's FIFO tie-break.

Every cache must be invisible: mutating the underlying data must be
reflected by the very next read.
"""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PacketError
from repro.net.addr import IPv4Address, MacAddress
from repro.net.ethernet import EthernetHeader
from repro.net.five_tuple import PROTO_ICMP, PROTO_TCP, PROTO_UDP, FiveTuple
from repro.net.ipv4 import IPv4Header
from repro.net.packet import Packet, make_underlay_transport
from repro.net.vxlan import VxlanHeader
from repro.sim import Engine
from repro.vswitch.actions import Direction, Verdict
from repro.vswitch.costs import CostModel
from repro.vswitch.rule_tables import (AclRule, AclTable, MappingEntry,
                                       Nat44Table, QosRule)
from repro.vswitch.vswitch import make_standard_chain

A = IPv4Address("10.0.0.1")
B = IPv4Address("10.0.0.2")


def make_chain():
    cost_model = CostModel()
    acl = AclTable()
    chain = make_standard_chain(cost_model, acl=acl)
    return chain, acl, cost_model


# -- chain-level caches ------------------------------------------------------


def test_lookup_cost_reflects_acl_mutation():
    chain, acl, cm = make_chain()
    cost_before = chain.lookup_cost(64)
    assert cost_before == cm.lookup_cycles(len(chain.tables), 0, 64)
    acl.add_rule(AclRule(priority=5, verdict=Verdict.DROP, proto=PROTO_TCP))
    acl.add_rule(AclRule(priority=4, verdict=Verdict.DROP, proto=PROTO_UDP))
    cost_after = chain.lookup_cost(64)
    assert cost_after == cm.lookup_cycles(len(chain.tables), 2, 64)
    assert cost_after > cost_before
    assert chain.acl_rule_count() == 2


def test_lookup_cost_matches_uncached_path_exactly():
    """The cached static term plus the byte term is the cost model's own
    formula, bit for bit, before and after a mutation re-derives it."""
    chain, acl, cm = make_chain()
    for n_rules in (1, 2):
        acl.add_rule(AclRule(priority=1, verdict=Verdict.DROP,
                             proto=PROTO_TCP))
        for nbytes in (64, 512, 1500):
            assert chain.lookup_cost(nbytes) == cm.lookup_cycles(
                len(chain.tables), n_rules, nbytes)


def test_memory_bytes_reflects_table_mutation():
    chain, acl, _cm = make_chain()
    base = chain.memory_bytes()
    acl.add_rule(AclRule(priority=1, verdict=Verdict.ACCEPT))
    assert chain.memory_bytes() == base + acl.rule_bytes
    route = chain.table("route")
    route.add_route(IPv4Address("10.1.0.0"), 16)
    assert chain.memory_bytes() == base + acl.rule_bytes + route.route_bytes
    mapping = chain.table("vnic_server_mapping")
    mapping.set_entry(7, B, MappingEntry(B, MacAddress(1), vni=7))
    assert chain.memory_bytes() == (base + acl.rule_bytes + route.route_bytes
                                    + mapping.entry_bytes)


def test_qos_add_rule_invalidates_chain():
    chain, _acl, _cm = make_chain()
    base = chain.memory_bytes()
    qos = chain.table("qos")
    qos.add_rule(QosRule(priority=3, qos_class=1))
    assert chain.memory_bytes() == base + qos.rule_bytes


def test_name_index_tracks_direct_chain_mutation():
    chain, _acl, _cm = make_chain()
    assert chain.table("nat44") is None
    nat = Nat44Table()
    chain.tables.insert(1, nat)          # direct list surgery, as tests do
    assert chain.table("nat44") is nat
    base = chain.memory_bytes()
    nat.add_mapping(A, IPv4Address("203.0.113.1"))
    assert chain.memory_bytes() == base + nat.entry_bytes
    chain.tables.remove(nat)
    assert chain.table("nat44") is None


def test_name_index_first_occurrence_wins():
    cost_model = CostModel()
    chain = make_standard_chain(cost_model, advanced=True)
    names = [t.name for t in chain.tables]
    for name in set(names):
        assert chain.table(name) is chain.tables[names.index(name)]


# -- ACL buckets -------------------------------------------------------------


def _random_rule(rng):
    return AclRule(
        priority=rng.randrange(0, 50),
        verdict=rng.choice([Verdict.ACCEPT, Verdict.DROP]),
        direction=rng.choice([None, Direction.TX, Direction.RX]),
        src_prefix=rng.choice([None, IPv4Address(rng.getrandbits(32))]),
        src_prefix_len=rng.randrange(0, 33),
        dst_prefix=rng.choice([None, IPv4Address(rng.getrandbits(32))]),
        dst_prefix_len=rng.randrange(0, 33),
        proto=rng.choice([None, PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
        src_port_range=rng.choice([None, (0, 1024), (80, 80)]),
        dst_port_range=rng.choice([None, (0, 65535), (443, 8443)]),
    )


def _random_tuple(rng):
    return FiveTuple(IPv4Address(rng.getrandbits(32)),
                     IPv4Address(rng.getrandbits(32)),
                     rng.choice([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 89]),
                     rng.randrange(0, 65536), rng.randrange(0, 65536))


def _priority_scan(acl, ft, direction):
    """The ACL's meaning, longhand: first match in priority order."""
    for rule in acl.rules:
        if rule.direction in (None, direction) and rule.matches(ft):
            return rule.verdict
    return acl.default_verdict


def test_bucketed_verdicts_match_full_scan():
    rng = random.Random(1234)
    acl = AclTable([_random_rule(rng) for _ in range(80)])
    probes = [_random_tuple(rng) for _ in range(300)]
    for ft in probes:
        for direction in (Direction.TX, Direction.RX):
            assert (acl._verdict(ft, direction)
                    == _priority_scan(acl, ft, direction))
    # Buckets must also stay correct across incremental mutation.
    for _ in range(20):
        acl.add_rule(_random_rule(rng))
        ft = _random_tuple(rng)
        for direction in (Direction.TX, Direction.RX):
            assert (acl._verdict(ft, direction)
                    == _priority_scan(acl, ft, direction))


def test_add_rule_keeps_stable_priority_order():
    acl = AclTable()
    first = AclRule(priority=10, verdict=Verdict.DROP)
    second = AclRule(priority=10, verdict=Verdict.ACCEPT)
    high = AclRule(priority=20, verdict=Verdict.DROP)
    low = AclRule(priority=1, verdict=Verdict.ACCEPT)
    for rule in (first, second, high, low):
        acl.add_rule(rule)
    assert acl.rules[0] is high
    assert acl.rules[1] is first       # equal priorities keep insert order
    assert acl.rules[2] is second
    assert acl.rules[3] is low
    # First match wins among equal priorities, so the tie-break is visible:
    assert acl._verdict(FiveTuple(A, B, PROTO_TCP, 1, 2),
                        Direction.TX) == Verdict.DROP


def test_prefix_mask_matches_in_prefix():
    rng = random.Random(99)
    for _ in range(200):
        prefix = IPv4Address(rng.getrandbits(32))
        length = rng.randrange(0, 33)
        rule = AclRule(priority=1, verdict=Verdict.DROP,
                       src_prefix=prefix, src_prefix_len=length)
        addr = IPv4Address(rng.getrandbits(32))
        ft = FiveTuple(addr, B, PROTO_TCP, 1, 2)
        assert rule.matches(ft) == addr.in_prefix(prefix, length)


# -- packet memoization ------------------------------------------------------


def test_five_tuple_memo_hit_and_explicit_invalidation():
    pkt = Packet.tcp(A, B, 1000, 80)
    ft = pkt.five_tuple()
    assert pkt.five_tuple() is ft              # memo hit: same object
    pkt.inner_ipv4().src = IPv4Address("9.9.9.9")
    pkt.invalidate_flow_cache()
    assert pkt.five_tuple().src_ip == IPv4Address("9.9.9.9")


def test_decap_invalidates_five_tuple_memo():
    """Name kept from when decap dropped the memo; the contract now is
    that the parse is *carried* across encap/decap and only an in-place
    header edit + ``invalidate_flow_cache()`` (or losing the headers the
    key was read from) ends it."""
    inner = Packet.tcp(A, B, 1000, 80, payload=b"x" * 7)
    ft = inner.five_tuple()
    wrapped = make_underlay_transport(
        MacAddress(1), MacAddress(2), IPv4Address("172.16.0.1"),
        IPv4Address("172.16.0.2"), inner, vni=7)
    wrapped.decap(5)                           # Eth/IPv4/UDP/VXLAN/Eth
    assert wrapped.five_tuple() is ft          # the same FiveTuple object
    assert wrapped.wire_length == inner.wire_length == 47
    # DESIGN §3: an in-place edit without invalidate_flow_cache() is not
    # visible to the memoized getters ...
    wrapped.expect(IPv4Header).src = IPv4Address("8.8.8.8")
    assert wrapped.five_tuple() is ft
    # ... and with it, it is.
    wrapped.invalidate_flow_cache()
    assert wrapped.five_tuple().src_ip == IPv4Address("8.8.8.8")
    # A decap that leaves no IPv4 header leaves no flow key either.
    wrapped.decap(1)
    with pytest.raises(PacketError):
        wrapped.five_tuple()


def test_encap_invalidates_wire_length():
    """Name kept from when encap dropped the memo; ``wire_length`` is now
    adjusted by the pushed/popped layers and must stay exact."""
    pkt = Packet.tcp(A, B, 1000, 80, payload=b"x" * 10)
    length = pkt.wire_length
    ft = pkt.five_tuple()
    pkt.encap(EthernetHeader(MacAddress(1), MacAddress(2)))
    assert pkt.wire_length == length + EthernetHeader.wire_length
    assert pkt.five_tuple() is ft
    pkt.encap(EthernetHeader(MacAddress(3), MacAddress(4)), VxlanHeader(9))
    assert pkt.wire_length == (length + 2 * EthernetHeader.wire_length
                               + VxlanHeader.wire_length)
    assert pkt.wire_length == sum(
        layer.wire_length for layer in pkt.layers) + len(pkt.payload)
    pkt.decap_until(IPv4Header)
    assert pkt.wire_length == length
    assert pkt.five_tuple() is ft
    assert len(pkt.encode()) == length         # encoded bytes were dropped


def test_copy_does_not_share_memo():
    pkt = Packet.tcp(A, B, 1000, 80)
    pkt.five_tuple()
    clone = pkt.copy()
    clone.inner_ipv4().src = IPv4Address("7.7.7.7")
    clone.invalidate_flow_cache()
    assert clone.five_tuple().src_ip == IPv4Address("7.7.7.7")
    assert pkt.five_tuple().src_ip == A


# -- engine micro-queue tie-break --------------------------------------------


def test_micro_queue_fifo_tie_break_documented_order():
    engine = Engine()
    order = []
    # Two heap entries at t=1.0; the first schedules a same-time callback.
    engine.call_at(1.0, lambda: (order.append("h1"),
                                 engine.call_soon(order.append, "soon")))
    engine.call_at(1.0, order.append, "h2")
    engine.run()
    # Heap entries at the current instant predate the micro-queue entry,
    # so the documented (time, scheduling-order) FIFO gives h1, h2, soon.
    assert order == ["h1", "h2", "soon"]


def test_call_after_zero_and_call_soon_interleave_fifo():
    engine = Engine()
    order = []

    def kick():
        engine.call_after(0.0, order.append, "a")
        engine.call_soon(order.append, "b")
        engine.call_after(0.0, order.append, "c")

    engine.call_at(2.0, kick)
    engine.run()
    assert order == ["a", "b", "c"]


class PureHeapEngine(Engine):
    """The textbook scheduler: every callback is a ``(time, seq)`` heap
    entry, same-instant ones included, and a batch is N pushes."""

    def call_at(self, when, fn, *args):
        assert when >= self.now
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def call_soon(self, fn, *args):
        self.call_at(self.now, fn, *args)

    def call_at_batch(self, items):
        for when, fn, args in items:
            self.call_at(when, fn, *args)

    def call_settled(self, when, fn, *args):
        # The settled entry written longhand: its definition.
        self.call_at(when, self.call_soon, fn, *args)


def _run_scrambled_schedule(engine):
    trace = []
    rng = random.Random(4242)

    def worker(tag, depth):
        if depth > 3:
            return
        trace.append((tag, engine.now))
        choice = rng.random()
        if choice < 0.3:
            engine.call_soon(worker, f"{tag}.s", depth + 1)
        elif choice < 0.5:
            engine.call_after(0.0, worker, f"{tag}.z", depth + 1)
        elif choice < 0.7:
            engine.call_after(0.25, worker, f"{tag}.d", depth + 1)
        elif choice < 0.85:
            now = engine.now
            engine.call_at_batch(
                [(now + dt, worker, (f"{tag}.b{dt}", depth + 1))
                 for dt in (0.0, 0.0, 0.25, 0.5)])

    def proc(tag):
        trace.append((f"{tag}:start", engine.now))
        yield None                        # cooperative yield
        trace.append((f"{tag}:mid", engine.now))
        yield engine.timeout(0.5)
        trace.append((f"{tag}:end", engine.now))

    for i in range(6):
        engine.call_at(float(i % 3) * 0.5, worker, f"w{i}", 0)
    for i in range(4):
        engine.process(proc(f"p{i}"))
    event = engine.event("tie")

    def waiter(idx):
        yield event
        trace.append((f"waiter{idx}", engine.now))

    for i in range(3):
        engine.process(waiter(i))
    engine.call_at(0.5, event.succeed, None)
    engine.run(until=10.0)
    return trace


def test_micro_queue_trace_identical_to_pure_heap():
    trace = _run_scrambled_schedule(Engine())
    assert trace == _run_scrambled_schedule(PureHeapEngine())
    assert any(".b" in tag for tag, _now in trace)       # batches unfolded


# Random schedules over a three-value dyadic time grid, so same-instant
# ties (settled vs heap vs batch vs micro-queue) are the common case and
# every sum is exact. An op is (kind, delay(s), children run by it).
_DELAYS = st.sampled_from([0.0, 0.25, 0.5])
_OPS = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["at", "soon", "settled"]),
                      _DELAYS, children),
            st.tuples(st.just("batch"),
                      st.lists(_DELAYS, min_size=1, max_size=3).map(sorted),
                      children)),
        max_size=3),
    max_leaves=12)
_CUT = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5])


def _trace_schedule(engine, phases):
    """Drive ``phases`` — (ops, run-until cut, labels to single-step) —
    and return the (time, label) trace. Stepping is by *labels*, not
    ``step()`` calls: a longhand settled entry spends one extra, silent
    step on its relay."""
    trace = []

    def fire(label, ops):
        trace.append((engine.now, label))
        schedule(label, ops)

    def schedule(parent, ops):
        now = engine.now
        for index, (kind, delay, children) in enumerate(ops):
            label = f"{parent}.{kind}{index}"
            if kind == "at":
                engine.call_at(now + delay, fire, label, children)
            elif kind == "soon":
                engine.call_soon(fire, label, children)
            elif kind == "settled":
                engine.call_settled(now + delay, fire, label, children)
            else:
                engine.call_at_batch(
                    [(now + dt, fire, (f"{label}/{i}", children))
                     for i, dt in enumerate(delay)])

    for number, (ops, cut, steps) in enumerate(phases):
        schedule(f"p{number}", ops)
        engine.run(until=engine.now + cut)
        target = len(trace) + steps
        while len(trace) < target and engine.step():
            pass
    engine.run()
    return trace


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_OPS, _CUT, st.integers(0, 4)),
                min_size=1, max_size=3))
def test_settled_entries_trace_identical_to_longhand_relay(phases):
    """``call_settled`` is *defined as* ``call_at(when, call_soon, fn)``;
    run, ``run(until=...)`` cuts and ``step()`` must all honour that
    against a pure heap running the longhand form.

    Recorded mutant: dropping ``heap[0][0] == when`` from the in-place
    condition (a settled callback runs before a same-instant heap entry
    scheduled after it) fails this property and the example below."""
    assert (_trace_schedule(Engine(), phases)
            == _trace_schedule(PureHeapEngine(), phases))


def test_settled_entry_is_one_event_unless_it_must_hop():
    engine = Engine()
    order = []
    engine.call_settled(1.0, order.append, "alone")
    assert engine.step() and order == ["alone"] and engine.pending == 0
    # Same instant: the heap entry pushed later still precedes the hop;
    # what that entry puts on the micro-queue lands behind it.
    engine.call_settled(2.0, order.append, "settled")
    engine.call_at(2.0, lambda: (order.append("heap"),
                                 engine.call_soon(order.append, "soon")))
    engine.run()
    assert order == ["alone", "heap", "settled", "soon"]
    # when == now is the relay itself: two micro-queue hops.
    engine.call_settled(engine.now, order.append, "now")
    engine.call_soon(order.append, "after")
    engine.run()
    assert order[-2:] == ["after", "now"]


def test_pending_counts_micro_queue():
    engine = Engine()
    engine.call_soon(lambda: None)
    engine.call_at(1.0, lambda: None)
    assert engine.pending == 2
    assert engine.step()
    assert engine.pending == 1


def test_step_drains_in_order():
    engine = Engine()
    order = []
    engine.call_soon(order.append, "a")
    engine.call_at(0.0, order.append, "b")     # same instant -> micro-queue
    engine.call_at(1.0, order.append, "c")
    engine.call_at_batch([(2.0, order.append, ("d",)),
                          (3.0, order.append, ("e",))])
    steps = 0
    while engine.step():
        steps += 1
        assert len(order) == steps      # one callback per step, batch too
    assert order == ["a", "b", "c", "d", "e"]
    assert engine.now == 3.0


def test_past_schedule_still_rejected():
    from repro.errors import SimulationError
    engine = Engine()
    engine.call_at(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.call_at(1.0, lambda: None)
