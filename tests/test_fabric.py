"""Tests for the underlay fabric: links, switches, topology, ECMP."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.fabric import Link, ServerNode, Topology, UnderlaySwitch
from repro.fabric.topology import connect
from repro.net import IPv4Address, MacAddress, Packet, TcpFlags
from repro.net.ipv4 import IPv4Header
from repro.sim import Engine


def mk_server(engine, name, ip, mac=1):
    return ServerNode(engine, name, IPv4Address(ip), MacAddress(mac))


def mk_packet(src="10.0.0.1", dst="10.1.0.1", sport=1000, dport=80):
    return Packet.tcp(IPv4Address(src), IPv4Address(dst), sport, dport,
                      TcpFlags.of("syn"))


# -- Link ------------------------------------------------------------------------

def test_link_delivers_with_latency_and_serialization():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    connect(engine, a, b, latency=10e-6, gbps=1.0)  # 1 Gbps
    arrivals = []
    b.attach_sink(lambda pkt: arrivals.append(engine.now))
    pkt = mk_packet()
    a.send_to_fabric(pkt)
    engine.run()
    # 40B at 1 Gbps = 320ns serialization + 10us propagation.
    expected = pkt.wire_length * 8 / 1e9 + 10e-6
    assert arrivals == [pytest.approx(expected)]


def test_link_serializes_back_to_back_packets():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    connect(engine, a, b, latency=0.0, gbps=1.0)
    arrivals = []
    b.attach_sink(lambda pkt: arrivals.append(engine.now))
    p = mk_packet()
    a.send_to_fabric(p.copy())
    a.send_to_fabric(p.copy())
    engine.run()
    tx = p.wire_length * 8 / 1e9
    assert arrivals[0] == pytest.approx(tx)
    assert arrivals[1] == pytest.approx(2 * tx)


def test_link_down_drops_silently():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    link = connect(engine, a, b)
    got = []
    b.attach_sink(got.append)
    link.set_up(False)
    a.send_to_fabric(mk_packet())
    engine.run()
    assert got == []
    assert link.drops_down == 1


def test_link_rejects_double_connection():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    c = mk_server(engine, "c", "10.0.0.3", mac=3)
    connect(engine, a, b)
    with pytest.raises(TopologyError):
        Link(engine, a.ports[0], c.ports[0])


def test_send_on_disconnected_port_returns_false():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    assert not a.send_to_fabric(mk_packet())


# -- Link bursts ---------------------------------------------------------------


def _burst_arrivals(as_burst, n=4):
    """Arrival times of an n-packet train of mixed sizes, sent as one
    ``transmit_burst`` or as n ``transmit`` calls at the same instant."""
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    link = connect(engine, a, b, latency=10e-6, gbps=1.0)
    arrivals = []
    b.attach_sink(lambda pkt: arrivals.append((engine.now, pkt)))
    train = [Packet.tcp(IPv4Address("10.0.0.1"), IPv4Address("10.1.0.1"),
                        1000 + i, 80, TcpFlags.of("syn"), b"x" * (300 * (i % 2)))
             for i in range(n)]
    if as_burst:
        a.send_to_fabric_burst(train)
    else:
        for packet in train:
            a.send_to_fabric(packet)
    engine.run()
    return arrivals, (link.packets_carried, link.bytes_carried)


def test_burst_arrival_times_match_per_packet_transmits():
    """The exact-timing guarantee: one coalesced heap entry delivers each
    packet at precisely the serialization+latency instant N separate
    transmits would."""
    coalesced, carried = _burst_arrivals(as_burst=True)
    per_packet, carried_singly = _burst_arrivals(as_burst=False)
    assert carried == carried_singly
    assert [t for t, _ in coalesced] == [t for t, _ in per_packet]
    assert ([p.five_tuple() for _, p in coalesced]
            == [p.five_tuple() for _, p in per_packet])
    # Strictly increasing: serialization separates back-to-back packets.
    times = [t for t, _ in coalesced]
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


def test_burst_on_downed_link_drops_whole_burst():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    link = connect(engine, a, b)
    got = []
    b.attach_sink(got.append)
    link.set_up(False)
    a.send_to_fabric_burst([mk_packet(sport=2000 + i) for i in range(5)])
    engine.run()
    assert got == []
    assert link.drops_down == 5          # one per packet
    assert link.bytes_carried == 0       # dropped bursts are not carried
    assert link.packets_carried == 0


def test_link_down_mid_traffic_preserves_carried_counters():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    link = connect(engine, a, b)
    b.attach_sink(lambda pkt: None)
    first = [mk_packet(sport=3000 + i) for i in range(3)]
    a.send_to_fabric_burst(first)
    engine.run()
    carried_bytes = link.bytes_carried
    assert link.packets_carried == 3
    assert carried_bytes == sum(p.wire_length for p in first)
    link.set_up(False)
    a.send_to_fabric_burst([mk_packet(sport=4000 + i) for i in range(7)])
    engine.run()
    assert link.drops_down == 7
    assert link.packets_carried == 3             # untouched by the drop
    assert link.bytes_carried == carried_bytes   # untouched by the drop


def test_send_burst_on_disconnected_port_returns_false():
    engine = Engine()
    a = mk_server(engine, "a", "10.0.0.1")
    assert not a.send_to_fabric_burst([mk_packet()])


# -- UnderlaySwitch ------------------------------------------------------------------

def test_switch_forwards_installed_route():
    engine = Engine()
    sw = UnderlaySwitch(engine, "sw", num_ports=2)
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    connect(engine, a, sw)
    connect(engine, sw, b)
    sw.install_route(IPv4Address("10.0.0.2").value, [1])
    got = []
    b.attach_sink(lambda pkt: got.append(pkt))
    a.send_to_fabric(mk_packet(dst="10.0.0.2"))
    engine.run()
    assert len(got) == 1
    assert sw.forwarded == 1


def test_switch_drops_unrouted_and_counts():
    engine = Engine()
    sw = UnderlaySwitch(engine, "sw", num_ports=2)
    a = mk_server(engine, "a", "10.0.0.1")
    connect(engine, a, sw)
    a.send_to_fabric(mk_packet(dst="10.99.0.1"))
    engine.run()
    assert sw.no_route_drops == 1


def test_switch_drops_on_ttl_expiry():
    engine = Engine()
    sw = UnderlaySwitch(engine, "sw", num_ports=2)
    a = mk_server(engine, "a", "10.0.0.1")
    b = mk_server(engine, "b", "10.0.0.2", mac=2)
    connect(engine, a, sw)
    connect(engine, sw, b)
    sw.install_route(IPv4Address("10.0.0.2").value, [1])
    pkt = mk_packet(dst="10.0.0.2")
    pkt.inner_ipv4().ttl = 1
    a.send_to_fabric(pkt)
    engine.run()
    assert sw.ttl_drops == 1


class RelaySwitch(UnderlaySwitch):
    """The longhand switch: route at arrival, then relay every packet
    through its own ``forwarding_delay`` timer and book the egress link
    when the timer fires."""

    def _relay(self, packet, transmit, *count):
        ip = packet.find(IPv4Header)
        if not ip.decrement_ttl():
            return
        port = self.ports[self.routes[ip.dst.value][0]]
        self.engine.call_after(self.forwarding_delay,
                               getattr(port.link, transmit), port, packet,
                               *count)

    def receive(self, packet, in_port):
        self._relay(packet, "transmit")

    def receive_run(self, packet, count, in_port):
        self._relay(packet, "transmit_run", count)


def _star_arrivals(switch_cls, n_hosts, sends):
    """Arrival trace of ``sends`` — (tick, src, dst, payload bytes, run
    count or 0) — over a star of equal-latency 1 Gbps links."""
    engine = Engine()
    sw = switch_cls(engine, "sw", num_ports=n_hosts)
    trace = []
    hosts = []
    for i in range(n_hosts):
        host = mk_server(engine, f"h{i}", f"10.0.0.{i + 1}", mac=i + 1)
        connect(engine, host, sw, latency=2e-6, gbps=1.0)
        sw.install_route(host.underlay_ip.value, [i])
        host.attach_sink(lambda pkt, name=host.name: trace.append(
            (engine.now, name, pkt.meta["id"])))
        host.attach_run_sink(lambda pkt, count, name=host.name: trace.append(
            (engine.now, name, pkt.meta["id"], count)))
        hosts.append(host)
    for ident, (tick, src, dst, size, count) in enumerate(sends):
        packet = mk_packet(src=f"10.0.0.{src % n_hosts + 1}",
                           dst=f"10.0.0.{dst % n_hosts + 1}")
        packet.payload = b"x" * size
        packet.meta["id"] = ident
        sender = hosts[src % n_hosts]
        if count:
            engine.call_at(tick * 5e-7, sender.send_to_fabric_run,
                           packet, count)
        else:
            engine.call_at(tick * 5e-7, sender.send_to_fabric, packet)
    engine.run()
    return trace


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4),
                          st.integers(0, 4), st.sampled_from([0, 100, 1400]),
                          st.sampled_from([0, 0, 0, 2, 3])),
                min_size=1, max_size=25))
def test_switch_egress_at_arrival_matches_timed_relay(n_hosts, sends):
    """Booking the egress link at arrival for ``now + forwarding_delay``
    gives every (time, host, packet) arrival the longhand relay gives —
    bit-identical floats, same order — with queued egress links, ties
    and fluid runs in the mix.

    Recorded mutant: booking at ``now`` (dropping the delay argument in
    ``UnderlaySwitch.receive``) moves every arrival 1 µs earlier."""
    got = _star_arrivals(UnderlaySwitch, n_hosts, sends)
    assert got == _star_arrivals(RelaySwitch, n_hosts, sends)
    assert len(got) == len(sends)


def test_switch_rejects_bad_route_install():
    sw = UnderlaySwitch(Engine(), "sw", num_ports=2)
    with pytest.raises(TopologyError):
        sw.install_route(1, [])
    with pytest.raises(TopologyError):
        sw.install_route(1, [7])


# -- Topology -------------------------------------------------------------------------

def test_leaf_spine_shape():
    engine = Engine()
    topo = Topology.leaf_spine(engine, n_tors=3, servers_per_tor=4, n_spines=2)
    assert len(topo.servers) == 12
    assert len(topo.tors) == 3
    assert len(topo.spines) == 2
    # each server-link + tor-spine mesh
    assert len(topo.links) == 12 + 3 * 2


def test_leaf_spine_validation():
    with pytest.raises(TopologyError):
        Topology.leaf_spine(Engine(), 0, 1)
    with pytest.raises(TopologyError):
        Topology.leaf_spine(Engine(), 300, 1)


def test_addressing_and_lookup():
    topo = Topology.leaf_spine(Engine(), 2, 2)
    server = topo.server_at(IPv4Address("10.1.0.2"))
    assert server is not None and server.name == "s1-1"
    assert topo.server_at(IPv4Address("10.9.0.1")) is None


def test_same_tor_and_hop_distance():
    topo = Topology.leaf_spine(Engine(), 2, 2)
    s00, s01, s10 = topo.servers[0], topo.servers[1], topo.servers[2]
    assert topo.same_tor(s00, s01)
    assert not topo.same_tor(s00, s10)
    assert topo.hop_distance(s00, s00) == 0
    assert topo.hop_distance(s00, s01) == 2
    assert topo.hop_distance(s00, s10) == 4


def test_end_to_end_delivery_same_tor():
    engine = Engine()
    topo = Topology.leaf_spine(engine, 2, 2)
    src, dst = topo.servers[0], topo.servers[1]
    got = []
    dst.attach_sink(lambda pkt: got.append(engine.now))
    src.send_to_fabric(mk_packet(src=str(src.underlay_ip),
                                 dst=str(dst.underlay_ip)))
    engine.run()
    assert len(got) == 1


def test_end_to_end_delivery_cross_tor():
    engine = Engine()
    topo = Topology.leaf_spine(engine, 2, 2)
    src, dst = topo.servers[0], topo.servers[3]
    got = []
    dst.attach_sink(lambda pkt: got.append(engine.now))
    src.send_to_fabric(mk_packet(src=str(src.underlay_ip),
                                 dst=str(dst.underlay_ip)))
    engine.run()
    assert len(got) == 1
    # Cross-tor path is longer than same-tor.
    cross_latency = got[0]
    got2 = []
    sibling = topo.servers[1]
    sibling.attach_sink(lambda pkt: got2.append(engine.now))
    t0 = engine.now
    src.send_to_fabric(mk_packet(src=str(src.underlay_ip),
                                 dst=str(sibling.underlay_ip)))
    engine.run()
    assert got2[0] - t0 < cross_latency


def test_ecmp_spreads_flows_across_spines():
    engine = Engine()
    topo = Topology.leaf_spine(engine, 2, 1, n_spines=4)
    src, dst = topo.servers[0], topo.servers[1]
    dst.attach_sink(lambda pkt: None)
    for sport in range(200):
        src.send_to_fabric(mk_packet(src=str(src.underlay_ip),
                                     dst=str(dst.underlay_ip), sport=sport))
    engine.run()
    used = [spine.forwarded for spine in topo.spines]
    assert sum(used) == 200
    # All four spines should see some share of 200 distinct flows.
    assert all(count > 10 for count in used)


def test_same_flow_stays_on_one_path():
    engine = Engine()
    topo = Topology.leaf_spine(engine, 2, 1, n_spines=4)
    src, dst = topo.servers[0], topo.servers[1]
    dst.attach_sink(lambda pkt: None)
    for _ in range(50):
        src.send_to_fabric(mk_packet(src=str(src.underlay_ip),
                                     dst=str(dst.underlay_ip), sport=777))
    engine.run()
    used = [spine.forwarded for spine in topo.spines]
    assert sorted(used) == [0, 0, 0, 50]


def test_fail_server_links_blackholes():
    engine = Engine()
    topo = Topology.leaf_spine(engine, 2, 2)
    src, dst = topo.servers[0], topo.servers[3]
    got = []
    dst.attach_sink(lambda pkt: got.append(pkt))
    topo.fail_server_links(dst)
    src.send_to_fabric(mk_packet(src=str(src.underlay_ip),
                                 dst=str(dst.underlay_ip)))
    engine.run()
    assert got == []
    topo.fail_server_links(dst, up=True)
    src.send_to_fabric(mk_packet(src=str(src.underlay_ip),
                                 dst=str(dst.underlay_ip)))
    engine.run()
    assert len(got) == 1
