"""End-to-end tests of the local vSwitch datapath over the fabric."""

import pytest

from repro.net import IPv4Address, Packet, TcpFlags
from repro.vswitch import AclRule, AclTable, Direction, TcpState, Verdict
from repro.vswitch.vswitch import PROBE_PORT
from repro.net.udp import UdpHeader
from repro.net.ethernet import EthernetHeader
from repro.net.addr import MacAddress

from tests.conftest import TENANT_A, TENANT_B, VNI, build_cloud


def syn(src=TENANT_A, dst=TENANT_B, sport=1000, dport=80):
    return Packet.tcp(src, dst, sport, dport, TcpFlags.of("syn"))


def run(cloud, duration=0.1):
    cloud.engine.run(until=cloud.engine.now + duration)


# -- basic forwarding -----------------------------------------------------------

def test_tx_packet_reaches_peer_vnic(cloud):
    got = []
    cloud.vnic_b.attach_guest(got.append)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    assert len(got) == 1
    assert got[0].five_tuple().dst_port == 80
    assert cloud.vswitch_a.stats.forwarded == 1
    assert cloud.vswitch_b.stats.delivered == 1


def test_second_packet_hits_fast_path(cloud):
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    cloud.vswitch_a.send_from_vnic(
        cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                                 TcpFlags.of("ack")))
    run(cloud)
    assert cloud.vswitch_a.stats.slow_path_lookups == 1
    assert cloud.vswitch_a.stats.fast_path_hits == 1


def test_bidirectional_conversation_establishes_fsm(cloud):
    """SYN out, SYN/ACK back, ACK out: both ends see ESTABLISHED."""
    replies = []

    def server_guest(pkt):
        replies.append(pkt)
        cloud.vswitch_b.send_from_vnic(
            cloud.vnic_b, Packet.tcp(TENANT_B, TENANT_A, 80, 1000,
                                     TcpFlags.of("syn", "ack")))

    acks = []

    def client_guest(pkt):
        acks.append(pkt)
        cloud.vswitch_a.send_from_vnic(
            cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                                     TcpFlags.of("ack")))

    cloud.vnic_b.attach_guest(server_guest)
    cloud.vnic_a.attach_guest(client_guest)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    assert replies and acks
    entry_a = cloud.vswitch_a.session_table.lookup(
        VNI, syn().five_tuple())
    entry_b = cloud.vswitch_b.session_table.lookup(
        VNI, syn().five_tuple())
    assert entry_a.state.tcp_state is TcpState.ESTABLISHED
    assert entry_b.state.tcp_state is TcpState.ESTABLISHED
    # Directions recorded correctly: A initiated (TX), B saw it ingress (RX).
    assert entry_a.state.first_direction is Direction.TX
    assert entry_b.state.first_direction is Direction.RX


# -- stateful ACL over the wire (§5.1) ---------------------------------------------

def test_unsolicited_rx_dropped_but_responses_allowed():
    acl_b = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                              direction=Direction.RX)])
    cloud = build_cloud(acl_b=acl_b)
    got_b, got_a = [], []
    cloud.vnic_b.attach_guest(got_b.append)
    cloud.vnic_a.attach_guest(got_a.append)

    # A's SYN arrives at B as RX with a drop pre-action and RX-initiated
    # state: dropped.
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    assert got_b == []
    assert cloud.vswitch_b.stats.acl_drops == 1

    # B initiates to A; A's response arrives at B as RX of a TX-initiated
    # session: accepted despite the drop rule.
    cloud.vswitch_b.send_from_vnic(
        cloud.vnic_b, Packet.tcp(TENANT_B, TENANT_A, 2000, 8080,
                                 TcpFlags.of("syn")))
    run(cloud)
    assert len(got_a) == 1
    cloud.vswitch_a.send_from_vnic(
        cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 8080, 2000,
                                 TcpFlags.of("syn", "ack")))
    run(cloud)
    assert len(got_b) == 1  # response delivered through the deny-all RX ACL


def test_tx_acl_drop(cloud_factory=build_cloud):
    acl_a = AclTable([AclRule(priority=10, verdict=Verdict.DROP,
                              direction=Direction.TX,
                              dst_port_range=(80, 80))])
    cloud = cloud_factory(acl_a=acl_a)
    got = []
    cloud.vnic_b.attach_guest(got.append)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    assert got == []
    assert cloud.vswitch_a.stats.acl_drops == 1


# -- resource-pressure behaviours -------------------------------------------------------

def test_unknown_destination_drops_with_no_route(cloud):
    pkt = Packet.tcp(TENANT_A, IPv4Address("192.168.0.77"), 1, 2,
                     TcpFlags.of("syn"))
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, pkt)
    run(cloud)
    # Mapping table missing the target: TX verdict drop (not overridable).
    assert cloud.vswitch_a.stats.acl_drops == 1


def test_unknown_vnic_rx_drop(cloud):
    # Remove B's vNIC then send to it: the overlay delivers to vswitch_b
    # which cannot find a local vNIC.
    cloud.vswitch_b.remove_vnic(cloud.vnic_b.vnic_id)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    assert cloud.vswitch_b.stats.unknown_vnic_drops == 1


def test_cpu_overload_causes_drop_tail():
    cloud = build_cloud()
    cloud.vnic_b.attach_guest(lambda pkt: None)
    # Slam 3000 new flows in at t=0; the scaled-down CPU cannot absorb them
    # within the backlog bound.
    for sport in range(3000):
        cloud.vswitch_a.send_from_vnic(
            cloud.vnic_a, syn(sport=1024 + sport))
    cloud.engine.run(until=2.0)
    assert cloud.vswitch_a.stats.cpu_drops > 0
    assert cloud.vswitch_a.stats.forwarded < 3000


def test_crashed_vswitch_goes_dark(cloud):
    got = []
    cloud.vnic_b.attach_guest(got.append)
    cloud.vswitch_b.crash()
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    assert got == []
    assert cloud.vswitch_b.stats.crashed_drops == 1
    cloud.vswitch_b.recover()
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn(sport=1001))
    run(cloud)
    assert len(got) == 1


def test_vnic_memory_charged_and_released(cloud):
    tag = f"rules:{cloud.vnic_a.vnic_id}"
    assert cloud.vswitch_a.mem.by_tag[tag] == cloud.vnic_a.table_memory_bytes()
    freed = cloud.vswitch_a.release_vnic_tables(cloud.vnic_a.vnic_id)
    assert freed > 0
    assert tag not in cloud.vswitch_a.mem.by_tag
    assert f"be_meta:{cloud.vnic_a.vnic_id}" in cloud.vswitch_a.mem.by_tag
    assert cloud.vnic_a.offloaded
    cloud.vswitch_a.restore_vnic_tables(cloud.vnic_a.vnic_id)
    assert cloud.vswitch_a.mem.by_tag[tag] == cloud.vnic_a.table_memory_bytes()
    assert not cloud.vnic_a.offloaded


def test_aging_process_reaps_idle_sessions(cloud):
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.start_aging(interval=0.2)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    cloud.engine.run(until=0.05)
    assert len(cloud.vswitch_a.session_table) == 1
    # SYN-state session ages out after ~1s of idleness.
    cloud.engine.run(until=2.0)
    assert len(cloud.vswitch_a.session_table) == 0


# -- health probes (§4.4) ---------------------------------------------------------------------

def probe_packet(monitor_ip, target_ip, seq=1):
    pkt = Packet.udp(monitor_ip, target_ip, 40000, PROBE_PORT,
                     payload=seq.to_bytes(4, "big"))
    return Packet([EthernetHeader(MacAddress.broadcast(), MacAddress(0xEE))]
                  + pkt.layers, pkt.payload)


def test_live_vswitch_answers_probe(cloud):
    monitor = cloud.topo.servers[0]  # reuse server A's position as monitor
    target = cloud.topo.servers[1]
    replies = []
    cloud.vswitch_a.on_probe_reply(lambda pkt: replies.append(pkt))
    monitor.send_to_fabric(probe_packet(monitor.underlay_ip,
                                        target.underlay_ip))
    run(cloud)
    assert cloud.vswitch_b.stats.probes_answered == 1
    assert len(replies) == 1


def test_crashed_vswitch_ignores_probe(cloud):
    monitor, target = cloud.topo.servers[0], cloud.topo.servers[1]
    replies = []
    cloud.vswitch_a.on_probe_reply(lambda pkt: replies.append(pkt))
    cloud.vswitch_b.crash()
    monitor.send_to_fabric(probe_packet(monitor.underlay_ip,
                                        target.underlay_ip))
    run(cloud)
    assert replies == []


# -- QoS rate limiting ----------------------------------------------------------------------

def test_vnic_rate_limit_polices_tx(cloud):
    cloud.vnic_b.attach_guest(lambda pkt: None)
    # 40B packets at 8kbps with a tiny burst: ~2 packets/s conform.
    cloud.vnic_a.rate_limit_bps = 8_000
    from repro.vswitch.qos import QosEnforcer
    cloud.vswitch_a.qos = QosEnforcer(burst_bytes=100)
    for i in range(50):
        pkt = Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                         TcpFlags.of("syn" if i == 0 else "ack"))
        cloud.engine.call_after(i * 0.02, cloud.vswitch_a.send_from_vnic,
                                cloud.vnic_a, pkt)
    cloud.engine.run(until=2.0)
    assert cloud.vswitch_a.stats.qos_drops > 20
    assert cloud.vswitch_a.stats.forwarded < 30


def test_flow_rate_limit_from_qos_table(cloud):
    from repro.vswitch.rule_tables import QosRule
    from repro.vswitch.qos import QosEnforcer
    cloud.vnic_b.attach_guest(lambda pkt: None)
    qos_table = cloud.vnic_a.slow_path.table("qos")
    qos_table.rules.append(QosRule(priority=10, qos_class=2,
                                   rate_limit_bps=8_000,
                                   dst_port_range=(80, 80)))
    cloud.vswitch_a.qos = QosEnforcer(burst_bytes=100)
    for i in range(50):
        pkt = Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                         TcpFlags.of("syn" if i == 0 else "ack"))
        cloud.engine.call_after(i * 0.02, cloud.vswitch_a.send_from_vnic,
                                cloud.vnic_a, pkt)
    cloud.engine.run(until=2.0)
    assert cloud.vswitch_a.stats.qos_drops > 20


def test_unlimited_vnic_never_qos_drops(cloud):
    cloud.vnic_b.attach_guest(lambda pkt: None)
    for i in range(20):
        pkt = Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                         TcpFlags.of("syn" if i == 0 else "ack"))
        cloud.engine.call_after(i * 0.01, cloud.vswitch_a.send_from_vnic,
                                cloud.vnic_a, pkt)
    cloud.engine.run(until=1.0)
    assert cloud.vswitch_a.stats.qos_drops == 0


# -- burst datapath --------------------------------------------------------------

from dataclasses import asdict

from repro.host.vm import Vm

from tests.reference_datapath import install_reference


def udp(sport=4242, dport=5353):
    return Packet.udp(TENANT_A, TENANT_B, sport, dport, payload=b"x" * 64)


def _mixed_burst_stats(cloud):
    """Drive a burst mixing fast hits, a mid-burst miss, and an
    FSM-advancing FIN; return both vSwitches' full counter dicts."""
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)

    def ack():
        return Packet.tcp(TENANT_A, TENANT_B, 1000, 80, TcpFlags.of("ack"))

    burst = [ack(), ack(), udp(sport=7), ack(),
             Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                        TcpFlags.of("fin", "ack")), ack()]
    cloud.vswitch_a.send_from_vnic_burst(cloud.vnic_a, burst)
    run(cloud)
    return asdict(cloud.vswitch_a.stats), asdict(cloud.vswitch_b.stats)


def test_burst_stats_identical_to_per_packet_path():
    """Every counter on both ends must match the per-packet reference
    datapath, including for a burst with a miss and an FSM transition
    inside."""
    assert _mixed_burst_stats(build_cloud()) == _mixed_burst_stats(
        install_reference(build_cloud()))


def test_warm_burst_is_one_lookup_all_fast_hits(cloud):
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, udp())
    run(cloud)
    assert cloud.vswitch_a.stats.slow_path_lookups == 1
    cloud.vswitch_a.send_from_vnic_burst(
        cloud.vnic_a, [udp() for _ in range(6)])
    run(cloud)
    assert cloud.vswitch_a.stats.slow_path_lookups == 1  # no new lookups
    assert cloud.vswitch_a.stats.fast_path_hits == 6
    assert cloud.vswitch_b.stats.delivered == 7


def test_miss_in_burst_falls_back_per_packet_then_resumes(cloud):
    """A fresh flow's first packet takes the per-packet slow path; the
    entry it installs lets the rest of the burst ride the fast path."""
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic_burst(
        cloud.vnic_a, [udp() for _ in range(5)])
    run(cloud)
    assert cloud.vswitch_a.stats.slow_path_lookups == 1
    assert cloud.vswitch_a.stats.fast_path_hits == 4
    assert cloud.vswitch_b.stats.delivered == 5


def test_fsm_advancing_packet_excluded_from_runs(cloud):
    """A FIN must leave the batch and go through the per-packet path so
    the FSM advances exactly once, in order."""
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, syn())
    run(cloud)
    before = cloud.vswitch_a.stats.slow_path_lookups
    burst = [Packet.tcp(TENANT_A, TENANT_B, 1000, 80, TcpFlags.of("ack")),
             Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                        TcpFlags.of("fin", "ack"))]
    cloud.vswitch_a.send_from_vnic_burst(cloud.vnic_a, burst)
    run(cloud)
    assert cloud.vswitch_a.stats.slow_path_lookups == before  # still a hit
    entry = cloud.vswitch_a.session_table.lookup(VNI, syn().five_tuple())
    assert entry.state.tcp_state is not TcpState.ESTABLISHED  # FIN advanced it
    assert cloud.vswitch_b.stats.delivered == 3


def test_vm_send_burst_charges_kernel_once(cloud):
    vm = Vm(cloud.engine, "vm", vcpus=2)
    vm.attach_vnic(cloud.vnic_a)
    got = []
    cloud.vnic_b.attach_guest(got.append)
    vm.send_burst(cloud.vnic_a, [udp() for _ in range(4)])
    cloud.engine.run(until=0.5)
    assert len(got) == 4
    assert vm.cpu.jobs_done == 1  # one transaction for the whole burst
    assert vm.kernel_lock.jobs_done == 0  # no new connections involved


def test_vm_send_burst_drop_tail_rejects_whole_bursts(cloud):
    vm = Vm(cloud.engine, "vm", vcpus=1)
    vm.attach_vnic(cloud.vnic_a)
    for base in range(0, 1600, 8):
        vm.send_burst(cloud.vnic_a,
                      [Packet.tcp(TENANT_A, TENANT_B, 1024 + base + i, 80,
                                  TcpFlags.of("syn")) for i in range(8)],
                      new_connection=True)
    assert vm.conns_opened == 1600
    assert vm.kernel_drops > 0
    assert vm.kernel_drops % 8 == 0  # whole bursts, never partial


# -- fluid arrivals the run cannot stay a run for ---------------------------------

from collections import Counter

from repro import telemetry
from repro.net.packet import make_underlay_transport

UNHOSTED = IPv4Address("192.168.0.77")


def _sink_arrivals(case, fluid, n=4):
    """``n`` identical overlay packets reach vSwitch B's sink as one run
    (``_fabric_sink_run``) or as ``n`` single arrivals (``_fabric_sink``),
    addressed to (a) an unknown vNIC or (b) a vNIC B fronts through
    ``overlay_fallback``. Returns B's stats, trace counts, what was
    handed on, and the tenant template's bytes. Telemetry is installed
    around the cloud, so B's trace records."""
    telemetry.install()
    try:
        return _sink_arrivals_traced(case, fluid, n)
    finally:
        telemetry.uninstall()


def _sink_arrivals_traced(case, fluid, n):
    cloud = build_cloud()
    vs = cloud.vswitch_b
    handed = []

    def record(packet):
        ip = packet.layers[0]
        handed.append((ip.src, ip.dst, packet.encode()))

    cloud.vnic_b.attach_guest(record)
    if case == "fronted":
        def front(packet, vni, outer_src):
            record(packet)
            handed.append((vni, outer_src))
            return True
        vs.overlay_fallback = front
    server_a = cloud.topo.servers[0]
    template = Packet.tcp(TENANT_A, UNHOSTED, 1000, 80, TcpFlags.of("syn"))
    fresh = Packet.tcp(TENANT_A, UNHOSTED, 1000, 80, TcpFlags.of("syn"))

    def frame():
        return make_underlay_transport(
            server_a.mac, vs.server.mac, server_a.underlay_ip,
            vs.server.underlay_ip, template, vni=VNI)

    if fluid:
        vs._fabric_sink_run(frame(), n)
    else:
        for _ in range(n):
            vs._fabric_sink(frame().copy())
    run(cloud)
    # Re-encoded from its header objects: an in-place rewrite shows even
    # where it skipped invalidating the memoized bytes.
    template_bytes = Packet(template.layers, template.payload).encode()
    assert template_bytes == fresh.encode()
    return (asdict(vs.stats), Counter(r.kind for r in vs.trace.records()),
            handed, template_bytes)


@pytest.mark.parametrize("case", ["unknown", "fronted"])
def test_run_sink_fallbacks_equal_single_arrivals(case):
    """The run sink's per-packet fallbacks: every counter, trace record,
    handed-on packet and the template's own bytes equal ``n`` single
    sinks'."""
    run_form = _sink_arrivals(case, fluid=True)
    assert run_form == _sink_arrivals(case, fluid=False)
    stats, traces, handed, _ = run_form
    assert stats["rx_packets"] == 4
    if case == "unknown":
        assert stats["unknown_vnic_drops"] == 4 and not handed
        assert traces["pkt.unknown_vnic"] == 4
    else:
        assert stats["unknown_vnic_drops"] == 0 and len(handed) == 8
