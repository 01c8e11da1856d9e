"""The pipeline against the per-packet reference, on generated traffic.

A *program* is a list of steps applied to two identical clouds — one on
:class:`LocalDatapath`, one on ``tests/reference_datapath.py`` — at the
same virtual instants: a side sends 1-6 packets, or a control event lands
(demotion, an aging sweep, a stats-policy change, a flood). vNIC A
carries one feature variant per example (NAT, mirror, vNIC- or flow-level
rate limit, stateful decap). This replaces the per-switch on≡off suites:
those showed two paths agree, this shows the one path left does what the
longhand per-packet architecture does.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.host.vm import Vm, VmCostModel
from repro.net import IPv4Address, Packet, TcpFlags
from repro.vswitch import CostModel
from repro.vswitch.rule_tables import MirrorTable, Nat44Table, QosRule
from repro.vswitch.state import StatsPolicy

from tests.conftest import TENANT_A, TENANT_B, VNI, build_cloud, wire_mapping
from tests.reference_datapath import install_reference

FLAGS = (("syn",), ("syn", "ack"), ("ack",), ("psh", "ack"), ("fin", "ack"),
         ("rst",))
UDP = len(FLAGS)
VARIANTS = ("plain", "nat", "mirror", "vnic_rate", "flow_rate", "decap")
# Between steps. With timestamps compared: short, so the next step (a
# demotion, a policy change) lands while the far side's jobs are still
# queued. Where instants differ by design, long enough to quiesce.
GAP, QUIET_GAP = 0.005, 0.05
# 0.1 B/s against a 2 KiB bucket: a byte budget for the whole program, so
# what it admits cannot depend on completion instants either.
RATE_BPS, BUCKET_BYTES = 0.8, 2048

_spec = st.tuples(st.integers(0, UDP), st.integers(0, 1),
                  st.integers(0, 1400))
_specs = st.lists(_spec, min_size=1, max_size=6)
_side = st.integers(0, 1)


def _programs(*steps):
    """Up to ten steps: the mode's own kinds of send, or a control event."""
    return st.lists(st.one_of(*steps, st.tuples(
        st.sampled_from(("demote", "sweep", "full")), _side)), max_size=10)


SINGLES = _programs(st.tuples(st.just("send"), _side, _specs),
                    st.tuples(st.just("flood"), _side))
BURSTS = _programs(st.tuples(st.just("burst"), _side, _specs))
RUNS = _programs(st.tuples(st.just("run"), _side, _spec, st.integers(1, 6)))


def _packet(side, spec, sport_base=1000):
    kind, port, size = spec
    src, dst = (TENANT_A, TENANT_B) if side == 0 else (TENANT_B, TENANT_A)
    ports = (sport_base + port, 80) if side == 0 else (80, sport_base + port)
    if kind == UDP:
        return Packet.udp(src, dst, *ports, payload=b"u" * size)
    return Packet.tcp(src, dst, *ports, TcpFlags.of(*FLAGS[kind]),
                      b"d" * size)


def _world(variant, reference, cores):
    cost_model = CostModel.testbed()
    cost_model.cores = cores
    cloud = build_cloud(cost_model=cost_model, servers_per_tor=3)
    spare = cloud.topo.servers[2]          # no vSwitch: a packet sink
    vnic, chain = cloud.vnic_a, cloud.vnic_a.slow_path
    cloud.vswitch_a.qos.burst_bytes = BUCKET_BYTES
    if variant == "nat":
        nat = Nat44Table()
        nat.add_mapping(TENANT_A, IPv4Address("192.168.9.9"))
        chain.tables.insert(1, nat)
    elif variant == "mirror":
        mirror = MirrorTable()
        mirror.add_mirror(TENANT_B, 32, spare.underlay_ip)
        chain.tables.append(mirror)
    elif variant == "vnic_rate":
        vnic.rate_limit_bps = RATE_BPS
    elif variant == "flow_rate":
        chain.table("qos").add_rule(QosRule(1, 1, rate_limit_bps=RATE_BPS))
    elif variant == "decap":
        # B is mapped to the sink: A's packets reach it only on sessions
        # that learned B's real overlay source from an RX packet.
        vnic.stateful_decap = True
        wire_mapping(chain.table("vnic_server_mapping"), VNI, TENANT_B, spare)
    return install_reference(cloud) if reference else cloud


def _run(program, variant, reference, exact, cores):
    """Apply ``program``; return everything observable — with every
    timestamp (delivery instants, ``last_seen``) when ``exact``."""
    cloud = _world(variant, reference, cores)
    engine = cloud.engine
    sides = ((cloud.vswitch_a, cloud.vnic_a), (cloud.vswitch_b, cloud.vnic_b))
    logs = ([], [])
    for (_vs, vnic), log in zip(sides, logs):
        vnic.attach_guest(lambda p, log=log: log.append(
            (engine.now, p.five_tuple(), p.wire_length)))
    for kind, side, *args in program:
        vs, vnic = sides[side]
        if kind == "send":
            for spec in args[0]:
                vs.send_from_vnic(vnic, _packet(side, spec))
        elif kind == "burst":
            vs.send_from_vnic_burst(vnic, [_packet(side, s) for s in args[0]])
        elif kind == "run":
            vs.send_from_vnic_run(vnic, _packet(side, args[0]), args[1])
        elif kind == "flood":            # 96 new sessions at one instant
            for i in range(96):
                vs.send_from_vnic(vnic, _packet(side, (UDP, i, 64), 2000))
        elif kind == "demote":
            vs.session_table.demote_vni(VNI)
        elif kind == "sweep":            # long enough to age a CLOSED session
            engine.run(until=engine.now + 0.3)
            vs.session_table.sweep(engine.now)
        elif kind == "full":
            for entry in vs.session_table:
                entry.state.stats_policy = StatsPolicy.FULL
        engine.run(until=engine.now + (GAP if exact else QUIET_GAP))
    engine.run(until=engine.now + 0.1)
    seen = {"links": [(link.packets_carried, link.bytes_carried)
                      for link in cloud.topo.links],
            "delivered": logs if exact else [
                [item[1:] for item in log] for log in logs]}
    for name, (vs, _vnic) in zip("ab", sides):
        flows = {}
        for entry in vs.session_table:
            state = entry.state
            vs.session_table.records.flush(entry.slot, state)
            flows[entry.five_tuple.session_key()] = (
                entry.mode, state.tcp_state, state.decap_overlay_src,
                state.packets_tx, state.packets_rx, state.bytes_tx,
                state.bytes_rx, state.last_seen if exact else None)
        seen[name] = (asdict(vs.stats), flows)
    return seen


def _agree(program, variant, exact, cores=8):
    pipeline = _run(program, variant, False, exact, cores)
    assert pipeline == _run(program, variant, True, exact, cores)
    return pipeline


@settings(max_examples=200, deadline=None)
@given(SINGLES, st.sampled_from(VARIANTS))
def test_single_packets_match_reference_exactly(program, variant):
    """``send_from_vnic``: every counter, flow record (``last_seen``
    included), FSM state, delivery instant and order, link total."""
    _agree(program, variant, exact=True)


def test_flood_drop_tail_matches_reference_exactly():
    program = [("send", 0, [(0, 0, 0)]), ("flood", 0), ("send", 0, [(2, 0, 9)]),
               ("flood", 1), ("full", 0), ("send", 1, [(1, 0, 0), (UDP, 1, 700)])]
    seen = _agree(program, "plain", exact=True)
    assert seen["a"][0]["cpu_drops"] > 0 and seen["b"][0]["cpu_drops"] > 0


@settings(max_examples=200, deadline=None)
@given(BURSTS, st.sampled_from(VARIANTS))
def test_bursts_match_reference(program, variant):
    """``send_from_vnic_burst``: as above minus timestamps — a classified
    run is one CPU job that completes when its last packet would have.
    On one core, so both sides serve packets in burst order: with
    several, per-packet jobs on different cores reorder one flow's
    packets on the wire, and the FSM the receiver ends in (hence what a
    later sweep ages out) is a property of that schedule, not of the
    datapath (B's ``[fin-ack + 1 B, syn, syn-ack]`` reaches an A in
    SYN_RECEIVED in a different order and leaves it ESTABLISHED or
    FIN_WAIT)."""
    _agree(program, variant, exact=False, cores=1)


@settings(max_examples=200, deadline=None)
@given(RUNS, st.sampled_from(VARIANTS))
def test_fluid_runs_match_reference(program, variant):
    """``send_from_vnic_run(template, n)``: the fluid TX path, and the
    only way the RX side sees a run of n > 1 (a burst crosses the link as
    single arrivals). Compared like bursts, but on eight cores — one run
    job against n per-packet jobs spread over them: a run's packets are
    identical, so their order cannot matter."""
    _agree(program, variant, exact=False)


@pytest.mark.parametrize("serial,parallel", [(8300.0, 300000.0),
                                             (300000.0, 8300.0),
                                             (8300.0, 8300.0)])
def test_vm_new_connection_matches_two_job_process(serial, parallel):
    """``Vm.send(new_connection=True)`` books both kernel slices and
    schedules one callback; longhand it is a process that waits for the
    lock job, then the vCPU job. Same instant and same position among
    events competing for the two completion instants."""

    def timeline(longhand):
        cloud = build_cloud()
        engine, vnic = cloud.engine, cloud.vnic_a
        cm = VmCostModel(conn_serial_cycles=serial,
                         conn_parallel_cycles=parallel)
        vm = Vm(engine, "vm", vcpus=2, cost_model=cm)
        log = []
        cloud.vswitch_a.send_from_vnic = lambda _vnic, pkt: log.append(
            (engine.now, "send_from_vnic"))

        def rival(tag, hops):
            log.append((engine.now, tag, hops))
            if hops:
                engine.call_soon(rival, tag, hops - 1)

        ends = (serial / cm.hz, parallel / cm.hz)
        for end in ends:
            engine.call_at(end, rival, "before", 3)
        packet = _packet(0, (0, 0, 0))
        if longhand:
            lock_job = vm.kernel_lock.try_submit(serial, cm.max_backlog)
            par_job = vm.cpu.try_submit(parallel, cm.max_backlog)

            def connect():
                yield lock_job
                yield par_job
                vnic.host.send_from_vnic(vnic, packet)

            engine.process(connect())
        else:
            vm.send(vnic, packet, new_connection=True)
        for end in ends:
            engine.call_at(end, rival, "after", 3)
        engine.run()
        return log

    assert timeline(longhand=False) == timeline(longhand=True)
    assert (max(serial, parallel) / VmCostModel().hz,
            "send_from_vnic") in timeline(longhand=False)
