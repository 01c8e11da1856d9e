"""Edge cases of burst run classification against per-packet replay.

Each scenario drives the same burst through the pipeline and through
the per-packet reference datapath (``tests/reference_datapath.py``),
then requires identical vSwitch counters on both ends *and* identical
flow statistics after the records are materialized back into the boxed
SessionState. Hand-picked where ``test_reference_oracle.py`` generates:
these three interleavings are the ones a run classifier gets wrong.
"""

import inspect
import textwrap
from dataclasses import asdict

import pytest

from repro.net import Packet, TcpFlags
from repro.vswitch import CostModel, TcpState
from repro.vswitch import vswitch as vswitch_module
from repro.vswitch.session_table import EntryMode
from repro.vswitch.state import StatsPolicy

from tests.conftest import TENANT_A, TENANT_B, VNI, build_cloud
from tests.reference_datapath import install_reference


def ack(flags=("ack",), payload=b"d" * 100):
    return Packet.tcp(TENANT_A, TENANT_B, 1000, 80, TcpFlags.of(*flags),
                      payload)


def udp(sport=4242):
    return Packet.udp(TENANT_A, TENANT_B, sport, 5353, payload=b"x" * 64)


def _flow_counters(vswitch, ft):
    """Flow statistics with any slot residue materialized first.

    ``last_seen`` is left out: a batched run completes as one serialized
    transaction while per-packet jobs spread across cores (counters and
    FSM must still match exactly)."""
    entry = vswitch.session_table.lookup(VNI, ft)
    if entry is None:
        return None
    state = entry.state
    if entry.slot >= 0:
        vswitch.session_table.records.flush(entry.slot, state)
    return (state.packets_tx, state.packets_rx, state.bytes_tx,
            state.bytes_rx, state.tcp_state)


def _established_cloud(reference):
    """A cloud with flow A's TCP session established end to end and a
    FULL stats policy installed on the initiator side."""
    cloud = build_cloud()
    if reference:
        install_reference(cloud)
    cloud.vnic_b.attach_guest(lambda pkt: None)
    cloud.vnic_a.attach_guest(lambda pkt: None)
    cloud.vswitch_a.send_from_vnic(
        cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                                 TcpFlags.of("syn")))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    cloud.vswitch_b.send_from_vnic(
        cloud.vnic_b, Packet.tcp(TENANT_B, TENANT_A, 80, 1000,
                                 TcpFlags.of("syn", "ack")))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, ack(payload=b""))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    entry = cloud.vswitch_a.session_table.lookup(VNI, ack().five_tuple())
    assert entry.state.tcp_state is TcpState.ESTABLISHED
    entry.state.stats_policy = StatsPolicy.FULL
    return cloud


def _scenario_fsm_split(reference):
    """A run split exactly at an FSM-advancing packet: the FIN must leave
    the batch, advance the FSM once, in order, and the trailing ACKs must
    be classified against the post-FIN state."""
    cloud = _established_cloud(reference)
    burst = [ack(), ack(), ack(flags=("fin", "ack")), ack(), ack()]
    cloud.vswitch_a.send_from_vnic_burst(cloud.vnic_a, burst)
    cloud.engine.run(until=cloud.engine.now + 0.2)
    return (asdict(cloud.vswitch_a.stats), asdict(cloud.vswitch_b.stats),
            _flow_counters(cloud.vswitch_a, ack().five_tuple()),
            _flow_counters(cloud.vswitch_b, ack().five_tuple()))


def _scenario_state_only_mid_run(reference):
    """A STATE_ONLY residue hit in the middle of a burst: the packet must
    take the per-packet promote path while the runs around it stay
    aggregated."""
    cloud = _established_cloud(reference)
    # Prime the UDP flow, then demote the tenant: every FULL entry (the
    # TCP flow included) becomes a STATE_ONLY residue with its record
    # slot flushed.
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a, udp())
    cloud.engine.run(until=cloud.engine.now + 0.1)
    cloud.vswitch_a.session_table.demote_vni(VNI)
    udp_entry = cloud.vswitch_a.session_table.lookup(VNI, udp().five_tuple())
    assert udp_entry.mode is EntryMode.STATE_ONLY
    burst = [ack(), ack(), udp(), ack(), ack()]
    cloud.vswitch_a.send_from_vnic_burst(cloud.vnic_a, burst)
    cloud.engine.run(until=cloud.engine.now + 0.2)
    return (asdict(cloud.vswitch_a.stats), asdict(cloud.vswitch_b.stats),
            _flow_counters(cloud.vswitch_a, ack().five_tuple()),
            _flow_counters(cloud.vswitch_a, udp().five_tuple()))


def _scenario_demotion_between_runs(reference):
    """Demotion landing between two runs of one burst: the first run
    forwards, the second was charged against the old entry and must be
    dropped at completion — the same fate its packets meet per-packet."""
    cloud = _established_cloud(reference)
    vs = cloud.vswitch_a
    orig_burst = vs.server.send_to_fabric_burst
    orig_single = vs.server.send_to_fabric
    progress = {"fwd": 0, "tripped": False}

    def trip():
        if not progress["tripped"] and progress["fwd"] >= 2:
            progress["tripped"] = True
            vs.session_table.demote_vni(VNI)

    def burst_hook(packets):
        out = orig_burst(packets)
        progress["fwd"] += len(packets)
        trip()
        return out

    def single_hook(packet):
        out = orig_single(packet)
        progress["fwd"] += 1
        trip()
        return out

    vs.server.send_to_fabric_burst = burst_hook
    vs.server.send_to_fabric = single_hook
    burst = [ack(), ack(), udp(sport=7), ack(), ack()]
    vs.send_from_vnic_burst(cloud.vnic_a, burst)
    cloud.engine.run(until=cloud.engine.now + 0.2)
    assert progress["tripped"]
    return (asdict(vs.stats), asdict(cloud.vswitch_b.stats),
            _flow_counters(vs, ack().five_tuple()))


_SCENARIOS = [
    _scenario_fsm_split,
    _scenario_state_only_mid_run,
    _scenario_demotion_between_runs,
]
_IDS = ["fsm_split", "state_only_mid_run", "demotion_between_runs"]


@pytest.mark.parametrize("scenario", _SCENARIOS, ids=_IDS)
def test_edge_case_identical_to_per_packet_replay(scenario):
    """Against the per-packet reference: counters, drops and FSM match
    exactly."""
    assert scenario(reference=False) == scenario(reference=True)


# -- run completion: the live FSM rule --------------------------------------
#
# A run (a burst's or a fluid one) is charged against the FSM state of the
# moment; a packet charged before it (one core, so completions keep
# charge order) may move the FSM before the run completes. The run still
# completes in aggregate when its packets leave the *live* state
# unchanged, and replays per packet when they do not.


def _live_state_mutant(method_name):
    """``LocalDatapath`` with ``method_name`` (``_complete_tx`` or
    ``_complete_rx``) recompiled from its own source minus the live-state
    check: a queued run completes in aggregate whatever the FSM did
    meanwhile."""
    method = getattr(vswitch_module.LocalDatapath, method_name)
    source = textwrap.dedent(inspect.getsource(method))
    old = "if not replay and state.tcp_state is not fsm_snap:"
    assert source.count(old) == 1, f"mutation site moved: {old!r}"
    namespace = dict(vars(vswitch_module))
    exec(compile(source.replace(old, "if False:"), vswitch_module.__file__,
                 "exec"), namespace)
    return type("MutantDatapath", (vswitch_module.LocalDatapath,),
                {method_name: namespace[method_name]})


def _one_core_cloud(datapath_cls=None, vswitch="a"):
    cost_model = CostModel.testbed()
    cost_model.cores = 1
    cloud = build_cloud(cost_model=cost_model)
    if datapath_cls is not None:
        vs = getattr(cloud, f"vswitch_{vswitch}")
        vs.set_datapath(getattr(cloud, f"vnic_{vswitch}").vnic_id,
                        datapath_cls(vs))
    for vnic in (cloud.vnic_a, cloud.vnic_b):
        vnic.attach_guest(lambda pkt: None, lambda pkt, count: None)
    return cloud


def _send(cloud, packet, n, fluid):
    """``n`` copies of ``packet`` from A as one run or one burst; returns
    what A's server put on the fabric meanwhile, by call shape."""
    server = cloud.vswitch_a.server
    sent = []
    server.send_to_fabric = lambda pkt: sent.append(("single", 1))
    server.send_to_fabric_burst = lambda pkts: sent.append(
        ("burst", len(pkts)))
    server.send_to_fabric_run = lambda pkt, count: sent.append(
        ("run", count))
    if fluid:
        cloud.vswitch_a.send_from_vnic_run(cloud.vnic_a, packet, n)
    else:
        cloud.vswitch_a.send_from_vnic_burst(
            cloud.vnic_a, [packet.copy() for _ in range(n)])
    return sent


def _observed(cloud, sent, vswitch="a"):
    vs = getattr(cloud, f"vswitch_{vswitch}")
    return (sent, asdict(vs.stats), _flow_counters(vs, ack().five_tuple()))


def _count_process_pkt(monkeypatch):
    """Count the datapath's per-packet pipeline runs (``process_pkt``)."""
    calls = []
    real = vswitch_module.process_pkt

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(vswitch_module, "process_pkt", counting)
    return calls


def _syn_lands_under_queued_run(fluid):
    """The hot micro-sim's case: the session exists at ``NONE`` (a data
    packet opened it), the held-back SYN is charged, then a ``psh|ack``
    run is charged against ``NONE``; the SYN completes first and moves
    the FSM to ``SYN_SENT``, which ``psh|ack`` leaves unchanged."""
    cloud = _one_core_cloud()
    vs, vnic = cloud.vswitch_a, cloud.vnic_a
    vs.send_from_vnic(vnic, ack(flags=("psh", "ack")))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    entry = vs.session_table.lookup(VNI, ack().five_tuple())
    assert entry.state.tcp_state is TcpState.NONE
    entry.state.stats_policy = StatsPolicy.FULL
    vs.send_from_vnic(vnic, ack(flags=("syn",), payload=b""))
    sent = _send(cloud, ack(flags=("psh", "ack")), 5, fluid)
    cloud.engine.run(until=cloud.engine.now + 0.1)
    assert entry.state.tcp_state is TcpState.SYN_SENT
    return _observed(cloud, sent)


def _synack_lands_under_queued_run(fluid, datapath_cls=None):
    """The boundary: A is in ``SYN_SENT``, B's SYN/ACK reaches A's CPU
    queue, then an initiator ``ack`` run is charged against
    ``SYN_SENT`` (quiet there). The SYN/ACK completes first; under
    ``SYN_RECEIVED`` the first ``ack`` establishes the session, so the
    run must replay per packet."""
    cloud = _one_core_cloud(datapath_cls)
    vs, vnic = cloud.vswitch_a, cloud.vnic_a
    vs.send_from_vnic(vnic, ack(flags=("syn",), payload=b""))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    entry = vs.session_table.lookup(VNI, ack().five_tuple())
    assert entry.state.tcp_state is TcpState.SYN_SENT
    entry.state.stats_policy = StatsPolicy.FULL
    vs.datapath_for(vnic).handle_rx(vnic, Packet.tcp(
        TENANT_B, TENANT_A, 80, 1000, TcpFlags.of("syn", "ack")))
    sent = _send(cloud, ack(), 4, fluid)
    cloud.engine.run(until=cloud.engine.now + 0.1)
    return _observed(cloud, sent)


def _synack_sent_under_queued_rx_run(fluid, datapath_cls=None):
    """The RX boundary, on B: A's SYN arrived as RX (``SYN_SENT``), B's
    own SYN/ACK is charged, then an initiator ``ack`` RX run is charged
    against ``SYN_SENT``. The SYN/ACK completes first and moves the
    state to ``SYN_RECEIVED``, so the run must replay per packet.
    Returns B's deliveries by call shape, stats and flow record."""
    cloud = _one_core_cloud(datapath_cls, vswitch="b")
    vs, vnic = cloud.vswitch_b, cloud.vnic_b
    delivered = []
    vnic.attach_guest(lambda pkt: delivered.append(("single", 1)),
                      lambda pkt, count: delivered.append(("run", count)))
    cloud.vswitch_a.send_from_vnic(cloud.vnic_a,
                                   ack(flags=("syn",), payload=b""))
    cloud.engine.run(until=cloud.engine.now + 0.1)
    entry = vs.session_table.lookup(VNI, ack().five_tuple())
    assert entry.state.tcp_state is TcpState.SYN_SENT
    entry.state.stats_policy = StatsPolicy.FULL
    delivered.clear()
    vs.send_from_vnic(vnic, Packet.tcp(TENANT_B, TENANT_A, 80, 1000,
                                       TcpFlags.of("syn", "ack")))
    datapath = vs.datapath_for(vnic)
    if fluid:
        datapath.handle_rx_run(vnic, ack(), 4)
    else:
        datapath.handle_rx_burst(vnic, [ack() for _ in range(4)])
    cloud.engine.run(until=cloud.engine.now + 0.1)
    return _observed(cloud, delivered, vswitch="b")


def test_fluid_run_survives_a_quiet_fsm_move(monkeypatch):
    """Charged at ``NONE``, completed under ``SYN_SENT``: both forms
    complete the queued run in aggregate (three pipeline runs: the
    opener, its arrival at B, the SYN), the fluid form puts the SYN and
    one run on the wire, and every counter and flow record is the
    burst form's."""
    calls = _count_process_pkt(monkeypatch)
    fluid = _syn_lands_under_queued_run(fluid=True)
    assert len(calls) == 3, calls
    calls.clear()
    burst = _syn_lands_under_queued_run(fluid=False)
    assert len(calls) == 3, calls
    assert fluid[0] == [("single", 1), ("run", 5)]
    assert burst[0] == [("single", 1), ("burst", 5)]
    assert fluid[1:] == burst[1:]


def _assert_rematerializes(datapath_cls=None):
    fluid = _synack_lands_under_queued_run(True, datapath_cls)
    assert fluid[2][-1] is TcpState.ESTABLISHED, "queued run kept as a run"
    assert fluid == _synack_lands_under_queued_run(False)
    assert fluid[0] == [("burst", 4)]


def _assert_rx_replays(datapath_cls=None):
    for fluid in (True, False):
        observed = _synack_sent_under_queued_rx_run(fluid, datapath_cls)
        assert observed[2][-1] is TcpState.ESTABLISHED, \
            "queued RX run kept as a run"
        assert observed[0] == [("single", 1)] * 4
    assert observed == _synack_sent_under_queued_rx_run(True)


def test_fluid_run_rematerializes_when_the_live_state_moves_it():
    """Charged at ``SYN_SENT``, completed under ``SYN_RECEIVED``: the
    template is not quiet there, so the run replays per packet and the
    first ``ack`` reaches ``ESTABLISHED`` — as in the burst form."""
    _assert_rematerializes()


def test_rx_run_replays_when_the_live_state_moves_it():
    """B's mirror of the boundary: an RX run queued behind B's own
    SYN/ACK replays per packet, in both forms, and the first ``ack``
    establishes B's session."""
    _assert_rx_replays()


def test_live_state_rule_trips_on_its_mutant():
    """A TX completion that accepts any live state completes the run
    in ``SYN_RECEIVED`` and never establishes the session."""
    with pytest.raises(AssertionError, match="queued run kept as a run"):
        _assert_rematerializes(_live_state_mutant("_complete_tx"))


def test_rx_live_state_rule_trips_on_its_mutant():
    """The same mutation of the RX completion keeps B's queued run in
    aggregate under ``SYN_RECEIVED``."""
    with pytest.raises(AssertionError, match="queued RX run kept as a run"):
        _assert_rx_replays(_live_state_mutant("_complete_rx"))
