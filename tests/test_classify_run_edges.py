"""Edge cases of burst run classification against per-packet replay.

Each scenario drives the same burst through the pipeline and through
the per-packet reference datapath (``tests/reference_datapath.py``),
then requires identical vSwitch counters on both ends *and* identical
flow statistics after the records are materialized back into the boxed
SessionState. Hand-picked where ``test_reference_oracle.py`` generates:
these three interleavings are the ones a run classifier gets wrong.
"""

from dataclasses import asdict

import pytest

from repro.net import Packet, TcpFlags
from repro.vswitch import TcpState
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
