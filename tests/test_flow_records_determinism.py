"""The fluid fast-forward must preserve every traffic aggregate of an
elephant-burst pipeline even though it collapses per-packet events into
run descriptors.
"""

from dataclasses import asdict

from repro.host.vm import Vm
from repro.workloads.elephant import ElephantFlow

from tests.conftest import TENANT_B, build_cloud


def _elephant_totals(fluid: bool):
    """Pump an elephant burst pipeline end to end; return every traffic
    aggregate (packet/byte/drop counters on both vSwitches, delivery
    counts, fabric byte totals). Timestamps are deliberately absent:
    fluid mode collapses mid-run event times by design."""
    cloud = build_cloud()
    vm = Vm(cloud.engine, "pump", vcpus=8)
    vm.attach_vnic(cloud.vnic_a)
    delivered = []
    cloud.vnic_b.attach_guest(delivered.append)
    elephant = ElephantFlow(cloud.engine, vm, cloud.vnic_a, TENANT_B,
                            rate_pps=2000, burst=16,
                            fluid=fluid).run(duration=0.5)
    cloud.engine.run(until=1.0)
    # Materialize any slot residue so session counters are comparable.
    for table in (cloud.vswitch_a.session_table,
                  cloud.vswitch_b.session_table):
        for entry in table:
            if entry.slot >= 0 and entry.state is not None:
                table.records.flush(entry.slot, entry.state)
    entry = cloud.vswitch_a.session_table.lookup(
        cloud.vnic_a.vni, elephant.five_tuple)
    return {
        "sent": elephant.sent,
        "stats_a": asdict(cloud.vswitch_a.stats),
        "stats_b": asdict(cloud.vswitch_b.stats),
        "rx_delivered": cloud.vnic_b.rx_delivered,
        "delivered_packets": len(delivered),
        "kernel_drops": vm.kernel_drops,
        "flow_counters": (entry.state.packets_tx, entry.state.bytes_tx,
                          entry.state.packets_rx, entry.state.bytes_rx),
    }


def test_elephant_fluid_totals_identical():
    fluid = _elephant_totals(fluid=True)
    burst = _elephant_totals(fluid=False)
    assert fluid == burst
    assert fluid["sent"] > 200  # the pipeline actually pumped
