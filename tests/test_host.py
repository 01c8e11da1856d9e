"""Tests for the host package: VM kernel model and guest TCP endpoints."""

import pytest

from repro.errors import ConfigError
from repro.host import GuestTcp, Vm, VmCostModel
from repro.net import Packet, TcpFlags
from repro.sim import Engine

from tests.conftest import TENANT_A, TENANT_B, build_cloud


# -- VmCostModel ---------------------------------------------------------------

def test_vm_cost_model_caps():
    cm = VmCostModel()
    assert cm.serial_cap() == pytest.approx(2.5e9 / 8300)
    # Parallel cap scales linearly with vCPUs.
    assert cm.parallel_cap(8) == pytest.approx(2 * cm.parallel_cap(4))


def test_vm_cost_model_testbed_scaling():
    assert VmCostModel.testbed(50).hz == pytest.approx(2.5e9 / 50)


def test_amdahl_plateau_shape():
    """Capacity grows with vCPUs then hits the serial (lock) ceiling —
    the Fig 10 plateau."""
    cm = VmCostModel()
    caps = [min(cm.serial_cap(), cm.parallel_cap(n)) for n in (8, 16, 32, 64, 128)]
    assert caps[0] < caps[1] < caps[2]             # growth region
    assert caps[-1] == caps[-2] == cm.serial_cap()  # plateau


# -- Vm ----------------------------------------------------------------------------

def test_vm_requires_vcpu():
    with pytest.raises(ConfigError):
        Vm(Engine(), "bad", vcpus=0)


def test_vm_send_requires_hosted_vnic(cloud):
    vm = Vm(cloud.engine, "vm", vcpus=2)
    cloud.vswitch_a.remove_vnic(cloud.vnic_a.vnic_id)
    with pytest.raises(ConfigError):
        vm.send(cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1, 2,
                                         TcpFlags.of("syn")))


def test_vm_send_charges_cpu_and_transmits(cloud):
    vm = Vm(cloud.engine, "vm", vcpus=2)
    vm.attach_vnic(cloud.vnic_a)
    got = []
    cloud.vnic_b.attach_guest(got.append)
    vm.send(cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80,
                                     TcpFlags.of("syn")), new_connection=True)
    cloud.engine.run(until=0.5)
    assert len(got) == 1
    assert vm.conns_opened == 1
    assert vm.cpu.jobs_done >= 1
    assert vm.kernel_lock.jobs_done == 1


def test_vm_listener_demux(cloud):
    vm = Vm(cloud.engine, "vm", vcpus=2)
    vm.attach_vnic(cloud.vnic_b)
    hits = {"p80": 0, "p81": 0}
    vm.listen(cloud.vnic_b, 80, lambda pkt: hits.__setitem__("p80", hits["p80"] + 1))
    vm.listen(cloud.vnic_b, 81, lambda pkt: hits.__setitem__("p81", hits["p81"] + 1))
    cloud.vswitch_a.send_from_vnic(
        cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, 1000, 80, TcpFlags.of("syn")))
    cloud.engine.run(until=0.5)
    assert hits == {"p80": 1, "p81": 0}


def test_vm_kernel_overload_drops():
    engine = Engine()
    cloud = build_cloud(engine)
    vm = Vm(engine, "vm", vcpus=1)
    vm.attach_vnic(cloud.vnic_a)
    for sport in range(2000):
        vm.send(cloud.vnic_a, Packet.tcp(TENANT_A, TENANT_B, sport + 1, 80,
                                         TcpFlags.of("syn")),
                new_connection=True)
    engine.run(until=1.0)
    assert vm.kernel_drops > 0


# -- GuestTcp end-to-end ----------------------------------------------------------------

def build_crr_pair(cloud, client_vcpus=8, server_vcpus=8):
    client_vm = Vm(cloud.engine, "client", vcpus=client_vcpus)
    server_vm = Vm(cloud.engine, "server", vcpus=server_vcpus)
    client_vm.attach_vnic(cloud.vnic_a)
    server_vm.attach_vnic(cloud.vnic_b)
    client = GuestTcp(client_vm, cloud.vnic_a)
    server = GuestTcp(server_vm, cloud.vnic_b)
    server.serve(80)
    return client, server


def test_single_crr_transaction_completes(cloud):
    client, server = build_crr_pair(cloud)
    done = []
    client.open(TENANT_B, 80, on_done=done.append)
    cloud.engine.run(until=1.0)
    assert len(done) == 1
    assert client.completed == 1 and client.failed == 0
    assert server.server_accepts == 1
    assert done[0].latency > 0
    assert client.in_flight == 0


def test_crr_transaction_latency_reasonable(cloud):
    client, _server = build_crr_pair(cloud)
    done = []
    client.open(TENANT_B, 80, on_done=done.append)
    cloud.engine.run(until=1.0)
    # 6 packets, each with sub-millisecond processing: well under 100 ms.
    assert done[0].latency < 0.1


def test_many_transactions_all_complete(cloud):
    client, server = build_crr_pair(cloud)
    # Pace the opens: 50 transactions at 2 ms spacing stays well inside the
    # scaled-down VM's connection capacity.
    for i in range(50):
        cloud.engine.call_at(i * 0.002, client.open, TENANT_B, 80)
    cloud.engine.run(until=2.0)
    assert client.completed == 50
    assert client.failed == 0


def test_crr_times_out_when_peer_dark(cloud):
    client, _server = build_crr_pair(cloud)
    cloud.vswitch_b.crash()
    failures = []
    client.open(TENANT_B, 80, on_fail=failures.append)
    cloud.engine.run(until=2.0)
    assert len(failures) == 1
    assert client.failed == 1


def test_fast_path_used_after_first_packets(cloud):
    client, _server = build_crr_pair(cloud)
    client.open(TENANT_B, 80)
    cloud.engine.run(until=1.0)
    # Each side does exactly one slow-path lookup per direction-first packet.
    assert cloud.vswitch_a.stats.slow_path_lookups == 1
    assert cloud.vswitch_b.stats.slow_path_lookups == 1
    assert cloud.vswitch_a.stats.fast_path_hits >= 2


# -- child vNICs and BDF limits (§7.4) ----------------------------------------------

def _mini_cloud():
    from repro.fabric import Topology
    from repro.vswitch import CostModel, Vnic, VSwitch
    from repro.vswitch.vswitch import make_standard_chain
    from repro.net import IPv4Address, MacAddress
    engine = Engine()
    topo = Topology.leaf_spine(engine, 1, 1)
    cm = CostModel.testbed()
    vswitch = VSwitch(engine, topo.servers[0], cm)
    def mk(vnic_id, ip, parent=None):
        return Vnic(vnic_id, 100, IPv4Address(ip), MacAddress(vnic_id),
                    make_standard_chain(cm), parent=parent)
    return engine, vswitch, mk


def test_bdf_budget_limits_parent_vnics():
    from repro.host.vm import BDF_FOR_VNICS_DEFAULT
    engine, vswitch, mk = _mini_cloud()
    vm = Vm(engine, "dense", vcpus=4)
    for i in range(BDF_FOR_VNICS_DEFAULT):
        vm.attach_vnic(mk(i + 1, f"10.20.{i // 250}.{i % 250 + 1}"))
    with pytest.raises(ConfigError, match="BDF"):
        vm.attach_vnic(mk(999, "10.21.0.1"))


def test_sriov_extends_bdf_budget():
    from repro.host.vm import BDF_FOR_VNICS_DEFAULT
    engine, _vswitch, mk = _mini_cloud()
    vm = Vm(engine, "sriov", vcpus=4, sriov=True)
    for i in range(BDF_FOR_VNICS_DEFAULT + 10):
        vm.attach_vnic(mk(i + 1, f"10.22.{i // 250}.{i % 250 + 1}"))
    assert vm.bdf_used() == BDF_FOR_VNICS_DEFAULT + 10


def test_child_vnics_share_parent_bdf():
    engine, _vswitch, mk = _mini_cloud()
    vm = Vm(engine, "child-user", vcpus=4)
    parent = mk(1, "10.23.0.1")
    vm.attach_vnic(parent)
    children = [mk(100 + i, f"10.23.1.{i + 1}", parent=parent)
                for i in range(100)]
    # Children never consume BDF numbers regardless of count.
    assert vm.bdf_used() == 1
    assert len(parent.children) == 100


def test_child_vnic_delivers_through_parent_with_tag():
    engine, _vswitch, mk = _mini_cloud()
    parent = mk(1, "10.24.0.1")
    child = mk(2, "10.24.0.2", parent=parent)
    got = []
    parent.attach_guest(got.append)
    pkt = Packet.tcp(TENANT_A, TENANT_B, 1, 2, TcpFlags.of("syn"))
    child.deliver(pkt)
    assert len(got) == 1
    assert got[0].meta["child_vnic"] == 2
    assert child.rx_delivered == 1 and parent.rx_delivered == 1
