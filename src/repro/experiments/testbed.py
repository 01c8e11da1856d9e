"""The §6.2 testbed: one high-demand server vNIC, client servers, a pool
of idle vSwitches, and CRR plumbing.

Mirrors the paper's setup: client and server VMs on different servers
(64-core Xeons), other servers as the remote resource pool, vSwitch slice
of 8 cores / 10 GB. Everything runs under the scaled-down cost model, so
capacities are ~1/50 of production and all comparisons are ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.controller.gateway import Gateway, MappingLearner
from repro.controller.latency import ControlLatencyModel
from repro.core.offload import NezhaOrchestrator, OffloadConfig
from repro.fabric import Topology
from repro.host import GuestTcp, Vm, VmCostModel
from repro.net.addr import IPv4Address, MacAddress
from repro.sim import Engine, SeededRng
from repro.vswitch import CostModel, Vnic, VSwitch
from repro.vswitch.rule_tables import Location
from repro.vswitch.slow_path import SlowPath
from repro.vswitch.vswitch import make_standard_chain
from repro.workloads import CrrLoadGenerator

VNI = 100
SERVER_IP = IPv4Address("192.168.1.1")


@dataclass
class Testbed:
    engine: Engine
    topo: Topology
    vswitches: List[VSwitch]
    server_vm: Vm
    server_vnic: Vnic
    server_app: GuestTcp
    client_vms: List[Vm]
    client_vnics: List[Vnic]
    client_apps: List[GuestTcp]
    gateway: Gateway
    orchestrator: NezhaOrchestrator
    learners: List[MappingLearner]
    cost_model: CostModel
    rng: SeededRng

    @property
    def server_vswitch(self) -> VSwitch:
        return self.vswitches[0]

    @property
    def idle_vswitches(self) -> List[VSwitch]:
        return self.vswitches[1 + len(self.client_vms):]

    def run(self, duration: float) -> None:
        self.engine.run(until=self.engine.now + duration)

    def start_crr(self, total_rate_cps: float, duration: float,
                  rng_label: str = "crr") -> List[CrrLoadGenerator]:
        """Open-loop CRR load split evenly across the client VMs."""
        gens = []
        per_client = total_rate_cps / len(self.client_apps)
        for index, app in enumerate(self.client_apps):
            gen = CrrLoadGenerator(
                self.engine, app, SERVER_IP, 80, rate_cps=per_client,
                rng=self.rng.child(f"{rng_label}-{index}"))
            gen.run(duration)
            gens.append(gen)
        return gens


def build_testbed(n_clients: int = 4, n_idle: int = 12,
                  server_vcpus: int = 64, scale: float = 50.0,
                  seed: int = 0,
                  server_chain: Optional[SlowPath] = None,
                  learner_interval: float = 0.05) -> Testbed:
    engine = Engine()
    rng = SeededRng(seed, "testbed")
    cost_model = CostModel.testbed(scale)
    vm_cost = VmCostModel.testbed(scale)
    n_servers = 1 + n_clients + n_idle
    topo = Topology.leaf_spine(engine, n_tors=1, servers_per_tor=n_servers)
    vswitches = [VSwitch(engine, s, cost_model) for s in topo.servers]
    gateway = Gateway(engine)

    # The high-demand server vNIC on server 0.
    chain = server_chain or make_standard_chain(cost_model)
    server_vnic = Vnic(1, VNI, SERVER_IP, MacAddress(0x51), chain)
    vswitches[0].add_vnic(server_vnic)
    server_vm = Vm(engine, "server-vm", vcpus=server_vcpus,
                   cost_model=vm_cost)
    server_vm.attach_vnic(server_vnic)
    server_app = GuestTcp(server_vm, server_vnic)
    server_app.serve(80)
    gateway.set_locations(VNI, SERVER_IP, [Location(
        topo.servers[0].underlay_ip, topo.servers[0].mac)])

    # Client VMs on their own servers.
    client_vms, client_vnics, client_apps = [], [], []
    for index in range(n_clients):
        server_node = topo.servers[1 + index]
        ip = IPv4Address(f"192.168.1.{10 + index}")
        vnic = Vnic(10 + index, VNI, ip, MacAddress(0x60 + index),
                    make_standard_chain(cost_model))
        vswitches[1 + index].add_vnic(vnic)
        vm = Vm(engine, f"client-vm-{index}", vcpus=64, cost_model=vm_cost)
        vm.attach_vnic(vnic)
        app = GuestTcp(vm, vnic)
        client_vms.append(vm)
        client_vnics.append(vnic)
        client_apps.append(app)
        gateway.set_locations(VNI, ip, [Location(server_node.underlay_ip,
                                                 server_node.mac)])

    learners = []
    for index, vswitch in enumerate(vswitches):
        learner = MappingLearner(engine, vswitch, gateway,
                                 interval=learner_interval,
                                 rng=rng.child(f"learner{index}"))
        learner.refresh()
        learner.start()
        learners.append(learner)

    config = OffloadConfig(learning_interval=learner_interval,
                           inflight_margin=0.01, sync_poll=0.01,
                           sync_timeout=2.0,
                           latency=ControlLatencyModel.fast())
    orchestrator = NezhaOrchestrator(engine, gateway,
                                     rng=rng.child("orch"), config=config)
    for vswitch in vswitches:
        vswitch.start_aging(interval=0.5)
    return Testbed(engine, topo, vswitches, server_vm, server_vnic,
                   server_app, client_vms, client_vnics, client_apps,
                   gateway, orchestrator, learners, cost_model, rng)
