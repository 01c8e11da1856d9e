"""The §6.2 testbed: one high-demand server vNIC, client servers, a pool
of idle vSwitches, and the scaffolding every packet-level experiment
shares — closed-loop CRR from every client, the server vNIC offloaded to
the idle pool, a controller over every vSwitch, and the Fig 12 probe
flow whose latency the span layer measures.

Mirrors the paper's setup: client and server VMs on different servers
(64-core Xeons), other servers as the remote resource pool, vSwitch slice
of 8 cores / 10 GB. Everything runs under the scaled-down cost model, so
capacities are ~1/50 of production and all comparisons are ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.controller.gateway import Gateway, MappingLearner
from repro.controller.latency import ControlLatencyModel
from repro.core.offload import NezhaOrchestrator, OffloadConfig, OffloadHandle
from repro.errors import OffloadError
from repro.fabric import Topology
from repro.host import GuestTcp, Vm, VmCostModel
from repro.net.addr import IPv4Address, MacAddress
from repro.net.packet import Packet
from repro.net.tcp import TcpFlags
from repro.sim import Engine, SeededRng
from repro.telemetry import spans as _spans
from repro.vswitch import CostModel, Vnic, VSwitch
from repro.vswitch.rule_tables import Location
from repro.vswitch.slow_path import SlowPath
from repro.vswitch.vswitch import make_standard_chain
from repro.workloads import ClosedLoopCrr, CrrLoadGenerator

if TYPE_CHECKING:
    from repro.controller.controller import ControllerConfig, NezhaController
    from repro.controller.monitor import HealthMonitor
    from repro.controller.policy import NezhaPolicy

VNI = 100
SERVER_IP = IPv4Address("192.168.1.1")
PROBE_PORT = 9000
PROBE_RATE = 200.0  # probe packets per second


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

    def start_closed_loop(self, concurrency: int) -> List[ClosedLoopCrr]:
        """Closed-loop CRR from every client VM to the server's port 80,
        ``concurrency`` transaction slots each."""
        return [ClosedLoopCrr(self.engine, app, SERVER_IP, 80,
                              concurrency=concurrency).start()
                for app in self.client_apps]

    def offload_server(self, n_fes: int = 4) -> OffloadHandle:
        """Offload the server vNIC to the first ``n_fes`` idle vSwitches
        and run one second; raises unless it reached the final stage."""
        handle = self.orchestrator.offload(self.server_vnic,
                                           self.idle_vswitches[:n_fes])
        self.run(1.0)
        if handle.completed_at is None:
            raise OffloadError("server vNIC offload did not reach the "
                               "final stage")
        return handle

    def attach_controller(self, config: Optional[ControllerConfig] = None,
                          monitor: Optional[HealthMonitor] = None,
                          policy: Optional[NezhaPolicy] = None
                          ) -> NezhaController:
        """A controller over every vSwitch, registered, not started."""
        # Imported on use: the CRR-only experiments (and the perfbench
        # workloads built on fig9) never load the controller modules.
        from repro.controller.controller import NezhaController
        from repro.controller.placement import FePlacement
        controller = NezhaController(self.engine, self.gateway,
                                     self.orchestrator,
                                     FePlacement(self.topo, {}),
                                     config=config, monitor=monitor,
                                     policy=policy)
        for vswitch in self.vswitches:
            controller.register(vswitch)
        return controller

    def start_probe(self, label: str) -> None:
        """The Fig 12 probe: a steady established flow from the first
        client to the server at ``PROBE_RATE``. Every packet carries a
        span labelled ``label`` while a recorder is installed; the span
        layer is the only thing that times it."""
        engine = self.engine
        vnic, vm = self.client_vnics[0], self.client_vms[0]
        self.server_vm.listen(self.server_vnic, PROBE_PORT, lambda pkt: None)

        def probe():
            first = True
            while True:
                pkt = Packet.tcp(vnic.tenant_ip, SERVER_IP, 9100, PROBE_PORT,
                                 TcpFlags.of("syn") if first
                                 else TcpFlags.of("psh", "ack"))
                if _spans.ACTIVE:
                    _spans.begin(pkt, label, engine.now)
                vm.send(vnic, pkt, new_connection=first)
                first = False
                yield engine.timeout(1.0 / PROBE_RATE)

        engine.process(probe(), name="probe")


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
