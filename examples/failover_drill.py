#!/usr/bin/env python3
"""Failover drill: crash an FE under live traffic and watch §4.4 work.

Sets up the full machinery — offloaded vNIC, centralized health monitor
with flow-direct probes, the controller's failover path that maintains a
minimum of 4 FEs — then kills one FE's vSwitch mid-traffic and prints the
loss-rate surge, the recovery, and — read back from the telemetry trace —
the monitor's DOWN verdict and the controller's failover at their virtual
times.

Run:  python examples/failover_drill.py
"""

from repro import telemetry
from repro.controller import FePlacement, HealthMonitor, NezhaController
from repro.controller.controller import ControllerConfig
from repro.experiments.testbed import SERVER_IP, build_testbed
from repro.workloads import ClosedLoopCrr


def main() -> None:
    # Installed first, so every component built below records into the
    # one shared trace.
    tel = telemetry.install()
    try:
        drill(tel.trace)
    finally:
        telemetry.uninstall()


def drill(trace) -> None:
    testbed = build_testbed(n_clients=4, n_idle=6, seed=11)
    engine = testbed.engine

    # Offload the server vNIC to four FEs.
    handle = testbed.orchestrator.offload(testbed.server_vnic,
                                          testbed.idle_vswitches[:4])
    testbed.run(1.0)
    print(f"t={engine.now:5.2f}s  offload active on "
          f"{[fe.name for fe in handle.fe_vswitches]}")

    # Health monitor + controller failover path.
    monitor = HealthMonitor(engine, testbed.topo.servers[-1],
                            interval=0.4, miss_threshold=3)
    placement = FePlacement(testbed.topo, {})
    controller = NezhaController(engine, testbed.gateway,
                                 testbed.orchestrator, placement,
                                 config=ControllerConfig(), monitor=monitor)
    for vswitch in testbed.vswitches:
        controller.register(vswitch)
    for fe in handle.fe_vswitches:
        monitor.add_target(fe.server)
    monitor.start()

    # Steady traffic.
    loops = [ClosedLoopCrr(engine, app, SERVER_IP, 80, concurrency=16)
             .start() for app in testbed.client_apps]

    victim = handle.fe_vswitches[0]
    crash_time = engine.now + 2.0
    engine.call_at(crash_time, victim.crash)
    engine.call_at(crash_time,
                   lambda: print(f"t={crash_time:5.2f}s  !! {victim.name} "
                                 f"crashed"))

    # Sample loss per half second.
    prev = {"done": 0, "fail": 0}

    def sampler():
        while True:
            yield engine.timeout(0.5)
            done = sum(loop.completed for loop in loops)
            fail = sum(loop.failed for loop in loops)
            d, f = done - prev["done"], fail - prev["fail"]
            prev["done"], prev["fail"] = done, fail
            loss = f / (d + f) if d + f else 0.0
            bar = "#" * int(loss * 40)
            print(f"t={engine.now:5.2f}s  loss {loss:6.1%} {bar}")

    engine.process(sampler(), name="sampler")
    testbed.run(8.0)

    print("\ncontrol plane, from the trace:")
    for rec in trace.records("monitor.target_down"):
        print(f"t={rec.time:5.2f}s  monitor: {rec.target} DOWN")
    for rec in trace.records("controller.failover"):
        print(f"t={rec.time:5.2f}s  controller: failover for {rec.vswitch}")

    print(f"\nfinal FE set: {[fe.name for fe in handle.fe_vswitches]} "
          f"({len(handle.frontends)} FEs — minimum of 4 restored)")
    print(f"victim still excluded from placement: "
          f"{victim.server.name in placement.excluded}")


if __name__ == "__main__":
    main()
