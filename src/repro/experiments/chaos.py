"""Chaos soak: seeded fault fuzzing against the full failover control plane.

Not a paper figure. The soak builds the §6.2 testbed plus the §4.4
machinery (health monitor, placement, reconciling controller), offloads
the hot vNIC, drives CRR traffic, and then lets a seeded
:class:`~repro.faults.fuzzer.FaultFuzzer` crash vSwitches, flap links,
partition the monitor, sabotage control RPCs, drop learner pulls, and
kill the controller — all at once, for a fixed horizon.

Invariants from :mod:`repro.faults.invariants` are checked after every
injected event and on a periodic sweep; after the horizon every fault is
force-healed, the system settles, and the strict quiesced invariants must
hold: gateway/learner convergence, no orphaned FEs, no stranded session
state on dead FEs, and exact packet conservation
(delivered + dropped + in-flight == sent, in-flight drained to zero).

``python -m repro.experiments.chaos`` exits non-zero on any violation —
or if the run injected fewer faults than ``--min-faults`` or missed a
fault kind — so CI can gate on a fixed seed.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional, Tuple

from repro.controller import FePlacement, HealthMonitor, NezhaController
from repro.controller.controller import ControllerConfig
from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.experiments.testbed import build_testbed
from repro.faults import (FaultFuzzer, FaultInjector, FuzzRates,
                          check_quiesced, check_runtime)

DEFAULT_HORIZON = 6.0     # seconds of virtual time under active fuzzing
DEFAULT_SETTLE = 3.0      # post-heal convergence window
DEFAULT_RATE_CPS = 400.0  # open-loop CRR load across the clients
MIN_FAULTS = 200          # acceptance floor for injected fault actions


def run_soak(seed: int = 0, horizon: float = DEFAULT_HORIZON,
             settle: float = DEFAULT_SETTLE,
             rate_cps: float = DEFAULT_RATE_CPS,
             n_clients: int = 3, n_idle: int = 8,
             monitor_interval: float = 0.1,
             check_interval: float = 0.25) -> Dict[str, Any]:
    """One full chaos soak; returns raw counters and violation lists."""
    testbed = build_testbed(n_clients=n_clients, n_idle=n_idle, seed=seed)
    engine = testbed.engine

    # §4.4 machinery on a dedicated monitor host (the last server). Its
    # vSwitch never hosts FEs (the controller keeps its monitor's host
    # out of placement) and is not a probe target, so partitioning the
    # monitor is a pure monitoring failure, not a data-plane one.
    monitor_host = testbed.topo.servers[-1]
    monitor = HealthMonitor(engine, monitor_host,
                            interval=monitor_interval, miss_threshold=3)
    placement = FePlacement(testbed.topo, {})
    # At this testbed's load the FEs idle around 3-7 % CPU; the default
    # 10 % fallback threshold would spontaneously fall everything back two
    # seconds in and leave the fuzzer nothing to break. Treat FEs as idle
    # only when truly unloaded (i.e. once the soak's traffic stops).
    config = ControllerConfig(fallback_threshold=0.02, fallback_polls=30)
    controller = NezhaController(engine, testbed.gateway,
                                 testbed.orchestrator, placement,
                                 config=config, monitor=monitor)
    for vswitch in testbed.vswitches:
        controller.register(vswitch)
    for server in testbed.topo.servers[:-1]:
        monitor.add_target(server)

    handle = testbed.orchestrator.offload(testbed.server_vnic,
                                          testbed.idle_vswitches[:4])
    # A second, under-provisioned offload: the controller's min-FE top-up
    # has to scale it out mid-chaos, keeping control RPCs in flight for
    # the storm windows to sabotage.
    side = testbed.orchestrator.offload(testbed.client_vnics[0],
                                        testbed.idle_vswitches[4:6])
    testbed.run(1.0)
    if handle.completed_at is None or side.completed_at is None:
        raise RuntimeError("initial offload did not complete")
    monitor.start()
    controller.start()

    gens = testbed.start_crr(rate_cps, duration=0.5 + horizon)
    testbed.run(0.5)  # traffic flowing before the first fault lands

    rng = testbed.rng.child("chaos")
    # FE-capable hosts appear twice in the crash-target list: crashes that
    # actually hit FEs drive failover + replacement flows, which is the
    # code under test.
    fe_pool = [vs.name for vs in testbed.idle_vswitches[:-1]]
    rates = FuzzRates(crash=2.0, link_flap=1.5, partition=0.35,
                      rpc_storm=2.0, learner_drop=2.5, kill_controller=0.4)
    fuzzer = FaultFuzzer(rng.child("fuzz"),
                         [vs.name for vs in testbed.vswitches[:-1]] + fe_pool,
                         [s.name for s in testbed.topo.servers[:-1]],
                         rates=rates)
    plan = fuzzer.generate(horizon, start=engine.now)
    injector = FaultInjector(engine, vswitches=testbed.vswitches,
                             topo=testbed.topo,
                             orchestrator=testbed.orchestrator,
                             learners=testbed.learners, monitor=monitor,
                             controller=controller, rng=rng.child("inject"))

    runtime_violations: List[str] = []
    fuzz_end = engine.now + horizon

    def record(tag: str) -> None:
        for text in check_runtime(testbed.orchestrator, testbed.vswitches,
                                  testbed.topo):
            runtime_violations.append(f"[t={engine.now:.3f} {tag}] {text}")

    injector.on_event = lambda event: record(event.kind.value)

    def checker():
        while engine.now < fuzz_end:
            record("periodic")
            yield engine.timeout(check_interval)

    engine.process(checker(), name="invariant-checker")
    plan.schedule(injector)
    testbed.run(horizon)

    # Quiesce: heal everything, let the controller converge, then stop
    # the prober and drain so packet conservation is exact.
    injector.heal_all()
    testbed.run(settle)
    monitor.stop()
    testbed.run(0.5)

    quiesced_violations = check_quiesced(
        testbed.orchestrator, testbed.gateway, testbed.vswitches,
        [testbed.server_vnic] + testbed.client_vnics, testbed.topo)

    return {
        "seed": seed,
        "events": len(plan),
        "kinds": [kind.value for kind in plan.kinds()],
        "injected": dict(sorted(injector.injected.items())),
        "total_injected": injector.total_injected(),
        "runtime_violations": runtime_violations,
        "quiesced_violations": quiesced_violations,
        "offered": sum(g.result.offered for g in gens),
        "completed": sum(g.result.completed for g in gens),
        "failed": sum(g.result.failed for g in gens),
        "failovers": controller.failovers,
        "scale_outs": controller.scale_outs,
        "fallbacks": controller.fallbacks,
        "reconcile_errors": controller.reconcile_errors,
        "rpc_giveups": testbed.orchestrator.rpc_giveups,
        "aborted_offloads": testbed.orchestrator.aborted_offloads,
        "fe_count": len(handle.frontends),
    }


def run_point(point: Tuple[int, float, float]) -> Dict[str, Any]:
    seed, horizon, settle = point
    return run_soak(seed=seed, horizon=horizon, settle=settle)


def run(seed: int = 0, jobs: Optional[int] = 1,
        horizon: float = DEFAULT_HORIZON,
        settle: float = DEFAULT_SETTLE) -> ExperimentResult:
    outcome, = sweep([(seed, horizon, settle)], run_point, jobs=jobs)
    result = ExperimentResult(
        name="chaos",
        description="fault-injection soak over the failover control plane",
        columns=["fault", "count"],
    )
    for key, count in outcome["injected"].items():
        result.add_row(fault=key, count=count)
    result.add_row(fault="TOTAL", count=outcome["total_injected"])
    result.note(f"seed {outcome['seed']}: {outcome['events']} scheduled "
                f"events covering {len(outcome['kinds'])} fault kinds")
    result.note(f"transactions: {outcome['completed']} ok / "
                f"{outcome['failed']} failed of {outcome['offered']} offered")
    result.note(f"control plane: {outcome['failovers']} failovers, "
                f"{outcome['scale_outs']} scale-outs, "
                f"{outcome['fallbacks']} fallbacks, "
                f"{outcome['rpc_giveups']} RPC give-ups, "
                f"{outcome['aborted_offloads']} aborted offloads, "
                f"{outcome['reconcile_errors']} degraded reconcile steps")
    runtime = outcome["runtime_violations"]
    quiesced = outcome["quiesced_violations"]
    result.note(f"invariant violations: {len(runtime)} runtime, "
                f"{len(quiesced)} quiesced")
    for text in (runtime + quiesced)[:10]:
        result.note(f"VIOLATION: {text}")
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.chaos",
        description="Chaos soak; exits 1 on invariant violations.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
    parser.add_argument("--settle", type=float, default=DEFAULT_SETTLE)
    parser.add_argument("--min-faults", type=int, default=MIN_FAULTS,
                        help="fail if fewer fault actions were injected")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="record telemetry during the soak and export "
                             "it as JSONL to PATH; the unified trace gives "
                             "a post-mortem timeline interleaving injected "
                             "faults with the controller's reactions "
                             "(inspect with tools/telemetry.py timeline)")
    args = parser.parse_args(argv)

    tel = None
    if args.telemetry is not None:
        from repro import telemetry
        tel = telemetry.install(profile=True)
    try:
        outcome = run_soak(seed=args.seed, horizon=args.horizon,
                           settle=args.settle)
        if tel is not None:
            lines = tel.export(args.telemetry)
            print(f"[telemetry: {lines} lines -> {args.telemetry}]")
    finally:
        if tel is not None:
            from repro import telemetry
            telemetry.uninstall()
    print(f"chaos soak (seed {outcome['seed']}): {outcome['events']} events, "
          f"{outcome['total_injected']} fault actions injected")
    for key, count in outcome["injected"].items():
        print(f"  {key}: {count}")
    print(f"transactions: {outcome['completed']} ok / {outcome['failed']} "
          f"failed of {outcome['offered']} offered; "
          f"{outcome['failovers']} failovers, {outcome['scale_outs']} "
          f"scale-outs, {outcome['fallbacks']} fallbacks")

    failures: List[str] = []
    for text in outcome["runtime_violations"]:
        failures.append(f"runtime violation: {text}")
    for text in outcome["quiesced_violations"]:
        failures.append(f"quiesced violation: {text}")
    if outcome["total_injected"] < args.min_faults:
        failures.append(f"only {outcome['total_injected']} fault actions "
                        f"injected (need >= {args.min_faults})")
    missing = set(k.value for k in _all_kinds()) - set(outcome["kinds"])
    if missing:
        failures.append(f"fault kinds never injected: {sorted(missing)}")
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print("chaos soak passed: zero invariant violations")
    return 0


def _all_kinds():
    from repro.faults import FaultKind
    return list(FaultKind)


if __name__ == "__main__":
    raise SystemExit(main())
