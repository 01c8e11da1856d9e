"""Policy arena: PAM, SuperNIC, Sirius, and Nezha head-to-head.

The comparison figure the paper never ran. Every registered
load-sharing policy (:mod:`repro.controller.policy`) is scored on the
same two stages:

* **testbed** — the §6.2 micro-testbed under closed-loop CRR load with
  the *controller* (not a hand-placed offload) reacting through the
  policy under test: measured CPS, probe-flow P99 latency via the
  shared telemetry span layer (fig12's probe, ``Testbed.start_probe``,
  inside a :func:`~repro.telemetry.span_session` — reusing the installed
  telemetry's recorder when there is one), the mean number of FE
  instances the policy keeps deployed, and the FEs it preempted (only
  ``SuperNicPolicy`` preempts);
* **fleet** — :func:`repro.experiments.fleet.run` with the matching
  :class:`~repro.fleet.coordinator.FleetCoordinator` allocation policy:
  FE-pool cost per epoch (mean units in use), overall mitigated
  fraction, and denials.

Each (policy, stage) pair is an independent sweep point with its own
engine and seed, so ``--jobs N`` fans the arena out process-parallel and
still renders a table byte-identical to ``--jobs 1``. Pass
``policy="pam"`` (CLI: ``--policy pam``) to score a single policy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.controller.controller import ControllerConfig
from repro.controller.policy import POLICY_NAMES, make_policy
from repro.experiments import fleet as _fleet
from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.experiments.testbed import build_testbed
from repro.telemetry import span_session


def _testbed_stage(policy_name: str, seed: int, duration: float,
                   warmup: float, concurrency_per_client: int
                   ) -> Dict[str, float]:
    """CPS, span-layer P99, mean deployed FEs and preemptions for one
    policy."""
    testbed = build_testbed(n_clients=4, n_idle=8, seed=seed)
    engine = testbed.engine
    config = ControllerConfig(poll_interval=0.05)
    controller = testbed.attach_controller(config=config,
                                           policy=make_policy(policy_name))
    controller.start()
    loops = testbed.start_closed_loop(concurrency_per_client)
    span_label = f"arena/{policy_name}"
    testbed.start_probe(span_label)

    # Mean FE instances deployed across the measurement window: the
    # testbed-side cost of the policy's placement decisions.
    fe_samples: List[int] = []

    def sample_fes():
        while True:
            fe_samples.append(sum(
                len(h.frontends)
                for h in testbed.orchestrator.handles.values()))
            yield engine.timeout(config.poll_interval)

    # Shared span layer: reuse the installed telemetry's recorder when
    # one exists (so arena probes land in the exported report), else a
    # temporary recorder for just this stage. Clear only our own label —
    # a shared recorder may be mid-flight with other sessions' spans.
    with span_session() as recorder:
        testbed.run(warmup)
        recorder.clear(span_label)    # measurement starts clean
        engine.process(sample_fes(), name="arena-fe-sampler")
        start = sum(loop.completed for loop in loops)
        testbed.run(duration)
        cps = (sum(loop.completed for loop in loops) - start) / duration
        aggregated = recorder.aggregate().get(span_label)
    # A probe that never reached the server scores the worst latency,
    # as in fig12, never the best.
    p99 = aggregated["latency"]["P99"] if aggregated else float("inf")
    fe_mean = sum(fe_samples) / len(fe_samples) if fe_samples else 0.0
    return {"cps": cps, "p99_us": p99 * 1e6, "fe_units": fe_mean,
            "offloads": controller.offloads_triggered,
            "preemptions": getattr(controller.policy, "preemptions", 0)}


def _fleet_stage(policy_name: str, seed: int, n_vswitches: int,
                 epochs: int) -> Dict[str, float]:
    """FE-pool cost and mitigation for one coordinator policy."""
    stats: Dict[str, object] = {}
    _fleet.run(n_vswitches, epochs, seed, shards=1, jobs=1,
               policy=policy_name, fleet_metrics=False, stats=stats)
    coordinator = stats["coordinator"]
    pool_units = coordinator.pool_units
    occurrences = sum(c[0] for c in coordinator.overloads.values())
    residual = sum(c[1] for c in coordinator.overloads.values())
    mitigated = (1.0 - residual / occurrences) if occurrences else 1.0
    mean_units = (sum(coordinator.utilization) * pool_units
                  / len(coordinator.utilization)
                  if coordinator.utilization else 0.0)
    return {"pool_units_per_epoch": mean_units,
            "mitigated_pct": 100.0 * mitigated,
            "denials": coordinator.denied_requests}


def run_point(point: Tuple[str, str, int, float, float, int, int, int]
              ) -> Dict[str, float]:
    """Sweep point: one (stage, policy) measurement in its own engine."""
    (stage, policy_name, seed, duration, warmup,
     concurrency_per_client, fleet_vswitches, fleet_epochs) = point
    if stage == "testbed":
        return _testbed_stage(policy_name, seed, duration, warmup,
                              concurrency_per_client)
    return _fleet_stage(policy_name, seed, fleet_vswitches, fleet_epochs)


def run(policy: Optional[str] = None, seed: int = 0,
        jobs: Optional[int] = 1, duration: float = 1.2,
        warmup: float = 0.6, concurrency_per_client: int = 64,
        fleet_vswitches: int = 1000,
        fleet_epochs: int = 3) -> ExperimentResult:
    """Score load-sharing policies head-to-head.

    ``policy=None`` runs the whole arena (every registered policy); a
    name runs that single policy — same columns, one row.
    """
    policies = list(POLICY_NAMES) if policy is None else [policy]
    points = []
    for stage in ("testbed", "fleet"):
        for name in policies:
            points.append((stage, name, seed, duration, warmup,
                           concurrency_per_client, fleet_vswitches,
                           fleet_epochs))
    measured = sweep(points, run_point, jobs=jobs)
    testbed_rows = dict(zip(policies, measured[:len(policies)]))
    fleet_rows = dict(zip(policies, measured[len(policies):]))

    result = ExperimentResult(
        name="policy_arena",
        description="load-sharing policies head-to-head: CPS, span-layer "
                    "P99 latency, and FE-pool cost",
        columns=["policy", "cps", "p99_us", "fe_units",
                 "pool_units_per_epoch", "mitigated_pct", "denials",
                 "preemptions"],
    )
    for name in policies:
        micro = testbed_rows[name]
        fleet = fleet_rows[name]
        result.add_row(policy=name, cps=micro["cps"],
                       p99_us=micro["p99_us"], fe_units=micro["fe_units"],
                       pool_units_per_epoch=fleet["pool_units_per_epoch"],
                       mitigated_pct=fleet["mitigated_pct"],
                       denials=fleet["denials"],
                       preemptions=micro["preemptions"])
    result.note("testbed columns (cps, p99_us, fe_units) come from the "
                "§6.2 micro-testbed with the controller running each "
                "policy; pool columns from the fleet workload under the "
                "matching coordinator allocation. sirius is the "
                "no-load-sharing baseline; expect nezha >= pam >= sirius "
                "on cps and sirius to mitigate nothing at fleet scale.")
    return result
