"""Fig 14: impact of an FE crash on the packet loss rate.

Paper: when an FE crashes, the region-level loss rate surges for ≈2 s —
the window covering centralized crash detection (multiple missed pings)
plus failover config propagation — then returns to zero. Only ~1/M of
flows are affected (active-active).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.controller import HealthMonitor
from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.experiments.testbed import build_testbed


def run_point(point: Tuple[float, float, float, float, int]) -> Dict[str, Any]:
    """Sweep point: one crash/failover simulation (a single point — the
    figure is one continuous loss-rate time series)."""
    kill_at, duration, bucket, monitor_interval, seed = point
    testbed = build_testbed(n_clients=4, n_idle=6, seed=seed)
    engine = testbed.engine

    handle = testbed.offload_server()

    # Monitoring + failover (the §4.4 machinery).
    monitor_host = testbed.topo.servers[-1]
    monitor = HealthMonitor(engine, monitor_host,
                            interval=monitor_interval, miss_threshold=3)
    testbed.attach_controller(monitor=monitor)
    for fe in handle.fe_vswitches:
        monitor.add_target(fe.server)
    monitor.start()

    # Steady CRR traffic; per-bucket completions/failures give loss rate.
    loops = testbed.start_closed_loop(24)
    buckets: List[Dict[str, float]] = []
    victim = handle.fe_vswitches[0]

    def sampler():
        prev_done = prev_fail = 0
        while True:
            yield engine.timeout(bucket)
            done = sum(loop.completed for loop in loops)
            fail = sum(loop.failed for loop in loops)
            d, f = done - prev_done, fail - prev_fail
            prev_done, prev_fail = done, fail
            total = d + f
            buckets.append({"t": engine.now - handle.completed_at,
                            "loss": f / total if total else 0.0})

    engine.process(sampler(), name="loss-sampler")
    engine.call_at(engine.now + kill_at, victim.crash)
    testbed.run(duration)

    notes: List[str] = []
    lossy = [row["t"] for row in buckets if row["loss"] > 0.02]
    if lossy:
        notes.append(f"loss surge from ~{min(lossy):.1f}s to "
                     f"~{max(lossy):.1f}s (duration "
                     f"{max(lossy) - min(lossy) + bucket:.1f}s; paper: ~2s)")
    notes.append(f"FE set after failover: {len(handle.frontends)} "
                 "(min 4 restored by the controller)")
    return {"rows": [{"time_s": row["t"], "loss_rate": row["loss"]}
                     for row in buckets],
            "notes": notes}


def run(kill_at: float = 4.0, duration: float = 10.0,
        bucket: float = 0.5, monitor_interval: float = 0.4,
        seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    outcome, = sweep([(kill_at, duration, bucket, monitor_interval, seed)],
                     run_point, jobs=jobs)
    result = ExperimentResult(
        name="fig14",
        description="loss rate around an FE crash (failover via monitor)",
        columns=["time_s", "loss_rate"],
    )
    for row in outcome["rows"]:
        result.add_row(**row)
    for note in outcome["notes"]:
        result.note(note)
    return result
