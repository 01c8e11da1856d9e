"""Fig 11: CPU utilization during offloading and FE scaling.

Paper: ramping CPS pushes the BE vSwitch past the 70 % offload threshold;
after offloading to 4 FEs its utilization collapses to ≈10 % (only state
handling remains). When the average FE utilization crosses 40 %, scaling
out to 8 FEs halves the FE load.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.experiments.testbed import build_testbed


def run_point(point: Tuple[float, float, int]) -> Dict[str, Any]:
    """Sweep point: the whole ramp/offload/scale-out simulation.

    Fig 11 is one continuous time series, so there is a single point; it
    still follows the point-function contract (own engine, plain-data
    return) so the CLI can run it in a pool worker alongside other
    experiments.
    """
    duration, sample_period, seed = point
    testbed = build_testbed(n_clients=4, n_idle=8, seed=seed)
    engine = testbed.engine
    be_series: List[Tuple[float, float]] = []   # (time, BE CPU)
    fe_series: List[Tuple[float, float]] = []   # (time, average FE CPU)
    state = {"handle": None, "scaled": False}

    loops = testbed.start_closed_loop(4)

    def ramp():
        # Add concurrency every 1s to ramp offered CPS.
        while True:
            yield engine.timeout(1.0)
            for loop in loops:
                loop.concurrency += 10
                for _ in range(10):
                    loop._spawn()

    def control():
        while True:
            yield engine.timeout(0.2)
            handle = state["handle"]
            if handle is None:
                if testbed.server_vswitch.cpu_utilization() > 0.7:
                    state["handle"] = testbed.orchestrator.offload(
                        testbed.server_vnic, testbed.idle_vswitches[:4])
            elif not state["scaled"] and handle.completed_at is not None:
                fes = handle.fe_vswitches
                avg = sum(fe.cpu_utilization() for fe in fes) / len(fes)
                if avg > 0.4:
                    state["scaled"] = True
                    testbed.orchestrator.scale_out(
                        handle, testbed.idle_vswitches[4:8])

    def sampler():
        while True:
            be_series.append((engine.now,
                              testbed.server_vswitch.cpu_utilization()))
            handle = state["handle"]
            if handle is not None and handle.frontends:
                fes = handle.fe_vswitches
                fe_series.append((engine.now,
                                  sum(fe.cpu_utilization()
                                      for fe in fes) / len(fes)))
            else:
                fe_series.append((engine.now, 0.0))
            yield engine.timeout(sample_period)

    engine.process(ramp(), name="ramp")
    engine.process(control(), name="control")
    engine.process(sampler(), name="sampler")
    engine.run(until=duration)

    rows = [{"time_s": t, "be_cpu": be, "fe_cpu_avg": fe}
            for (t, be), (_t2, fe) in zip(be_series, fe_series)]
    notes: List[str] = []
    handle = state["handle"]
    if handle is not None and handle.completed_at is not None:
        t_off = handle.completed_at
        pre = [v for t, v in be_series if t_off - 1.0 <= t < t_off]
        post = [v for t, v in be_series
                if t_off + 1.0 <= t < t_off + 3.0]
        if pre and post:
            notes.append(f"BE CPU before offload {max(pre):.0%} -> after "
                         f"{sum(post) / len(post):.0%} "
                         "(paper: ~70% -> ~10%)")
        notes.append(f"scale-out triggered: {state['scaled']} "
                     f"(#FEs={len(handle.frontends)})")
    return {"rows": rows, "notes": notes}


def run(duration: float = 14.0, sample_period: float = 0.25,
        seed: int = 0, jobs: Optional[int] = 1) -> ExperimentResult:
    outcome, = sweep([(duration, sample_period, seed)], run_point,
                     jobs=jobs)
    result = ExperimentResult(
        name="fig11",
        description="BE / avg-FE CPU utilization during offload + scaling",
        columns=["time_s", "be_cpu", "fe_cpu_avg"],
    )
    for row in outcome["rows"]:
        result.add_row(**row)
    for note in outcome["notes"]:
        result.note(note)
    return result
