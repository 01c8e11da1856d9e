"""Fig 12: end-to-end latency with/without Nezha vs vSwitch load.

Paper: below the offload threshold both curves coincide; around 80 % CPU
the extra BE→FE hop costs <10 µs; past that, the overloaded local vSwitch's
latency explodes while Nezha's stays flat.

Probe flow: the testbed's steady low-rate established flow
client→server (:meth:`~repro.experiments.testbed.Testbed.start_probe`),
timed by the span layer alone — the P50 in the table is the one
``tools/telemetry.py spans`` prints for the same label from a
``--telemetry`` capture. Background closed-loop CRR sets the vSwitch
load.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.experiments.testbed import build_testbed
from repro.telemetry import span_session


def _measure(load_concurrency: int, nezha: bool, seed: int,
             duration: float = 1.5) -> Tuple[float, float]:
    """Returns (vswitch cpu utilization, P50 probe latency seconds)."""
    testbed = build_testbed(n_clients=4, n_idle=4, seed=seed)
    if nezha:
        handle = testbed.offload_server()
    if load_concurrency:
        testbed.start_closed_loop(load_concurrency)
    # One span label per (path, load) sweep point, so the recorded spans
    # aggregate into exactly the rows this experiment reports.
    label = f"{'offloaded' if nezha else 'local'}/load{load_concurrency}"
    testbed.start_probe(label)
    with span_session() as recorder:
        testbed.run(0.5)          # warm up the load + probe session
        recorder.clear(label)
        testbed.run(duration)
        aggregated = recorder.aggregate().get(label)
    util = testbed.server_vswitch.cpu_utilization()
    if nezha:
        util = max(util, max(fe.cpu_utilization()
                             for fe in handle.fe_vswitches))
    p50 = aggregated["latency"]["P50"] if aggregated else float("inf")
    return util, p50


def run_point(point: Tuple[int, bool, int, float]) -> Tuple[float, float]:
    """Sweep point: (vswitch cpu, P50 probe latency) for one
    (load, nezha on/off) configuration."""
    load_concurrency, nezha, seed, duration = point
    return _measure(load_concurrency, nezha=nezha, seed=seed,
                    duration=duration)


def run(load_levels: Sequence[int] = (0, 8, 16, 32, 48, 64, 96),
        seed: int = 0, duration: float = 1.5,
        jobs: Optional[int] = 1) -> ExperimentResult:
    result = ExperimentResult(
        name="fig12",
        description="probe latency (us) vs load, with/without Nezha",
        columns=["load_concurrency", "cpu_without", "latency_without_us",
                 "latency_with_us", "extra_hop_us"],
    )
    points = [(load, nezha, seed, duration)
              for load in load_levels for nezha in (False, True)]
    measured = sweep(points, run_point, jobs=jobs)
    for index, load in enumerate(load_levels):
        util_without, lat_without = measured[2 * index]
        _util_with, lat_with = measured[2 * index + 1]
        extra = (lat_with - lat_without) * 1e6
        result.add_row(load_concurrency=load,
                       cpu_without=util_without,
                       latency_without_us=lat_without * 1e6,
                       latency_with_us=lat_with * 1e6,
                       extra_hop_us=extra)
    result.note("expected: small positive extra_hop at low load; at high "
                "load latency_without blows up while latency_with stays "
                "flat. Simulated latencies are ~50x the paper's absolute "
                "numbers (scaled cost model); compare shapes.")
    return result
