"""Fig 10: CPS under different #vCPU cores in the VM.

Paper: without Nezha the vSwitch caps CPS regardless of vCPUs; with
Nezha CPS grows with vCPUs but sub-linearly, flattening near 48 cores —
VM-kernel locks, not the network, now limit CPS.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.experiments.testbed import build_testbed
from repro.workloads import measure_cps


def measure(vcpus: int, nezha: bool, duration: float, warmup: float,
            concurrency_per_client: int, seed: int) -> float:
    testbed = build_testbed(n_clients=4, n_idle=4, server_vcpus=vcpus,
                            seed=seed)
    if nezha:
        testbed.offload_server()
    loops = testbed.start_closed_loop(concurrency_per_client)
    return measure_cps(testbed.engine, loops, warmup, duration)


def run_point(point: Tuple[int, bool, float, float, int, int]) -> float:
    """Sweep point: CPS for one (vcpus, nezha on/off) configuration."""
    vcpus, nezha, duration, warmup, concurrency_per_client, seed = point
    return measure(vcpus, nezha, duration, warmup,
                   concurrency_per_client, seed)


def run(vcpu_counts: Sequence[int] = (8, 16, 32, 48, 64),
        duration: float = 1.5, warmup: float = 1.0,
        concurrency_per_client: int = 96, seed: int = 0,
        jobs: Optional[int] = 1) -> ExperimentResult:
    result = ExperimentResult(
        name="fig10",
        description="CPS vs #vCPU cores, with and without Nezha",
        columns=["vcpus", "cps_without", "cps_with", "gain"],
    )
    points = [(vcpus, nezha, duration, warmup, concurrency_per_client, seed)
              for vcpus in vcpu_counts for nezha in (False, True)]
    measured = sweep(points, run_point, jobs=jobs)
    for index, vcpus in enumerate(vcpu_counts):
        without, with_nezha = measured[2 * index], measured[2 * index + 1]
        result.add_row(vcpus=vcpus, cps_without=without,
                       cps_with=with_nezha, gain=with_nezha / without)
    result.note("expected shape: cps_without flat (vSwitch-bound); "
                "cps_with grows then flattens near ~40 vCPUs "
                "(kernel-lock-bound)")
    return result
