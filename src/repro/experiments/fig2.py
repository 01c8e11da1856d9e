"""Fig 2: CPU usage of high-CPS VMs and of their vSwitches.

Paper: for VMs demanding high CPS, the *vSwitch* CPU exceeds 95 % in all
cases while 90 % of the VMs themselves sit below 60 % CPU — the VM easily
overwhelms its SmartNIC.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import point_seeds, sweep
from repro.experiments.testbed import build_testbed
from repro.metrics.percentiles import percentile


def run_point(point: Tuple[int, float, int]) -> Tuple[float, float]:
    """Sweep point: one saturated high-CPS VM (a fresh seeded testbed).

    Returns ``(vm_cpu, vswitch_cpu)`` utilization fractions.
    """
    vm_seed, duration, concurrency_per_client = point
    testbed = build_testbed(n_clients=4, n_idle=2, seed=vm_seed)
    loops = testbed.start_closed_loop(concurrency_per_client)
    testbed.run(1.0 + duration)
    for loop in loops:
        loop.stop()
    vm = testbed.server_vm
    vm_util = max(vm.cpu.utilization(), vm.kernel_lock.utilization())
    return vm_util, testbed.server_vswitch.cpu_utilization()


def run(n_vms: int = 8, duration: float = 1.5,
        concurrency_per_client: int = 96, seed: int = 0,
        jobs: Optional[int] = 1) -> ExperimentResult:
    """Each sample is one saturated high-CPS VM (an independent point)."""
    seeds = point_seeds(seed, "fig2/vm", range(n_vms))
    points = [(vm_seed, duration, concurrency_per_client)
              for vm_seed in seeds]
    samples = sweep(points, run_point, jobs=jobs)
    vm_utils = [vm for vm, _vs in samples]
    vswitch_utils = [vs for _vm, vs in samples]

    result = ExperimentResult(
        name="fig2",
        description="CPU of high-CPS VMs vs their vSwitches (fractions)",
        columns=["vm", "vm_cpu", "vswitch_cpu"],
    )
    for index, (vm_util, vs_util) in enumerate(zip(vm_utils, vswitch_utils)):
        result.add_row(vm=index, vm_cpu=vm_util, vswitch_cpu=vs_util)
    result.add_row(vm="P90(vm)", vm_cpu=percentile(vm_utils, 90),
                   vswitch_cpu=percentile(vswitch_utils, 90))
    result.note("paper: vSwitch CPU > 95% in all cases; 90% of VMs < 60%")
    return result
