"""Fig 9: performance gain under different #FEs.

Paper: CPS improvement grows with #FEs up to 4, then plateaus ≈3.3x (the
VM kernel becomes the bottleneck); #concurrent flows saturates ≈3.8x;
#vNICs grows proportionally to #FEs.

CPS is measured packet-by-packet: the testbed offloads the server vNIC to
k FEs and drives closed-loop TCP_CRR from four client servers. The two
memory-bound capabilities come from the byte-accounting capacity model
(their constants are the ones the DES charges).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.capacity import CapacityModel, sweep_gains
from repro.experiments.common import ExperimentResult
from repro.experiments.parallel import sweep
from repro.experiments.testbed import build_testbed
from repro.workloads import measure_cps

PAPER_CPS_GAIN = {0: 1.0, 1: 1.6, 2: 2.4, 4: 3.3, 6: 3.3, 8: 3.3, 12: 3.3}
PAPER_FLOWS_GAIN = {0: 1.0, 1: 1.3, 2: 2.2, 4: 3.8, 6: 3.8, 8: 3.8, 12: 3.8}
PAPER_VNICS_GAIN_PER_FE = 1.0  # "proportional to #FEs"


def measure_cps_at(n_fes: int, duration: float, warmup: float,
                   concurrency_per_client: int, seed: int) -> float:
    testbed = build_testbed(n_clients=4, n_idle=max(4, n_fes), seed=seed)
    if n_fes:
        testbed.offload_server(n_fes)
    loops = testbed.start_closed_loop(concurrency_per_client)
    return measure_cps(testbed.engine, loops, warmup, duration)


def run_point(point: Tuple[int, float, float, int, int]) -> float:
    """Sweep point: measured CPS for one FE count (own engine/testbed)."""
    n_fes, duration, warmup, concurrency_per_client, seed = point
    return measure_cps_at(n_fes, duration, warmup,
                          concurrency_per_client, seed)


def run(fe_counts: Sequence[int] = (0, 1, 2, 4, 8),
        duration: float = 1.5, warmup: float = 1.0,
        concurrency_per_client: int = 96, seed: int = 0,
        jobs: Optional[int] = 1) -> ExperimentResult:
    points = [(n_fes, duration, warmup, concurrency_per_client, seed)
              for n_fes in fe_counts]
    cps: Dict[int, float] = dict(zip(fe_counts,
                                     sweep(points, run_point, jobs=jobs)))
    baseline = cps.get(0) or next(iter(cps.values()))
    gains = {row["n_fes"]: row
             for row in sweep_gains(fe_counts, model=CapacityModel())}

    result = ExperimentResult(
        name="fig9",
        description="performance gain vs #FEs (CPS measured, "
                    "flows/#vNICs from the memory model)",
        columns=["n_fes", "cps", "cps_gain", "paper_cps_gain",
                 "flows_gain", "paper_flows_gain", "vnics_gain"],
    )
    for n_fes in fe_counts:
        result.add_row(
            n_fes=n_fes,
            cps=cps[n_fes],
            cps_gain=cps[n_fes] / baseline,
            paper_cps_gain=PAPER_CPS_GAIN.get(n_fes, 3.3),
            flows_gain=gains[n_fes]["flows_gain"],
            paper_flows_gain=PAPER_FLOWS_GAIN.get(n_fes, 3.8),
            vnics_gain=gains[n_fes]["vnics_gain"],
        )
    result.note("CPS saturation comes from the VM kernel lock; flows "
                "saturation from local state memory; #vNICs grows with "
                "the FE table grants (slope 1 per FE)")
    return result
