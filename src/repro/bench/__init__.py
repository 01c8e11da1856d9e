"""Tracked benchmark definitions.

Two layers (``perfbench/`` is the perf ledger; these gate memory,
telemetry-off cost and parallel identity):

* **macro** — whole-experiment wall clocks, sequential vs process-pool
  (``tools/bench.py --experiments`` → ``BENCH_experiments.json``).
* **fleet** — fleet-scale wall clock + tracemalloc peak per scale point
  (``tools/bench.py --fleet`` → ``BENCH_fleet.json``).

``repro.bench.micro`` holds the calibration loop both normalize by.
"""

from repro.bench.micro import calibration_loop
from repro.bench.macro import (MACRO_BENCHES, MacroBench, run_macro,
                               run_macro_bench, run_telemetry_overhead)
from repro.bench.fleet import (run_fleet_point, run_fleet_smoke,
                               run_fleet_suite,
                               run_fleet_telemetry_overhead)

__all__ = ["calibration_loop", "MACRO_BENCHES", "MacroBench", "run_macro",
           "run_macro_bench", "run_telemetry_overhead",
           "run_fleet_point", "run_fleet_smoke", "run_fleet_suite",
           "run_fleet_telemetry_overhead"]
