"""Macro wall-clock benchmarks: sequential vs parallel experiment runs.

Each entry times a whole experiment sweep twice — ``jobs=1`` (in
process) and ``jobs=N`` (the process-pool fan-out) — and records both
elapsed times, their ratio, and whether the two runs rendered
byte-identical tables (they must; a mismatch is reported, not asserted,
so a bench run can never crash on it).

Raw seconds are machine-dependent and the speedup depends on the host's
core count (recorded in the config block), so the tracked JSON is a
provenance record, not a cross-machine gate — CI uploads it as a
non-gating artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.parallel import default_jobs, sweep


@dataclass
class MacroBench:
    """One macro bench: an experiment ``run`` plus scaled-down kwargs."""

    name: str
    description: str
    module: str                 # import path under repro.experiments
    quick_kwargs: Dict[str, object]
    full_kwargs: Dict[str, object]

    def kwargs(self, profile: str) -> Dict[str, object]:
        return dict(self.quick_kwargs if profile == "quick"
                    else self.full_kwargs)


# Scaled parameter sets: "quick" finishes in a couple of minutes on one
# core (CI-friendly); "full" uses each experiment's paper-fidelity
# defaults.
MACRO_BENCHES: List[MacroBench] = [
    MacroBench(
        "fig2", "8 saturated-VM samples (4 in quick mode)", "fig2",
        quick_kwargs=dict(n_vms=4, duration=0.6, concurrency_per_client=16),
        full_kwargs=dict()),
    MacroBench(
        "fig9", "CPS sweep over FE counts", "fig9",
        quick_kwargs=dict(fe_counts=(0, 1, 2, 4), duration=0.5, warmup=0.3,
                          concurrency_per_client=16),
        full_kwargs=dict()),
    MacroBench(
        "fig10", "CPS sweep over vCPU counts, with/without Nezha", "fig10",
        quick_kwargs=dict(vcpu_counts=(16, 32, 64), duration=0.5, warmup=0.3,
                          concurrency_per_client=16),
        full_kwargs=dict()),
    MacroBench(
        "fig12", "probe-latency sweep over load levels", "fig12",
        quick_kwargs=dict(load_levels=(0, 16, 48)),
        full_kwargs=dict()),
    MacroBench(
        "tablea1", "rule-lookup throughput grid (24 cells)", "tablea1",
        quick_kwargs=dict(lookups_per_cell=100),
        full_kwargs=dict()),
    MacroBench(
        "chaos", "fault-injection soak over the failover control plane",
        "chaos",
        quick_kwargs=dict(horizon=4.0, settle=2.5),
        full_kwargs=dict()),
    MacroBench(
        "fleet", "sharded fleet epochs, hot/cold split (400 vSwitches "
        "in quick mode)", "fleet",
        quick_kwargs=dict(n_vswitches=400, epochs=2),
        full_kwargs=dict()),
    MacroBench(
        "policy_arena", "load-sharing policies head-to-head (reduced "
        "testbed + fleet in quick mode)", "policy_arena",
        quick_kwargs=dict(duration=0.4, warmup=0.2,
                          concurrency_per_client=16,
                          fleet_vswitches=300, fleet_epochs=2),
        full_kwargs=dict()),
]

# ``all --fast`` exercises the runner-level fan-out: whole experiments
# in parallel, each sequential inside its worker.
ALL_FAST_NAME = "all_fast"


def _timed(fn: Callable[[], object]) -> Tuple[object, float]:
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def run_macro_bench(bench: MacroBench, jobs: int,
                    profile: str = "quick") -> Dict[str, object]:
    """Time one experiment sequentially and with ``jobs`` workers."""
    import importlib
    module = importlib.import_module(f"repro.experiments.{bench.module}")
    kwargs = bench.kwargs(profile)
    sequential, sequential_s = _timed(lambda: module.run(jobs=1, **kwargs))
    parallel, parallel_s = _timed(lambda: module.run(jobs=jobs, **kwargs))
    return {
        "description": bench.description,
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(sequential_s / parallel_s, 3) if parallel_s else None,
        "rows": len(parallel.rows),
        "identical_output": sequential.to_text() == parallel.to_text(),
    }


def run_all_fast(jobs: int, seed: int = 0) -> Dict[str, object]:
    """Time the ``all --fast`` entry point sequentially vs pooled."""
    from repro.experiments.runner import (FAST_EXPERIMENTS,
                                          _experiment_point, run_experiment)

    def sequential() -> List[str]:
        return [run_experiment(name, seed, jobs=1)[0].to_text()
                for name in FAST_EXPERIMENTS]

    def parallel() -> List[str]:
        return [text for text, _elapsed in
                sweep([(name, seed) for name in FAST_EXPERIMENTS],
                      _experiment_point, jobs=jobs)]

    seq_texts, sequential_s = _timed(sequential)
    par_texts, parallel_s = _timed(parallel)
    return {
        "description": "runner-level fan-out over the 11 fast experiments",
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(sequential_s / parallel_s, 3) if parallel_s else None,
        "rows": len(par_texts),
        "identical_output": seq_texts == par_texts,
    }


def run_telemetry_overhead(profile: str = "quick",
                           repeats: int = 3) -> Dict[str, object]:
    """fig9 wall clock with the telemetry stack installed vs not.

    Checks the telemetry layer's two performance contracts:

    * **tracing-off cost** — with nothing installed every hook is a
      single attribute/module-flag check, so ``off_s`` must stay within
      a few percent of the committed baseline. Raw seconds are
      machine-dependent, so the tracked number is ``normalized_off``:
      seconds times a fixed pure-python calibration loop (a
      machine-independent "calibration ops' worth of work" figure);
    * **observation purity** — the telemetry-on run must render a
      byte-identical result table (``identical_output``); recording
      never perturbs the simulation.

    Both runs use best-of-``repeats`` after one untimed warm-up (the
    first run of a fresh process pays import/allocator costs that the
    committed min-of-N baseline never sees), and the calibration is
    best-of-3 — single samples of either swing far more than the smoke
    gate's tolerance on small boxes.
    """
    import importlib

    from repro import telemetry
    from repro.bench.micro import _ops_per_sec, calibration_loop

    bench = next(b for b in MACRO_BENCHES if b.name == "fig9")
    module = importlib.import_module(f"repro.experiments.{bench.module}")
    kwargs = bench.kwargs(profile)

    def run_once(with_telemetry: bool) -> Tuple[object, float]:
        if with_telemetry:
            telemetry.install(profile=True)
        try:
            return _timed(lambda: module.run(jobs=1, **kwargs))
        finally:
            if with_telemetry:
                telemetry.uninstall()

    run_once(False)  # warm-up: imports, code objects, allocator pools
    off_result, off_s = run_once(False)
    on_result, on_s = run_once(True)
    for _ in range(max(0, repeats - 1)):
        _ignored, elapsed = run_once(False)
        off_s = min(off_s, elapsed)
        _ignored, elapsed = run_once(True)
        on_s = min(on_s, elapsed)
    calibration = max(_ops_per_sec(calibration_loop, 10_000, 0.1)
                      for _ in range(3))
    return {
        "description": "fig9 (quick) wall clock, telemetry installed vs not",
        "bench": bench.name,
        "profile": profile,
        "repeats": repeats,
        "off_s": round(off_s, 3),
        "on_s": round(on_s, 3),
        "overhead_ratio": round(on_s / off_s, 4) if off_s else None,
        "normalized_off": round(off_s * calibration, 1),
        "calibration_ops_per_sec": round(calibration, 1),
        "identical_output": off_result.to_text() == on_result.to_text(),
    }


def run_macro(jobs: Optional[int] = None, profile: str = "quick",
              include_all_fast: bool = True,
              names: Optional[List[str]] = None) -> Dict[str, Dict]:
    """Run the macro suite; returns ``{bench name: entry}``."""
    jobs = default_jobs() if jobs is None else jobs
    results: Dict[str, Dict] = {}
    for bench in MACRO_BENCHES:
        if names and bench.name not in names:
            continue
        results[bench.name] = run_macro_bench(bench, jobs, profile)
    if include_all_fast and (not names or ALL_FAST_NAME in names):
        results[ALL_FAST_NAME] = run_all_fast(jobs)
    return results
