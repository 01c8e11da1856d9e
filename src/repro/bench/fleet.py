"""Fleet-scale wall-clock and peak-memory benchmarks (BENCH_fleet.json).

Each scale point runs the ``fleet`` experiment twice: once untraced for
an honest wall clock, once under :mod:`tracemalloc` for the peak-memory
high-water mark. The headline number is ``peak_over_naive``: measured
peak divided by what the same live-flow population would cost as *naive
per-object sessions* — one boxed
:class:`~repro.vswitch.state.SessionState` per flow in a dict, the
representation the flyweight store replaces. The per-object cost is
itself measured (tracemalloc over a sampled allocation, extrapolated),
not assumed, and deliberately conservative: the real naive layout would
also pay for a FiveTuple key object per flow.

The ISSUE 7 acceptance bar — peak at 10K vSwitches ≤ 25% of naive — is
checked by the full run and recorded in the JSON; the CI smoke re-runs
the reduced scale point and gates its peak against the committed
baseline (``gate_tolerance`` travels in the JSON).
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Dict, Optional

#: Scale points for the tracked full run. 100K is the PR 8 headline:
#: the vectorized cold tail plus fluid hot sims keep it tractable on a
#: single core, and the flyweight ratio bar holds an order of magnitude
#: past the paper's fleet size.
SCALES = (1_000, 10_000, 100_000)
#: The reduced scale the CI fleet-smoke job re-measures.
SMOKE_SCALE = 500
SMOKE_SHARDS = 2
#: Scale for the smoke's resident-pool identity check (kept below
#: SMOKE_SCALE so the extra two runs stay cheap in CI).
RESIDENT_SMOKE_SCALE = 400
#: Worker/shard count for the per-scale resident-mode measurement.
RESIDENT_SHARDS = 2
RESIDENT_JOBS = 2
#: Worker counts the resident measurement sweeps: jobs=1 is the
#: in-process loop (no pool: its phase walls and IPC record as
#: zero/None), jobs=2 the real two-worker pool whose per-phase walls
#: answer "where does --jobs time go" (ROADMAP: true multi-core numbers).
RESIDENT_JOBS_SWEEP = (1, 2)
#: Scale for the telemetry-overhead measurement. Larger than the quick
#: profile (1000 vSwitches x 3 epochs, ~0.4s untraced) so the 2% gate
#: measures the hooks, not scheduler noise on a 0.1s run.
OVERHEAD_SCALE = 1_000
OVERHEAD_EPOCHS = 3
#: Smoke-gate slack on the tracing-off fleet wall clock
#: (calibration-normalized): the ISSUE 10 bar — the disabled metric
#: hooks must stay within 2% of the committed baseline.
TELEMETRY_GATE_TOLERANCE = 0.02
#: Smoke-gate slack on peak memory: at 500 vSwitches fixed overheads
#: (imports, code objects, the hot micro-sims' engines) are a large
#: share of a small peak, so the gate is loose; the ratio bar is what
#: the full 10K run enforces.
SMOKE_GATE_TOLERANCE = 0.50
#: ISSUE 7 acceptance bar, recorded with every full-scale entry.
NAIVE_RATIO_CEILING = 0.25


def measure_naive_bytes_per_flow(sample: int = 20_000) -> float:
    """Measured cost of one flow as a boxed SessionState in a dict."""
    from repro.vswitch.state import SessionState
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        table = {index: SessionState() for index in range(sample)}
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del table
    return (after - before) / sample


def run_fleet_point(n_vswitches: int, epochs: int = 3, seed: int = 0,
                    shards: int = 1, measure_wall: bool = True,
                    measure_resident: bool = False) -> Dict[str, object]:
    """One scale point: wall clock (untraced) + tracemalloc peak.

    The untraced run also records per-phase timings — the seed epoch
    (every cold flow is born: bulk slot allocation dominates) vs the
    steady epochs (vectorized cold tail + hot micro-sims) — so the
    benches can tell allocation cost from per-epoch cost.

    ``measure_resident`` adds one run per ``RESIDENT_JOBS_SWEEP`` entry
    at ``RESIDENT_SHARDS`` shards and records the pool's IPC accounting:
    ``ipc_bytes_per_epoch`` and ``ipc_bytes_collect`` must stay flat —
    proportional to the hot-report and shard counts, independent of the
    flyweight state size — or state has started round-tripping again
    (DESIGN §5.7).
    """
    from repro.experiments.fleet import run

    kwargs = dict(n_vswitches=n_vswitches, epochs=epochs, seed=seed,
                  shards=shards, jobs=1)
    naive_per_flow = measure_naive_bytes_per_flow()

    wall_s: Optional[float] = None
    phases: Dict[str, object] = {}
    if measure_wall:
        started = time.perf_counter()
        run(**kwargs, stats=phases)
        wall_s = time.perf_counter() - started

    tracemalloc.start()
    try:
        result = run(**kwargs)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    live_flows = result.row_where("metric", "live flows")["value"]
    naive_bytes = live_flows * naive_per_flow
    entry: Dict[str, object] = {
        "n_vswitches": n_vswitches,
        "epochs": epochs,
        "wall_s": round(wall_s, 3) if wall_s is not None else None,
        "seed_epoch_s": round(phases["seed_epoch_s"], 3)
        if phases else None,
        "steady_epoch_s": round(phases["steady_epoch_s"], 3)
        if phases else None,
        "peak_mb": round(peak / 1e6, 3),
        "live_flows": live_flows,
        "naive_bytes_per_flow": round(naive_per_flow, 1),
        "naive_mb": round(naive_bytes / 1e6, 3),
        "peak_over_naive": round(peak / naive_bytes, 4) if naive_bytes
        else None,
        "rows": len(result.rows),
    }
    if measure_resident:
        resident: Dict[str, Dict[str, object]] = {}
        for jobs in RESIDENT_JOBS_SWEEP:
            rstats: Dict[str, object] = {}
            started = time.perf_counter()
            run(n_vswitches=n_vswitches, epochs=epochs, seed=seed,
                shards=RESIDENT_SHARDS, jobs=jobs, stats=rstats)
            pool = rstats.get("pool", {})
            phase_wall = pool.get("phase_wall_s", {})
            steps = phase_wall.get("step", [])
            resident[f"jobs_{jobs}"] = {
                "shards": RESIDENT_SHARDS,
                "jobs": rstats["jobs"],
                "wall_s": round(time.perf_counter() - started, 3),
                "seed_epoch_s": round(rstats["seed_epoch_s"], 3),
                "steady_epoch_s": round(rstats["steady_epoch_s"], 3),
                "phase_wall_s": {
                    "init": round(phase_wall.get("init", 0.0), 3),
                    "step_seed": round(steps[0], 3) if steps else None,
                    "step_steady": round(sum(steps[1:])
                                         / max(1, len(steps) - 1), 3)
                    if len(steps) > 1 else None,
                    "collect": round(phase_wall.get("collect", 0.0), 3),
                },
                "ipc_bytes_per_epoch":
                    round(rstats.get("ipc_bytes_per_epoch", 0), 1),
                "ipc_bytes_init": rstats.get("ipc_bytes_init", 0),
                "ipc_bytes_collect": rstats.get("ipc_bytes_collect", 0),
                "state_mb": round(rstats["state_nbytes"] / 1e6, 3),
            }
        entry["resident"] = resident
    return entry


def run_fleet_telemetry_overhead(repeats: int = 3) -> Dict[str, object]:
    """Fleet (quick scale) wall clock with telemetry installed vs not.

    The fleet instance of the telemetry layer's two performance
    contracts (the ``run_telemetry_overhead`` idiom from
    :mod:`repro.bench.macro`, on the fleet epoch loop instead of fig9):

    * **tracing-off cost** — with nothing installed, metric collection
      is one ``params.collect_metrics`` check per shard epoch and the
      coordinator journal one ``is None`` check per decision site, so
      the tracked ``normalized_off`` (seconds x the machine-independent
      calibration loop) must hold within ``TELEMETRY_GATE_TOLERANCE``
      of the committed baseline;
    * **observation purity** — the telemetry-on run (snapshots
      collected, folded, journaled) must render a byte-identical
      result table.

    Both runs are best-of-``repeats`` after one untimed warm-up.
    """
    from repro import telemetry
    from repro.bench.micro import _ops_per_sec, calibration_loop
    from repro.experiments.fleet import run

    kwargs = dict(n_vswitches=OVERHEAD_SCALE, epochs=OVERHEAD_EPOCHS,
                  seed=0, shards=1, jobs=1)

    def run_once(with_telemetry: bool):
        if with_telemetry:
            telemetry.install(profile=False)
        try:
            started = time.perf_counter()
            result = run(**kwargs)
            return result, time.perf_counter() - started
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
    # Best-of-5 over longer windows than the micro benches use: the 2%
    # gate leaves no room for sampling noise in the normalizer.
    calibration = max(_ops_per_sec(calibration_loop, 10_000, 0.25)
                      for _ in range(5))
    return {
        "description": "fleet (quick) wall clock, telemetry installed "
                       "vs not",
        "n_vswitches": OVERHEAD_SCALE,
        "epochs": OVERHEAD_EPOCHS,
        "repeats": repeats,
        "off_s": round(off_s, 3),
        "on_s": round(on_s, 3),
        "overhead_ratio": round(on_s / off_s, 4) if off_s else None,
        "normalized_off": round(off_s * calibration, 1),
        "calibration_ops_per_sec": round(calibration, 1),
        "identical_output": off_result.to_text() == on_result.to_text(),
        "gate_tolerance": TELEMETRY_GATE_TOLERANCE,
    }


def run_fleet_suite(epochs: int = 3, seed: int = 0) -> Dict[str, Dict]:
    """The tracked full run: every scale point plus the smoke point."""
    entries: Dict[str, Dict] = {}
    smoke = run_fleet_point(SMOKE_SCALE, epochs=epochs, seed=seed)
    smoke["gate_tolerance"] = SMOKE_GATE_TOLERANCE
    entries["smoke"] = smoke
    for scale in SCALES:
        entry = run_fleet_point(scale, epochs=epochs, seed=seed,
                                measure_resident=True)
        entry["naive_ratio_ceiling"] = NAIVE_RATIO_CEILING
        entries[f"scale_{scale}"] = entry
    return entries


def run_fleet_smoke(epochs: int = 3, seed: int = 0) -> Dict[str, object]:
    """The CI check: shard/residency identity + the smoke memory point.

    Runs the reduced fleet with ``shards=1`` and ``shards=SMOKE_SHARDS``
    and byte-compares the rendered tables (the determinism contract);
    repeats the comparison at ``RESIDENT_SMOKE_SCALE`` between the
    in-process loop (``jobs=1``) and the resident worker pool
    (``jobs=RESIDENT_JOBS``) at the same ``RESIDENT_SHARDS``, so
    residency is the only variable; then measures the smoke point's
    peak for the caller to gate against the committed baseline.
    """
    from repro.experiments.fleet import run

    base = run(n_vswitches=SMOKE_SCALE, epochs=epochs, seed=seed,
               shards=1, jobs=1).to_text()
    sharded = run(n_vswitches=SMOKE_SCALE, epochs=epochs, seed=seed,
                  shards=SMOKE_SHARDS, jobs=1).to_text()
    inline = run(n_vswitches=RESIDENT_SMOKE_SCALE, epochs=epochs, seed=seed,
                 shards=RESIDENT_SHARDS, jobs=1).to_text()
    pooled = run(n_vswitches=RESIDENT_SMOKE_SCALE, epochs=epochs, seed=seed,
                 shards=RESIDENT_SHARDS, jobs=RESIDENT_JOBS).to_text()
    entry = run_fleet_point(SMOKE_SCALE, epochs=epochs, seed=seed,
                            measure_wall=False)
    entry["identical_across_shards"] = base == sharded
    entry["identical_with_resident_pool"] = inline == pooled
    return entry
