#!/usr/bin/env python
"""Run the tracked macro benchmarks (``perfbench/`` is the perf ledger;
these gate memory, telemetry-off cost and parallel identity). A mode
flag is required.

Macro — per-experiment sequential-vs-parallel wall clocks (regenerates
BENCH_experiments.json)::

    PYTHONPATH=src python tools/bench.py --experiments --jobs 4

Macro numbers are raw seconds plus a same-machine speedup and are never
gated — the speedup depends on the recorded ``cpu_count`` — but each
entry also re-checks that ``jobs=1`` and ``jobs=N`` rendered identical
tables, and a mismatch *does* fail the run (determinism is a
correctness property, not a performance one).

Telemetry — fig9 wall clock with telemetry installed vs not (merges a
``telemetry_overhead`` block into BENCH_experiments.json; with
``--smoke``: gate the calibration-normalized tracing-off cost, 10%)::

    PYTHONPATH=src python tools/bench.py --telemetry
    PYTHONPATH=src python tools/bench.py --telemetry --smoke

Fleet — wall clock + tracemalloc peak per fleet scale point, with the
peak-vs-naive-sessions memory ratio (regenerates BENCH_fleet.json; with
``--smoke``: reduced scale, shard-identity + peak-memory gate)::

    PYTHONPATH=src python tools/bench.py --fleet
    PYTHONPATH=src python tools/bench.py --fleet --smoke

Fleet telemetry — fleet epoch-loop wall clock with telemetry installed
vs not (merges a ``telemetry_overhead`` block into BENCH_fleet.json;
with ``--smoke``: gate the tracing-off cost, tolerance 2%)::

    PYTHONPATH=src python tools/bench.py --fleet --telemetry
    PYTHONPATH=src python tools/bench.py --fleet --telemetry --smoke

Arena — time only the policy_arena macro (sequential vs parallel, quick
profile) and merge its entry into BENCH_experiments.json::

    PYTHONPATH=src python tools/bench.py --arena
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import (run_fleet_smoke, run_fleet_suite,  # noqa: E402
                         run_fleet_telemetry_overhead, run_macro,
                         run_telemetry_overhead)

DEFAULT_MACRO_OUTPUT = REPO_ROOT / "BENCH_experiments.json"
DEFAULT_FLEET_OUTPUT = REPO_ROOT / "BENCH_fleet.json"
MACRO_SCHEMA = "bench_experiments/v1"
FLEET_SCHEMA = "bench_fleet/v1"


def _git_commit() -> str:
    """Commit hash the numbers were generated at (None outside a work
    tree), so trajectory JSONs stay attributable."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def print_macro_table(results: dict) -> None:
    print(f"{'experiment':<12} {'sequential s':>13} {'parallel s':>11} "
          f"{'speedup':>8} {'rows':>5} {'identical':>9}")
    for name, entry in results.items():
        print(f"{name:<12} {entry['sequential_s']:>13.2f} "
              f"{entry['parallel_s']:>11.2f} "
              f"{entry['speedup']:>8.2f} {entry['rows']:>5} "
              f"{str(entry['identical_output']):>9}")


def run_experiments_mode(args) -> int:
    jobs = args.jobs or (os.cpu_count() or 1)
    names = args.only.split(",") if args.only else None
    results = run_macro(jobs=jobs, profile=args.profile, names=names)
    if names and not results:
        print(f"error: --only matched no macro bench "
              f"(got {args.only!r})", file=sys.stderr)
        return 2
    print_macro_table(results)

    broken = [name for name, entry in results.items()
              if not entry["identical_output"]]
    if broken:
        print(f"\nerror: parallel output diverged from sequential for: "
              f"{', '.join(broken)}", file=sys.stderr)
        return 1

    output = args.output or DEFAULT_MACRO_OUTPUT
    experiments = results
    previous = json.loads(output.read_text()) if output.exists() else {}
    if names:
        # Partial run: refresh only the selected entries, keep the rest
        # of the committed file intact.
        experiments = previous.get("experiments", {})
        experiments.update(results)
    doc = {
        "schema": MACRO_SCHEMA,
        "config": {
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "git_commit": _git_commit(),
            "profile": args.profile,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "experiments": experiments,
    }
    if "telemetry_overhead" in previous:
        # Tracked separately (regenerated via --telemetry).
        doc["telemetry_overhead"] = previous["telemetry_overhead"]
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return 0


def print_fleet_table(entries: dict) -> None:
    print(f"{'point':<13} {'vswitches':>9} {'wall s':>8} {'seed s':>7} "
          f"{'steady s':>8} {'peak MB':>9} {'naive MB':>9} {'ratio':>7} "
          f"{'flows':>9} {'ipc B/ep':>9}")
    for name, entry in entries.items():
        wall = entry.get("wall_s")
        seed_s = entry.get("seed_epoch_s")
        steady_s = entry.get("steady_epoch_s")
        resident = (entry.get("resident") or {}).get("jobs_2", {})
        ipc = resident.get("ipc_bytes_per_epoch")
        print(f"{name:<13} {entry['n_vswitches']:>9} "
              f"{wall if wall is not None else '-':>8} "
              f"{seed_s if seed_s is not None else '-':>7} "
              f"{steady_s if steady_s is not None else '-':>8} "
              f"{entry['peak_mb']:>9.1f} {entry['naive_mb']:>9.1f} "
              f"{entry['peak_over_naive']:>7.3f} {entry['live_flows']:>9} "
              f"{ipc if ipc is not None else '-':>9}")


def run_fleet_mode(args) -> int:
    """Fleet macro mode: wall clock + tracemalloc peak per scale point.

    Without ``--smoke``: runs every scale point (500/1K/10K/100K
    vSwitches), enforces the ISSUE 7 bar — peak memory ≤ 25% of naive
    per-object sessions at the full scales — records per-phase timings
    (seed vs steady epochs) plus each scale's resident-pool IPC
    accounting, and writes BENCH_fleet.json.
    With ``--smoke``: re-runs only the 500-vSwitch point, requires the
    shards-1-vs-2 output to be byte-identical AND the resident-pool
    output (at 400 vSwitches, in-process loop vs pool) to be
    byte-identical, and
    gates its peak memory against the committed baseline (per-entry
    ``gate_tolerance``).
    """
    output = args.output or DEFAULT_FLEET_OUTPUT

    if args.smoke:
        entry = run_fleet_smoke()
        print_fleet_table({"smoke": entry})
        if not entry["identical_across_shards"]:
            print("\nerror: fleet output diverged between shards=1 and "
                  "shards=2", file=sys.stderr)
            return 1
        if not entry["identical_with_resident_pool"]:
            print("\nerror: fleet output diverged between the resident "
                  "worker pool and the in-process loop", file=sys.stderr)
            return 1
        if not output.exists():
            print(f"error: no baseline at {output}; run --fleet without "
                  f"--smoke first", file=sys.stderr)
            return 2
        baseline = json.loads(output.read_text()).get("fleet", {}) \
            .get("smoke")
        if baseline is None:
            print(f"error: {output.name} has no smoke entry; run --fleet "
                  f"without --smoke first", file=sys.stderr)
            return 2
        tolerance = baseline.get("gate_tolerance", 0.50) \
            if args.tolerance is None else args.tolerance
        ceiling = baseline["peak_mb"] * (1.0 + tolerance)
        if entry["peak_mb"] > ceiling:
            print(f"\nREGRESSION: fleet smoke peak {entry['peak_mb']:.1f} MB"
                  f" exceeds baseline {baseline['peak_mb']:.1f} MB by more "
                  f"than {tolerance:.0%}", file=sys.stderr)
            return 1
        print(f"\nfleet smoke OK: shard- and residency-identical output, "
              f"peak within {tolerance:.0%} of {output.name}")
        return 0

    entries = run_fleet_suite()
    print_fleet_table(entries)
    over = [name for name, entry in entries.items()
            if entry.get("naive_ratio_ceiling") is not None
            and entry["peak_over_naive"] > entry["naive_ratio_ceiling"]]
    if over:
        print(f"\nerror: peak memory exceeded the naive-session ratio "
              f"ceiling for: {', '.join(over)}", file=sys.stderr)
        return 1
    doc = {
        "schema": FLEET_SCHEMA,
        "config": {
            "cpu_count": os.cpu_count(),
            "git_commit": _git_commit(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "fleet": entries,
    }
    if output.exists():
        # A full fleet regen must not drop the separately-tracked
        # telemetry overhead block (regenerated via --fleet --telemetry).
        previous = json.loads(output.read_text())
        if "telemetry_overhead" in previous:
            doc["telemetry_overhead"] = previous["telemetry_overhead"]
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return 0


def run_fleet_telemetry_mode(args) -> int:
    """Measure telemetry overhead on the fleet epoch loop.

    The fleet twin of ``--telemetry`` (which measures fig9): without
    ``--smoke``, merges a ``telemetry_overhead`` block into the
    committed BENCH_fleet.json; with ``--smoke``, gates against it —
    the tracing-off wall clock (calibration-normalized) may not regress
    more than the block's ``gate_tolerance`` (the ISSUE 10 2% bar), and
    the telemetry-on run must render a byte-identical fleet table.
    """
    output = args.output or DEFAULT_FLEET_OUTPUT
    entry = run_fleet_telemetry_overhead(repeats=3)
    print(f"fleet (quick):  telemetry off {entry['off_s']:.2f}s  "
          f"on {entry['on_s']:.2f}s  "
          f"overhead {entry['overhead_ratio']:.3f}x  "
          f"identical output: {entry['identical_output']}")

    if not entry["identical_output"]:
        print("\nerror: installing telemetry changed the fleet result "
              "table", file=sys.stderr)
        return 1

    if args.smoke:
        if not output.exists():
            print(f"error: no baseline at {output}; run --fleet "
                  f"--telemetry without --smoke first", file=sys.stderr)
            return 2
        baseline = json.loads(output.read_text()).get("telemetry_overhead")
        if baseline is None:
            print(f"error: {output.name} has no telemetry_overhead block; "
                  f"run --fleet --telemetry without --smoke first",
                  file=sys.stderr)
            return 2
        tolerance = baseline.get("gate_tolerance", 0.02) \
            if args.tolerance is None else args.tolerance
        ceiling = baseline["normalized_off"] * (1.0 + tolerance)
        if entry["normalized_off"] > ceiling:
            print(f"\nREGRESSION: tracing-off fleet cost "
                  f"{entry['normalized_off']:,.0f} exceeds baseline "
                  f"{baseline['normalized_off']:,.0f} by more than "
                  f"{tolerance:.0%}", file=sys.stderr)
            return 1
        print(f"\nfleet-telemetry smoke OK: tracing-off cost within "
              f"{tolerance:.0%} of {output.name}")
        return 0

    doc = json.loads(output.read_text()) if output.exists() \
        else {"schema": FLEET_SCHEMA}
    doc["telemetry_overhead"] = entry
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return 0


def run_telemetry_mode(args) -> int:
    """Measure telemetry overhead on the fig9 macro bench.

    Without ``--smoke``: merges a ``telemetry_overhead`` block into the
    committed BENCH_experiments.json (beside the fig9 macro entry).
    With ``--smoke``: gates against that block — the tracing-off wall
    clock (calibration-normalized, so it transfers across machines) may
    not regress more than ``--tolerance`` (default 10% here — single
    macro runs swing several percent on small shared boxes even with
    the warm-up and best-of-N sampling in the measurement), and the
    telemetry-on run must render a byte-identical result table.
    """
    output = args.output or DEFAULT_MACRO_OUTPUT
    tolerance = 0.10 if args.tolerance is None else args.tolerance
    repeats = 2 if args.smoke else 3
    entry = run_telemetry_overhead(repeats=repeats)
    print(f"fig9 (quick):  telemetry off {entry['off_s']:.2f}s  "
          f"on {entry['on_s']:.2f}s  "
          f"overhead {entry['overhead_ratio']:.3f}x  "
          f"identical output: {entry['identical_output']}")

    if not entry["identical_output"]:
        print("\nerror: installing telemetry changed the experiment's "
              "result table", file=sys.stderr)
        return 1

    if args.smoke:
        if not output.exists():
            print(f"error: no baseline at {output}; run "
                  f"--telemetry without --smoke first", file=sys.stderr)
            return 2
        baseline = json.loads(output.read_text()).get("telemetry_overhead")
        if baseline is None:
            print(f"error: {output.name} has no telemetry_overhead "
                  f"block; run --telemetry without --smoke first",
                  file=sys.stderr)
            return 2
        ceiling = baseline["normalized_off"] * (1.0 + tolerance)
        if entry["normalized_off"] > ceiling:
            print(f"\nREGRESSION: tracing-off fig9 cost "
                  f"{entry['normalized_off']:,.0f} exceeds baseline "
                  f"{baseline['normalized_off']:,.0f} by more than "
                  f"{tolerance:.0%}", file=sys.stderr)
            return 1
        print(f"\ntelemetry smoke OK: tracing-off cost within "
              f"{tolerance:.0%} of {output.name}")
        return 0

    doc = json.loads(output.read_text()) if output.exists() \
        else {"schema": MACRO_SCHEMA}
    doc["telemetry_overhead"] = entry
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="quick run + regression gate against the "
                             "committed JSON; does not rewrite it")
    parser.add_argument("--experiments", action="store_true",
                        help="macro mode: per-experiment sequential vs "
                             "parallel wall clocks -> BENCH_experiments.json")
    parser.add_argument("--fleet", action="store_true",
                        help="fleet mode: wall clock + tracemalloc peak "
                             "per fleet scale point -> BENCH_fleet.json "
                             "(with --smoke: reduced scale, shard-identity "
                             "check + peak-memory gate only)")
    parser.add_argument("--arena", action="store_true",
                        help="shortcut for --experiments --only "
                             "policy_arena: time the policy arena and "
                             "merge its entry into BENCH_experiments.json")
    parser.add_argument("--telemetry", action="store_true",
                        help="telemetry mode: fig9 wall clock with the "
                             "telemetry stack installed vs not; merges a "
                             "telemetry_overhead block into "
                             "BENCH_experiments.json (with --smoke: gate "
                             "only, default tolerance 10%%). Combined "
                             "with --fleet: same measurement on the "
                             "fleet epoch loop -> BENCH_fleet.json "
                             "(smoke tolerance 2%%)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for --experiments "
                             "(default: one per CPU core)")
    parser.add_argument("--profile", choices=("quick", "full"),
                        default="quick",
                        help="parameter scale for --experiments "
                             "(default: %(default)s)")
    parser.add_argument("--only", metavar="NAME[,NAME...]", default=None,
                        help="with --experiments: run only these macro "
                             "benches and merge them into the existing "
                             "JSON instead of rewriting it")
    parser.add_argument("--output", type=Path, default=None,
                        help="baseline JSON path (default: "
                             "BENCH_fleet.json with --fleet, else "
                             "BENCH_experiments.json)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed fractional regression for --smoke "
                             "(default: the baseline's gate_tolerance, "
                             "or 0.10 with --telemetry)")
    args = parser.parse_args(argv)

    if args.arena:
        args.only = "policy_arena"
        return run_experiments_mode(args)
    if args.experiments:
        return run_experiments_mode(args)
    if args.fleet and args.telemetry:
        return run_fleet_telemetry_mode(args)
    if args.fleet:
        return run_fleet_mode(args)
    if args.telemetry:
        return run_telemetry_mode(args)

    parser.error("pick a mode: --experiments, --arena, --telemetry, "
                 "--fleet [--telemetry]")


if __name__ == "__main__":
    raise SystemExit(main())
