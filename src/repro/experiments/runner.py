"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig9
    python -m repro.experiments table4 --seed 3
    python -m repro.experiments fig12 --jobs 4
    python -m repro.experiments all --fast --jobs 8

``all --fast`` runs only the model-based experiments (seconds); ``all``
includes the packet-level ones (minutes).

``--jobs N`` fans work out over ``N`` worker processes (default: one per
CPU core). For a single experiment the sweep points run in the pool; for
``all`` the *experiments themselves* additionally run concurrently (each
one sequential inside its worker). ``--jobs 1`` is the exact legacy
in-process path, and every ``--jobs N`` prints result tables
byte-identical to it: sweeps merge in submission order and ``all``
prints in the listed experiment order.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time
from typing import List, Optional, Tuple

from repro.controller.policy import POLICY_NAMES
from repro.experiments.parallel import default_jobs, sweep

FAST_EXPERIMENTS = ["fig3", "fig4", "table1", "table3", "table4", "table5",
                    "fig13", "fig15", "tablea1", "figa1", "appb2"]
SLOW_EXPERIMENTS = ["fig2", "fig9", "fig10", "fig11", "fig12", "fig14",
                    "chaos", "fleet", "policy_arena"]
ALL_EXPERIMENTS = FAST_EXPERIMENTS + SLOW_EXPERIMENTS


#: Scaled-down parameters for ``--fast`` single-experiment runs: each
#: finishes in seconds on one core (CI's smoke jobs run these).
QUICK_KWARGS = {
    "fig2": dict(n_vms=4, duration=0.6, concurrency_per_client=16),
    "fig9": dict(fe_counts=(0, 1, 2, 4), duration=0.5, warmup=0.3,
                 concurrency_per_client=16),
    "fig10": dict(vcpu_counts=(16, 32, 64), duration=0.5, warmup=0.3,
                  concurrency_per_client=16),
    "fig11": dict(duration=3.0),
    "fig12": dict(load_levels=(0, 16, 48)),
    "fig14": dict(kill_at=1.0, duration=2.5),
    "tablea1": dict(lookups_per_cell=100),
    "chaos": dict(horizon=4.0, settle=2.5),
    "fleet": dict(n_vswitches=400, epochs=2),
    "policy_arena": dict(duration=0.4, warmup=0.2,
                         concurrency_per_client=16,
                         fleet_vswitches=300, fleet_epochs=2),
}


def _run_kwargs(run_fn, seed: int, jobs: int,
                shards: Optional[int] = None,
                policy: Optional[str] = None) -> dict:
    """Keyword arguments ``run_fn`` actually accepts.

    Inspects the signature's *parameters* — the old
    ``"seed" in run.__code__.co_varnames`` check also matched local
    variables, so a seedless ``run`` with a ``seed`` local would have
    been called with an unexpected keyword. ``shards`` and ``policy``
    are forwarded only when the experiment takes them (today: fleet and
    policy_arena) *and* the user asked for a specific value; ``None``
    keeps the experiment's own default (fleet matches shards to jobs and
    allocates with the Nezha policy; policy_arena runs every policy).
    """
    params = inspect.signature(run_fn).parameters
    kwargs = {}
    if "seed" in params:
        kwargs["seed"] = seed
    if "jobs" in params:
        kwargs["jobs"] = jobs
    if "shards" in params and shards is not None:
        kwargs["shards"] = shards
    if "policy" in params and policy is not None:
        kwargs["policy"] = policy
    return kwargs


def run_experiment(name: str, seed: int = 0, jobs: int = 1,
                   fast: bool = False, shards: Optional[int] = None,
                   policy: Optional[str] = None):
    """Import and execute one experiment; returns (result, elapsed_s)."""
    module = importlib.import_module(f"repro.experiments.{name}")
    kwargs = _run_kwargs(module.run, seed, jobs, shards, policy)
    if fast:
        kwargs.update(QUICK_KWARGS.get(name, {}))
    started = time.perf_counter()
    result = module.run(**kwargs)
    return result, time.perf_counter() - started


def run_one(name: str, seed: int = 0, jobs: int = 1,
            fast: bool = False, shards: Optional[int] = None,
            policy: Optional[str] = None) -> None:
    result, elapsed = run_experiment(name, seed, jobs, fast=fast,
                                     shards=shards, policy=policy)
    print(result.to_text())
    print(f"[{name} finished in {elapsed:.1f}s]\n")


def _experiment_point(point: Tuple[str, int]) -> Tuple[str, float]:
    """Sweep point for ``all``: one whole experiment, rendered to text.

    Runs with ``jobs=1`` inside its worker — the pool is already one
    process per experiment, so inner fan-out would only oversubscribe.
    """
    name, seed = point
    result, elapsed = run_experiment(name, seed, jobs=1)
    return result.to_text(), elapsed


def run_all(names: List[str], seed: int = 0, jobs: int = 1) -> None:
    if jobs == 1:
        for name in names:  # the legacy in-process path, prints as it goes
            run_one(name, seed)
        return
    outcomes = sweep([(name, seed) for name in names], _experiment_point,
                     jobs=jobs)
    for name, (text, elapsed) in zip(names, outcomes):
        print(text)
        print(f"[{name} finished in {elapsed:.1f}s]\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        help="experiment id (see 'list'), 'all', or 'list'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true",
                        help="with 'all': skip the packet-level experiments; "
                             "with a single experiment: use its scaled-down "
                             "quick parameters (QUICK_KWARGS)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: one per CPU core; "
                             "1 = sequential in-process)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="fleet experiment only: partition the vSwitch "
                             "range into N shards (default: match --jobs); "
                             "output is byte-identical for every N")
    parser.add_argument("--policy", default=None,
                        choices=POLICY_NAMES,
                        help="load-sharing policy for experiments that "
                             "take one (fleet: coordinator allocation; "
                             "policy_arena: run just this policy instead "
                             "of the full head-to-head); default: the "
                             "experiment's own (nezha / all policies)")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="record telemetry (metrics, latency spans, "
                             "unified trace, engine profile) and export it "
                             "as JSONL to PATH; forces --jobs 1 because the "
                             "recorders are in-process")
    args = parser.parse_args(argv)

    jobs = default_jobs() if args.jobs is None else args.jobs
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    if args.experiment == "list":
        print("model-based (seconds):", ", ".join(FAST_EXPERIMENTS))
        print("packet-level (minutes):", ", ".join(SLOW_EXPERIMENTS))
        return 0

    tel = None
    if args.telemetry is not None:
        from repro import telemetry
        tel = telemetry.install(profile=True)
        jobs = 1  # pool workers would not share the in-process recorders
    try:
        if args.experiment == "all":
            names = FAST_EXPERIMENTS if args.fast else ALL_EXPERIMENTS
            run_all(names, args.seed, jobs)
        elif args.experiment not in ALL_EXPERIMENTS:
            print(f"unknown experiment {args.experiment!r}; try 'list'",
                  file=sys.stderr)
            return 2
        else:
            run_one(args.experiment, args.seed, jobs, fast=args.fast,
                    shards=args.shards, policy=args.policy)
        if tel is not None:
            lines = tel.export(args.telemetry)
            print(f"[telemetry: {lines} lines -> {args.telemetry}]")
    finally:
        if tel is not None:
            from repro import telemetry
            telemetry.uninstall()
    return 0
