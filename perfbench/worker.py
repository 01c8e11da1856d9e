"""One workload in one fresh subprocess (spawned by perfbench/run.py).

Modes:

* ``timed`` — the cold pass (the parent times spawn -> "cold" line as one
  ``setup_s`` sample; peak RSS is read here), then timed repeats until
  ``--seconds`` have elapsed (at least ``--min-repeats``), each a fresh
  build from the same inputs; with ``--identity``, one untimed pass of
  the reference workload of an identity pair follows.
* ``trace`` — the cold pass, one untraced warm pass under the census,
  then traced passes until ``--seconds`` have elapsed (at least one).

Every line on stdout is one JSON event; the last is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import HERE, ensure_src_on_path

ensure_src_on_path()

from perfbench import checks, layers, spec, workloads  # noqa: E402
from perfbench.trace import Census, Tracer  # noqa: E402


def cpu_seconds() -> float:
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class OpLog:
    """Runs passes as ops and keeps the pass/fail ledger."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ops = 0
        self.failures: List[str] = []
        self.cold_payload: Dict[str, object] = {}
        self.first_payload: Optional[Dict[str, object]] = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def failed_ops(self) -> int:
        return min(len(self.failures), self.ops)

    def run(self, kind: str, fn: Callable[[int], workloads.Outcome],
            tracer: Optional[Tracer] = None) -> dict:
        """One op: ``fn(seed)`` under the clocks (and inside ``tracer``'s
        window, if given), then its checks. A failed op contributes one
        entry to ``failures``."""
        gc.collect()
        self.ops += 1
        cpu_before = cpu_seconds()
        if tracer is not None:
            tracer.start()
        started = perf_counter()
        try:
            outcome = fn(self.seed)
        except Exception:   # an op that raises is a failed op, not a crash
            self.fail(f"{kind} pass raised:\n{traceback.format_exc()}")
            return {"outcome": None, "wall_s": perf_counter() - started,
                    "cpu_s": cpu_seconds() - cpu_before}
        finally:
            if tracer is not None:
                tracer.stop()
        wall = perf_counter() - started
        cpu = cpu_seconds() - cpu_before
        problems = list(outcome.violations)
        if kind == "cold":
            self.cold_payload = outcome.payload
        else:
            problems += checks.determinism_violations(
                self.cold_payload, self.first_payload, outcome.payload)
            if self.first_payload is None:
                self.first_payload = outcome.payload
        if problems:
            self.fail(f"{kind} pass: " + "; ".join(problems))
        return {"outcome": outcome, "wall_s": wall, "cpu_s": cpu}

    def digest(self) -> Optional[str]:
        payload = self.first_payload or self.cold_payload
        return checks.sim_digest(payload) if payload else None


def run_timed(workload: workloads.Workload, log: OpLog, seconds: float,
              min_repeats: int, emit: Callable[[dict], None]) -> dict:
    cold = log.run("cold", workload.cold)
    emit({"event": "cold", "wall_s": cold["wall_s"]})
    # One pass's peak: later passes only add allocator fragmentation
    # (glibc's growing mmap threshold), which is noise, not footprint.
    cold_peak_rss_mb = peak_rss_mb()
    walls: List[float] = []
    cpus: List[float] = []
    work = 0
    counters: Dict[str, float] = {}
    deadline = perf_counter() + seconds
    while len(walls) < min_repeats or perf_counter() < deadline:
        op = log.run("timed", workload.repeat)
        if op["outcome"] is None:
            if len(log.failures) >= min_repeats:
                break       # a workload that only raises must still end
            continue
        walls.append(op["wall_s"])
        cpus.append(op["cpu_s"])
        work = op["outcome"].work
        counters = counters or op["outcome"].counters
    return {"cold_wall_s": cold["wall_s"], "wall_s": walls, "cpu_s": cpus,
            "work": work, "counters": counters,
            "peak_rss_mb": cold_peak_rss_mb}


def check_identity(name: str, size: str, log: OpLog) -> Optional[str]:
    """One untimed pass of the reference workload; a digest mismatch is
    one failed op on this (the second) workload of the pair."""
    reference = spec.WORKLOADS[name].get("identical_to")
    if reference is None or log.digest() is None:
        return None
    outcome = workloads.get(reference, size).repeat(log.seed)
    reference_digest = checks.sim_digest(outcome.payload)
    for problem in checks.identity_violations(name, log.digest(),
                                              reference_digest):
        log.fail(problem)
    return reference_digest


def run_traced(workload: workloads.Workload, log: OpLog, seconds: float,
               emit: Callable[[dict], None]) -> dict:
    cold = log.run("cold", workload.cold)
    emit({"event": "cold", "wall_s": cold["wall_s"]})

    census = Census().install()
    try:
        warm = log.run("timed", workload.repeat)
        census_counters = census.counters()
    finally:
        census.uninstall()
    if warm["outcome"] is None:
        return {"metrics": {}, "trace": None}

    passes: List[Tuple[Dict[str, float], dict]] = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        tracer = Tracer().install()
        try:
            op = log.run("timed", workload.repeat, tracer)
        finally:
            tracer.uninstall()
        if op["outcome"] is None:
            break
        trace = tracer.result()
        passes.append((layers.derive(trace, census_counters,
                                     warm["outcome"].counters,
                                     warm["wall_s"]), trace))
    if not passes:
        return {"metrics": {}, "trace": None}

    for metric in spec.layer_metrics():
        name = metric["name"]
        seen = {values[name] for values, _trace in passes}
        if metric["kind"] == "exact" and len(seen) > 1:
            log.fail(f"traced passes disagree on exact metric {name}: "
                     f"{sorted(seen)}")
    # Report one whole pass — the one with the median traced wall — so
    # the budget still adds up (medians taken row by row would not).
    passes.sort(key=lambda item: item[0]["trace.wall_s"])
    metrics, trace = passes[(len(passes) - 1) // 2]
    return {"metrics": metrics, "traced_passes": len(passes),
            "warm_wall_s": warm["wall_s"], "trace": trace}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=list(spec.WORKLOADS))
    parser.add_argument("--mode", required=True, choices=["timed", "trace"])
    parser.add_argument("--min-repeats", type=int, default=spec.MIN_REPEATS)
    parser.add_argument("--identity", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--size", default="bench", choices=["bench", "test"])
    args = parser.parse_args(argv)

    def emit(event: dict) -> None:
        print(json.dumps(event), flush=True)

    workload = workloads.get(args.workload, args.size)
    log = OpLog(args.seed)
    result: Dict[str, object] = {"event": "result", "mode": args.mode,
                                 "workload": args.workload,
                                 "seed": args.seed, "size": args.size}
    if args.mode == "timed":
        result.update(run_timed(workload, log, args.seconds,
                                args.min_repeats, emit))
        if args.identity:
            result["reference_digest"] = check_identity(
                args.workload, args.size, log)
    else:
        traced = run_traced(workload, log, args.seconds, emit)
        trace = traced.pop("trace")
        result.update(traced)
        if trace is not None:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            path = out / f"trace-{args.workload}.json"
            path.write_text(json.dumps(trace, indent=1))
            result["trace_file"] = str(path.relative_to(HERE.parent))
    digest = log.digest()
    result.update({
        "ops": log.ops, "failed_ops": log.failed_ops,
        "failures": log.failures, "sim_digest": digest,
        "sim_digest_changed": bool(digest) and checks.golden_changed(
            args.workload, args.seed, args.size, digest),
    })
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
