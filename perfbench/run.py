"""perfbench: one command for every host-time number this repo claims.

    python3 perfbench/run.py                       all six workloads
    python3 perfbench/run.py --trace               ... plus the per-layer pass
    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
                                                   one workload (driver form)
    python3 perfbench/run.py --compare A.json B.json

Each workload runs in fresh subprocesses, one after another, so nothing
runs beside the thing being timed. With ``--workload`` the last stdout
line is the driver's JSON object; without it a full record is written to
``perfbench/out/<run>.json`` (the input of ``--compare``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import HERE, ROOT, ensure_src_on_path

ensure_src_on_path()

from repro.bench.micro import calibration_loop  # noqa: E402

from perfbench import checks, compare, spec  # noqa: E402

WORKER = HERE / "worker.py"
#: A worker that has not finished by then is killed and its op failed;
#: the driver's own limit is 180 s per run.
WORKER_TIMEOUT_S = 150.0


def calibration_ops_per_s(target_s: float = 0.2) -> float:
    """ops/s of the repo's fixed pure-python calibration loop."""
    loops = 0
    started = perf_counter()
    while perf_counter() - started < target_s:
        calibration_loop()
        loops += 1
    return loops * 10_000 / (perf_counter() - started)


def summarize(samples: List[float], statistic: str) -> dict:
    """The metric's ``value`` (its declared statistic) with the median,
    lower quartile, min/max/IQR, n and the samples themselves. The
    quartiles are the *inclusive* ones: they describe the samples taken
    and never reach beyond them (at n=3 the exclusive method would
    report the full range as the IQR)."""
    n = len(samples)
    if n == 0:
        return dict.fromkeys(("value", "median", "q1", "min", "max", "iqr"),
                             math.nan) | {"n": 0, "samples": []}
    q1 = q3 = samples[0]
    if n >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    stats = {"n": n, "median": statistics.median(samples), "q1": q1,
             "min": min(samples), "max": max(samples), "iqr": q3 - q1,
             "samples": samples}
    stats["value"] = stats[statistic]
    return stats


def spawn(workload: str, mode: str, seed: int, seconds: float,
          size: str, *extra: str) -> dict:
    """Run one worker; returns its result plus ``setup_s`` (spawn -> end
    of the cold pass, timed here in the parent)."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--mode", mode, "--seed", str(seed),
               "--seconds", str(seconds), "--size", size, *extra]
    started = perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=str(ROOT))
    watchdog = threading.Timer(WORKER_TIMEOUT_S, process.kill)
    watchdog.start()
    setup_s = None
    result: Optional[dict] = None
    try:
        for line in process.stdout:
            if not line.startswith("{"):
                continue
            event = json.loads(line)
            if event.get("event") == "cold" and setup_s is None:
                setup_s = perf_counter() - started
            elif event.get("event") == "result":
                result = event
    finally:
        watchdog.cancel()
        process.stdout.close()
        code = process.wait()
    if result is None:
        result = {"ops": 1, "failed_ops": 1, "sim_digest": None,
                  "sim_digest_changed": False,
                  "failures": [f"worker {mode} exited {code} "
                               f"without a result"]}
    result["setup_s"] = setup_s
    return result


def measure_workload(name: str, seed: int, seconds: float,
                     size: str) -> dict:
    """The untraced run of one workload: ``SETUP_SAMPLES`` fresh
    subprocesses share the timed seconds; repeats are pooled, so no one
    process's hash seed or memory layout owns the number."""
    calibration = [calibration_ops_per_s()]
    record = {"workload": name, "seed": seed, "size": size,
              "ops": 0, "failed_ops": 0, "failures": []}
    samples: Dict[str, List[float]] = {
        "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    last: dict = {}
    for index in range(spec.SETUP_SAMPLES):
        extra = ["--min-repeats", str(spec.min_repeats_of(index))]
        if index == spec.SETUP_SAMPLES - 1:
            extra.append("--identity")
        last = spawn(name, "timed", seed, seconds / spec.SETUP_SAMPLES,
                     size, *extra)
        record["ops"] += last["ops"]
        record["failed_ops"] += last["failed_ops"]
        record["failures"] += last["failures"]
        samples["wall_s"] += last.get("wall_s", [])
        samples["cpu_s"] += last.get("cpu_s", [])
        for key in ("peak_rss_mb", "setup_s"):
            if last.get(key) is not None:
                samples[key].append(last[key])
        calibration.append(calibration_ops_per_s())

    end_to_end = {metric["name"]: summarize(samples[metric["name"]],
                                            metric["statistic"])
                  for metric in spec.END_TO_END}
    work = last.get("work", 0)
    record.update({
        "sim_digest": last["sim_digest"],
        "sim_digest_changed": last["sim_digest_changed"],
        "reference_digest": last.get("reference_digest"),
        "counters": last.get("counters", {}),
        "work": work,
        "work_unit": spec.WORKLOADS[name]["work_unit"],
        "work_per_s": work / end_to_end["wall_s"]["value"]
        if samples["wall_s"] else 0.0,
        "config": {"calibration_ops_per_s": calibration},
        "noisy": min(calibration) < 0.90 * max(calibration),
        "end_to_end": end_to_end,
    })
    fleet_cps = record["counters"].get("fleet_cps_mitigated")
    if fleet_cps is not None:
        record["fidelity"] = {"fleet_cps_mitigated": checks.fidelity(
            "fleet_cps_mitigated", fleet_cps)}
    return record


def trace_workload(name: str, seed: int, seconds: float, size: str) -> dict:
    """The traced run of one workload (never a source of end-to-end
    numbers)."""
    result = spawn(name, "trace", seed, seconds, size)
    return {"workload": name, "seed": seed, "size": size,
            "ops": result["ops"], "failed_ops": result["failed_ops"],
            "failures": result["failures"],
            "sim_digest": result["sim_digest"],
            "traced_passes": result.get("traced_passes", 0),
            "trace_file": result.get("trace_file"),
            "per_layer": result.get("metrics", {})}


# -- printing -----------------------------------------------------------------------------

def print_end_to_end(record: dict) -> None:
    name = record["workload"]
    print(f"[{name}] seed={record['seed']} size={record['size']} "
          f"ops={record['ops']} failed_ops={record['failed_ops']} "
          f"sim_digest={record['sim_digest']} "
          f"sim_digest_changed={str(record['sim_digest_changed']).lower()}"
          f"{' noisy=true' if record['noisy'] else ''}")
    for metric in spec.END_TO_END:
        stats = record["end_to_end"][metric["name"]]
        print(f"  {name}.{metric['name']} = {stats['value']:.4f} "
              f"{metric['unit']}  ({metric['statistic']}; "
              f"median={stats['median']:.4f} n={stats['n']} "
              f"min={stats['min']:.4f} max={stats['max']:.4f} "
              f"iqr={stats['iqr']:.4f})")
    print(f"  {name}.work_per_s = {record['work_per_s']:.1f} "
          f"{record['work_unit']}/s  (input: {record['work']} "
          f"{record['work_unit']} per repeat)")
    for fidelity in record.get("fidelity", {}).values():
        print_fidelity(fidelity)
    for failure in record["failures"]:
        print(f"  FAILED OP: {failure}")


def print_fidelity(fidelity: dict) -> None:
    low, high = fidelity["window"]
    verdict = "ok" if fidelity["ok"] else "MISSED"
    print(f"  fidelity {fidelity['what']}: {fidelity['value']:.4g} in "
          f"[{low}, {high}] (paper {fidelity['paper']}): {verdict}")


def print_per_layer(record: dict) -> None:
    name = record["workload"]
    print(f"[{name}] traced: passes={record['traced_passes']} "
          f"ops={record['ops']} failed_ops={record['failed_ops']} "
          f"trace_file={record['trace_file']}")
    for metric in spec.layer_metrics():
        value = record["per_layer"].get(metric["name"], math.nan)
        print(f"  {name}.{metric['name']} = {value:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED OP: {failure}")


# -- entry points -------------------------------------------------------------------------

def run_single(args) -> int:
    """The driver form: one workload, one JSON object on the last line."""
    if args.trace:
        record = trace_workload(args.workload, args.seed, args.seconds,
                                args.size)
        print_per_layer(record)
        metrics = {m["name"]: {"value": record["per_layer"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec.layer_metrics()
                   if m["name"] in record["per_layer"]}
        expected = len(spec.layer_metrics())
    else:
        record = measure_workload(args.workload, args.seed, args.seconds,
                                  args.size)
        print_end_to_end(record)
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]]
                               ["value"], "unit": m["unit"]}
                   for m in spec.END_TO_END
                   if record["end_to_end"][m["name"]]["n"]}
        expected = len(spec.END_TO_END)
    complete = len(metrics) == expected
    failed = record["failed_ops"] + (0 if complete else 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, record["ops"]),
        "failed": min(failed, max(1, record["ops"])),
        "metrics": metrics,
    }))
    return 0 if complete else 1


def run_all(args) -> int:
    print("wall_s/cpu_s are the lower quartile of the pooled timed repeats "
          "(median beside it); their count supports no percentile above the "
          "median, so none is printed")
    started = perf_counter()
    run = {"seed": args.seed, "size": args.size, "seconds": args.seconds,
           "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
           "python": sys.version.split()[0],
           "workloads": {}, "traced": {}}
    for name in spec.WORKLOADS:
        record = measure_workload(name, args.seed, args.seconds, args.size)
        run["workloads"][name] = record
        print_end_to_end(record)
    run["untraced_wall_s"] = perf_counter() - started

    local = run["workloads"]["crr_local"]["counters"].get("host.sim_cps")
    offload = run["workloads"]["crr_offload"]["counters"].get("host.sim_cps")
    if local and offload:
        run["fidelity"] = {"cps_gain_4fe": checks.fidelity(
            "cps_gain_4fe", offload / local)}
        print("[all]")
        print_fidelity(run["fidelity"]["cps_gain_4fe"])

    if args.trace:
        trace_started = perf_counter()
        for name in spec.WORKLOADS:
            # One traced pass each: the budget is for the untraced run.
            record = trace_workload(name, args.seed, 0.0, args.size)
            run["traced"][name] = record
            print_per_layer(record)
        run["traced_wall_s"] = perf_counter() - trace_started

    records = list(run["workloads"].values()) + list(run["traced"].values())
    run["ops"] = sum(record["ops"] for record in records)
    run["failed_ops"] = sum(record["failed_ops"] for record in records)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else \
        out / f"run-{time.strftime('%Y%m%d-%H%M%S')}-seed{args.seed}.json"
    path.write_text(json.dumps(run, indent=1))
    print(f"[all] ops={run['ops']} failed_ops={run['failed_ops']} "
          f"untraced_wall_s={run['untraced_wall_s']:.1f}"
          + (f" traced_wall_s={run['traced_wall_s']:.1f}"
             if args.trace else "")
          + f" -> {path}")
    return 1 if run["failed_ops"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="seconds of timed repeats per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1], help="run the per-layer pass")
    parser.add_argument("--size", default="bench", choices=["bench", "test"],
                        help="'test' is for perfbench/test_perfbench.py only")
    parser.add_argument("--out", help="all-workload mode: output file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload:
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
