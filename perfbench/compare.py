"""``run.py --compare A.json B.json``: apply each metric's bound per row.

A is the base (parent), B the candidate. One row per (end-to-end metric,
workload), every ratio with its base:

* ``ok``          B's value is within the bound of A's;
* ``regression``  B's value is worse than A's by more than the bound;
* ``unresolved``  either side's own spread (IQR / median) is wider than
                  the bound and the two sample ranges overlap — the runs
                  cannot tell the sides apart, so neither "ok" nor
                  "regression" may be claimed (unless every B sample is
                  better than every A sample, which is ``ok``).

Exact per-layer metrics (deterministic counts) are compared for
equality and listed when they differ.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

from perfbench import spec


def classify(base: dict, new: dict, bound: float) -> Tuple[str, float]:
    """``(verdict, worsening)`` for one lower-is-better metric row."""
    worsening = (new["value"] - base["value"]) / base["value"]
    if new["max"] < base["min"]:
        return "ok", worsening
    spread = max(base["iqr"] / base["median"], new["iqr"] / new["median"])
    overlap = new["min"] <= base["max"] and base["min"] <= new["max"]
    if spread > bound and overlap:
        return "unresolved", worsening
    return ("regression" if worsening > bound else "ok"), worsening


def compare_runs(base: dict, new: dict) -> Tuple[List[dict], List[dict]]:
    rows = []
    for metric in spec.END_TO_END:
        for workload in spec.WORKLOADS:
            a = base["workloads"][workload]["end_to_end"][metric["name"]]
            b = new["workloads"][workload]["end_to_end"][metric["name"]]
            verdict, worsening = classify(a, b, metric["bound"])
            rows.append({"metric": metric["name"], "workload": workload,
                         "unit": metric["unit"], "base": a["value"],
                         "new": b["value"], "worsening": worsening,
                         "bound": metric["bound"], "verdict": verdict})
    differing = []
    exact = [m["name"] for m in spec.layer_metrics() if m["kind"] == "exact"]
    for workload in spec.WORKLOADS:
        a = base["workloads"][workload]["sim_digest"]
        b = new["workloads"][workload]["sim_digest"]
        if a != b:
            differing.append({"metric": "sim_digest", "workload": workload,
                              "base": a, "new": b})
        a = base["traced"].get(workload, {}).get("per_layer")
        b = new["traced"].get(workload, {}).get("per_layer")
        if a and b:
            differing += [{"metric": name, "workload": workload,
                           "base": a[name], "new": b[name]}
                          for name in exact if a[name] != b[name]]
    return rows, differing


def main(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    rows, differing = compare_runs(base, new)
    print(f"base A = {base_path}\nnew  B = {new_path}")
    print(f"{'metric':12} {'workload':16} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>7}  verdict")
    for row in rows:
        print(f"{row['metric']:12} {row['workload']:16} "
              f"{row['base']:12.4f} {row['new']:12.4f} "
              f"{row['new'] / row['base']:7.3f} "
              f"{1 + row['bound']:7.2f}  {row['verdict']}")
    if differing:
        print("sim_digests / exact per-layer metrics that differ:")
        for row in differing:
            print(f"  {row['workload']}.{row['metric']}: "
                  f"A={row['base']} B={row['new']}")
    else:
        print("sim_digests and exact per-layer metrics: identical (layers "
              "only where both runs were traced)")
    counts = {verdict: sum(row["verdict"] == verdict for row in rows)
              for verdict in ("ok", "regression", "unresolved")}
    print(f"ok={counts['ok']} regression={counts['regression']} "
          f"unresolved={counts['unresolved']} "
          f"exact_differences={len(differing)}")
    return 1 if counts["regression"] else 0
