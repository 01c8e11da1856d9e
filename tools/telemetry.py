#!/usr/bin/env python
"""Post-mortem inspector for telemetry JSONL exports.

Produce a capture with any experiment entry point::

    PYTHONPATH=src python -m repro.experiments fig12 --telemetry run.jsonl
    PYTHONPATH=src python -m repro.experiments.chaos --telemetry soak.jsonl

Then inspect it::

    python tools/telemetry.py report run.jsonl
    python tools/telemetry.py spans run.jsonl --label 'offloaded/*'
    python tools/telemetry.py timeline soak.jsonl --kind 'fault.*'
    python tools/telemetry.py fleet-report fleet.jsonl
    python tools/telemetry.py decisions arena.jsonl --policy 'pam'
    python tools/telemetry.py validate run.jsonl

``report`` is the overview: capture header, metric snapshot, the
per-label latency-span breakdown (Fig-12-style local vs offloaded
per-segment decomposition), and the engine profile. ``spans`` goes
deeper on one or more span labels. ``timeline`` prints the unified
trace — faults, controller decisions, monitor verdicts, offload
lifecycle — interleaved in time order, which is the chaos-soak
post-mortem view. ``fleet-report`` renders the fleet run record
(counters, demand/CPU/flow histograms) and the per-epoch
coordinator timeline from the decision journal; ``decisions`` tallies
the journal per policy and diffs outcomes across policies — the arena
post-mortem. ``validate`` is the schema gate CI runs.
"""

from __future__ import annotations

import argparse
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.export import load, validate_report  # noqa: E402
from repro.telemetry.spans import Span, aggregate  # noqa: E402


def _by_type(records: List[Dict[str, Any]], line_type: str) -> List[Dict]:
    return [r for r in records if r.get("type") == line_type]


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:10.2f}"


# -- spans: the capture's span lines through the recorder's aggregation ----


def print_span_breakdown(spans: List[Dict[str, Any]], pattern: str = "*",
                         detailed: bool = False) -> None:
    aggregated = aggregate(Span.from_dict(span) for span in spans
                           if fnmatchcase(span["label"], pattern))
    if not aggregated:
        print(f"  no spans match {pattern!r}")
        return
    for label, entry in aggregated.items():
        latency = entry["latency"]
        print(f"  {label}  ({entry['count']} spans)")
        print(f"    total latency (us): p50 {latency['P50'] * 1e6:.2f}  "
              f"p90 {latency['P90'] * 1e6:.2f}  "
              f"p99 {latency['P99'] * 1e6:.2f}  "
              f"avg {latency['avg'] * 1e6:.2f}")
        if detailed:
            print(f"    {'segment':<28} {'p50 us':>10} {'p90 us':>10} "
                  f"{'p99 us':>10}")
            for name, summary in entry["segments"].items():
                print(f"    {name:<28} {_us(summary['P50'])} "
                      f"{_us(summary['P90'])} {_us(summary['P99'])}")
        else:
            parts = [f"{name} {summary['P50'] * 1e6:.2f}"
                     for name, summary in entry["segments"].items()]
            print(f"    segment p50s (us): {'  '.join(parts)}")
        print()


# -- subcommands -----------------------------------------------------------


def cmd_report(args) -> int:
    records = load(args.file)
    problems = validate_report(records)
    if problems:
        for text in problems:
            print(f"invalid capture: {text}", file=sys.stderr)
        return 1
    header = records[0]
    print(f"capture: {args.file}")
    print(f"  {header.get('metrics', 0)} metrics, "
          f"{header.get('spans', 0)} spans, "
          f"{header.get('trace_records', 0)} trace records "
          f"({header.get('trace_dropped', 0)} trace / "
          f"{header.get('span_dropped', 0)} span records dropped)")

    metrics = [m for m in _by_type(records, "metric")
               if fnmatchcase(m["name"], args.metrics)]
    if metrics:
        print("\nmetrics:")
        for metric in metrics:
            value = metric["value"]
            if metric["kind"] == "fleet_hist":
                rendered = (f"{sum(value['counts'])} samples in "
                            f"{len(value['counts'])} buckets "
                            f"(see fleet-report)")
            elif isinstance(value, float):
                rendered = f"{value:.6g}"
            else:
                rendered = str(value)
            print(f"  {metric['name']:<44} {metric['kind']:<10} {rendered}")

    spans = _by_type(records, "span")
    if spans:
        print("\nlatency spans:")
        print_span_breakdown(spans)

    profiles = _by_type(records, "profile")
    for profile in profiles:
        print("engine profile:")
        print(f"  {profile['total_events']} events in "
              f"{profile['total_wall_s']:.3f}s wall "
              f"({profile.get('events_per_sec', 0):,.0f} events/sec)")
        print(f"  {'owner':<36} {'events':>10} {'wall s':>9} {'share':>7}")
        for row in profile["top"]:
            print(f"  {row['owner']:<36} {row['events']:>10} "
                  f"{row['wall_s']:>9.3f} {row['share']:>6.1%}")
    return 0


def cmd_spans(args) -> int:
    records = load(args.file)
    spans = _by_type(records, "span")
    if not spans:
        print("no span records in capture", file=sys.stderr)
        return 1
    print_span_breakdown(spans, args.label, detailed=True)
    return 0


def cmd_timeline(args) -> int:
    records = load(args.file)
    traces = [t for t in _by_type(records, "trace")
              if fnmatchcase(t["kind"], args.kind)
              and args.since <= t["time"]
              and (args.until is None or t["time"] <= args.until)]
    traces.sort(key=lambda t: t["time"])
    if args.limit and len(traces) > args.limit:
        print(f"... {len(traces) - args.limit} earlier records "
              f"(raise --limit)")
        traces = traces[-args.limit:]
    for trace in traces:
        fields = " ".join(f"{key}={value}"
                          for key, value in trace["fields"].items())
        print(f"  {trace['time']:>12.6f}  {trace['kind']:<28} {fields}")
    if not traces:
        print(f"  no trace records match kind={args.kind!r}")
    return 0


def _bucket_labels(edges: List[float], n_buckets: int) -> List[str]:
    """Render the fleet record's bisect_left buckets: bucket i holds
    values in (edges[i-1], edges[i]], the last bucket is overflow."""
    labels = []
    for i in range(n_buckets):
        lo = "-inf" if i == 0 else f"{edges[i - 1]:g}"
        hi = f"{edges[i]:g}" if i < len(edges) else "+inf"
        labels.append(f"({lo}, {hi}]")
    return labels


def _coordinator_epochs(decisions: List[Dict[str, Any]]
                        ) -> Dict[tuple, Dict[str, Any]]:
    """Group coordinator events by (policy, epoch) with action tallies."""
    grouped: Dict[tuple, Dict[str, Any]] = {}
    for event in decisions:
        if event.get("source") != "coordinator":
            continue
        key = (event["policy"], event.get("epoch"))
        entry = grouped.setdefault(key, {
            "grants": 0, "renewals": 0, "denials": 0, "releases": 0,
            "mitigated": 0, "late": 0, "settle": None})
        action = event["action"]
        if action == "settle":
            entry["settle"] = event
        elif action == "grant":
            entry["grants"] += 1
        elif action == "renewal":
            entry["renewals"] += 1
        elif action == "denial":
            entry["denials"] += 1
        elif action == "release":
            entry["releases"] += 1
        elif action == "mitigation":
            entry["mitigated" if event.get("activated") else "late"] += 1
    return grouped


def cmd_fleet_report(args) -> int:
    records = load(args.file)
    metrics = _by_type(records, "metric")
    counters = [m for m in metrics
                if m["name"].startswith("fleet.") and m["kind"] == "counter"]
    hists = [m for m in metrics if m["kind"] == "fleet_hist"]
    decisions = _by_type(records, "decision")
    if not counters and not decisions:
        print("no fleet records in capture (run the fleet experiment "
              "or the policy arena with --telemetry)", file=sys.stderr)
        return 1

    if counters:
        print("fleet counters (every shard, epoch and fleet run of the "
              "session):")
        for metric in counters:
            print(f"  {metric['name']:<32} {metric['value']}")

    for metric in hists:
        edges = metric["value"]["edges"]
        counts = metric["value"]["counts"]
        total = sum(counts)
        peak = max(counts) or 1
        print(f"\n{metric['name']}  ({total} samples)")
        for label, count in zip(_bucket_labels(edges, len(counts)), counts):
            if count == 0:
                continue
            bar = "#" * max(1, round(36 * count / peak))
            print(f"  {label:<20} {count:>10}  {bar}")

    grouped = _coordinator_epochs(decisions)
    if grouped:
        print("\nper-epoch coordinator timeline:")
        print(f"  {'policy':<10} {'epoch':>5} {'util':>6} {'in_use':>7} "
              f"{'grants':>7} {'renew':>6} {'deny':>5} {'release':>8} "
              f"{'mitigated':>10}")
        for (policy, epoch), entry in sorted(grouped.items(),
                                             key=lambda kv: (kv[0][0],
                                                             kv[0][1] or 0)):
            settle = entry["settle"] or {}
            util = settle.get("utilization")
            in_use = settle.get("in_use")
            mitigated = f"{entry['mitigated']}/" \
                        f"{entry['mitigated'] + entry['late']}"
            print(f"  {policy:<10} {epoch if epoch is not None else '-':>5} "
                  f"{util if util is None else format(util, '.2f'):>6} "
                  f"{in_use if in_use is not None else '-':>7} "
                  f"{entry['grants']:>7} {entry['renewals']:>6} "
                  f"{entry['denials']:>5} {entry['releases']:>8} "
                  f"{mitigated:>10}")
    return 0


def cmd_decisions(args) -> int:
    records = load(args.file)
    decisions = [d for d in _by_type(records, "decision")
                 if fnmatchcase(str(d.get("policy")), args.policy)
                 and fnmatchcase(str(d.get("source")), args.source)]
    if not decisions:
        print("no decision records match", file=sys.stderr)
        return 1

    policies: List[str] = []
    actions: List[str] = []
    counts: Dict[tuple, int] = {}
    for event in decisions:
        policy, action = event["policy"], event["action"]
        if policy not in policies:
            policies.append(policy)
        if action not in actions:
            actions.append(action)
        counts[(policy, action)] = counts.get((policy, action), 0) + 1

    print("decision counts by policy:")
    print(f"  {'action':<12}" + "".join(f" {p:>12}" for p in policies))
    for action in actions:
        row = "".join(f" {counts.get((p, action), 0):>12}"
                      for p in policies)
        print(f"  {action:<12}{row}")

    # Cross-policy outcome diff: the same (epoch, vswitch) request can be
    # granted under one allocation policy and denied under another —
    # exactly the arena's per-policy comparison, per decision.
    if len(policies) >= 2:
        outcomes: Dict[tuple, Dict[str, str]] = {}
        for event in decisions:
            if event.get("source") != "coordinator":
                continue
            if event["action"] not in ("grant", "denial", "renewal"):
                continue
            key = (event.get("epoch"), event.get("index"))
            if key[1] is None:
                continue
            outcome = event["action"]
            if "granted" in event:
                outcome += f"({event['granted']})"
            outcomes.setdefault(key, {})[event["policy"]] = outcome
        diffs = {key: seen for key, seen in outcomes.items()
                 if len(set(seen.values())) > 1 and len(seen) > 1}
        print(f"\ncross-policy outcome diffs: {len(diffs)} of "
              f"{len(outcomes)} (epoch, vswitch) requests decided "
              f"differently")
        shown = 0
        for (epoch, index), seen in sorted(diffs.items(),
                                           key=lambda kv: (kv[0][0] or 0,
                                                           kv[0][1])):
            if shown >= args.limit:
                print(f"  ... {len(diffs) - shown} more (raise --limit)")
                break
            rendered = "  ".join(f"{policy}={seen[policy]}"
                                 for policy in policies if policy in seen)
            print(f"  e{epoch} vs{index}: {rendered}")
            shown += 1
    return 0


def cmd_validate(args) -> int:
    try:
        records = load(args.file)
    except (OSError, ValueError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    problems = validate_report(records)
    if problems:
        for text in problems:
            print(f"FAIL: {text}", file=sys.stderr)
        return 1
    print(f"OK: {args.file} is a valid telemetry/v1 capture "
          f"({len(records)} lines)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/telemetry.py",
        description="Inspect a telemetry JSONL capture.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="overview: metrics, span "
                              "breakdown, engine profile")
    p_report.add_argument("file", type=Path)
    p_report.add_argument("--metrics", metavar="GLOB", default="*",
                          help="only show metrics matching this glob")
    p_report.set_defaults(fn=cmd_report)

    p_spans = sub.add_parser("spans", help="per-segment latency breakdown "
                             "per span label")
    p_spans.add_argument("file", type=Path)
    p_spans.add_argument("--label", metavar="GLOB", default="*",
                         help="only show span labels matching this glob")
    p_spans.set_defaults(fn=cmd_spans)

    p_timeline = sub.add_parser("timeline", help="unified trace in time "
                                "order (faults vs controller reactions)")
    p_timeline.add_argument("file", type=Path)
    p_timeline.add_argument("--kind", metavar="GLOB", default="*",
                            help="only show trace kinds matching this glob "
                                 "(e.g. 'fault.*', 'controller.*')")
    p_timeline.add_argument("--since", type=float, default=0.0,
                            help="drop records before this virtual time")
    p_timeline.add_argument("--until", type=float, default=None,
                            help="drop records after this virtual time")
    p_timeline.add_argument("--limit", type=int, default=200,
                            help="show at most the last N records "
                                 "(0 = unlimited; default %(default)s)")
    p_timeline.set_defaults(fn=cmd_timeline)

    p_fleet = sub.add_parser("fleet-report", help="fleet run record, "
                             "histograms, and per-epoch coordinator "
                             "timeline")
    p_fleet.add_argument("file", type=Path)
    p_fleet.set_defaults(fn=cmd_fleet_report)

    p_decisions = sub.add_parser("decisions", help="policy decision "
                                 "journal: per-policy action counts and "
                                 "cross-policy outcome diffs")
    p_decisions.add_argument("file", type=Path)
    p_decisions.add_argument("--policy", metavar="GLOB", default="*",
                             help="only show decisions for policies "
                                  "matching this glob")
    p_decisions.add_argument("--source", metavar="GLOB", default="*",
                             help="only show decisions from this source "
                                  "(coordinator, controller)")
    p_decisions.add_argument("--limit", type=int, default=20,
                             help="show at most N outcome diffs "
                                  "(default %(default)s)")
    p_decisions.set_defaults(fn=cmd_decisions)

    p_validate = sub.add_parser("validate", help="schema gate: exit 1 on "
                                "a malformed capture")
    p_validate.add_argument("file", type=Path)
    p_validate.set_defaults(fn=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0  # output piped into head/less and cut short; not an error


if __name__ == "__main__":
    raise SystemExit(main())
