"""Per-packet latency spans across the BE↔FE detour.

A span rides in ``packet.meta["span"]``. Encapsulation copies ``meta``
with a shallow ``dict()`` (both VXLAN transport and the NSH hop header do
this), so the *same* mutable :class:`Span` object is visible at every hop
of the journey — vNIC ingress, BE datapath, the fabric TX, the FE relay,
and final guest delivery all append to one hop list, and the finished
span lands in the recorder exactly once.

The hot-path contract: every instrumentation site in the datapath is
``if _spans.ACTIVE:`` in front of one :func:`hop` / :func:`begin` /
:func:`finish` call — a module attribute read with telemetry off, a
no-op call for a packet without a span with it on. ``ACTIVE`` never
selects a code path, so the program observed is the program that runs
unobserved (a call census and an AST walk in the tests pin it). Only a
*carried* span changes handling: a fluid ``(template, count)`` run
materializes iff ``META_KEY in template.meta`` — one probe per run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.percentiles import percentile_summary

# Module-level fast gate. Guards a hop/begin/finish call, never a code
# path; flipped only by SpanRecorder.install()/uninstall().
ACTIVE = False

_recorder: Optional["SpanRecorder"] = None

META_KEY = "span"


class Span:
    """One packet's journey: a label plus ``(hop_name, timestamp)`` pairs."""

    __slots__ = ("label", "t0", "hops", "done")

    def __init__(self, label: str, t0: float) -> None:
        self.label = label
        self.t0 = t0
        self.hops: List[Tuple[str, float]] = []
        self.done = False

    def total(self) -> float:
        """End-to-end latency (last hop minus start)."""
        return (self.hops[-1][1] - self.t0) if self.hops else 0.0

    def segments(self) -> List[Tuple[str, float]]:
        """``("a->b", dt)`` for each consecutive hop pair, from t0."""
        out: List[Tuple[str, float]] = []
        prev_name, prev_t = "start", self.t0
        for name, t in self.hops:
            out.append((f"{prev_name}->{name}", t - prev_t))
            prev_name, prev_t = name, t
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "t0": self.t0, "done": self.done,
                "total": self.total(),
                "hops": [{"name": name, "time": t} for name, t in self.hops]}


def begin(packet, label: str, now: float) -> Span:
    """Attach a fresh span to ``packet`` (caller already checked ACTIVE)."""
    span = Span(label, now)
    packet.meta[META_KEY] = span
    return span


def hop(packet, name: str, now: float) -> None:
    """Record a waypoint; no-op for packets without a span."""
    span = packet.meta.get(META_KEY)
    if span is not None and not span.done:
        span.hops.append((name, now))


def finish(packet, name: str, now: float) -> None:
    """Record the terminal hop and hand the span to the recorder.

    Called at guest delivery — the same instant the experiment's own
    listener computes its latency, so span totals and experiment numbers
    agree exactly.
    """
    span = packet.meta.get(META_KEY)
    if span is None or span.done:
        return
    span.hops.append((name, now))
    span.done = True
    if _recorder is not None:
        _recorder.add(span)


class SpanRecorder:
    """Collects finished spans and aggregates them per label."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        global ACTIVE, _recorder
        _recorder = self
        ACTIVE = True

    def uninstall(self) -> None:
        global ACTIVE, _recorder
        if _recorder is self:
            _recorder = None
            ACTIVE = False

    # -- collection --------------------------------------------------------

    def add(self, span: Span) -> None:
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped += 1
            del self.spans[0]
        self.spans.append(span)

    def clear(self, label: Optional[str] = None) -> None:
        """Drop recorded spans — all of them, or one label (warmup)."""
        if label is None:
            self.spans.clear()
            self.dropped = 0
        else:
            self.spans = [s for s in self.spans if s.label != label]

    def by_label(self, label: str) -> List[Span]:
        return [s for s in self.spans if s.label == label]

    def labels(self) -> List[str]:
        seen: List[str] = []
        for span in self.spans:
            if span.label not in seen:
                seen.append(span.label)
        return seen

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, Any]]:
        """Per-label breakdown: count, total-latency summary, and a
        per-segment summary — the Fig-12-style decomposition in one call.

        Only spans sharing a label are merged, so local and offloaded
        paths (different hop sequences) never mix segments.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for label in self.labels():
            spans = self.by_label(label)
            totals = [s.total() for s in spans]
            segment_samples: Dict[str, List[float]] = {}
            for span in spans:
                for seg_name, dt in span.segments():
                    segment_samples.setdefault(seg_name, []).append(dt)
            out[label] = {
                "count": len(spans),
                "latency": percentile_summary(totals),
                "segments": {name: percentile_summary(samples)
                             for name, samples in segment_samples.items()},
            }
        return out

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]
