"""The fleet decision journal.

Every grant, renewal, denial, release, and mitigation the
:class:`~repro.fleet.coordinator.FleetCoordinator` settles — and every
decision the controller's :class:`~repro.controller.policy.NezhaPolicy`
seam emits — is recorded as one typed plain-dict event carrying the
policy name, so "why did supernic preempt where nezha granted?" is
answerable from a single JSONL capture (``tools/telemetry.py
decisions``). Events are appended only when a journal is wired up; with
telemetry uninstalled every producer site degrades to one ``is None``
check. Journal writes are pure observation: nothing here touches an
RNG, a clock, or simulation state.

The fleet's counters and histograms are not kept here: they are the
run record of :mod:`repro.fleet.record`, which every fleet run builds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class DecisionJournal:
    """Capacity-bounded list of typed decision events (plain dicts).

    Every event carries ``source`` (``"coordinator"`` or
    ``"controller"``), the ``policy`` name it was decided under, and an
    ``action``; coordinator events add the settle ``epoch`` and the
    vSwitch ``index``/``tenant``, controller events the virtual ``time``.
    ``None``-valued fields are dropped so events stay compact.

    On overflow the journal keeps the *earliest* events and counts the
    rest in :attr:`dropped` — a post-mortem wants the decisions that led
    into a state, and the exporter surfaces the drop count in the
    capture header.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0

    def record(self, source: str, policy: str, action: str,
               **fields: Any) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        event: Dict[str, Any] = {"source": source, "policy": policy,
                                 "action": action}
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self.events.append(event)

    def coordinator_event(self, epoch: Optional[int], policy: str,
                          action: str, index: Optional[int] = None,
                          **fields: Any) -> None:
        """One ``FleetCoordinator.settle`` decision."""
        self.record("coordinator", policy, action, epoch=epoch,
                    index=index, **fields)

    def controller_event(self, time: float, policy: str, action: str,
                         fields: Dict[str, Any]) -> None:
        """One controller/policy-seam decision (``_decide``)."""
        self.record("controller", policy, action, time=time, **fields)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return list(self.events)

    def __len__(self) -> int:
        return len(self.events)
