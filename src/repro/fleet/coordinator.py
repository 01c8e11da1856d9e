"""The fleet's shared-FE-pool coordinator.

The only cross-shard coupling in the fleet simulation: shards report
per-epoch FE demand (the hot lists), the coordinator allocates pool
capacity and the resulting grants feed back into the *next* epoch's
shard calls — a granted hotspot retains only its capacity's worth of
traffic, so its micro-sim measurably de-saturates (§6 feedback loop).

Determinism contract: :meth:`FleetCoordinator.settle` consumes reports
in shard-submission order (= ascending global index, since shard ranges
are contiguous) and settles renewals before new requests, each in
ascending vSwitch index. Nothing depends on shard count. Activation
draws use ``derive_seed(seed, f"fleet/act/e{epoch}/vs{index}")`` — keyed
on the global index, drawn only for *newly granted* vSwitches, whose set
is itself shard-invariant.

Allocation is one pass for every policy: a grant is released the first
epoch its holder stops requesting; renewals are served first, so an
active offload is never evicted by a newcomer; each new request gets its
policy's cap if that fits the free pool, else a denial. The policy
(``policy=``, :mod:`repro.controller.policy` at fleet scale) is the cap:

* ``"nezha"`` — none: all or nothing, like the controller (§6.3.2);
* ``"pam"`` — one unit (a single neighbor's spare), so a multi-unit
  hotspot, new or renewed, stays residual for its capacity kinds;
* ``"supernic"`` — the tenant's headroom under ``max(1, pool_units //
  N_TENANTS)`` (tenant = index mod :data:`N_TENANTS`): a fixed pool makes
  it a static partition that never needs to preempt (the testbed's
  ``SuperNicPolicy`` splits a live budget and does);
* ``"sirius"`` — zero: no shared pool, the before-Nezha baseline.

Every settle then checks its books (:meth:`FleetCoordinator._check_books`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import telemetry as _telemetry
from repro.controller.latency import ControlLatencyModel
from repro.controller.policy import POLICY_NAMES
from repro.errors import SimulationError
from repro.experiments.fig13 import activation_sampler
from repro.sim.rng import SeededRng, derive_seed
from repro.telemetry.fleet import DecisionJournal
from repro.workloads.fleet import HotspotKind

#: SuperNIC tenants: vSwitch ``index`` belongs to ``index % N_TENANTS``.
N_TENANTS = 8
Request = Tuple[int, int, List[str]]  # (index, units, kinds)


class FleetCoordinator:
    """Allocates the shared FE pool and scores mitigation per epoch."""

    def __init__(self, seed: int, pool_units: int,
                 survivable_window: float = 3.6,
                 latency: ControlLatencyModel = None, policy: str = "nezha",
                 journal: Optional[DecisionJournal] = None) -> None:
        if policy not in POLICY_NAMES:
            raise ValueError(f"unknown fleet policy {policy!r}; "
                             f"choose from {', '.join(POLICY_NAMES)}")
        if pool_units < 0:
            raise ValueError(f"pool_units must be >= 0, got {pool_units}")
        self.seed = seed
        self.pool_units = pool_units
        self.survivable_window = survivable_window
        self.policy = policy
        self._sample_activation = activation_sampler(
            latency or ControlLatencyModel())
        #: global vSwitch index -> granted FE units (active offloads)
        self.grants: Dict[int, int] = {}
        #: per-kind (occurrences, residual) accumulated across epochs
        self.overloads: Dict[HotspotKind, List[int]] = {
            kind: [0, 0] for kind in HotspotKind}
        #: per-epoch pool utilization after settling, in [0, 1]
        self.utilization: List[float] = []
        self.denied_requests = 0
        # Decision journal: explicit, or the installed telemetry's, or
        # None — in which case every producer site below is one check.
        if journal is None:
            tel = _telemetry.current()
            journal = tel.decisions if tel is not None else None
        self.journal = journal
        self._epoch: Optional[int] = None

    def units_in_use(self) -> int:
        return sum(self.grants.values())

    def _tenant_usage(self) -> Dict[int, int]:
        """Granted units per SuperNIC tenant."""
        usage: Dict[int, int] = {}
        for index, units in self.grants.items():
            usage[index % N_TENANTS] = usage.get(index % N_TENANTS, 0) + units
        return usage

    def _journal(self, action: str, index: Optional[int],
                 **fields) -> None:
        """Record one settle decision; pure observation — no RNG, no
        accounting — so journaling on/off cannot perturb the run."""
        journal = self.journal
        if journal is None:
            return
        tenant = index % N_TENANTS if index is not None else None
        journal.coordinator_event(self._epoch, self.policy, action,
                                  index=index, tenant=tenant, **fields)

    def settle(self, epoch: int, reports: List[Dict[str, object]]
               ) -> Dict[int, int]:
        """Fold one epoch's shard reports into grants and accounting.

        ``reports`` must be in shard-submission order (ascending ranges);
        returns the grants map to feed into the next epoch's shard calls.
        """
        requests: List[Request] = []
        for report in reports:
            for entry in report["hot"]:
                requests.append((entry["index"], entry["units"],
                                 entry["kinds"]))
        requesting = {index for index, _u, _k in requests}
        self._epoch = epoch

        # Release grants whose holder went quiet (ascending index for a
        # deterministic free-pool trajectory, though release commutes).
        for index in sorted(self.grants):
            if index not in requesting:
                self._journal("release", index, units=self.grants[index])
                del self.grants[index]

        renewals, denied_before = len(self.grants), self.denied_requests
        quota = (max(1, self.pool_units // N_TENANTS)
                 if self.policy == "supernic" else None)
        newly_granted, under_granted = self._allocate(requests, quota)

        # Mitigation accounting (fig13 semantics, one decision per kind):
        # denied -> residual; #vNIC overloads and renewals are mitigated
        # outright (rule tables live on the FEs already / offload is
        # active); a partial grant leaves capacity kinds residual; a fresh
        # full grant mitigates only if activation lands in the window.
        for index, _units, kinds in requests:
            if index in newly_granted:
                rng = SeededRng(derive_seed(
                    self.seed, f"fleet/act/e{epoch}/vs{index}"), "act")
                activation = self._sample_activation(rng)
                activated = activation <= self.survivable_window
                self._journal("mitigation", index, activated=activated,
                              activation_s=activation,
                              window=self.survivable_window)
            for kind_value in kinds:
                kind = HotspotKind(kind_value)
                counters = self.overloads[kind]
                counters[0] += 1
                if index not in self.grants:
                    counters[1] += 1          # denied: overload stands
                elif kind is HotspotKind.VNICS:
                    pass                      # §6.3.3: always mitigated
                elif index in under_granted:
                    counters[1] += 1          # partial grant: still over
                elif index in newly_granted and not activated:
                    counters[1] += 1          # activated too late
        self.utilization.append(self.units_in_use() / self.pool_units
                                if self.pool_units else 0.0)
        self._journal("settle", None, requests=len(requests),
                      granted_new=len(newly_granted),
                      under_granted=len(under_granted),
                      in_use=self.units_in_use(), pool=self.pool_units,
                      utilization=self.utilization[-1])
        self._check_books(requests, requesting, quota, renewals
                          + len(newly_granted) + self.denied_requests
                          - denied_before)
        return dict(self.grants)

    def _allocate(self, requests: List[Request], quota: Optional[int]
                  ) -> Tuple[Set[int], Set[int]]:
        """Renewals first, then new requests in report order (ascending
        index), each granted its policy cap if that fits the free pool.
        Returns the newly granted and the under-granted indices."""
        usage = self._tenant_usage()
        free = self.pool_units - self.units_in_use()
        newly_granted: Set[int] = set()
        under_granted: Set[int] = set()
        fresh = [req for req in requests if req[0] not in self.grants]
        for index, units, _kinds in requests:
            held = self.grants.get(index)
            if held is not None:
                if self.policy == "pam" and units > held:
                    under_granted.add(index)
                self._journal("renewal", index, requested=units, granted=held)
        for index, units, _kinds in fresh:
            tenant = index % N_TENANTS
            # The policy's cap, and its reason if it shortens or refuses.
            if self.policy == "nezha":
                grant, reason = units, None
            elif self.policy == "pam":
                grant, reason = min(units, 1), "single_unit_cap"
            elif self.policy == "supernic":
                grant = min(units, quota - usage.get(tenant, 0))
                reason = "tenant_quota_cap" if grant > 0 else "tenant_quota"
            else:
                grant, reason = 0, "no_pool"
            if 0 < grant <= free:
                self.grants[index] = grant
                newly_granted.add(index)
                usage[tenant] = usage.get(tenant, 0) + grant
                free -= grant
                if grant < units:
                    under_granted.add(index)
                self._journal("grant", index, requested=units, granted=grant,
                              quota=quota,
                              reason=reason if grant < units else None)
            else:
                self.denied_requests += 1
                self._journal("denial", index, requested=units, granted=0,
                              reason="pool_exhausted" if grant > 0 else reason,
                              quota=None if grant > 0 else quota)
        return newly_granted, under_granted

    def _check_books(self, requests: List[Request], requesting: Set[int],
                     quota: Optional[int], settled: int) -> None:
        """The settle's books, O(grants + requests): raise naming the
        first invariant that does not hold."""
        usage = self._tenant_usage() if quota is not None else {}
        books = (
            ("unique requests", len(requesting) == len(requests)),
            ("request units", all(units >= 1 for _i, units, _k in requests)),
            ("grants requested", self.grants.keys() <= requesting),
            ("request conservation", settled == len(requests)),
            ("pool capacity", self.units_in_use() <= self.pool_units),
            ("grant units", all(units >= 1 for units in self.grants.values())),
            ("tenant quota", all(units <= quota for units in usage.values())),
            ("residual bounds", all(0 <= residual <= seen for seen, residual
                                    in self.overloads.values())),
        )
        for name, holds in books:
            if not holds:
                raise SimulationError(
                    f"coordinator books broken at epoch {self._epoch}: {name} "
                    f"({len(requests)} requests, {settled} settled, "
                    f"{self.units_in_use()} of {self.pool_units} units)")
