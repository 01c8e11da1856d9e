"""The fleet coordinator's four allocators, written longhand.

Before the allocation kernel (:meth:`FleetCoordinator._allocate`) there
was one renewals-first loop per policy, chosen by ``getattr`` string, plus
a SuperNIC make-room hook that evicts over-quota tenants. They live on
here as they were — ``src/`` does not know this module exists — and
``tests/test_coordinator_oracle.py`` runs both on the same request
streams and requires the same grants, accounting and journal, key order
included. The preemption hook is kept although a fixed pool never lets
it fire: the oracle must be the old code, not a reading of it.
"""

from typing import Dict, List, Set, Tuple

from repro.fleet.coordinator import N_TENANTS, FleetCoordinator


class ReferenceCoordinator(FleetCoordinator):

    n_tenants = N_TENANTS

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.preemptions = 0

    def _allocate(self, requests, _quota):
        return getattr(self, f"_allocate_{self.policy}")(requests)

    def _allocate_nezha(self, requests: List[Tuple[int, int, List[str]]]
                        ) -> Tuple[Set[int], Set[int]]:
        """All-or-nothing, renewals first — an active offload keeps its
        capacity — then new requests, both in ascending global index."""
        free = self.pool_units - self.units_in_use()
        newly_granted: Set[int] = set()
        for renewal_pass in (True, False):
            for index, units, _kinds in requests:
                held = index in self.grants
                if held is not renewal_pass:
                    continue
                if held:
                    # renewal: capacity already reserved
                    self._journal("renewal", index, requested=units,
                                  granted=self.grants[index])
                    continue
                if units <= free:
                    self.grants[index] = units
                    newly_granted.add(index)
                    free -= units
                    self._journal("grant", index, requested=units,
                                  granted=units)
                else:
                    self.denied_requests += 1
                    self._journal("denial", index, requested=units,
                                  granted=0, reason="pool_exhausted")
        return newly_granted, set()

    def _allocate_pam(self, requests: List[Tuple[int, int, List[str]]]
                      ) -> Tuple[Set[int], Set[int]]:
        """Push-neighbor-aside: each hotspot is served with at most one
        unit (a single neighbor's spare capacity), so a multi-unit
        demand is under-granted and stays residual."""
        free = self.pool_units - self.units_in_use()
        newly_granted: Set[int] = set()
        under_granted: Set[int] = set()
        for renewal_pass in (True, False):
            for index, units, _kinds in requests:
                held = index in self.grants
                if held is not renewal_pass:
                    continue
                if held:
                    if units > self.grants[index]:
                        under_granted.add(index)
                    self._journal("renewal", index, requested=units,
                                  granted=self.grants[index])
                    continue
                grant = min(units, 1)
                if grant <= free:
                    self.grants[index] = grant
                    newly_granted.add(index)
                    free -= grant
                    if grant < units:
                        under_granted.add(index)
                    self._journal("grant", index, requested=units,
                                  granted=grant,
                                  reason="single_unit_cap"
                                  if grant < units else None)
                else:
                    self.denied_requests += 1
                    self._journal("denial", index, requested=units,
                                  granted=0, reason="pool_exhausted")
        return newly_granted, under_granted

    def _allocate_supernic(self, requests: List[Tuple[int, int, List[str]]]
                           ) -> Tuple[Set[int], Set[int]]:
        """Per-tenant fair shares (tenant = index mod ``n_tenants``) with
        preemption: a capped request from an under-quota tenant evicts
        over-quota tenants' newest grants to make room."""
        quota = max(1, self.pool_units // max(1, self.n_tenants))
        usage: Dict[int, int] = {}
        for index, units in self.grants.items():
            tenant = index % self.n_tenants
            usage[tenant] = usage.get(tenant, 0) + units
        free = self.pool_units - self.units_in_use()
        newly_granted: Set[int] = set()
        under_granted: Set[int] = set()
        for renewal_pass in (True, False):
            for index, units, _kinds in requests:
                held = index in self.grants
                if held is not renewal_pass:
                    continue
                if held:
                    # renewal: capacity already reserved
                    self._journal("renewal", index, requested=units,
                                  granted=self.grants[index])
                    continue
                tenant = index % self.n_tenants
                grant = min(units, max(0, quota - usage.get(tenant, 0)))
                if grant == 0:
                    self.denied_requests += 1  # tenant is at its quota
                    self._journal("denial", index, requested=units,
                                  granted=0, reason="tenant_quota",
                                  quota=quota)
                    continue
                if grant > free:
                    free += self._preempt_over_quota(quota, usage,
                                                     grant - free)
                if grant <= free:
                    self.grants[index] = grant
                    newly_granted.add(index)
                    usage[tenant] = usage.get(tenant, 0) + grant
                    free -= grant
                    if grant < units:
                        under_granted.add(index)
                    self._journal("grant", index, requested=units,
                                  granted=grant, quota=quota,
                                  reason="tenant_quota_cap"
                                  if grant < units else None)
                else:
                    self.denied_requests += 1
                    self._journal("denial", index, requested=units,
                                  granted=0, reason="pool_exhausted")
        return newly_granted, under_granted

    def _preempt_over_quota(self, quota: int, usage: Dict[int, int],
                            needed: int) -> int:
        """Evict over-quota tenants' grants, highest index (newest
        hotspot) first, until ``needed`` units are free; returns the
        number of units actually freed."""
        freed = 0
        for index in sorted(self.grants, reverse=True):
            if freed >= needed:
                break
            tenant = index % self.n_tenants
            if usage.get(tenant, 0) <= quota:
                continue
            units = self.grants.pop(index)
            usage[tenant] -= units
            freed += units
            self.preemptions += 1
            self._journal("preemption", index, units=units,
                          reason="over_quota", quota=quota)
        return freed

    def _allocate_sirius(self, requests: List[Tuple[int, int, List[str]]]
                         ) -> Tuple[Set[int], Set[int]]:
        """No shared FE pool: every request is denied and every overload
        stands — the before-Nezha baseline."""
        for index, units, _kinds in requests:
            self.denied_requests += 1
            self._journal("denial", index, requested=units, granted=0,
                          reason="no_pool")
        return set(), set()
