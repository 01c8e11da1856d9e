"""Pluggable load-sharing policies: one class per policy, at both scales.

The reconcile loop in :mod:`repro.controller.controller` separates
*mechanics* (tracking in-flight flows, decision telemetry, monitor
wiring, the min-FE backstop) from *strategy* — and the strategy is this
module's :class:`NezhaPolicy` surface, which every policy derives from:

* **what to offload** — candidate ranking (:meth:`offload_order`) and
  the post-offload utilization projection (:meth:`project`);
* **where** — FE selection (:meth:`select_fes`), normally delegated to
  :class:`~repro.controller.placement.FePlacement`;
* **when** — scale-out vs scale-in reaction (:meth:`scale`), the
  fallback admission check (:meth:`fallback_decision`), and a per-tick
  tail hook (:meth:`reconcile_tail`);
* **the fleet rule** — a new request's cap on the shared FE pool
  (:meth:`fleet_quota`, :meth:`fleet_grant`), which
  :class:`~repro.fleet.coordinator.FleetCoordinator` asks per request.

Four policies compete behind the seam, each described on its class:
:class:`NezhaPolicy` (the paper's Fig 8, the default, under which the
fig9 / fig12 / fleet tables are the golden ones), :class:`PamPolicy`
(arxiv/1805.10434), :class:`SuperNicPolicy` (arxiv/2109.07744) and
:class:`SiriusPolicy` (no load sharing). The ``policy_arena`` experiment
scores them head-to-head.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Type

if TYPE_CHECKING:  # imported only for annotations: no runtime cycle
    from repro.controller.controller import NezhaController, _NodeBook
    from repro.core.offload import OffloadHandle
    from repro.vswitch.vnic import Vnic
    from repro.vswitch.vswitch import VSwitch

#: SuperNIC's fleet tenants: vSwitch ``index`` is ``index % N_TENANTS``.
N_TENANTS = 8


class NezhaPolicy:
    """The paper's strategy, and the seam every policy overrides.

    A policy is bound to exactly one controller via :meth:`bind` and may
    use the controller's mechanics (``placement``, ``orchestrator``,
    ``config``, ``_track_flow``, ``_decide``) — but every *decision*
    about what/where/when lives here. The fleet rule needs no
    controller: the coordinator uses an unbound instance.

    Decision table (Fig 8):

    * rank candidates by packet rate (CPU trigger) or rule-table bytes
      (memory trigger); project by the matching resource share;
    * place FEs via :class:`FePlacement` (same-ToR first, lowest
      utilization, stable name tie-break);
    * scale band: remote-dominant load scales hosted vNICs *out*,
      local-dominant load scales this vSwitch *in* (evict every FE);
    * fall back only when the BE can absorb the load afterwards;
    * fleet: no cap — a new request gets all its units or nothing, like
      the controller (§6.3.2).
    """

    name = "nezha"

    #: Fleet: a renewal asking for more than it holds stays residual.
    grown_renewal_residual = False

    def __init__(self) -> None:
        self.controller: Optional["NezhaController"] = None

    def bind(self, controller: "NezhaController") -> None:
        self.controller = controller

    def decide(self, action: str, **fields) -> None:
        """Trace + journal one policy decision through the bound
        controller — the seam's single observability funnel, so every
        policy's why-log lands in the same ``controller.<action>`` trace
        kinds and (under telemetry) the same decision journal."""
        self.controller._decide(action, **fields)

    # -- what to offload ---------------------------------------------------

    def offload_order(self, book: "_NodeBook", candidates: List["Vnic"],
                      by_memory: bool) -> List["Vnic"]:
        """Rank offload candidates, hottest first. Returning ``[]``
        vetoes offloading entirely."""
        if by_memory:
            return sorted(candidates,
                          key=lambda v: -v.table_memory_bytes())
        return sorted(candidates,
                      key=lambda v: -book.vnic_rates.get(v.vnic_id, 0.0))

    def project(self, utilization: float, vnic: "Vnic", book: "_NodeBook",
                by_memory: bool) -> float:
        """Projected utilization of the triggering resource after
        ``vnic`` is offloaded (drives the offload-until-safe loop)."""
        if by_memory:
            # Memory pressure is relieved in proportion to the vNIC's
            # share of the *resident rule-table bytes* — projecting by
            # packet-rate share here (the pre-arena bug) made a hot-rate
            # vNIC look like it freed memory it never held, stopping
            # memory-triggered offloading after one vNIC.
            share = float(vnic.table_memory_bytes())
            total = float(sum(v.table_memory_bytes()
                              for v in book.vswitch.vnics.values()
                              if not v.offloaded)) or 1.0
            return utilization * max(0.0, 1.0 - share / total)
        share = book.vnic_rates.get(vnic.vnic_id, 0.0)
        total_rate = sum(book.vnic_rates.values()) or 1.0
        return utilization * max(0.0, 1.0 - share / total_rate)

    # -- where -------------------------------------------------------------

    def select_fes(self, be_vswitch: "VSwitch", count: int, vnic: "Vnic",
                   avoid: Optional[Set[str]] = None) -> List["VSwitch"]:
        """Choose FE-hosting vSwitches for ``be_vswitch`` on behalf of
        ``vnic`` (tenant-aware policies key quotas on it)."""
        return self.controller.placement.select(be_vswitch, count,
                                                avoid=avoid)

    # -- when --------------------------------------------------------------

    def scale(self, book: "_NodeBook", cpu: float) -> None:
        """React to utilization above the scale threshold but below the
        offload threshold (the Fig 8 middle band)."""
        c = self.controller
        vswitch = book.vswitch
        agent = c.orchestrator.agents.get(vswitch.name)
        if agent is None or not agent.frontends:
            return  # nothing Nezha-related to scale here
        remote_share = agent.fe_load()
        if remote_share >= c.config.remote_dominant_fraction:
            # Remote offloading overloads this host: scale those vNICs out.
            for vnic_id in list(agent.frontends):
                handle = c.orchestrator.handles.get(vnic_id)
                if handle is None or vnic_id in c._inflight_vnics:
                    # An earlier scale-out for this vNIC is still in
                    # flight; its FE is not visible in the handle yet, so
                    # acting again would serially over-scale the vNIC.
                    continue
                new_fes = self.select_fes(
                    handle.be_vswitch, 1,
                    avoid={vs.server.name for vs in handle.fe_vswitches},
                    vnic=handle.vnic)
                if new_fes:
                    done = c.orchestrator.scale_out(handle, new_fes)
                    c._track_flow(vnic_id, done)
                    c.scale_outs += 1
                    self.decide("scale_out", vnic=vnic_id,
                                fe=new_fes[0].name, cpu=round(cpu, 4),
                                remote_share=round(remote_share, 4))
        else:
            # Local traffic needs the resources: evict every hosted FE.
            c.placement.exclude(vswitch)
            removed = c.orchestrator.scale_in_vswitch(vswitch)
            if removed:
                c.scale_ins += 1
                self.decide("scale_in", vswitch=vswitch.name,
                            removed=removed, cpu=round(cpu, 4),
                            remote_share=round(remote_share, 4))

    def fallback_decision(self, handle: "OffloadHandle",
                          fe_usage: float) -> Tuple[bool, float]:
        """``(allowed, projected_be_utilization)`` for an idle-enough
        offloaded vNIC (the idle-streak bookkeeping lives in the
        controller; this is only the admission check)."""
        be = handle.be_vswitch
        # Only fall back when the BE can absorb the load afterwards.
        projected = be.cpu_utilization() + fe_usage * len(handle.frontends)
        allowed = (projected < self.controller.config.safe_level
                   and be.mem.available()
                   >= handle.vnic.table_memory_bytes())
        return allowed, projected

    def reconcile_tail(self) -> None:
        """Per-tick hook after offload/scale/fallback; policies with
        global bookkeeping (quota preemption) live here."""

    # -- the fleet rule ----------------------------------------------------

    def fleet_quota(self, pool_units: int) -> Optional[int]:
        """Per-tenant cap on granted units for a pool of ``pool_units``,
        or ``None`` when the policy has no tenants."""
        return None

    def fleet_grant(self, units: int, headroom: Optional[int]
                    ) -> Tuple[int, Optional[str]]:
        """``(cap, reason it shortens or refuses)`` for a new request of
        ``units``; ``headroom`` is the tenant's unused quota, if any."""
        return units, None


class PamPolicy(NezhaPolicy):
    """PAM's push-neighbor-aside migration (arxiv/1805.10434).

    Decision table — differs from Nezha in the scale band and the fleet
    cap:

    * an overloaded vSwitch *hosting FEs* migrates them, one by one, to
      its least-loaded eligible neighbor (scale-out to the neighbor,
      then graceful retirement of the local instance once the new FE
      lands) — load moves sideways instead of growing the FE set;
    * it never scales in (no all-at-once eviction) and never excludes
      itself from placement, so capacity is not withdrawn from the pool;
    * offload/projection/fallback are inherited from Nezha;
    * fleet: one unit per request (a single neighbor's spare), so a
      multi-unit hotspot, new or renewed, stays residual for its
      capacity kinds.
    """

    name = "pam"
    grown_renewal_residual = True

    def __init__(self) -> None:
        super().__init__()
        self.migrations = 0

    def scale(self, book, cpu):
        c = self.controller
        vswitch = book.vswitch
        agent = c.orchestrator.agents.get(vswitch.name)
        if agent is None or not agent.frontends:
            return  # an overloaded non-FE host has nothing to push aside
        for vnic_id in list(agent.frontends):
            handle = c.orchestrator.handles.get(vnic_id)
            if handle is None or vnic_id in c._inflight_vnics:
                continue
            # Least-loaded neighbor of the *overloaded host* (placement
            # tiers widen from it), excluding every current FE server.
            targets = self.select_fes(
                vswitch, 1,
                avoid={vs.server.name for vs in handle.fe_vswitches},
                vnic=handle.vnic)
            if not targets:
                self.decide("no_migration_target", vnic=vnic_id,
                            vswitch=vswitch.name)
                continue
            done = c.orchestrator.migrate_fe(handle, vswitch, targets[0])
            c._track_flow(vnic_id, done)
            self.migrations += 1
            self.decide("fe_migration", vnic=vnic_id, src=vswitch.name,
                        dst=targets[0].name, cpu=round(cpu, 4))

    def fleet_grant(self, units, headroom):
        return min(units, 1), "single_unit_cap"


class SuperNicPolicy(NezhaPolicy):
    """SuperNIC-style multi-tenant FE scheduling (arxiv/2109.07744).

    Tenants are VNIs. The FE *budget* (by default one unit per
    placement-eligible vSwitch) is split into equal fair shares across
    the tenants that currently hold or request FEs:

    * FE grants (initial offload, scale-out, min-FE replacements) are
      capped at the tenant's remaining quota — an over-quota tenant gets
      nothing, an under-quota tenant at most its headroom;
    * each tick, tenants holding more than the current quota are
      *preempted*: their newest FEs are gracefully retired (never below
      one FE per vNIC) until they fit, freeing budget for others;
    * offload ranking/projection and the fallback check are Nezha's;
    * fleet: tenant = ``index % N_TENANTS``, and a new grant is capped at
      the tenant's headroom under ``max(1, pool_units // N_TENANTS)``.
      A fixed pool makes it a static partition that never needs to
      preempt (the testbed splits a live budget and does).
    """

    name = "supernic"

    def __init__(self) -> None:
        super().__init__()
        #: Total FE units schedulable across tenants; ``None`` derives
        #: it from the placement pool each tick.
        self.fe_budget: Optional[int] = None
        self.preemptions = 0

    # -- quota bookkeeping -------------------------------------------------

    def _budget(self) -> int:
        if self.fe_budget is not None:
            return self.fe_budget
        placement = self.controller.placement
        return max(1, len(placement.vswitches) - len(placement.excluded))

    def _tenant_usage(self) -> Dict[int, int]:
        usage: Dict[int, int] = {}
        for handle in self.controller.orchestrator.handles.values():
            vni = handle.vnic.vni
            usage[vni] = usage.get(vni, 0) + len(handle.frontends)
        return usage

    def _quota(self, usage: Dict[int, int],
               extra_tenant: Optional[int] = None) -> int:
        tenants = set(usage)
        if extra_tenant is not None:
            tenants.add(extra_tenant)
        return max(1, self._budget() // max(1, len(tenants)))

    # -- where (quota-capped) ----------------------------------------------

    def select_fes(self, be_vswitch, count, vnic, avoid=None):
        usage = self._tenant_usage()
        quota = self._quota(usage, extra_tenant=vnic.vni)
        headroom = quota - usage.get(vnic.vni, 0)
        if headroom <= 0:
            self.decide("quota_denied", vnic=vnic.vnic_id,
                        tenant=vnic.vni, quota=quota)
            return []
        return super().select_fes(be_vswitch, min(count, headroom), vnic,
                                  avoid=avoid)

    # -- preemption of over-quota tenants ----------------------------------

    def reconcile_tail(self):
        c = self.controller
        usage = self._tenant_usage()
        if not usage:
            return
        quota = self._quota(usage)
        for handle in list(c.orchestrator.handles.values()):
            vni = handle.vnic.vni
            while (usage.get(vni, 0) > quota
                   and len(handle.frontends) > 1):
                location = handle.fe_locations[-1]  # newest grant first
                c.orchestrator.preempt_fe(handle, location)
                usage[vni] -= 1
                self.preemptions += 1
                self.decide("fe_preempted", vnic=handle.vnic.vnic_id,
                            tenant=vni, quota=quota)

    # -- the fleet rule: a static per-tenant partition ---------------------

    def fleet_quota(self, pool_units):
        return max(1, pool_units // N_TENANTS)

    def fleet_grant(self, units, headroom):
        grant = min(units, headroom)
        return grant, "tenant_quota_cap" if grant > 0 else "tenant_quota"


class SiriusPolicy(NezhaPolicy):
    """The no-load-sharing baseline: every vSwitch keeps its own load.

    Sirius (the pre-Nezha vSwitch) has no FEs to place — so nothing to
    scale and nothing to fall back — and overloaded vSwitches saturate
    and drop. The arena's "before" column; at fleet scale, no shared
    pool: every request is denied.
    """

    name = "sirius"

    def offload_order(self, book, candidates, by_memory):
        return []

    def select_fes(self, be_vswitch, count, vnic, avoid=None):
        return []

    def fleet_grant(self, units, headroom):
        return 0, "no_pool"


#: CLI / experiment registry: name -> policy class.
POLICIES: Dict[str, Type[NezhaPolicy]] = {
    NezhaPolicy.name: NezhaPolicy,
    PamPolicy.name: PamPolicy,
    SuperNicPolicy.name: SuperNicPolicy,
    SiriusPolicy.name: SiriusPolicy,
}

POLICY_NAMES = tuple(POLICIES)


def make_policy(name: str) -> NezhaPolicy:
    """Instantiate a registered policy by name: the one check of a
    policy name, for the controller and the fleet coordinator alike."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown load-sharing policy {name!r}; "
                         f"choose from {', '.join(POLICIES)}") from None
    return cls()
