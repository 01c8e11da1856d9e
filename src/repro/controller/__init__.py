"""The virtual-network control plane.

* :class:`Gateway` — owns the global vNIC-server mapping table; vSwitches
  learn the subsets they need on a fixed interval (200 ms in production,
  §4.2.1), which bounds Nezha's offload-activation completion time.
* :class:`HealthMonitor` — centralized ping-polling of FE-hosting
  vSwitches with flow-direct probes, plus the false-positive suppression
  the paper added after production incidents (Appendix C).
* :class:`FePlacement` — idle-vSwitch selection: same ToR first, similar
  attributes (Appendix B.1).
* :class:`NezhaController` — the reconciliation loop tying it together:
  offload at 70 % utilization, scale at 40 %, fallback when safe,
  failover on crash (Fig 8, §4.2–4.4).
* :class:`NezhaPolicy` — the paper's strategy (the default) and the
  decision seam every policy derives from (what to offload, where, when
  to scale/fall back, and the fleet coordinator's pool cap), with three
  rivals: :class:`PamPolicy` (push-neighbor-aside FE migration),
  :class:`SuperNicPolicy` (per-tenant fair shares + preemption), and
  :class:`SiriusPolicy` (no load sharing at all).

Attributes are resolved lazily (PEP 562) because the Nezha core and the
controller reference each other: the orchestrator updates the gateway,
the controller drives the orchestrator.
"""

_EXPORTS = {
    "Gateway": ("repro.controller.gateway", "Gateway"),
    "MappingLearner": ("repro.controller.gateway", "MappingLearner"),
    "HealthMonitor": ("repro.controller.monitor", "HealthMonitor"),
    "MutualPing": ("repro.controller.monitor", "MutualPing"),
    "FePlacement": ("repro.controller.placement", "FePlacement"),
    "NezhaPolicy": ("repro.controller.policy", "NezhaPolicy"),
    "PamPolicy": ("repro.controller.policy", "PamPolicy"),
    "SuperNicPolicy": ("repro.controller.policy", "SuperNicPolicy"),
    "SiriusPolicy": ("repro.controller.policy", "SiriusPolicy"),
    "POLICIES": ("repro.controller.policy", "POLICIES"),
    "POLICY_NAMES": ("repro.controller.policy", "POLICY_NAMES"),
    "make_policy": ("repro.controller.policy", "make_policy"),
    "NezhaController": ("repro.controller.controller", "NezhaController"),
    "ControllerConfig": ("repro.controller.controller", "ControllerConfig"),
    "ControlLatencyModel": ("repro.controller.latency",
                            "ControlLatencyModel"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value
