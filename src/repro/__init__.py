"""nezha-repro: a simulation-backed reproduction of *Nezha: SmartNIC-Based
Virtual Switch Load Sharing* (Li et al., SIGCOMM 2025).

Package map (see README.md for the tour):

* :mod:`repro.sim` — discrete-event kernel;
* :mod:`repro.net` — wire formats and the packet model;
* :mod:`repro.fabric` — the leaf-spine underlay;
* :mod:`repro.vswitch` — the SmartNIC vSwitch (slow/fast path, tables);
* :mod:`repro.host` — tenant VMs and guest TCP (the SmartNIC is the
  vSwitch's CPU/memory budget, :mod:`repro.vswitch.costs`);
* :mod:`repro.controller` — gateway, health monitor, placement, controller;
* :mod:`repro.core` — **Nezha itself**: BE/FE split, offload workflows;
* :mod:`repro.middlebox` — LB / NAT gateway / transit router profiles
  (Table 3) and the SLB application;
* :mod:`repro.baselines` — local-only and Sirius-style comparisons;
* :mod:`repro.workloads` — traffic generators and the fleet model;
* :mod:`repro.metrics` — percentiles;
* :mod:`repro.experiments` — one harness per paper table/figure.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
