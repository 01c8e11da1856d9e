"""Hosts: tenant VMs and their guest endpoints.

* :class:`Vm` models the tenant VM's kernel stack: per-connection work has
  a serial (kernel-lock) component and a parallelizable component, which
  produces the sub-linear CPS-vs-vCPU curve of Fig 10 and the "VM becomes
  the bottleneck" endpoint the paper reports.
* :class:`GuestTcp` gives VMs simple TCP endpoints (the TCP_CRR client
  and server live in :mod:`repro.workloads`).
"""

from repro.host.vm import Vm, VmCostModel
from repro.host.guest_tcp import GuestConnection, GuestTcp

__all__ = ["Vm", "VmCostModel", "GuestTcp", "GuestConnection"]
