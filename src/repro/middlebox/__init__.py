"""Cloud middleboxes (§6.3): the three production services Nezha serves.

The three differ in the vSwitch-side profile that drives their Table 3
rows (:mod:`repro.middlebox.base`):

* **Load balancer** (SLB): ACL-bearing advanced chain, O(100 MB) rule
  tables, massive long-lived backend sessions → biggest session table;
* **NAT gateway**: ACL-bearing chain, short-lived translations;
* **Transit router**: *bypasses the ACL* → the simplest lookup and hence
  the smallest CPS gain from offloading (3× vs 4–4.4×).

:class:`SlbApp` is the one VM-resident application among them: the load
balancer whose vNIC ``examples/middlebox_offload.py`` offloads.
"""

from repro.middlebox.base import MiddleboxProfile, lb_profile, nat_profile, tr_profile
from repro.middlebox.load_balancer import SlbApp

__all__ = [
    "MiddleboxProfile", "lb_profile", "nat_profile", "tr_profile",
    "SlbApp",
]
