"""Case-study network functions on the split pipeline (§5).

The split pipeline itself is NF-agnostic: ``process_pkt`` and the state
machinery live in :mod:`repro.vswitch.actions`. Stateful ACL (§5.1)
needs no helper: the ACL table writes per-direction pre-action verdicts
into cached flows and :func:`repro.vswitch.actions.resolve_verdict`
combines them with the session's first-packet direction, identically on
a local vSwitch, an FE and a BE. Stateful decapsulation (§5.2) needs a
per-vNIC flag, set by :func:`enable_stateful_decap`.
"""

from repro.core.nf.stateful_decap import enable_stateful_decap

__all__ = ["enable_stateful_decap"]
