"""CPU-cycle and memory cost model for the simulated SmartNIC vSwitch.

Two presets:

* :meth:`CostModel.testbed` — scaled down ~50x so discrete-event runs
  finish quickly; every reported experiment uses ratios, which the scaling
  preserves.
* :meth:`CostModel.production` — calibrated against the paper's absolute
  numbers: Table A1 (6.61 Mpps raw rule-table lookup at 64 B / 0 ACL rules
  on 8 cores, falling to ~5.4 Mpps at 1000 rules and ~4.8 Mpps at 512 B)
  and §2.2.2 (O(100K) CPS per vSwitch).

Derivation of the Table A1 calibration (8 cores x 1.2 GHz):

* ``9.6e9 / 6.61e6 ≈ 1452`` cycles per bare lookup → ``slow_path_base``;
* 1000 ACL rules cost ``9.6e9/5.422e6 - 1452 ≈ 319`` extra cycles
  → ``acl_cycles_per_rule ≈ 0.32``;
* 512 B vs 64 B costs ``9.6e9/5.985e6 - 9.6e9/6.612e6 ≈ 152`` extra
  cycles over 448 B → ``cycles_per_byte ≈ 0.34``.

Full connection setup costs far more than a bare lookup (session insert,
both-direction pre-action computation, hardware flow insertion, metadata),
captured by ``session_setup_cycles`` so an 8-core vSwitch lands at O(100K)
CPS as the paper states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass
class CostModel:
    """All tunables for CPU-cycle and memory accounting."""

    # -- CPU -----------------------------------------------------------------
    cores: int = 8
    hz: float = 1.2e9                      # cycles/second/core
    slow_path_base: float = 1452.0         # bare multi-table lookup, 5 tables
    slow_path_per_extra_table: float = 180.0   # each table beyond the basic 5
    acl_cycles_per_rule: float = 0.22      # range matching, linear in #rules
    # Moderate rule counts cost disproportionately (range-match tiers /
    # cache effects), saturating at ~130 cycles — visible in Table A1's
    # mid-size cells.
    acl_tier_cycles: float = 130.0
    acl_tier_scale: float = 40.0
    cycles_per_byte: float = 0.34          # NIC->vSwitch move cost
    fast_path_cycles: float = 220.0        # exact-match hit + process_pkt
    # Session establishment splits into the cached-flow insertion (flow
    # programming — moves to the FE under Nezha) and the software state
    # insert. The traditional local path pays both; a Nezha BE instead
    # pays only the hardware-accelerated state insert (§7.3). Note that
    # bidirectional flows of one session may hash to *different* FEs
    # (§3.2.3), so the FE side pays the flow insert once per direction —
    # Nezha spends more total cycles per connection than the local path,
    # which is why ~4 FEs are needed to saturate the VM-side limit (Fig 9).
    flow_insert_cycles: float = 40000.0
    state_insert_cycles: float = 36000.0
    be_state_insert_cycles: float = 6000.0  # hardware-assisted BE insert
    encap_cycles: float = 120.0            # push/pop one tunnel header
    state_encode_cycles: float = 60.0      # Nezha: pack state/pre-action TLVs
    notify_cycles: float = 300.0           # Nezha: emit/absorb a notify packet
    be_fastpath_cycles: float = 90.0       # §7.3 hardware-inserted per-flow logic

    # -- memory ----------------------------------------------------------------
    memory_bytes: int = 10 * GB            # vSwitch share of SmartNIC memory
    packet_buffer_bytes: int = 6 * GB      # reserved, mirrors "most for buffers"
    session_key_bytes: int = 96            # bidirectional 5-tuples + VPC + pre-actions
    state_bytes_fixed: int = 64            # fixed-size state slot (§7.1)
    vnic_base_table_bytes: int = 8 * MB    # typical per-vNIC rule tables (5.5-10MB)
    vnic_be_metadata_bytes: int = 2 * KB   # BE residue when offloaded (§6.2.1)
    acl_rule_bytes: int = 64
    mapping_entry_bytes: int = 2 * KB      # vNIC-server entry (200MB / 100K)

    # -- misc -------------------------------------------------------------------
    max_cpu_backlog: float = 0.02          # seconds of queue before drop-tail
    util_window: float = 0.1               # telemetry smoothing window (s)

    # -- derived helpers ----------------------------------------------------------

    @property
    def total_hz(self) -> float:
        return self.cores * self.hz

    @property
    def session_setup_cycles(self) -> float:
        """Full local-session establishment cost (flow + state inserts)."""
        return self.flow_insert_cycles + self.state_insert_cycles

    def lookup_cycles_static(self, n_tables: int, n_acl_rules: int) -> float:
        """The packet-size-independent part of :meth:`lookup_cycles`.

        Constant while the rule-table chain is unchanged, so
        :class:`~repro.vswitch.slow_path.SlowPath` caches it and adds only
        the per-byte term per lookup.
        """
        extra = max(0, n_tables - 5) * self.slow_path_per_extra_table
        tier = self.acl_tier_cycles * (
            1.0 - math.exp(-n_acl_rules / self.acl_tier_scale))
        return (self.slow_path_base + extra + tier
                + n_acl_rules * self.acl_cycles_per_rule)

    def lookup_cycles(self, n_tables: int, n_acl_rules: int,
                      packet_bytes: int) -> float:
        """Cycles for one slow-path rule-table lookup (Table A1's op)."""
        return (self.lookup_cycles_static(n_tables, n_acl_rules)
                + packet_bytes * self.cycles_per_byte)

    @classmethod
    def production(cls) -> "CostModel":
        """Paper-calibrated absolute numbers (slow to simulate at scale)."""
        return cls()

    @classmethod
    def testbed(cls, scale: float = 50.0) -> "CostModel":
        """Scaled-down preset: same ratios, ~``scale``x less work to simulate.

        CPU frequency is divided by ``scale`` (so capacities shrink) and
        memory budgets shrink accordingly so memory-bound experiments also
        run with small absolute table sizes.
        """
        model = cls()
        model.hz = model.hz / scale
        model.memory_bytes = int(model.memory_bytes / scale)
        model.packet_buffer_bytes = int(model.packet_buffer_bytes / scale)
        model.vnic_base_table_bytes = int(model.vnic_base_table_bytes / scale)
        return model
