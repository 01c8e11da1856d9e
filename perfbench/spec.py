"""What perfbench measures: workloads, metrics, predictions, golden digests.

``BENCHMARK.json`` at the repo root is the driver-facing subset of this
file (``benchmark_json()`` renders it; the self-test requires the two to
agree). The driver's schema allows only name/unit/better(/bound) per
metric, so everything else the issue wanted recorded *before* measuring
— which end-to-end metric each layer metric should move on which
workload, what was left out and why, the seed-0 golden digests, the
measured spreads — lives here.
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Seconds of timed repeats per run. Repeats are whole passes, so a run
#: measures for at least this long and at least ``MIN_REPEATS`` passes.
RUN_SECONDS = 8
MIN_REPEATS = 5
#: Fresh subprocesses per run. Each one's spawn -> end-of-cold-pass wall
#: is a ``setup_s`` sample and each carries a third of the timed repeats.
SETUP_SAMPLES = 3


def min_repeats_of(process: int) -> int:
    """``MIN_REPEATS`` dealt over the subprocesses: 2, 2, 1."""
    return (MIN_REPEATS // SETUP_SAMPLES
            + (1 if process < MIN_REPEATS % SETUP_SAMPLES else 0))

PACKET_WORKLOADS = ["crr_local", "crr_offload", "elephant_burst",
                    "elephant_fluid"]
FLEET_WORKLOADS = ["fleet_10k", "fleet_10k_pool"]

# -- workloads -----------------------------------------------------------------
#
# ``bench`` sizes are what every number is taken at. They are the issue's
# inputs cut to ~0.5 s per pass in simulated duration / epochs (never in
# shape; the 10K fleet cannot shrink and keep its name): the driver
# allows ~25 s per run including three cold passes, and many short
# passes give a steadier median on this box than a few long ones (see
# README "Departures"). ``test`` sizes exist only for
# perfbench/test_perfbench.py.

WORKLOADS: Dict[str, dict] = {
    "crr_local": {
        "why": "Closed-loop TCP_CRR on the 0-FE testbed: every connection "
               "pays a slow-path lookup, session insert/remove, TCP FSM "
               "and kernel lock; core (BE/FE, NSH) does zero work.",
        "work_unit": "pkt",
        "sizes": {
            "bench": {"n_fes": 0, "concurrency": 96, "warmup": 0.1,
                      "duration": 0.4},
            "test": {"n_fes": 0, "concurrency": 8, "warmup": 0.05,
                     "duration": 0.1},
        },
    },
    "crr_offload": {
        "why": "Same testbed with the server vNIC offloaded to 4 FEs: "
               "every packet takes the BE<->FE NSH hop, so core.*, "
               "net.nsh and two extra fabric hops carry the run.",
        "work_unit": "pkt",
        "sizes": {
            "bench": {"n_fes": 4, "concurrency": 96, "warmup": 0.06,
                      "duration": 0.06},
            "test": {"n_fes": 4, "concurrency": 8, "warmup": 0.05,
                     "duration": 0.05},
        },
    },
    "elephant_burst": {
        "why": "One long-lived flow in bursts of 16 through the burst "
               "datapath: steady-state fast-path hits, one slow-path "
               "lookup in the whole run.",
        "work_unit": "pkt",
        "sizes": {
            "bench": {"duration": 6.0, "burst": 16, "fluid": False},
            "test": {"duration": 1.0, "burst": 16, "fluid": False},
        },
    },
    "elephant_fluid": {
        "why": "The identical elephant call with fluid=True: the same "
               "vswitch/fabric/sim layers driven by run descriptors; "
               "simulated outputs must equal elephant_burst's exactly.",
        "work_unit": "pkt",
        "identical_to": "elephant_burst",
        "sizes": {
            "bench": {"duration": 6.0, "burst": 16, "fluid": True},
            "test": {"duration": 1.0, "burst": 16, "fluid": True},
        },
    },
    "fleet_10k": {
        "why": "10K-vSwitch fleet in-process (jobs=1): hot micro-sims, "
               "flyweight alloc/fold and shard column draws over a 56 MB "
               "working set; no packet-side testbed at all.",
        "work_unit": "vswitch-epoch",
        "sizes": {
            "bench": {"n_vswitches": 10_000, "epochs": 2, "jobs": 1},
            "test": {"n_vswitches": 300, "epochs": 2, "jobs": 1},
        },
    },
    "fleet_10k_pool": {
        "why": "The same fleet through ResidentPool with 2 workers: "
               "init/step/collect walls and IPC; the only workload where "
               "cpu_s exceeds wall_s; its table must equal fleet_10k's.",
        "work_unit": "vswitch-epoch",
        "identical_to": "fleet_10k",
        "sizes": {
            "bench": {"n_vswitches": 10_000, "epochs": 2, "jobs": 2},
            "test": {"n_vswitches": 300, "epochs": 2, "jobs": 2},
        },
    },
}

LEFT_OUT = {
    "tier1_suite_wall": "146 s; too long for the per-run cap",
    "fig12": "24 s quick; it is crr_local + crr_offload plus a probe",
    "fleet_100k": "40-100 s per pass",
    "chaos_policy_arena": "profiled >85% datapath, controller <2%: would "
                          "not isolate the controller",
    "telemetry_on_cost": "telemetry is not installed in any perfbench run",
}

# -- end-to-end metrics -----------------------------------------------------------
#
# Statistic: the issue defined wall_s/cpu_s as the median repeat. On
# this 2-vCPU VM the noise is one-sided interference in bursts of
# seconds (+30-45%, nothing the calibration loop or /proc/stat steal
# sees); a burst that covers half of a 12 s run moves the median by the
# full 30%. The lower quartile only moves when three quarters of the
# run is disturbed, and measured about twice as steady across runs
# (README "Measured spread"), so it is the gated value; the median is
# still printed and stored beside it.
#
# Bounds: the issue asked for +10% wall/cpu (+15% for the pool), +5% RSS,
# +15% setup. The driver takes one bound per metric (not per workload),
# varies --seed between runs, and wants the across-run IQR/median under a
# third of the bound; the fleet's own work moves ~+-8% with the seed
# (hot vSwitch count). The time metrics take the largest bound the driver
# allows; setup_s must have the largest, as the contract asks.

END_TO_END: List[dict] = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
     "statistic": "q1",
     "definition": "lower quartile of the perf_counter walls of the timed "
                   "repeats (each a fresh build from the same inputs)"},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25,
     "statistic": "q1",
     "definition": "lower quartile of the user+sys CPU of the workload "
                   "process and its reaped children over one timed repeat"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10,
     "statistic": "median",
     "definition": "ru_maxrss of the workload subprocess plus its largest "
                   "reaped child's at the end of the cold pass, median "
                   "over fresh subprocesses"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "statistic": "median",
     "definition": "median over fresh subprocesses of spawn -> end of the "
                   "cold pass: interpreter start, import repro, input "
                   "generation, lazy caches, one full cold pass"},
]

# -- fidelity windows (reported beside the paper's value, never a failed op) -----

FIDELITY = {
    "cps_gain_4fe": {"window": [2.8, 3.8], "paper": 3.3,
                     "what": "crr_offload.host.sim_cps / "
                             "crr_local.host.sim_cps"},
    "fleet_cps_mitigated": {"window": [0.98, 1.0], "paper": 0.999,
                            "what": "fleet 'cps mitigated fraction' row"},
}

# -- per-layer metrics -----------------------------------------------------------------
#
# kind: "time"  host seconds from the traced repeat (noisy);
#       "exact" a deterministic count/ratio of the simulation or of the
#               traced call graph: must repeat exactly, --compare checks
#               equality;
#       "host"  a noisy host-side number that is not a span self time.
# moves: (end-to-end metric, workload) pairs this layer is predicted to
#        move, written down before measuring.


def _pairs(metrics: List[str], workloads: List[str]) -> List[dict]:
    return [{"metric": metric, "workload": workload}
            for workload in workloads for metric in metrics]


_CRR = ["crr_local", "crr_offload"]
_ELEPHANTS = ["elephant_burst", "elephant_fluid"]

LAYERS: List[dict] = [
    {"layer": "sim",
     "moves": _pairs(["wall_s", "cpu_s"], PACKET_WORKLOADS),
     "not_moves": "fleet_10k cold path (no engine)",
     "metrics": [
         ("sim.engine.self_s", "s", "lower", "time"),
         ("sim.engine.events", "count", "lower", "exact"),
         ("sim.engine.events_per_pkt", "ev/pkt", "lower", "exact"),
         ("sim.resources.self_s", "s", "lower", "time"),
         ("sim.resources.submits", "count", "lower", "exact"),
     ]},
    {"layer": "net",
     "moves": _pairs(["wall_s"], ["crr_offload", "crr_local"]),
     "not_moves": "net.nsh.calls is 0 off crr_offload; elephant_fluid "
                  "(one template packet per run)",
     "metrics": [
         ("net.packet.self_s", "s", "lower", "time"),
         ("net.packet.calls", "count", "lower", "exact"),
         ("net.packet.copies_per_pkt", "copy/pkt", "lower", "exact"),
         ("net.nsh.self_s", "s", "lower", "time"),
         ("net.nsh.calls", "count", "lower", "exact"),
     ],
     "metric_moves": {
         "net.nsh.self_s": _pairs(["wall_s"], ["crr_offload"]),
         "net.nsh.calls": _pairs(["wall_s"], ["crr_offload"]),
     }},
    {"layer": "fabric",
     "moves": _pairs(["wall_s"], ["crr_offload", "elephant_burst"]),
     "not_moves": "the fleet_10k_pool vs fleet_10k difference",
     "metrics": [
         ("fabric.link.self_s", "s", "lower", "time"),
         ("fabric.link.transmits", "count", "lower", "exact"),
         ("fabric.link.pkts", "count", "higher", "exact"),
         ("fabric.link.pkts_per_transmit", "pkt/call", "higher", "exact"),
         ("fabric.link.drops", "count", "lower", "exact"),
         ("fabric.switch.self_s", "s", "lower", "time"),
         ("fabric.device.self_s", "s", "lower", "time"),
     ]},
    {"layer": "vswitch",
     "moves": _pairs(["wall_s"], PACKET_WORKLOADS),
     "not_moves": "slow-path/session metrics on the elephants (1 lookup "
                  "per run); burst/run metrics on crr_*",
     "metrics": [
         ("vswitch.datapath.self_s", "s", "lower", "time"),
         ("vswitch.datapath.calls", "count", "lower", "exact"),
         ("vswitch.datapath.pkts_per_call", "pkt/call", "higher", "exact"),
         ("vswitch.vswitch.self_s", "s", "lower", "time"),
         ("vswitch.slow_path.self_s", "s", "lower", "time"),
         ("vswitch.slow_path.lookups", "count", "lower", "exact"),
         ("vswitch.fast_path.hits", "count", "higher", "exact"),
         ("vswitch.fast_path.ratio", "ratio", "higher", "exact"),
         ("vswitch.session_table.self_s", "s", "lower", "time"),
         ("vswitch.session_table.ops", "count", "lower", "exact"),
         ("vswitch.flow_records.self_s", "s", "lower", "time"),
         ("vswitch.pkts", "count", "higher", "exact"),
         ("vswitch.cpu_drops", "count", "lower", "exact"),
         ("vswitch.total_drops", "count", "lower", "exact"),
         ("vswitch.host_us_per_pkt", "us/pkt", "lower", "host"),
     ],
     "metric_moves": {
         **{name: _pairs(["wall_s"], _CRR) for name in (
             "vswitch.slow_path.self_s", "vswitch.slow_path.lookups",
             "vswitch.session_table.self_s", "vswitch.session_table.ops")},
         **{name: _pairs(["wall_s"], _ELEPHANTS + ["fleet_10k"])
            for name in ("vswitch.datapath.self_s",
                         "vswitch.datapath.calls",
                         "vswitch.datapath.pkts_per_call",
                         "vswitch.flow_records.self_s")},
     }},
    {"layer": "core",
     "moves": _pairs(["wall_s", "cpu_s"], ["crr_offload"]),
     "not_moves": "every core.* count is 0 on the other five, fleet_10k "
                  "included (ROADMAP 3c's gap made visible)",
     "metrics": [
         ("core.backend.self_s", "s", "lower", "time"),
         ("core.backend.pkts", "count", "higher", "exact"),
         ("core.frontend.self_s", "s", "lower", "time"),
         ("core.frontend.pkts", "count", "higher", "exact"),
         ("core.header.self_s", "s", "lower", "time"),
         ("core.header.calls", "count", "lower", "exact"),
         ("core.nsh_hops", "count", "lower", "exact"),
         ("core.offload_setup_sim_s", "sim_s", "lower", "exact"),
     ]},
    {"layer": "host",
     "moves": _pairs(["wall_s"], _CRR),
     "not_moves": "elephants (one send_burst per 16 pkts), fleet cold path",
     "metrics": [
         ("host.vm.self_s", "s", "lower", "time"),
         ("host.vm.sends", "count", "lower", "exact"),
         ("host.vm.kernel_drops", "count", "lower", "exact"),
         ("host.guest_tcp.self_s", "s", "lower", "time"),
         ("host.conns_completed", "count", "higher", "exact"),
         ("host.conns_failed", "count", "lower", "exact"),
         ("host.sim_cps", "1/sim_s", "higher", "exact"),
     ]},
    {"layer": "controller",
     "moves": [],
     "not_moves": "every workload: expected <2% everywhere, listed so a "
                  "controller change that moves any wall_s looks suspicious",
     "metrics": [
         ("controller.gateway.self_s", "s", "lower", "time"),
         ("controller.learner.refreshes", "count", "lower", "exact"),
     ]},
    {"layer": "workloads",
     "moves": [],
     "not_moves": "generator cost only",
     "metrics": [
         ("workloads.tcp_crr.self_s", "s", "lower", "time"),
         ("workloads.elephant.self_s", "s", "lower", "time"),
         ("workloads.fleet.invert_n.self_s", "s", "lower", "time"),
         ("workloads.fleet.invert_n.values", "count", "lower", "exact"),
     ],
     "metric_moves": {
         "workloads.tcp_crr.self_s": _pairs(["wall_s"], _CRR),
         "workloads.elephant.self_s": _pairs(["wall_s"], _ELEPHANTS),
         "workloads.fleet.invert_n.self_s": _pairs(["wall_s"],
                                                   FLEET_WORKLOADS),
         "workloads.fleet.invert_n.values": _pairs(["wall_s"],
                                                   FLEET_WORKLOADS),
     }},
    {"layer": "fleet",
     "moves": _pairs(["wall_s"], FLEET_WORKLOADS),
     "not_moves": "crr_*; fleet.coordinator.* should move nothing",
     "metrics": [
         ("fleet.hotsim.self_s", "s", "lower", "time"),
         ("fleet.hotsim.runs", "count", "lower", "exact"),
         ("fleet.hotsim.pkts", "count", "higher", "exact"),
         ("fleet.hotsim.ms_per_run", "ms/run", "lower", "host"),
         ("fleet.shard.self_s", "s", "lower", "time"),
         ("fleet.shard.epochs", "count", "lower", "exact"),
         ("fleet.flyweight.self_s", "s", "lower", "time"),
         ("fleet.flyweight.allocs", "count", "lower", "exact"),
         ("fleet.flyweight.folds", "count", "lower", "exact"),
         ("fleet.coordinator.self_s", "s", "lower", "time"),
         ("fleet.coordinator.grant_ratio", "ratio", "higher", "exact"),
         ("fleet.coordinator.denials", "count", "lower", "exact"),
         ("fleet.materialize.self_s", "s", "lower", "time"),
         ("fleet.live_flows", "count", "higher", "exact"),
         ("fleet.state_mb", "MB", "lower", "exact"),
         ("fleet.hot_fraction", "ratio", "lower", "exact"),
         ("fleet.seed_epoch_s", "s", "lower", "host"),
         ("fleet.steady_epoch_s", "s", "lower", "host"),
     ],
     "metric_moves": {
         **{name: _pairs(["peak_rss_mb", "setup_s"], FLEET_WORKLOADS)
            for name in ("fleet.flyweight.self_s", "fleet.flyweight.allocs",
                         "fleet.flyweight.folds", "fleet.state_mb",
                         "fleet.live_flows")},
         "fleet.seed_epoch_s": _pairs(["setup_s", "wall_s"],
                                      FLEET_WORKLOADS),
         **{name: [] for name in ("fleet.coordinator.self_s",
                                  "fleet.coordinator.grant_ratio",
                                  "fleet.coordinator.denials")},
     }},
    {"layer": "parallel",
     "moves": _pairs(["wall_s", "cpu_s", "peak_rss_mb"],
                     ["fleet_10k_pool"]),
     "not_moves": "fleet_10k (all zero there)",
     "metrics": [
         ("parallel.pool.self_s", "s", "lower", "time"),
         ("parallel.init_s", "s", "lower", "host"),
         ("parallel.step_s", "s", "lower", "host"),
         ("parallel.collect_s", "s", "lower", "host"),
         ("parallel.ipc_init_bytes", "B", "lower", "host"),
         ("parallel.ipc_step_bytes", "B", "lower", "host"),
         ("parallel.ipc_collect_bytes", "B", "lower", "host"),
         ("parallel.worker_busy_s", "s", "lower", "host"),
         ("parallel.worker_wait_s", "s", "lower", "host"),
         ("parallel.efficiency", "ratio", "higher", "host"),
     ]},
    {"layer": "budget",
     "moves": [],
     "not_moves": "bookkeeping of the traced repeat itself",
     "metrics": [
         ("other.self_s", "s", "lower", "time"),
         ("trace.wall_s", "s", "lower", "host"),
         ("trace.overhead_ratio", "ratio", "lower", "host"),
         ("trace.attributed_share", "ratio", "higher", "host"),
         ("unattributed_s", "s", "lower", "host"),
     ]},
]


def layer_metrics() -> List[dict]:
    """Flat per-layer metric list with each metric's predicted moves."""
    out = []
    for group in LAYERS:
        overrides = group.get("metric_moves", {})
        for name, unit, better, kind in group["metrics"]:
            out.append({"name": name, "unit": unit, "better": better,
                        "kind": kind, "layer": group["layer"],
                        "moves": overrides.get(name, group["moves"]),
                        "not_moves": group["not_moves"]})
    return out


def self_time_metrics() -> List[str]:
    """The span self-time rows; with ``unattributed_s`` they sum to
    ``trace.wall_s``."""
    return [m["name"] for m in layer_metrics()
            if m["kind"] == "time" and m["name"].endswith(".self_s")]


def benchmark_json() -> dict:
    """The driver-facing declaration (exactly the driver's schema)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": body["why"]}
                      for name, body in WORKLOADS.items()],
        "end_to_end": [{key: metric[key]
                        for key in ("name", "unit", "better", "bound")}
                       for metric in END_TO_END],
        "per_layer": [{key: metric[key]
                       for key in ("name", "unit", "better")}
                      for metric in layer_metrics()],
    }


# -- recorded, not enforced -------------------------------------------------------------
#
# sim_digest per workload at --seed 0, bench size, as measured on the
# commit that added perfbench. A later PR that deliberately changes the
# model cannot edit this directory, so a drift prints
# ``sim_digest_changed: true`` and is *not* a failed op.

GOLDEN_DIGESTS_SEED0: Dict[str, str] = {
    "crr_local": "fa83cba4394d5ada",
    "crr_offload": "9fcc84f9b9ba658c",
    "elephant_burst": "c28d4ce4c89bf75b",
    "elephant_fluid": "c28d4ce4c89bf75b",
    "fleet_10k": "ddddca733a635198",
    "fleet_10k_pool": "ddddca733a635198",
}
