"""The six workloads, each one pass through the repo's public functions.

A *pass* is a fresh build from the same inputs: nothing survives from
one pass to the next except the interpreter's own warm caches. ``--seed``
reaches the program only as arguments of these public calls (testbed
seed, ``derive_seed(S, "perfbench/elephant")``, fleet seed).

Callables are looked up on their modules at call time (``fig9.run_point``,
``hotsim.simulate_hot_epoch``, ``fleet.run``) so that the tracer's
module-level wrappers, when installed, are the ones that run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.experiments import fig9
from repro.experiments import fleet as fleet_experiment
from repro.experiments import testbed as testbed_module
from repro.faults.invariants import check_packet_conservation
from repro.fleet import hotsim
from repro.sim.rng import derive_seed
from repro.workloads import tcp_crr

from perfbench import spec


@dataclass
class Outcome:
    """What one pass produced.

    ``payload`` holds the simulated outputs that must repeat exactly (the
    input of ``sim_digest``); a cold pass may return a subset of a timed
    pass's keys. ``violations`` are failed output checks; ``counters``
    are exact per-layer values only the workload itself can see."""

    payload: Dict[str, object]
    work: int = 0
    violations: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cold: Callable[[int], Outcome]
    repeat: Callable[[int], Outcome]


# -- crr_local / crr_offload --------------------------------------------------------

def _crr_point(size: dict, seed: int):
    return (size["n_fes"], size["duration"], size["warmup"],
            size["concurrency"], seed)


def _crr_cold(size: dict, seed: int) -> Outcome:
    """The public sweep point itself; the timed body below must return
    the same CPS, which pins the body to ``fig9.measure_cps_at``."""
    return Outcome(payload={"cps": fig9.run_point(_crr_point(size, seed))})


def _crr_repeat(size: dict, seed: int) -> Outcome:
    n_fes = size["n_fes"]
    testbed = testbed_module.build_testbed(
        n_clients=4, n_idle=max(4, n_fes), seed=seed)
    offload_setup = 0.0
    if n_fes:
        handle = testbed.orchestrator.offload(
            testbed.server_vnic, testbed.idle_vswitches[:n_fes])
        testbed.run(1.0)
        if handle.completed_at is None:
            raise RuntimeError("offload did not reach the final stage")
        offload_setup = handle.activation_time
    loops = [tcp_crr.ClosedLoopCrr(
        testbed.engine, app, testbed_module.SERVER_IP, 80,
        concurrency=size["concurrency"]).start()
        for app in testbed.client_apps]
    cps = tcp_crr.measure_cps(testbed.engine, loops, size["warmup"],
                              size["duration"])
    stats = [vars(vswitch.stats) for vswitch in testbed.vswitches]
    payload = {
        "cps": cps,
        "vswitch_stats": stats,
        "link_packets": [link.packets_carried
                         for link in testbed.topo.links],
    }
    completed = sum(loop.completed for loop in loops)
    failed = sum(loop.failed for loop in loops)
    return Outcome(
        payload=payload,
        work=sum(s["tx_packets"] + s["rx_packets"] for s in stats),
        violations=check_packet_conservation(testbed.topo, quiesced=False),
        counters={"host.sim_cps": cps,
                  "host.conns_completed": completed,
                  "host.conns_failed": failed,
                  "core.offload_setup_sim_s": offload_setup})


# -- elephant_burst / elephant_fluid ----------------------------------------------

def _elephant(size: dict, seed: int) -> Outcome:
    result = hotsim.simulate_hot_epoch(
        seed=derive_seed(seed, "perfbench/elephant"), demand_ratio=1.0,
        granted=False, duration=size["duration"], burst=size["burst"],
        fluid=size["fluid"])
    violations = []
    if result["sim_delivered"] + result["sim_drops"] > result["sim_sent"]:
        violations.append(
            f"elephant conservation: delivered={result['sim_delivered']} "
            f"+ drops={result['sim_drops']} exceeds "
            f"sent={result['sim_sent']}")
    return Outcome(payload=dict(result), work=result["sim_sent"],
                   violations=violations)


# -- fleet_10k / fleet_10k_pool ---------------------------------------------------

def _fleet(size: dict, seed: int) -> Outcome:
    stats: Dict[str, object] = {}
    jobs = size["jobs"]
    result = fleet_experiment.run(
        n_vswitches=size["n_vswitches"], epochs=size["epochs"], seed=seed,
        jobs=jobs, shards=jobs, stats=stats)
    rows = {row["metric"]: row["value"] for row in result.rows}
    n_epochs = size["n_vswitches"] * size["epochs"]
    counters = {
        "fleet.hotsim.runs": rows["hot observations"],
        "fleet.hotsim.pkts": rows["hot packets simulated"],
        "fleet.coordinator.denials": rows["fe grant denials"],
        "fleet.live_flows": rows["live flows"],
        "fleet.state_mb": stats["state_nbytes"] / 1e6,
        "fleet.hot_fraction": rows["hot observations"] / n_epochs,
        "fleet.seed_epoch_s": stats["seed_epoch_s"],
        "fleet.steady_epoch_s": stats["steady_epoch_s"],
        "fleet_cps_mitigated": rows["cps mitigated fraction"],
    }
    counters.update(_pool_counters(stats.get("pool")))
    return Outcome(payload={"table": result.to_text()}, work=n_epochs,
                   counters=counters)


def _pool_counters(pool) -> Dict[str, float]:
    """``ResidentPool.runtime_stats()`` folded to the parallel.* rows."""
    if pool is None:
        return {}
    walls = pool["phase_wall_s"]
    pool_wall = walls["init"] + sum(walls["step"]) + walls["collect"]
    busy = sum(worker["init_wall_s"] + worker["step_wall_s"]
               + worker["collect_wall_s"] for worker in pool["workers"])
    return {
        "parallel.init_s": walls["init"],
        "parallel.step_s": sum(walls["step"]),
        "parallel.collect_s": walls["collect"],
        "parallel.ipc_init_bytes": pool["ipc"]["init_bytes"],
        "parallel.ipc_step_bytes": sum(pool["ipc"]["step_bytes"]),
        "parallel.ipc_collect_bytes": pool["ipc"]["collect_bytes"],
        "parallel.worker_busy_s": busy,
        "parallel.worker_wait_s": sum(worker["recv_wait_s"]
                                      for worker in pool["workers"]),
        "parallel.efficiency": busy / (pool["jobs"] * pool_wall)
        if pool_wall else 0.0,
    }


_BODIES = {
    "crr_local": (_crr_cold, _crr_repeat),
    "crr_offload": (_crr_cold, _crr_repeat),
    "elephant_burst": (_elephant, _elephant),
    "elephant_fluid": (_elephant, _elephant),
    "fleet_10k": (_fleet, _fleet),
    "fleet_10k_pool": (_fleet, _fleet),
}


def get(name: str, size: str = "bench") -> Workload:
    """The named workload bound to one of its declared sizes."""
    params = spec.WORKLOADS[name]["sizes"][size]
    cold, repeat = _BODIES[name]
    return Workload(name=name,
                    cold=lambda seed: cold(params, seed),
                    repeat=lambda seed: repeat(params, seed))
