"""Fleet-scale observability (ISSUE 10): shard metric snapshots and the
deterministic fold, the coordinator/controller decision journal, the
resident-pool runtime instrumentation, and the profiler's direct-dispatch
owner attribution.

The load-bearing properties:

* the fold is associative, commutative, and has :func:`empty_snapshot`
  as identity — which is what makes the slot-order merge byte-identical
  across every ``shards x jobs x resident`` split (the matrix test in
  ``test_fleet_sim.py`` checks the composed experiment);
* journal writes are pure observation — producing them cannot perturb
  the run — and every journaled event validates against the
  ``telemetry/v1`` decision schema;
* pool instrumentation lives in reply *meta*, never in reply values.
"""

import functools

import pytest

from repro import telemetry
from repro.fleet import (FleetCoordinator, FleetParams, make_shards,
                         run_shard_epoch)
from repro.telemetry import spans as _spans
from repro.telemetry.export import load, validate_report
from repro.telemetry.fleet import (FLEET_METRICS_SCHEMA, DecisionJournal,
                                   empty_snapshot, fold, fold_snapshots)
from repro.telemetry.profiler import EngineProfiler


# -- snapshots and the fold --------------------------------------------------

def _shard_snapshots(n_vswitches=80, shards=4, seed=0):
    params = FleetParams(seed=seed, n_vswitches=n_vswitches,
                         collect_metrics=True)
    return [run_shard_epoch((state, 0, {}, params))[1]["metrics"]
            for state in make_shards(params, shards)]


def test_shard_epoch_attaches_snapshot_only_when_collecting():
    params_off = FleetParams(seed=0, n_vswitches=50)
    _state, report = run_shard_epoch(
        (make_shards(params_off, 1)[0], 0, {}, params_off))
    assert "metrics" not in report

    params_on = FleetParams(seed=0, n_vswitches=50, collect_metrics=True)
    _state2, report_on = run_shard_epoch(
        (make_shards(params_on, 1)[0], 0, {}, params_on))
    snap = report_on["metrics"]
    assert snap["schema"] == FLEET_METRICS_SCHEMA
    assert snap["counters"]["vswitches"] == 50
    # Collecting changes nothing besides attaching the snapshot.
    stripped = {key: value for key, value in report_on.items()
                if key != "metrics"}
    assert stripped == report


def test_snapshot_values_are_integers():
    """Counters and bucket counts must be ints: float addition is not
    associative, which would break the fold contract."""
    for snap in _shard_snapshots():
        for key, value in snap["counters"].items():
            assert isinstance(value, int), key
        for name, hist in snap["hist"].items():
            assert all(isinstance(c, int) for c in hist["counts"]), name


def test_fold_of_shard_snapshots_matches_unsharded():
    params = FleetParams(seed=0, n_vswitches=80, collect_metrics=True)
    whole = run_shard_epoch(
        (make_shards(params, 1)[0], 0, {}, params))[1]["metrics"]
    parts = _shard_snapshots(n_vswitches=80, shards=4)
    assert fold_snapshots(parts) == whole


def test_fold_is_associative_and_commutative():
    parts = _shard_snapshots()
    left = functools.reduce(fold, parts)
    right = fold(parts[0], fold(parts[1], fold(parts[2], parts[3])))
    assert left == right
    assert fold(parts[1], parts[0]) == fold(parts[0], parts[1])


def test_fold_identity_and_empty_input():
    parts = _shard_snapshots(shards=2)
    whole = fold_snapshots(parts)
    assert fold(empty_snapshot(), whole) == whole
    assert fold(whole, empty_snapshot()) == whole
    assert fold_snapshots([]) == empty_snapshot()


def test_fold_rejects_mismatched_edges_and_foreign_dicts():
    good, bad = empty_snapshot(), empty_snapshot()
    bad["hist"]["hot_cpu"]["edges"][0] = 0.05
    with pytest.raises(ValueError):
        fold(good, bad)
    with pytest.raises(ValueError):
        fold({"schema": "nope"}, empty_snapshot())


# -- decision journal --------------------------------------------------------

def _hot(index, units, kinds=("cps",)):
    return {"index": index, "units": units, "kinds": list(kinds)}


def test_coordinator_journals_grants_denials_releases():
    journal = DecisionJournal()
    coordinator = FleetCoordinator(seed=0, pool_units=2, journal=journal)
    coordinator.settle(0, [{"hot": [_hot(5, 1), _hot(9, 5, ("flows",))]}])
    actions = [event["action"] for event in journal.to_dicts()]
    assert actions.count("grant") == 1
    assert actions.count("denial") == 1
    assert actions.count("mitigation") == 1
    assert actions[-1] == "settle"

    grant = next(e for e in journal.to_dicts() if e["action"] == "grant")
    assert grant["epoch"] == 0 and grant["index"] == 5
    assert grant["tenant"] == 5 % coordinator.n_tenants
    assert grant["requested"] == 1 and grant["granted"] == 1
    denial = next(e for e in journal.to_dicts() if e["action"] == "denial")
    assert denial["reason"] == "pool_exhausted" and denial["granted"] == 0
    settle = journal.to_dicts()[-1]
    assert settle["requests"] == 2 and settle["granted_new"] == 1
    assert "index" not in settle  # None fields are dropped

    # The quiet holder's grant is released on the next settle.
    coordinator.settle(1, [{"hot": []}])
    assert [e["action"] for e in journal.to_dicts()[-2:]] == \
        ["release", "settle"]


def test_coordinator_renewal_and_preemption_events():
    journal = DecisionJournal()
    coordinator = FleetCoordinator(seed=0, pool_units=4, n_tenants=2,
                                   policy="supernic", journal=journal)
    coordinator.settle(0, [{"hot": [_hot(1, 2)]}])  # tenant 1 at quota
    coordinator.pool_units = 2  # pool shrank under the holding
    coordinator.settle(1, [{"hot": [_hot(1, 2), _hot(0, 1)]}])
    actions = [event["action"] for event in journal.to_dicts()]
    assert "renewal" in actions
    assert "preemption" in actions
    preemption = next(e for e in journal.to_dicts()
                      if e["action"] == "preemption")
    assert preemption["reason"] == "over_quota"
    assert coordinator.preemptions == 1


def test_journal_on_off_does_not_change_settle_outcome():
    hot = [[_hot(3, 1), _hot(7, 2)], [_hot(3, 1)], []]
    outcomes = []
    for journal in (None, DecisionJournal()):
        coordinator = FleetCoordinator(seed=0, pool_units=3,
                                       journal=journal)
        grants = [coordinator.settle(epoch, [{"hot": entries}])
                  for epoch, entries in enumerate(hot)]
        outcomes.append((grants, coordinator.utilization,
                         coordinator.denied_requests,
                         dict(coordinator.overloads)))
    assert outcomes[0] == outcomes[1]


def test_coordinator_journal_wiring_defaults():
    assert FleetCoordinator(seed=0, pool_units=2).journal is None
    tel = telemetry.install()
    try:
        assert FleetCoordinator(seed=0, pool_units=2).journal \
            is tel.decisions
    finally:
        telemetry.uninstall()


def test_journal_overflow_keeps_earliest_and_drops_none_fields():
    journal = DecisionJournal(capacity=2)
    for index in range(4):
        journal.record("coordinator", "nezha", f"a{index}", reason=None)
    assert len(journal) == 2 and journal.dropped == 2
    assert [e["action"] for e in journal.to_dicts()] == ["a0", "a1"]
    assert all("reason" not in e for e in journal.to_dicts())
    assert set(journal.by_policy()) == {"nezha"}


def test_controller_seam_journals_through_policy_decide():
    from repro.controller import (ControllerConfig, FePlacement,
                                  NezhaController)
    from tests.conftest import build_nezha_env

    tel = telemetry.install()
    try:
        env = build_nezha_env(n_servers=4)
        controller = NezhaController(env.engine, env.gateway,
                                     env.orchestrator,
                                     FePlacement(env.topo, {}),
                                     config=ControllerConfig())
        controller._decide("no_fes", vnic=7)
        controller.policy.decide("scale_out", vnic=7, added=1)
        events = tel.decisions.to_dicts()
    finally:
        telemetry.uninstall()
    assert [e["action"] for e in events] == ["no_fes", "scale_out"]
    for event in events:
        assert event["source"] == "controller"
        assert event["policy"] == controller.policy.name
        assert "time" in event


def test_fleet_capture_exports_valid_schema(tmp_path):
    from repro.experiments import fleet
    tel = telemetry.install()
    try:
        fleet.run(n_vswitches=200, epochs=2, seed=0, jobs=1)
        path = tmp_path / "capture.jsonl"
        tel.export(path)
    finally:
        telemetry.uninstall()
    records = load(path)
    assert validate_report(records) == []
    decisions = [r for r in records if r["type"] == "decision"]
    assert decisions, "fleet run journaled nothing"
    assert all({"source", "policy", "action"} <= set(d) for d in decisions)
    header = records[0]
    assert header["decisions"] == len(decisions)
    names = {r["name"] for r in records if r["type"] == "metric"}
    assert "fleet.vswitches" in names
    assert "fleet.hist.demand_ratio" in names


def test_hotsim_counters_are_observation_only():
    from repro.fleet.hotsim import simulate_hot_epoch
    off = simulate_hot_epoch(seed=7, demand_ratio=2.0, granted=False)
    tel = telemetry.install()
    try:
        on = simulate_hot_epoch(seed=7, demand_ratio=2.0, granted=False)
        runs = tel.registry.get("fleet.hotsim.runs").value()
        granted = tel.registry.get("fleet.hotsim.granted").value()
        pkts = tel.registry.get("fleet.hotsim.pkts").value()
    finally:
        telemetry.uninstall()
    assert on == off  # counting must not perturb the micro-sim
    assert runs == 1 and granted == 0
    assert pkts == on["sim_sent"]


# -- resident-pool runtime instrumentation -----------------------------------

def _advance(state, payload):
    return state + payload, state * 2


def _identity(state):
    return state


def test_resident_pool_runtime_stats_and_liveness():
    from repro.experiments.parallel import ResidentPool
    pool = ResidentPool(_advance, [1, 2, 3, 4], jobs=2)
    try:
        assert pool.alive() == [True, True]
        pool.step(10)
        pool.step(10)
        assert pool.collect(_identity) == [21, 22, 23, 24]
        stats = pool.runtime_stats()
    finally:
        pool.close()
    assert stats["jobs"] == 2
    assert stats["phase_wall_s"]["init"] > 0.0
    assert len(stats["phase_wall_s"]["step"]) == 2
    assert len(stats["workers"]) == 2
    for worker in stats["workers"]:
        assert worker["steps"] == 2
        assert worker["alive"] is True
        assert worker["init_wall_s"] >= 0.0
        assert worker["step_wall_s"] >= 0.0
        assert worker["collect_wall_s"] >= 0.0
        assert worker["recv_wait_s"] > 0.0
    assert stats["ipc"]["init_bytes"] > 0
    assert len(stats["ipc"]["step_bytes"]) == 2
    assert stats["ipc"]["collect_bytes"] > 0
    assert pool.alive() == [False, False]


def test_resident_pool_runtime_stats_in_process():
    from repro.experiments.parallel import ResidentPool
    pool = ResidentPool(_advance, [1, 2], jobs=1)
    pool.step(1)
    assert pool.collect(_identity) == [2, 3]
    stats = pool.runtime_stats()
    assert stats["jobs"] == 1
    assert stats["workers"][0]["steps"] == 1
    assert stats["ipc"]["step_bytes"] == [0]  # residency: zero step IPC
    assert pool.alive() == [True]
    pool.close()
    assert pool.alive() == [False]


def test_resident_pool_registers_probe_gauges():
    from repro.experiments.parallel import ResidentPool
    tel = telemetry.install()
    try:
        pool = ResidentPool(_advance, [1, 2], jobs=1)
        pool.step(0)
        pool.close()
        names = list(tel.registry.names())
        assert "fleet.pool.jobs" in names
        assert "fleet.pool.worker0.steps" in names
        assert tel.registry.get("fleet.pool.worker0.steps").value() == 1
        assert tel.registry.get("fleet.pool.workers_alive").value() == 0.0
    finally:
        telemetry.uninstall()


# -- span sessions -----------------------------------------------------------

def test_span_session_reuses_installed_recorder():
    tel = telemetry.install()
    try:
        with telemetry.span_session() as recorder:
            assert recorder is tel.spans
        assert _spans.ACTIVE  # leaving the session must not uninstall
    finally:
        telemetry.uninstall()


def test_span_session_standalone_installs_temporarily():
    assert not _spans.ACTIVE
    with telemetry.span_session() as recorder:
        assert _spans.ACTIVE
        assert recorder is not None
    assert not _spans.ACTIVE


# -- profiler owner attribution ----------------------------------------------

class _Sink:
    def __init__(self):
        self.hits = 0

    def on_done(self, amount):
        self.hits += amount


def test_profiler_attributes_direct_dispatch_to_owner():
    """``CpuResource.try_submit_call`` schedules its completion as one
    settled entry (``Engine.call_settled``): exactly one event, billed
    to the callback's owner — nothing to ``Engine.call_soon``, also for
    the one relay left (a ``call_soon`` handed over as the callback, as
    ``Vm._dispatch_conn``'s lock-ends-last hop does)."""
    from repro.sim import Engine
    from repro.sim.resources import CpuResource

    engine = Engine()
    profiler = EngineProfiler()
    engine.profiler = profiler
    cpu = CpuResource(engine, cores=1, hz=1000.0)
    sink = _Sink()
    assert cpu.try_submit_call(10.0, 1.0, sink.on_done, 2)
    engine.run()
    assert sink.hits == 2
    owners = set(profiler.buckets)
    assert "Engine.call_soon" not in owners
    assert "_Sink.on_done" in owners
    assert profiler.buckets["_Sink.on_done"].events == 1
    assert profiler.total_events == 1

    engine.call_settled(engine.now + 1.0, engine.call_soon, sink.on_done, 3)
    engine.run()
    assert sink.hits == 5
    assert "Engine.call_soon" not in profiler.buckets
    # The relay pop and the real invocation both land on the owner.
    assert profiler.buckets["_Sink.on_done"].events == 3
