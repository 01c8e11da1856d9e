"""perfbench's self-test (``python -m pytest perfbench -q``; not tier-1).

Drives every workload at its test-only reduced size and checks the
benchmark's own promises: every declared metric is printed exactly once
per workload with its unit and a finite value, the traced budget adds
up, wrappers leave no trace, and injected faults are counted.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys

import pytest

from perfbench import HERE, ROOT, ensure_src_on_path

ensure_src_on_path()

from perfbench import compare, spec, trace, worker, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- the declaration ------------------------------------------------------------------

def test_benchmark_json_is_the_spec_and_fits_the_schema():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert len(declared["per_layer"]) <= 128
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in declared["end_to_end"])}]


def test_every_predicted_move_names_a_real_metric_and_workload():
    end_to_end = {m["name"] for m in spec.END_TO_END}
    for metric in spec.layer_metrics():
        for move in metric["moves"]:
            assert move["metric"] in end_to_end
            assert move["workload"] in spec.WORKLOADS


# -- one full run at test size ----------------------------------------------------------

@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "run.json"
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "test",
         "--seconds", "0.2", "--trace", "--out", str(out)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=120)
    assert process.returncode == 0, process.stdout + process.stderr
    return process.stdout, json.loads(out.read_text())


def _printed(stdout: str, workload: str, metric: str):
    pattern = re.compile(
        rf"^\s+{re.escape(workload)}\.{re.escape(metric)} = (\S+) (\S+)",
        re.MULTILINE)
    return pattern.findall(stdout)


def test_every_metric_is_printed_once_per_workload(full_run):
    stdout, _run = full_run
    declared = spec.END_TO_END + spec.layer_metrics()
    for workload in spec.WORKLOADS:
        for metric in declared:
            found = _printed(stdout, workload, metric["name"])
            assert len(found) == 1, (workload, metric["name"], found)
            value, unit = found[0]
            assert unit == metric["unit"]
            assert math.isfinite(float(value))


def test_no_op_failed_and_identities_hold(full_run):
    _stdout, run = full_run
    assert run["failed_ops"] == 0
    digests = {name: record["sim_digest"]
               for name, record in run["workloads"].items()}
    assert digests["elephant_fluid"] == digests["elephant_burst"]
    assert digests["fleet_10k_pool"] == digests["fleet_10k"]
    for name, body in spec.WORKLOADS.items():
        if "identical_to" in body:
            assert (run["workloads"][name]["reference_digest"]
                    == digests[body["identical_to"]])


def test_traced_budget_adds_up(full_run):
    _stdout, run = full_run
    for name, record in run["traced"].items():
        layer = record["per_layer"]
        total = sum(layer[metric] for metric in spec.self_time_metrics()) \
            + layer["unattributed_s"]
        assert total == pytest.approx(layer["trace.wall_s"], rel=0.01), name
        assert layer["trace.attributed_share"] >= 0.95, name
        assert layer["trace.overhead_ratio"] > 0


def test_layers_are_zero_off_their_workload(full_run):
    _stdout, run = full_run
    core = ["core.backend.pkts", "core.frontend.pkts", "core.header.calls",
            "core.nsh_hops", "net.nsh.calls"]
    pool = ["parallel.pool.self_s", "parallel.step_s",
            "parallel.ipc_collect_bytes", "parallel.efficiency"]
    for name, record in run["traced"].items():
        layer = record["per_layer"]
        for metric in core:
            assert (layer[metric] > 0) == (name == "crr_offload"), \
                (name, metric)
        for metric in pool:
            assert (layer[metric] > 0) == (name == "fleet_10k_pool"), \
                (name, metric)


# -- tracing leaves nothing behind --------------------------------------------------------

def _wrap_targets():
    for _layer, path, names in trace.ENTRY_POINTS + trace.REGISTERED_CALLBACKS:
        cls = trace._resolve(path)
        for name in names:
            yield cls, name


def test_wrappers_are_gone_after_a_traced_pass():
    from repro.sim.engine import Engine

    originals = {(cls, name): cls.__dict__[name]
                 for cls, name in _wrap_targets()}
    engine_run = Engine.__dict__["run"]
    tracer = trace.Tracer().install()
    try:
        assert Engine.__dict__["run"] is not engine_run
        tracer.start()
        workloads.get("crr_offload", "test").repeat(0)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert tracer.result()["calls"]["build_nezha_hop"] > 0
    for (cls, name), original in originals.items():
        assert cls.__dict__[name] is original, (cls, name)
    assert Engine.__dict__["run"] is engine_run
    from repro.fleet import hotsim, shard
    assert shard.simulate_hot_epoch is hotsim.simulate_hot_epoch
    assert not hasattr(hotsim.simulate_hot_epoch, "__wrapped__")


# -- injected faults are counted ------------------------------------------------------------

def _fake_workload(outcomes):
    calls = iter(outcomes)

    def one_pass(_seed):
        outcome = next(calls)
        if isinstance(outcome, Exception):
            raise outcome
        return workloads.Outcome(payload=outcome, work=1)

    return workloads.Workload(name="fake", cold=one_pass, repeat=one_pass)


def test_injected_digest_mismatch_is_one_failed_op():
    good = {"cps": 1.0}
    log = worker.OpLog(seed=0)
    result = worker.run_timed(
        _fake_workload([good, good, {"cps": 2.0}, good, good]), log,
        seconds=0.0, min_repeats=4, emit=lambda event: None)
    assert log.ops == 5 and log.failed_ops == 1
    assert "determinism" in log.failures[0]
    assert len(result["wall_s"]) == 4


def test_injected_exception_is_one_failed_op():
    good = {"cps": 1.0}
    log = worker.OpLog(seed=0)
    result = worker.run_timed(
        _fake_workload([good, good, RuntimeError("injected"), good, good]),
        log, seconds=0.0, min_repeats=3, emit=lambda event: None)
    assert log.ops == 5 and log.failed_ops == 1
    assert "injected" in log.failures[0]
    assert len(result["wall_s"]) == 3


# -- --compare ----------------------------------------------------------------------------

def _stats(median, spread=0.0):
    half = median * spread / 2
    return {"value": median, "median": median, "min": median - half,
            "max": median + half, "iqr": median * spread, "n": 7}


def test_compare_verdicts():
    assert compare.classify(_stats(1.0), _stats(1.05), 0.10)[0] == "ok"
    assert compare.classify(_stats(1.0), _stats(1.2), 0.10)[0] == "regression"
    assert compare.classify(_stats(1.0, 0.3), _stats(1.2, 0.3),
                            0.10)[0] == "unresolved"
    # every candidate sample better than every base sample: ok, whatever
    # the spread
    assert compare.classify(_stats(1.0, 0.3), _stats(0.5, 0.3),
                            0.10)[0] == "ok"
