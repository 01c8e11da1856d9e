"""ResidentPool: the persistent actor-style worker pool.

Covers the contract pieces the fleet experiment's byte-identity matrix
exercises only indirectly: reply ordering, the refusal of a one-worker
pool, worker-death surfacing (a clear error, not a hang), error
tracebacks, a failed round closing the pool, and the IPC accounting in
``runtime_stats()`` that proves state actually stays resident in the
workers — through ``collect`` too, which applies a function where the
state lives and ships back only its results.
"""

import os
import pickle
import time

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import ResidentPool, ResidentWorkerError


# Worker functions must be top-level so they pickle into the children.

def _accumulate(state, payload):
    """(state, payload) -> (state, report): running sum per slot."""
    state = dict(state)
    state["total"] += payload
    state["steps"] += 1
    return state, (state["slot"], state["total"])


def _touch_blob(state, payload):
    """Big resident state, tiny report: the residency-proof shape."""
    state["count"] += payload
    return state, state["count"]


def _explode(state, payload):
    if payload == "boom":
        raise ValueError("injected failure in worker")
    return state, payload


def _explode_on_low_slots(state, payload):
    """Fails on slots 0-1 only: worker 0 raises, worker 1 replies."""
    if payload == "boom" and state["slot"] < 2:
        raise ValueError("injected failure in worker")
    return state, (state["slot"], payload)


def _exit_on_slot_0(state, payload):
    """Worker death, not an exception: slot 0's process just exits."""
    if payload == "die" and state["slot"] == 0:
        os._exit(1)
    return state, payload


def _identity(state):
    """collect(fn) that really wants the state back — and pays for it."""
    return state


def _blob_len(state):
    return len(state["blob"])


def _explode_on_slot_3(state):
    if state["slot"] == 3:
        raise ValueError("injected failure in collect fn")
    return state["slot"]


def _slot_states(n):
    return [{"slot": i, "total": 0, "steps": 0} for i in range(n)]


# -- ordering and equivalence to the sequential loop ------------------------

def test_step_and_collect_preserve_slot_order():
    expected_states = []
    expected_reports = []
    for state in _slot_states(5):
        advanced, report = _accumulate(state, 10)
        advanced, report = _accumulate(advanced, 3)
        expected_states.append(advanced)
        expected_reports.append(report)

    for jobs in (2, 3):                         # 3: slices of 2, 2, 1
        with ResidentPool(_accumulate, _slot_states(5), jobs=jobs) as pool:
            assert pool.jobs == jobs
            pool.step(10)
            reports = pool.step(3)
            collected = pool.collect(_identity)
        assert reports == expected_reports
        assert collected == expected_states
        assert [s["slot"] for s in collected] == [0, 1, 2, 3, 4]


def test_one_effective_worker_is_refused(monkeypatch):
    """jobs=1, one slot, or a call from inside a pool worker: the caller
    runs the loop itself; the pool never degrades to an inline twin."""
    with pytest.raises(ValueError, match="two or more effective workers"):
        ResidentPool(_accumulate, _slot_states(3), jobs=1)
    with pytest.raises(ValueError, match="two or more effective workers"):
        ResidentPool(_accumulate, _slot_states(1), jobs=8)
    monkeypatch.setattr(parallel, "_IN_WORKER", True)
    with pytest.raises(ValueError, match="two or more effective workers"):
        ResidentPool(_accumulate, _slot_states(4), jobs=2)


def test_empty_states_rejected():
    with pytest.raises(ValueError):
        ResidentPool(_accumulate, [], jobs=2)


# -- failure surfacing ------------------------------------------------------

def test_worker_exception_raises_with_traceback():
    with ResidentPool(_explode, _slot_states(4), jobs=2) as pool:
        assert pool.step("fine") == ["fine"] * 4
        with pytest.raises(ResidentWorkerError) as excinfo:
            pool.step("boom")
    message = str(excinfo.value)
    assert "injected failure in worker" in message     # the traceback
    assert "resident-worker-" in message               # which worker
    assert "slots" in message                          # which slice


def test_collect_fn_exception_raises_with_traceback_and_pool_closes():
    pool = ResidentPool(_accumulate, _slot_states(4), jobs=2)
    try:
        with pytest.raises(ResidentWorkerError) as excinfo:
            pool.collect(_explode_on_slot_3)
    finally:
        started = time.perf_counter()
        pool.close()
        close_s = time.perf_counter() - started
    message = str(excinfo.value)
    assert "injected failure in collect fn" in message  # the traceback
    assert "_explode_on_slot_3" in message
    assert "resident-worker-1" in message               # slot 3's worker
    assert close_s < 2.0                                # no join timeout
    assert [w["alive"] for w in pool.runtime_stats()["workers"]] \
        == [False, False]


def test_worker_death_raises_instead_of_hanging():
    with ResidentPool(_exit_on_slot_0, _slot_states(4), jobs=2) as pool:
        assert pool.step("fine") == ["fine"] * 4
        with pytest.raises(ResidentWorkerError,
                           match="resident-worker-0.*died with exit code 1"):
            pool.step("die")


def test_failed_round_closes_the_pool_instead_of_leaking_replies():
    """Worker 0 raises; worker 1's good replies are never read. Were the
    pool left open, the next step would return them as its own:
    ``[(0, 'c'), (1, 'c'), (2, 'boom'), (3, 'boom')]``."""
    with ResidentPool(_explode_on_low_slots, _slot_states(4),
                      jobs=2) as pool:
        with pytest.raises(ResidentWorkerError, match="injected failure"):
            pool.step("boom")
        with pytest.raises(ResidentWorkerError, match="pool is closed"):
            pool.step("c")
        with pytest.raises(ResidentWorkerError, match="pool is closed"):
            pool.collect(_identity)
    stats = pool.runtime_stats()
    assert [w["alive"] for w in stats["workers"]] == [False, False]
    assert stats["ipc"]["step_bytes"] == []     # no round completed


def test_step_after_close_raises():
    pool = ResidentPool(_accumulate, _slot_states(2), jobs=2)
    pool.close()
    pool.close()                                # idempotent
    with pytest.raises(ResidentWorkerError):
        pool.step(1)
    with pytest.raises(ResidentWorkerError):
        pool.collect(_identity)


# -- state residency, proven by the IPC byte counters -----------------------

def test_state_stays_resident_between_steps():
    """Steps must not round-trip the resident state: per-step IPC stays
    orders of magnitude below the state size, which crosses the
    boundary on init — and again on collect only because this test
    asks for it back with an identity ``fn``."""
    blob = bytes(200_000)
    states = [{"blob": blob, "count": 0} for _ in range(4)]
    state_bytes = len(pickle.dumps(states))
    with ResidentPool(_touch_blob, states, jobs=2) as pool:
        for _ in range(5):
            pool.step(1)
        collected = pool.collect(_identity)
    ipc = pool.runtime_stats()["ipc"]
    assert [s["count"] for s in collected] == [5] * 4
    assert all(s["blob"] == blob for s in collected)
    # The blobs crossed on init and on the identity collect...
    assert ipc["init_bytes"] > state_bytes * 0.9
    assert ipc["collect_bytes"] > state_bytes * 0.9
    # ...but never during the epoch loop.
    assert len(ipc["step_bytes"]) == 5
    assert max(ipc["step_bytes"]) < 1000


def test_collect_ships_fn_results_not_the_state():
    """The residency proof extended to collect: a digest ``fn`` over
    megabyte slots moves well under a kilobyte; only the identity ``fn``
    pays the state's size."""
    blob_size = 1_000_000

    def collect_ipc(fn):
        states = [{"blob": bytes(blob_size), "count": 0} for _ in range(2)]
        with ResidentPool(_touch_blob, states, jobs=2) as pool:
            pool.step(1)
            results = pool.collect(fn)
        return results, pool.runtime_stats()["ipc"]["collect_bytes"]

    lengths, digest_ipc = collect_ipc(_blob_len)
    assert lengths == [blob_size, blob_size]
    assert digest_ipc < 1024
    states, identity_ipc = collect_ipc(_identity)
    assert [s["count"] for s in states] == [1, 1]
    assert identity_ipc >= 2 * blob_size


def test_step_ipc_flat_as_resident_state_grows():
    """The flatness property the fleet bench records: growing the
    resident state must not move per-step traffic."""

    def per_step_ipc(blob_size):
        states = [{"blob": bytes(blob_size), "count": 0} for _ in range(2)]
        with ResidentPool(_touch_blob, states, jobs=2) as pool:
            pool.step(1)
            pool.step(1)
            pool.collect(_blob_len)
        return pool.runtime_stats()["ipc"]["step_bytes"]

    small = per_step_ipc(1_000)
    large = per_step_ipc(500_000)
    assert large == small
