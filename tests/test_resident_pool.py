"""ResidentPool: the persistent actor-style worker pool (ISSUE 8).

Covers the contract pieces the fleet experiment's byte-identity matrix
exercises only indirectly: reply ordering, the degenerate in-process
pool, worker-death surfacing (a clear error, not a hang), error
tracebacks, and the IPC accounting that proves state actually stays
resident in the workers — through ``collect`` too, which applies a
function where the state lives and ships back only its results.
"""

import pickle
import time

import pytest

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


def _identity(state):
    """collect(fn) that really wants the state back — and pays for it."""
    return state


def _blob_len(state):
    return len(state["blob"])


def _explode_on_slot_3(state):
    if state["slot"] == 3:
        raise ValueError("injected failure in collect fn")
    return state["slot"]


def _sleep_10ms(state):
    time.sleep(0.01)


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

    for jobs in (1, 2):
        with ResidentPool(_accumulate, _slot_states(5), jobs=jobs) as pool:
            assert pool.jobs == jobs
            pool.step(10)
            reports = pool.step(3)
            collected = pool.collect(_identity)
        assert reports == expected_reports
        assert collected == expected_states
        assert [s["slot"] for s in collected] == [0, 1, 2, 3, 4]


def test_degenerate_pool_runs_in_process_with_zero_ipc():
    states = _slot_states(3)
    pool = ResidentPool(_accumulate, states, jobs=1)
    try:
        assert pool.jobs == 1
        assert pool._workers == []              # no processes spawned
        pool.step(5)
        collected = pool.collect(_identity)
    finally:
        pool.close()
    assert [s["total"] for s in collected] == [5, 5, 5]
    assert pool.init_ipc_bytes == 0
    assert pool.ipc_bytes_per_step() == 0.0
    assert pool.collect_ipc_bytes == 0


def test_single_slot_degenerates_even_with_many_jobs():
    pool = ResidentPool(_accumulate, _slot_states(1), jobs=8)
    try:
        assert pool.jobs == 1                   # clamped to the slot count
        assert pool._workers == []
    finally:
        pool.close()


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
    assert pool.alive() == [False, False]


def test_worker_death_raises_instead_of_hanging():
    with ResidentPool(_accumulate, _slot_states(4), jobs=2) as pool:
        pool.step(1)
        victim = pool._workers[0]["process"]
        victim.kill()
        victim.join(timeout=5.0)
        with pytest.raises(ResidentWorkerError, match="died"):
            pool.step(2)


def test_step_after_close_raises():
    pool = ResidentPool(_accumulate, _slot_states(2), jobs=2)
    pool.close()
    pool.close()                                # idempotent
    with pytest.raises(ResidentWorkerError):
        pool.step(1)
    with pytest.raises(ResidentWorkerError):
        pool.collect(_identity)


def test_in_process_collect_wall_times_the_fn_calls():
    """The degenerate pool's collect accounting must cover the ``fn``
    calls, not stop the clock before making them."""
    pool = ResidentPool(_accumulate, _slot_states(2), jobs=1)
    try:
        assert pool.collect(_sleep_10ms) == [None, None]
    finally:
        pool.close()
    assert pool.phase_wall_s["collect"] >= 0.02
    assert pool.worker_runtime[0]["collect_wall_s"] >= 0.02


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
        assert pool._states is None            # coordinator copies dropped
        for _ in range(5):
            pool.step(1)
        collected = pool.collect(_identity)
    assert [s["count"] for s in collected] == [5] * 4
    assert all(s["blob"] == blob for s in collected)
    # The blobs crossed on init and on the identity collect...
    assert pool.init_ipc_bytes > state_bytes * 0.9
    assert pool.collect_ipc_bytes > state_bytes * 0.9
    # ...but never during the epoch loop.
    assert len(pool.step_ipc_bytes) == 5
    assert max(pool.step_ipc_bytes) < 1000
    assert pool.ipc_bytes_per_step() < 1000


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
        return results, pool.collect_ipc_bytes

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
        return pool.ipc_bytes_per_step()

    small = per_step_ipc(1_000)
    large = per_step_ipc(500_000)
    assert large == small
