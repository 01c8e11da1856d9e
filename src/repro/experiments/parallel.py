"""Process-pool sweep execution with a deterministic merge.

The paper's packet-level evaluations (Figs 9–12, §6) are sweeps over
*independent* simulation points — FE counts, load levels, vCPU counts,
seeds. Each point builds its own :class:`~repro.sim.engine.Engine` and
testbed, so points share no state and can run on separate CPU cores.

The contract every sweep obeys:

* **Point function.** ``worker`` is a *top-level* (hence picklable)
  function taking one *point* (any picklable value, usually a tuple of
  plain parameters) and returning plain data (floats, dicts, lists —
  never live simulation objects).
* **Determinism.** Results are merged in *submission order*, never in
  completion order, so ``sweep(points, worker, jobs=N)`` returns the
  exact list ``[worker(p) for p in points]`` for every ``N``. Parallel
  output is byte-identical to sequential output.
* **Legacy path.** ``jobs=1`` never touches :mod:`concurrent.futures`:
  it runs the plain in-process loop, preserving the pre-parallel
  execution path exactly (same process, same call order, no pickling).

Workers re-derive their randomness from plain integer seeds carried
inside the point (see :func:`repro.sim.rng.derive_seed`), which is what
makes replication across pool processes reproducible.

:class:`ResidentPool` is the *stateful* counterpart for iterated
computations (the fleet's epoch loop): two or more long-lived worker
processes that receive their state once (``init``), advance it
in-process every round (``step``), and at the end apply a caller's
``fn`` to it where it lives (``collect``) — so IPC carries only small
plain-data payloads, reports and ``fn``'s results, never the state
itself. Its sequential path is the caller's own loop: with one
effective worker the pool refuses to start. The determinism story is
:func:`sweep`'s: slots go to workers as contiguous ascending slices and
every reply merges in slot order, so the merged report list is
byte-for-byte what that loop produces. Bytes and walls live in one
record, ``runtime_stats()``; a round that fails closes the pool.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.sim.rng import derive_seed

P = TypeVar("P")
R = TypeVar("R")

#: True inside a sweep() pool worker. A worker that itself calls sweep()
#: (e.g. the fleet experiment running under ``all --jobs N``, or a fleet
#: shard step that fans out again) must not open a nested pool — the
#: outer pool already owns the cores, and nested executors can deadlock
#: on fork. :func:`resolve_jobs` serializes instead.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def default_jobs() -> int:
    """The CLI default: one worker per available CPU core."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int], n_points: int) -> int:
    """Clamp a requested worker count to something sensible.

    ``None`` means "use every core"; a pool larger than the number of
    points only costs fork overhead, so it is trimmed. Inside a pool
    worker the answer is always 1: nested sweeps run in-process (the
    deterministic merge makes this a pure perf decision, not a results
    one).
    """
    if _IN_WORKER:
        return 1
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, n_points or 1))


def sweep(points: Iterable[P], worker: Callable[[P], R],
          jobs: Optional[int] = None) -> List[R]:
    """Run ``worker(point)`` for every point, in-order.

    With ``jobs == 1`` this is a plain loop in the calling process (the
    exact legacy execution path). With ``jobs > 1`` the points fan out
    over a :class:`~concurrent.futures.ProcessPoolExecutor`; results are
    collected in submission order regardless of which worker finishes
    first, so the returned list — and anything rendered from it — is
    identical to the sequential run.

    A worker that raises re-raises here (after the pool drains), in both
    modes.
    """
    point_list = list(points)
    n_jobs = resolve_jobs(jobs, len(point_list))
    if n_jobs == 1:
        return [worker(point) for point in point_list]
    with ProcessPoolExecutor(max_workers=n_jobs,
                             initializer=_mark_worker) as pool:
        futures = [pool.submit(worker, point) for point in point_list]
        # future.result() in submission order IS the deterministic merge.
        return [future.result() for future in futures]


def point_seeds(seed: int, label: str, points: Sequence[Any]) -> List[int]:
    """Independent per-point seeds for a replicated sweep.

    Each point gets ``derive_seed(seed, f"{label}/{i}")`` — stable under
    reordering of execution (the seed depends on the point's *position*,
    not on which worker runs it) and collision-free across root seeds.
    """
    return [derive_seed(seed, f"{label}/{index}")
            for index in range(len(points))]


# -- resident (actor-style) worker pool -------------------------------------

class ResidentWorkerError(RuntimeError):
    """A resident worker raised, died, or went unreachable mid-run."""


def _resident_worker_main(conn, worker_fn) -> None:
    """Worker-process loop: hold assigned states in-process, apply
    ``worker_fn(state, payload)`` per slot on every ``step`` and the
    ``fn`` a ``collect`` message carries per slot once at the end.

    Slots are processed in ascending slot order inside the worker;
    combined with contiguous slot assignment across workers, replies
    concatenate into global slot order at the coordinator. Exceptions
    are caught and shipped back as ``("error", traceback, None)`` so the
    coordinator can re-raise with context instead of losing the worker.

    Every reply is ``(status, value, meta)`` where ``meta`` carries the
    worker-side runtime instrumentation: ``wall_s`` (time spent inside
    the handler, measured on the worker's own clock — no cross-process
    clock comparison) and ``recv_wait_s`` (cumulative time blocked
    waiting for the coordinator's next message: the queue wait).
    Instrumentation never touches the reply *values*, so reports stay
    byte-identical with or without anyone reading the meta.
    """
    _mark_worker()  # nested sweep()s inside worker_fn must serialize
    states: dict = {}
    recv_wait_s = 0.0
    try:
        while True:
            wait_started = perf_counter()
            try:
                blob = conn.recv_bytes()
            except EOFError:
                return          # coordinator went away; nothing to save
            recv_wait_s += perf_counter() - wait_started
            message = pickle.loads(blob)
            kind = message[0]
            started = perf_counter()
            try:
                if kind == "init":
                    for slot, state in message[1]:
                        states[slot] = state
                    value = None
                elif kind == "step":
                    payload = message[1]
                    value = []
                    for slot in sorted(states):
                        states[slot], report = worker_fn(states[slot],
                                                         payload)
                        value.append(report)
                elif kind == "collect":
                    fn = message[1]
                    value = [fn(states[slot]) for slot in sorted(states)]
                elif kind == "stop":
                    conn.send_bytes(pickle.dumps(("ok", None, None)))
                    return
                else:
                    raise ValueError(f"unknown message kind {kind!r}")
                meta = {"wall_s": perf_counter() - started,
                        "recv_wait_s": recv_wait_s}
                reply = ("ok", value, meta)
            except Exception:
                reply = ("error", traceback.format_exc(), None)
            conn.send_bytes(pickle.dumps(reply,
                                         protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        conn.close()


class ResidentPool:
    """Persistent worker processes holding per-slot state in-process.

    The actor-style counterpart to :func:`sweep` for *iterated* stateful
    computations: ``sweep`` round-trips every point — state included —
    through pickle on every call, which is fine for independent points
    but makes an epoch loop over megabytes of shard state pay
    the serialization cost ``epochs`` times. A resident pool ships each
    state across the process boundary once (``init`` in); every
    :meth:`step` carries only a small broadcast payload out and
    plain-data reports back, and :meth:`collect` a function out and its
    per-slot results back.

    Contract:

    * ``worker_fn`` is a top-level picklable callable
      ``(state, payload) -> (state, report)`` returning the advanced
      state plus a plain-data report (the :func:`sweep` point contract,
      curried over the resident state).
    * **Determinism.** Slot ``i`` of ``states`` keeps identity ``i`` for
      the pool's lifetime. Slots are assigned to workers as contiguous
      ascending slices, each worker steps its slots in ascending order,
      and :meth:`step`/:meth:`collect` merge replies in worker =
      ascending-slot order — so the merged lists are identical to the
      sequential ``[worker_fn(s, payload) for s in states]``.
    * **Two or more workers.** With one effective worker (``jobs=1``,
      one slot, or inside an existing pool worker) the constructor
      raises ``ValueError``: the caller runs that loop itself, in its
      own process (``fleet.run`` does).
    * **Failure.** A worker that raises ships its traceback back and
      the coordinator raises :class:`ResidentWorkerError`; a worker
      that *dies* (kill, OOM) is detected by the reply poll loop and
      surfaced the same way instead of hanging the run. The failed
      round closes the pool, so no later call reads its stale replies.

    One record, :meth:`runtime_stats`, holds the accounting: IPC bytes
    and coordinator wall by phase (``step`` per call), and per-worker
    handler walls and queue wait — which is what lets callers *prove*
    residency: step traffic stays flat while resident state grows.
    """

    def __init__(self, worker_fn: Callable[[Any, Any], Any],
                 states: Sequence[Any], jobs: Optional[int] = None) -> None:
        states = list(states)
        self.jobs = resolve_jobs(jobs, len(states))
        if self.jobs < 2:
            raise ValueError(
                f"ResidentPool needs two or more effective workers, got "
                f"{self.jobs} (jobs={jobs}, {len(states)} slots, in a pool "
                f"worker: {_IN_WORKER}); run the loop in this process")
        self._workers: List[dict] = []
        self._closed = False
        self._stats = {
            "jobs": self.jobs,
            "phase_wall_s": {"init": 0.0, "step": [], "collect": 0.0},
            "workers": [{"steps": 0, "init_wall_s": 0.0, "step_wall_s": 0.0,
                         "collect_wall_s": 0.0, "recv_wait_s": 0.0}
                        for _ in range(self.jobs)],
            "ipc": {"init_bytes": 0, "step_bytes": [], "collect_bytes": 0},
        }
        # Contiguous ascending slot slices, sizes differing by at most
        # one — the partition() shape, so reply concatenation walks the
        # slot space in order.
        base, extra = divmod(len(states), self.jobs)
        bounds = [w * base + min(w, extra) for w in range(self.jobs + 1)]
        for w in range(self.jobs):
            parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
            process = multiprocessing.Process(
                target=_resident_worker_main,
                args=(child_conn, worker_fn),
                name=f"resident-worker-{w}", daemon=True)
            process.start()
            child_conn.close()
            self._workers.append({"process": process, "conn": parent_conn,
                                  "slots": range(bounds[w], bounds[w + 1])})
        # The states cross once; the pool keeps no copy of its own.
        self._round("init", [("init", [(slot, states[slot])
                                       for slot in worker["slots"]])
                             for worker in self._workers])

    # -- transport ----------------------------------------------------------

    def _send(self, worker: dict, message) -> int:
        blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            worker["conn"].send_bytes(blob)
        except (BrokenPipeError, OSError):
            raise self._death(worker) from None
        return len(blob)

    def _recv(self, worker: dict):
        """One reply, with liveness polling — a dead worker raises a
        :class:`ResidentWorkerError` naming it instead of blocking on a
        pipe that will never be written."""
        conn = worker["conn"]
        while not conn.poll(0.05):
            if not worker["process"].is_alive():
                raise self._death(worker)
        try:
            blob = conn.recv_bytes()
        except EOFError:
            raise self._death(worker) from None
        status, value, meta = pickle.loads(blob)
        if status == "error":
            raise ResidentWorkerError(
                f"resident worker {worker['process'].name} "
                f"(slots {worker['slots'][0]}..{worker['slots'][-1]}) "
                f"raised:\n{value}")
        return value, len(blob), meta

    def _death(self, worker: dict) -> ResidentWorkerError:
        process = worker["process"]
        process.join(timeout=1.0)   # reap it, so the exit code is known
        return ResidentWorkerError(
            f"resident worker {process.name} "
            f"(slots {worker['slots'][0]}..{worker['slots'][-1]}) died "
            f"with exit code {process.exitcode}; its resident state is "
            f"lost, but it is a pure function of the initial states and "
            f"step payloads (the fleet's seed and epoch history): rerun")

    # -- the actor protocol --------------------------------------------------

    def _round(self, phase: str, messages: Sequence[Any]) -> List[Any]:
        """Send ``messages[w]`` to worker ``w``; returns the reply values
        merged in worker (= ascending slot) order and folds the round's
        bytes and walls into the record. A round that raises closes the
        pool: replies it did not read would answer the next round."""
        if self._closed:
            raise ResidentWorkerError("pool is closed")
        started = perf_counter()
        values: List[Any] = []
        try:
            nbytes = sum(self._send(worker, message)
                         for worker, message in zip(self._workers, messages))
            for worker, runtime in zip(self._workers,
                                       self._stats["workers"]):
                replies, size, meta = self._recv(worker)
                values.extend(replies or ())
                nbytes += size
                runtime[f"{phase}_wall_s"] += meta["wall_s"]
                runtime["recv_wait_s"] = meta["recv_wait_s"]
                runtime["steps"] += phase == "step"
        except BaseException:
            self.close()
            raise
        wall = perf_counter() - started
        ipc, walls = self._stats["ipc"], self._stats["phase_wall_s"]
        if phase == "step":
            ipc["step_bytes"].append(nbytes)
            walls["step"].append(wall)
        else:
            ipc[f"{phase}_bytes"] = nbytes
            walls[phase] = wall
        return values

    def step(self, payload) -> List[Any]:
        """Broadcast ``payload``; returns per-slot reports in slot order."""
        return self._round("step", [("step", payload)] * self.jobs)

    def collect(self, fn: Callable[[Any], Any]) -> List[Any]:
        """Apply ``fn(state)`` to every slot in the worker that holds it;
        returns the per-slot results in slot order. ``fn`` is a
        top-level picklable callable; only its results cross the process
        boundary, so a caller that wants a state back passes an identity
        function and pays for its pickle."""
        return self._round("collect", [("collect", fn)] * self.jobs)

    def close(self) -> None:
        """Stop the workers; idempotent, safe after a worker death."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker["conn"].send_bytes(pickle.dumps(("stop",)))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker["process"].join(timeout=5.0)
            if worker["process"].is_alive():
                worker["process"].terminate()
                worker["process"].join(timeout=1.0)
            worker["conn"].close()

    def runtime_stats(self) -> dict:
        """A copy of the pool's one accounting record, plus each worker's
        liveness: coordinator-side phase walls, per-worker handler walls,
        steps and queue waits, and the IPC bytes by phase — the "wall
        clock vs --jobs" artifact. Safe to call after :meth:`close`."""
        stats = copy.deepcopy(self._stats)
        for runtime, worker in zip(stats["workers"], self._workers):
            runtime["alive"] = worker["process"].is_alive()
        return stats

    def __enter__(self) -> "ResidentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
