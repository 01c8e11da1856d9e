"""Unit tests for simulated resources (repro.sim.resources)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResourceExhausted, SimulationError
from repro.sim import CpuResource, Engine, FifoQueue, MemoryBudget, Timeout


# -- CpuResource --------------------------------------------------------------

def test_cpu_service_time():
    cpu = CpuResource(Engine(), cores=1, hz=1_000_000)
    assert cpu.service_time(1_000_000) == pytest.approx(1.0)
    assert cpu.service_time(500) == pytest.approx(0.0005)


def test_cpu_single_core_serializes_jobs():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0)
    completions = []

    def submit_two():
        first = cpu.submit(100)   # 1s of work
        second = cpu.submit(100)  # queued behind the first
        yield first
        completions.append(engine.now)
        yield second
        completions.append(engine.now)

    engine.process(submit_two())
    engine.run()
    assert completions == [pytest.approx(1.0), pytest.approx(2.0)]


def test_cpu_multi_core_parallelism():
    engine = Engine()
    cpu = CpuResource(engine, cores=2, hz=100.0)
    completions = []

    def submit_two():
        a = cpu.submit(100)
        b = cpu.submit(100)
        yield a
        completions.append(engine.now)
        yield b
        completions.append(engine.now)

    engine.process(submit_two())
    engine.run()
    # Two cores: both jobs finish at t=1.0.
    assert completions == [pytest.approx(1.0), pytest.approx(1.0)]


def test_cpu_utilization_tracks_busy_fraction():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0, util_window=1.0)

    def load():
        yield cpu.submit(50)  # 0.5s of work on a 1s window
        yield Timeout(0.5)

    engine.process(load())
    engine.run()
    assert engine.now == pytest.approx(1.0)
    assert cpu.utilization() == pytest.approx(0.5, abs=0.01)


def test_cpu_utilization_idle_is_zero():
    engine = Engine()
    cpu = CpuResource(engine, cores=4, hz=100.0)
    engine.call_at(10.0, lambda: None)
    engine.run()
    assert cpu.utilization() == 0.0


def test_cpu_busy_intervals_are_pruned_without_polling():
    """Nobody polls ``utilization()`` on most CPUs (``Vm.cpu``, the
    kernel lock, a CRR vSwitch): admission itself must keep ``_busy`` to
    about one window of jobs, not one tuple per job for the whole run."""
    engine = Engine()
    cpu = CpuResource(engine, cores=2, hz=1000.0, util_window=1.0)
    per_window, windows = 100, 100
    high_water = 0

    def submit():
        nonlocal high_water
        assert cpu.try_submit_call(1.0, 10.0, lambda: None)
        high_water = max(high_water, len(cpu._busy))

    for job in range(per_window * windows):
        engine.call_at(job / per_window, submit)
    engine.run()
    assert cpu.jobs_done == per_window * windows
    assert high_water <= per_window + 2


def test_cpu_utilization_equals_longhand_sum_on_out_of_order_ends():
    """Pruning at admission is exact: on a multi-core schedule whose
    intervals end out of booking order, ``utilization()`` still equals
    the longhand overlap sum over *every* job ever booked."""
    engine = Engine()
    cpu = CpuResource(engine, cores=3, hz=100.0, util_window=2.0)
    booked = []

    def submit(cycles):
        now = engine.now
        start = max(now, min(cpu._free_at))
        cpu.try_book(cycles, 100.0)
        booked.append((start, start + cycles / 100.0))

    def check():
        now, lo = engine.now, engine.now - 2.0
        busy = sum(max(0.0, min(end, now) - max(start, lo))
                   for start, end in booked)
        assert cpu.utilization() == pytest.approx(min(1.0, busy / 6.0))
        assert busy > 0.0

    # Long and short jobs interleaved: core 0's 300-cycle job outlives
    # the short ones booked after it on cores 1 and 2.
    for tick, cycles in enumerate([300, 20, 50, 10, 250, 5, 40, 120, 15,
                                   90, 30, 200, 10, 60, 25, 180, 35]):
        engine.call_at(tick * 0.4, submit, cycles)
        engine.call_at(tick * 0.4 + 0.3, check)
    engine.run()
    assert len(cpu._busy) < len(booked)       # something was pruned


def test_cpu_try_submit_rejects_over_backlog():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0)
    cpu.submit(1000)  # 10s backlog
    assert cpu.try_submit(10, max_backlog=1.0) is None
    assert cpu.jobs_rejected == 1
    # With generous limit it is accepted.
    assert cpu.try_submit(10, max_backlog=100.0) is not None


def test_cpu_backlog_reports_queued_seconds():
    engine = Engine()
    cpu = CpuResource(engine, cores=1, hz=100.0)
    cpu.submit(200)  # 2s
    assert cpu.backlog() == pytest.approx(2.0)


def test_cpu_validates_configuration():
    with pytest.raises(SimulationError):
        CpuResource(Engine(), cores=0, hz=100.0)
    with pytest.raises(SimulationError):
        CpuResource(Engine(), cores=1, hz=0.0)


class _ReferenceCpu:
    """The drop-tail least-loaded-core model, written out longhand."""

    def __init__(self, cores, hz):
        self.hz, self.free_at, self.busy = hz, [0.0] * cores, []
        self.jobs_done = self.jobs_rejected = 0
        self.total_cycles = 0.0

    def admit(self, now, cycles, max_backlog):
        core = min(range(len(self.free_at)), key=self.free_at.__getitem__)
        if (max_backlog is not None
                and self.free_at[core] - now > max_backlog):
            self.jobs_rejected += 1
            return None
        start = max(now, self.free_at[core])
        self.free_at[core] = end = start + cycles / self.hz
        self.busy.append((start, end))
        self.jobs_done += 1
        self.total_cycles += cycles
        return end


_JOBS = st.lists(
    st.tuples(st.sampled_from(["try_submit_call", "try_book", "try_submit",
                               "submit"]),
              st.integers(1, 500),                      # cycles
              st.sampled_from([0.0, 0.5, 2.0, 50.0]),    # backlog limit, s
              st.sampled_from([0.0, 0.0, 0.25, 1.0, 7.0])),  # time advance
    max_size=40)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 4]), _JOBS)
def test_cpu_admission_matches_reference_model(cores, jobs):
    engine = Engine()
    cpu = CpuResource(engine, cores=cores, hz=100.0, util_window=1e9)
    ref = _ReferenceCpu(cores, 100.0)
    expected, completed = [], []

    def done(tag):
        completed.append((tag, engine.now))

    def wait(event, tag):
        yield event
        done(tag)

    def drive():
        for tag, (method, cycles, limit, advance) in enumerate(jobs):
            if advance:
                yield engine.timeout(advance)
            end = ref.admit(engine.now, cycles,
                            None if method == "submit" else limit)
            if method == "try_submit_call":
                assert cpu.try_submit_call(cycles, limit, done, tag) \
                    is (end is not None)
            elif method == "try_book":
                assert cpu.try_book(cycles, limit) == end
                if end is not None:
                    engine.call_at(end, done, tag)
            else:
                event = (cpu.submit(cycles) if method == "submit"
                         else cpu.try_submit(cycles, limit))
                assert (event is None) is (end is None)
                if event is not None:
                    engine.process(wait(event, tag))
            if end is not None:
                expected.append((tag, end))
            assert cpu._free_at == ref.free_at
            assert list(cpu._busy) == ref.busy

    engine.process(drive())
    engine.run()
    assert sorted(completed) == sorted(expected)
    assert (cpu.jobs_done, cpu.jobs_rejected, cpu.total_cycles) == (
        ref.jobs_done, ref.jobs_rejected, ref.total_cycles)


# -- MemoryBudget --------------------------------------------------------------

def test_memory_alloc_free_roundtrip():
    mem = MemoryBudget(1000)
    mem.alloc("sessions", 300)
    mem.alloc("rules", 200)
    assert mem.used == 500
    assert mem.by_tag == {"sessions": 300, "rules": 200}
    mem.free("sessions", 300)
    assert mem.used == 200
    assert "sessions" not in mem.by_tag


def test_memory_exhaustion_raises_and_counts():
    mem = MemoryBudget(100)
    mem.alloc("a", 90)
    with pytest.raises(ResourceExhausted):
        mem.alloc("b", 20)
    assert mem.failed_allocs == 1
    assert mem.used == 90  # failed alloc did not leak


def test_memory_try_alloc():
    mem = MemoryBudget(100)
    assert mem.try_alloc("a", 60)
    assert not mem.try_alloc("b", 60)
    assert mem.used == 60


def test_memory_over_free_rejected():
    mem = MemoryBudget(100)
    mem.alloc("a", 10)
    with pytest.raises(SimulationError):
        mem.free("a", 20)


def test_memory_free_all_returns_bytes():
    mem = MemoryBudget(100)
    mem.alloc("a", 30)
    mem.alloc("a", 20)
    assert mem.free_all("a") == 50
    assert mem.used == 0
    assert mem.free_all("missing") == 0


def test_memory_peak_and_utilization():
    mem = MemoryBudget(100)
    mem.alloc("a", 80)
    mem.free("a", 50)
    assert mem.peak == 80
    assert mem.utilization() == pytest.approx(0.3)
    assert mem.available() == 70


# -- FifoQueue ------------------------------------------------------------------

def test_queue_put_get_order():
    engine = Engine()
    q = FifoQueue(engine)
    got = []

    def consumer():
        for _ in range(3):
            item = yield q.get()
            got.append(item)

    engine.process(consumer())
    for i in range(3):
        q.put(i)
    engine.run()
    assert got == [0, 1, 2]


def test_queue_blocks_until_item():
    engine = Engine()
    q = FifoQueue(engine)
    got = []

    def consumer():
        item = yield q.get()
        got.append((engine.now, item))

    engine.process(consumer())
    engine.call_at(5.0, q.put, "late")
    engine.run()
    assert got == [(5.0, "late")]


def test_queue_drop_tail_when_full():
    engine = Engine()
    q = FifoQueue(engine, capacity=2)
    assert q.put(1)
    assert q.put(2)
    assert not q.put(3)
    assert q.drops == 1
    assert len(q) == 2
