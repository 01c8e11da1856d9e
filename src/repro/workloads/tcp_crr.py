"""TCP_CRR-style connect/request/response workload generator.

Open-loop: transactions start at exponential inter-arrival times around a
target rate regardless of completions — exactly how netperf TCP_CRR
saturates a vSwitch's connection setup path. The achieved completion rate
is the measured CPS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.host.guest_tcp import GuestTcp
from repro.net.addr import IPv4Address
from repro.sim.engine import Engine
from repro.sim.rng import SeededRng


@dataclass
class CrrResult:
    offered: int = 0
    completed: int = 0
    failed: int = 0
    duration: float = 0.0
    latencies: List[float] = field(default_factory=list)


class CrrLoadGenerator:
    """Drives one GuestTcp client at a target transaction-open rate."""

    def __init__(self, engine: Engine, client: GuestTcp,
                 dst_ip: IPv4Address, dst_port: int,
                 rate_cps: float, rng: Optional[SeededRng] = None,
                 max_latency_samples: int = 10000) -> None:
        self.engine = engine
        self.client = client
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.rate_cps = rate_cps
        self.rng = rng or SeededRng(0, "crr")
        self.max_latency_samples = max_latency_samples
        self.result = CrrResult()
        self._stop_at: Optional[float] = None

    def run(self, duration: float) -> "CrrLoadGenerator":
        """Start the open-loop generator for ``duration`` seconds."""
        self._stop_at = self.engine.now + duration
        self.result.duration = duration
        self.engine.process(self._loop(), name="crr-gen")
        return self

    def _loop(self):
        while self.engine.now < self._stop_at:
            self._open_one()
            gap = self.rng.expovariate(self.rate_cps)
            yield self.engine.timeout(gap)

    def _open_one(self) -> None:
        self.result.offered += 1
        self.client.open(self.dst_ip, self.dst_port,
                         on_done=self._on_done, on_fail=self._on_fail)

    def _on_done(self, conn) -> None:
        self.result.completed += 1
        if len(self.result.latencies) < self.max_latency_samples:
            self.result.latencies.append(conn.latency)

    def _on_fail(self, _conn) -> None:
        self.result.failed += 1


class ClosedLoopCrr:
    """netperf-style closed loop: ``concurrency`` transaction slots, each
    immediately reopening on completion or failure. Throughput saturates
    at whatever the slowest stage admits — the measured CPS."""

    def __init__(self, engine: Engine, client: GuestTcp,
                 dst_ip: IPv4Address, dst_port: int,
                 concurrency: int = 64) -> None:
        self.engine = engine
        self.client = client
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.concurrency = concurrency
        self.completed = 0
        self.failed = 0
        self._running = False

    def start(self) -> "ClosedLoopCrr":
        self._running = True
        for _ in range(self.concurrency):
            self._spawn()
        return self

    def stop(self) -> None:
        self._running = False

    def _spawn(self) -> None:
        if not self._running:
            return
        self.client.open(self.dst_ip, self.dst_port,
                         on_done=self._on_done, on_fail=self._on_fail)

    def _on_done(self, _conn) -> None:
        self.completed += 1
        self._spawn()

    def _on_fail(self, _conn) -> None:
        self.failed += 1
        self._spawn()


def measure_cps(engine: Engine, loops: List["ClosedLoopCrr"],
                warmup: float, duration: float) -> float:
    """Run warmup, then measure aggregate completions/second."""
    engine.run(until=engine.now + warmup)
    start = sum(loop.completed for loop in loops)
    engine.run(until=engine.now + duration)
    return (sum(loop.completed for loop in loops) - start) / duration
