"""Seeded-random fault generation.

:class:`FaultFuzzer` draws Poisson arrivals per fault kind from disjoint
:class:`SeededRng` children, so the generated :class:`FaultPlan` is a pure
function of ``(seed, rates, horizon, targets)`` — rerunning a failed soak
with the same seed replays the identical schedule.

Every kind with a positive rate is guaranteed at least one event inside
the horizon (``min_per_kind``): "200 faults across all fault kinds" must
not silently degenerate to 200 link flaps because the controller-kill
stream drew a long first gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.rng import SeededRng
from repro.faults.events import RPC_MODES, FaultEvent, FaultKind
from repro.faults.plan import FaultPlan


@dataclass
class FuzzRates:
    """Mean events per virtual second, per fault kind (0 disables)."""

    crash: float = 1.0
    link_flap: float = 1.2
    partition: float = 0.25
    rpc_storm: float = 1.5
    learner_drop: float = 1.0
    kill_controller: float = 0.3


@dataclass
class FuzzDurations:
    """Uniform ``(lo, hi)`` outage lengths per fault kind, seconds."""

    crash: Tuple[float, float] = (0.3, 1.0)
    link_flap: Tuple[float, float] = (0.1, 0.5)
    partition: Tuple[float, float] = (0.3, 0.8)
    rpc_storm: Tuple[float, float] = (0.2, 0.5)
    learner_drop: Tuple[float, float] = (0.2, 0.6)
    kill_controller: Tuple[float, float] = (0.2, 0.6)


class FaultFuzzer:
    """Generates deterministic random fault plans for one environment."""

    def __init__(self, rng: SeededRng,
                 vswitch_names: Sequence[str],
                 server_names: Sequence[str],
                 rates: Optional[FuzzRates] = None,
                 durations: Optional[FuzzDurations] = None) -> None:
        if not vswitch_names:
            raise ConfigError("fuzzer needs at least one vSwitch target")
        self.rng = rng
        self.vswitch_names = list(vswitch_names)
        self.server_names = list(server_names) or list(vswitch_names)
        self.rates = rates or FuzzRates()
        self.durations = durations or FuzzDurations()

    # Each stream gets its own child RNG: adding/removing one kind never
    # perturbs the arrival times of the others.
    def _stream(self, label: str) -> SeededRng:
        return self.rng.child(f"fuzz-{label}")

    def _arrivals(self, rng: SeededRng, rate: float, start: float,
                  end: float, min_events: int) -> List[float]:
        times: List[float] = []
        if rate > 0:
            t = start + rng.expovariate(rate)
            while t < end:
                times.append(t)
                t += rng.expovariate(rate)
            while len(times) < min_events:
                times.append(rng.uniform(start, end))
        return sorted(times)

    def generate(self, horizon: float, start: float = 0.0,
                 min_per_kind: int = 1) -> FaultPlan:
        """A fault plan covering ``[start, start + horizon)``."""
        if horizon <= 0:
            raise ConfigError("fuzz horizon must be positive")
        end = start + horizon
        plan = FaultPlan()
        dur = self.durations

        rng = self._stream("crash")
        for at in self._arrivals(rng, self.rates.crash, start, end,
                                 min_per_kind):
            plan.add(FaultEvent(at, FaultKind.CRASH_VSWITCH,
                                target=rng.choice(self.vswitch_names),
                                duration=rng.uniform(*dur.crash)))

        rng = self._stream("flap")
        for at in self._arrivals(rng, self.rates.link_flap, start, end,
                                 min_per_kind):
            plan.add(FaultEvent(at, FaultKind.LINK_FLAP,
                                target=rng.choice(self.server_names),
                                duration=rng.uniform(*dur.link_flap)))

        rng = self._stream("partition")
        for at in self._arrivals(rng, self.rates.partition, start, end,
                                 min_per_kind):
            plan.add(FaultEvent(at, FaultKind.PARTITION_MONITOR,
                                duration=rng.uniform(*dur.partition)))

        rng = self._stream("rpc")
        for at in self._arrivals(rng, self.rates.rpc_storm, start, end,
                                 min_per_kind):
            plan.add(FaultEvent(at, FaultKind.RPC_STORM,
                                mode=rng.choice(RPC_MODES),
                                duration=rng.uniform(*dur.rpc_storm)))

        rng = self._stream("learner")
        for at in self._arrivals(rng, self.rates.learner_drop, start, end,
                                 min_per_kind):
            plan.add(FaultEvent(at, FaultKind.LEARNER_DROP,
                                duration=rng.uniform(*dur.learner_drop)))

        rng = self._stream("kill")
        for at in self._arrivals(rng, self.rates.kill_controller, start, end,
                                 min_per_kind):
            plan.add(FaultEvent(at, FaultKind.KILL_CONTROLLER,
                                duration=rng.uniform(*dur.kill_controller)))

        return plan
