"""The measurement primitives the tracked benches share.

``calibration_loop`` is the fixed pure-python loop wall clocks are
normalized by, so a gate recorded on one machine transfers to another;
``_ops_per_sec`` times a callable until it has run long enough to
trust. The macro and fleet telemetry-overhead gates and ``perfbench``
import both from here.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable


def _ops_per_sec(fn: Callable[[], object], ops_per_call: int,
                 target_seconds: float) -> float:
    fn()                              # warmup / lazy-build outside the clock
    calls = 1
    while True:
        start = perf_counter()
        for _ in range(calls):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= target_seconds:
            return calls * ops_per_call / elapsed
        calls *= 2


def calibration_loop() -> int:
    """A fixed pure-python loop used to normalize ops/sec across machines."""
    acc = 0
    for i in range(10_000):
        acc = (acc + i * i) & 0xFFFFFF
    return acc
