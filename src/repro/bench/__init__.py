"""The calibration loop ``perfbench/`` (the repo's one perf ledger)
normalizes by."""

from repro.bench.micro import calibration_loop

__all__ = ["calibration_loop"]
