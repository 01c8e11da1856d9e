"""The fixed pure-python loop ``perfbench`` normalizes wall clocks by
(its ``config.calibration_ops_per_s``), so runs on different machines
can be read side by side."""


def calibration_loop() -> int:
    """A fixed pure-python loop used to normalize ops/sec across machines."""
    acc = 0
    for i in range(10_000):
        acc = (acc + i * i) & 0xFFFFFF
    return acc
