"""Deterministic random-number helpers.

Every stochastic component takes a :class:`SeededRng` (or a child of one) so
whole experiments replay bit-for-bit from a single seed. Children are derived
by hashing the parent seed with a label, which keeps streams independent even
when components are created in different orders.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A labelled, reproducible random stream wrapping :mod:`random`."""

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = int(seed)
        self.label = label
        self._random = random.Random(self._mix(seed, label))

    @staticmethod
    def _mix(seed: int, label: str) -> int:
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def child(self, label: str) -> "SeededRng":
        """Derive an independent stream for a sub-component."""
        return SeededRng(self.seed, f"{self.label}/{label}")

    # -- basic draws ----------------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        return self._random.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._random.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit seed for a labelled sub-computation.

    Sweep points that replicate an experiment (different VMs, different
    load levels, different worker processes) must draw from streams that
    are independent of each other *and* of the root ``seed`` — naive
    schemes like ``seed + index`` alias across points (seed 0 / point 1
    collides with seed 1 / point 0). This uses the same SHA-256 mixing
    as :class:`SeededRng` stream derivation, so a derived seed is a
    plain ``int`` that can cross a process boundary and rebuild the
    exact same stream in a pool worker.
    """
    return SeededRng._mix(seed, label)
