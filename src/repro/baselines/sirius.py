"""A Sirius-style remote pool model (Bansal et al., NSDI'23), for the
ablation comparing stateful-pool designs against Nezha's stateless FEs.

Two properties the paper calls out are modeled:

* **In-line state replication**: packets that change state ping-pong
  between a primary and a secondary card, so "the NF capacity halves" —
  a new connection consumes processing on *both* cards of a pair.
* **Bucket-based load balancing**: flows hash into a fixed number of
  buckets assigned to cards; moving load reassigns buckets, and existing
  long-lived flows in a moved bucket need *state transfer* to the new
  card. Nezha needs none of this (FEs hold no state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.net.five_tuple import FiveTuple
from repro.sim.rng import SeededRng


@dataclass
class SiriusPool:
    """Analytic capacity model of a primary/backup DPU pool."""

    n_cards: int = 4
    card_cps_capacity: float = 100_000.0
    replication_factor: int = 2   # primary + secondary hold every state

    def __post_init__(self) -> None:
        if self.n_cards < 2:
            raise ConfigError("a primary/backup pool needs >= 2 cards")
        if self.n_cards % 2:
            raise ConfigError("cards pair up: n_cards must be even")

    def cps_capacity(self) -> float:
        """New connections ping-pong between the pair members: the pool's
        CPS is half the summed card capacity (§2.3.3)."""
        return self.n_cards * self.card_cps_capacity / self.replication_factor

    def nezha_equivalent_cps(self) -> float:
        """What the same cards would deliver as stateless Nezha FEs."""
        return self.n_cards * self.card_cps_capacity


class BucketMigration:
    """Bucket-based load balancing with state transfer accounting."""

    def __init__(self, n_buckets: int = 64, n_cards: int = 4,
                 rng: Optional[SeededRng] = None) -> None:
        if n_buckets < n_cards:
            raise ConfigError("need at least one bucket per card")
        self.n_buckets = n_buckets
        self.n_cards = n_cards
        self.rng = rng or SeededRng(0, "sirius-buckets")
        # bucket -> card, initially round-robin.
        self.assignment: Dict[int, int] = {
            b: b % n_cards for b in range(n_buckets)}
        # bucket -> live long-lived flow count (short flows drain on their
        # own; only long-lived flows require transfer, §8).
        self.long_lived: Dict[int, int] = {b: 0 for b in range(n_buckets)}
        self.states_transferred = 0
        self.buckets_moved = 0

    def bucket_of(self, ft: FiveTuple) -> int:
        return ft.hash() % self.n_buckets

    def add_long_lived_flow(self, ft: FiveTuple) -> int:
        bucket = self.bucket_of(ft)
        self.long_lived[bucket] += 1
        return self.assignment[bucket]

    def add_card(self) -> Tuple[int, int]:
        """Scale out: a new card receives ~1/n of the buckets; their
        long-lived flows all need state transfer."""
        self.n_cards += 1
        new_card = self.n_cards - 1
        to_move = self.n_buckets // self.n_cards
        moved = transferred = 0
        by_load = sorted(self.assignment,
                         key=lambda b: -self.long_lived[b])
        for bucket in by_load[:to_move]:
            self.assignment[bucket] = new_card
            moved += 1
            transferred += self.long_lived[bucket]
        self.buckets_moved += moved
        self.states_transferred += transferred
        return moved, transferred
