"""Tests for the Sirius-style baseline model."""

import pytest

from repro.errors import ConfigError
from repro.net import FiveTuple, IPv4Address
from repro.baselines import BucketMigration, SiriusPool


def ft(i):
    return FiveTuple(IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                     6, 1000 + i, 80)


# -- SiriusPool -----------------------------------------------------------------

def test_sirius_cps_halved_by_inline_replication():
    pool = SiriusPool(n_cards=4, card_cps_capacity=100_000)
    assert pool.cps_capacity() == pytest.approx(200_000)
    assert pool.nezha_equivalent_cps() == pytest.approx(400_000)
    assert pool.nezha_equivalent_cps() == 2 * pool.cps_capacity()


def test_sirius_validation():
    with pytest.raises(ConfigError):
        SiriusPool(n_cards=1)
    with pytest.raises(ConfigError):
        SiriusPool(n_cards=3)


# -- BucketMigration ------------------------------------------------------------------

def test_buckets_assign_round_robin_initially():
    mig = BucketMigration(n_buckets=8, n_cards=4)
    assert sorted(mig.assignment.values()) == [0, 0, 1, 1, 2, 2, 3, 3]
    cards = {mig.assignment[mig.bucket_of(ft(i))] for i in range(100)}
    assert cards == {0, 1, 2, 3}


def test_bucket_validation():
    with pytest.raises(ConfigError):
        BucketMigration(n_buckets=2, n_cards=4)


def test_add_card_moves_buckets_with_their_state():
    mig = BucketMigration(n_buckets=12, n_cards=3)
    for i in range(300):
        mig.add_long_lived_flow(ft(i))
    moved, transferred = mig.add_card()
    assert mig.n_cards == 4
    assert moved == 3          # 12 buckets / 4 cards
    assert transferred > 0
    assert 3 in mig.assignment.values()


def test_nezha_contrast_no_state_transfer():
    """The number Nezha avoids: its FEs are stateless, so scale-out
    transfers exactly zero states — compare BucketMigration.add_card."""
    mig = BucketMigration(n_buckets=64, n_cards=4)
    for i in range(1000):
        mig.add_long_lived_flow(ft(i))
    _moved, transferred = mig.add_card()
    assert transferred > 100   # Sirius: significant transfer
    # Nezha equivalent: cache misses only, no state movement (by design —
    # FEs store no state at all; asserted structurally elsewhere).
