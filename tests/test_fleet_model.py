"""Tests for the fleet-scale demand model (repro.workloads.fleet)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.metrics import percentile
from repro.sim import SeededRng
from repro.workloads.fleet import (
    FleetModel, HotspotKind, QuantileDistribution, cpu_utilization_dist,
    memory_utilization_dist, usage_dist,
)


# -- QuantileDistribution --------------------------------------------------------

def test_quantile_hits_anchors_exactly():
    dist = QuantileDistribution([(0.0, 1.0), (0.5, 10.0), (1.0, 100.0)])
    assert dist.quantile(0.0) == 1.0
    assert dist.quantile(0.5) == pytest.approx(10.0)
    assert dist.quantile(1.0) == pytest.approx(100.0)


def test_quantile_log_interpolates_between_anchors():
    dist = QuantileDistribution([(0.0, 1.0), (1.0, 100.0)])
    assert dist.quantile(0.5) == pytest.approx(10.0)  # geometric midpoint


def test_quantile_validation():
    with pytest.raises(ConfigError):
        QuantileDistribution([(0.1, 1.0), (1.0, 2.0)])      # no q=0
    with pytest.raises(ConfigError):
        QuantileDistribution([(0.0, 2.0), (1.0, 1.0)])      # decreasing
    with pytest.raises(ConfigError):
        QuantileDistribution([(0.0, 0.0), (1.0, 1.0)])      # zero value
    dist = QuantileDistribution([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ConfigError):
        dist.quantile(1.5)


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_samples_within_anchor_range(seed):
    dist = cpu_utilization_dist()
    rng = SeededRng(seed, "q")
    for _ in range(50):
        x = dist.sample(rng)
        assert 0.002 <= x <= 0.98


# -- calibration against the paper's numbers (Fig 4 / Table 1) ----------------------

def test_cpu_distribution_matches_fig4a():
    rng = SeededRng(1, "cal")
    dist = cpu_utilization_dist()
    samples = [dist.sample(rng) for _ in range(200_000)]
    assert percentile(samples, 90) == pytest.approx(0.15, rel=0.1)
    assert percentile(samples, 99) == pytest.approx(0.41, rel=0.1)
    assert percentile(samples, 99.9) == pytest.approx(0.68, rel=0.15)
    mean = sum(samples) / len(samples)
    assert 0.03 < mean < 0.08  # "about 5%"


def test_memory_distribution_matches_fig4b():
    rng = SeededRng(1, "cal")
    dist = memory_utilization_dist()
    samples = [dist.sample(rng) for _ in range(200_000)]
    assert percentile(samples, 90) == pytest.approx(0.15, rel=0.1)
    assert percentile(samples, 99) == pytest.approx(0.34, rel=0.1)
    assert percentile(samples, 99.9) == pytest.approx(0.93, rel=0.15)


def test_usage_distribution_matches_table1():
    rng = SeededRng(1, "cal")
    dist = usage_dist("cps")
    samples = [dist.sample(rng) for _ in range(200_000)]
    assert percentile(samples, 50) == pytest.approx(0.0053, rel=0.15)
    assert percentile(samples, 99) == pytest.approx(0.0641, rel=0.15)
    assert percentile(samples, 99.9) == pytest.approx(0.1838, rel=0.2)


def test_usage_dist_rejects_unknown_metric():
    with pytest.raises(ConfigError):
        usage_dist("bandwidth")


# -- vectorized sampling: RNG stream identity (ISSUE 7 satellite) ----------------

def test_sample_n_matches_repeated_sample_exactly():
    # One uniform per draw, in order: a fresh stream consumed by
    # sample_n must yield exactly what repeated sample() calls did.
    dist = usage_dist("flows")
    vectorized = dist.sample_n(SeededRng(9, "v"), 500)
    rng = SeededRng(9, "v")
    assert vectorized == [dist.sample(rng) for _ in range(500)]


def test_sample_demands_stream_unchanged_by_vectorization():
    # Reference implementation: the historical per-sample draw order —
    # one uniform per (vSwitch, metric), interleaved cps/flows/vnics.
    model = FleetModel(n_vswitches=300, rng=SeededRng(5))
    rng = SeededRng(5).child("demand")
    expected = []
    for _ in range(300):
        expected.append((model.usage[HotspotKind.CPS].quantile(rng.random()),
                         model.usage[HotspotKind.FLOWS].quantile(rng.random()),
                         model.usage[HotspotKind.VNICS].quantile(rng.random())))
    demands = model.sample_demands()
    assert [(d.cps, d.flows, d.vnics) for d in demands] == expected


def test_sample_usage_stream_unchanged_by_vectorization():
    model = FleetModel(n_vswitches=200, rng=SeededRng(6))
    rng = SeededRng(6).child("usage-cps")
    expected = [model.usage[HotspotKind.CPS].sample(rng) for _ in range(200)]
    assert model.sample_usage(HotspotKind.CPS) == expected


# -- memoized usage_dist + column inversion (ISSUE 8 satellites) ----------------

def test_usage_dist_returns_the_memoized_instance():
    # Module-level memoization: every caller shares one distribution per
    # metric (the anchors are immutable), so per-epoch usage_dist calls
    # stop re-validating and re-building anchor tables.
    assert usage_dist("cps") is usage_dist("cps")
    assert usage_dist("flows") is usage_dist("flows")
    assert usage_dist("cps") is not usage_dist("flows")


def test_usage_dist_memoization_preserves_output_streams():
    # RNG/output identity: the memoized instance must sample exactly
    # what a freshly built QuantileDistribution over the same anchors
    # did before memoization existed.
    from repro.workloads.fleet import _USAGE_ANCHORS
    for metric in ("cps", "flows", "vnics"):
        fresh = QuantileDistribution(_USAGE_ANCHORS[metric])
        memoized = usage_dist(metric)
        rng_a = SeededRng(11, metric)
        rng_b = SeededRng(11, metric)
        assert [memoized.sample(rng_a) for _ in range(300)] \
            == [fresh.sample(rng_b) for _ in range(300)]


def test_invert_n_matches_scalar_invert_exactly():
    # The fleet's vectorized cold tail inverts whole uniform columns at
    # once; every element must be bit-identical to the scalar _invert.
    rng = SeededRng(13, "inv")
    qs = [rng.random() for _ in range(500)] + [0.0, 1.0]
    for metric in ("cps", "flows", "vnics"):
        dist = usage_dist(metric)
        assert dist.invert_n(qs) == [dist._invert(q) for q in qs]
    assert usage_dist("cps").invert_n([]) == []


# -- hotspot classification (Fig 3) ------------------------------------------------------

def test_hotspot_distribution_matches_fig3():
    model = FleetModel(n_vswitches=200_000, rng=SeededRng(3))
    shares = model.hotspot_distribution()
    assert shares[HotspotKind.CPS] == pytest.approx(0.61, abs=0.08)
    assert shares[HotspotKind.FLOWS] == pytest.approx(0.30, abs=0.08)
    assert shares[HotspotKind.VNICS] == pytest.approx(0.09, abs=0.05)


def test_hotspots_are_rare():
    model = FleetModel(n_vswitches=50_000, rng=SeededRng(4))
    demands = model.sample_demands()
    hot = sum(1 for d in demands if d.hotspots(model.capacity))
    # Overloads are a tail phenomenon: well under 2% of vSwitches.
    assert 0 < hot < 0.02 * len(demands)


# -- daily overloads (Fig 13) ----------------------------------------------------------------

def test_daily_overloads_mitigation():
    model = FleetModel(n_vswitches=20_000, rng=SeededRng(5))
    # Activation sampler: always fast (0.5s) -> everything mitigated.
    events = model.simulate_daily_overloads(
        days=5, activation_sampler=lambda rng: 0.5)
    summary = FleetModel.overload_summary(events)
    for kind in HotspotKind:
        before, residual = summary[kind]
        assert residual == 0
    assert summary[HotspotKind.CPS][0] > 0


def test_daily_overloads_residual_when_slow():
    model = FleetModel(n_vswitches=20_000, rng=SeededRng(6))
    # Activation occasionally exceeds the survivable window.
    def sampler(rng):
        return 5.0 if rng.random() < 0.1 else 1.0
    events = model.simulate_daily_overloads(days=5,
                                            activation_sampler=sampler)
    summary = FleetModel.overload_summary(events)
    before, residual = summary[HotspotKind.CPS]
    assert 0 < residual < before * 0.2
    # vNIC overloads never depend on activation time (§6.3.3).
    assert summary[HotspotKind.VNICS][1] == 0


# -- migration model (Fig A1) -------------------------------------------------------------------

def test_migration_downtime_grows_with_resources():
    small = FleetModel.migration_downtime(vcpus=4, memory_gb=16)
    large = FleetModel.migration_downtime(vcpus=128, memory_gb=1024)
    assert large > small * 10


def test_migration_1tb_takes_tens_of_minutes():
    total = FleetModel.migration_completion_time(memory_gb=1024)
    assert 600 < total < 3600  # tens of minutes (§7.2)


def test_migration_deterministic_without_rng():
    a = FleetModel.migration_downtime(8, 64)
    b = FleetModel.migration_downtime(8, 64)
    assert a == b
